"""Plan execution on Spark: hash joins, SJoin variants with SIP, and the
GDBMS-style index-nested-loop-join executor."""
