"""Catalog: columnar tables with dense RIDs, predefined joins, RID indices.

This is the repo's stand-in for the storage layer the paper extends (§3):

- every registered table gets a dense, system-level ``_rid`` column
  (``0..N-1``) — the virtual row-ID column of a columnar RDBMS;
- ``predefine_join(F, fk, P, pk)`` is the ``PREDEFINE JOIN`` command: it
  materializes a hidden ``_rid_<P>__<fk>`` column on *F* holding the RID of
  the matching *P* row (a system-level pointer, like a GDBMS edge);
- every RID, in the driver and in Spark, is 32-bit (``int32``, Spark
  ``int``), so a table holds at most ``MAX_ROWS`` rows;
- ``build_rid_index`` builds the CSR RID index (optionally extended, §5.2).

Tables are loaded as pandas (deterministic generators), RID-materialized in
pandas (a single vectorized merge per predefinition), then ``finalize()``
caches each in Spark behind a temp view (``Table.view``, unique per catalog)
that both executors' SQL scans; the tables load concurrently, one per core.
The DuckDB oracle sees each table's registered columns only
(``Table.pdf_original``).

``scan_rids`` is the one driver-side evaluator of scan filters, for the
optimizer's true cardinalities and the executor's SIP RID sets alike; it runs
on one DuckDB connection per catalog.

``classify`` is the one place that decides how an equi-join edge relates to
the predefined joins; the rewrite, the semijoin propagation and the INLJ
executor all branch on its answer.
"""
from __future__ import annotations

import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.rid_index import RID_DTYPE, RIDIndex

RID = "_rid"
DEFAULT_ZONE_SIZE = 2048
# Every RID is ``RID_DTYPE`` (Spark ``int``), and so is every RID-index
# offset, the largest of which is a table's row count.
MAX_ROWS = int(np.iinfo(RID_DTYPE).max)
# Set to 0 while ``finalize`` loads, so ``createDataFrame`` never makes a
# ``LocalRelation`` that holds the table's rows.
_LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


def rid_col_name(p_table: str, fk_cols: tuple[str, ...]) -> str:
    """Name of the hidden materialized-RID column on F for a predefined join."""
    return f"_rid_{p_table}__{'_'.join(fk_cols)}"


@dataclass(frozen=True)
class PredefinedJoin:
    """A user-predefined FK→PK equality join from table F to table P."""

    f_table: str
    fk_cols: tuple[str, ...]
    p_table: str
    pk_cols: tuple[str, ...]

    @property
    def rid_col(self) -> str:
        return rid_col_name(self.p_table, self.fk_cols)


@dataclass(frozen=True)
class EdgeClass:
    """How an equi-join edge ``a.a_cols = b.b_cols`` uses predefined joins.

    - ``'fk'``: one side is F of a predefined join to the other (P). The join
      is ``a_pj`` when a is F, ``b_pj`` when b is F; the other is None.
    - ``'fkfk'``: both sides are FKs into the same P (e.g. ``k1.person2id =
      k2.person1id``); ``a_pj`` and ``b_pj`` are the two predefined joins.
    - ``'value'``: neither; both are None.
    """

    kind: str
    a_pj: PredefinedJoin | None = None
    b_pj: PredefinedJoin | None = None

    @property
    def f_side(self) -> str | None:
        """'a' or 'b' for an 'fk' edge: the side holding the RID pointer."""
        if self.kind != "fk":
            return None
        return "a" if self.a_pj is not None else "b"


@dataclass
class Table:
    """A registered base table: pandas source + (after finalize) the name of
    the temp view over its cached Spark copy."""

    name: str
    pdf: pd.DataFrame  # registered columns + _rid + materialized rid columns
    user_columns: list[str]  # the registered columns — what the oracle sees
    rid_cols: dict[tuple[str, ...], str] = field(default_factory=dict)
    view: str | None = None

    @property
    def n_rows(self) -> int:
        return len(self.pdf)

    @property
    def pdf_original(self) -> pd.DataFrame:
        """The table as registered (without RID columns)."""
        return self.pdf[self.user_columns]


class Catalog:
    """Registry of tables, predefined joins, and RID indices."""

    def __init__(self, spark: SparkSession, zone_size: int = DEFAULT_ZONE_SIZE):
        self.spark = spark
        self.zone_size = zone_size
        self.tables: dict[str, Table] = {}
        self.predefined: dict[tuple[str, tuple[str, ...]], PredefinedJoin] = {}
        self.indices: dict[tuple[str, tuple[str, ...]], RIDIndex] = {}
        # For extended indices, which predefined join the ext payload points to.
        self.index_ext_target: dict[tuple[str, tuple[str, ...]], PredefinedJoin] = {}
        # Planner statistics (``repro.plan.optimizer``), cached per catalog.
        self.card_cache: dict[tuple, dict[str, int]] = {}
        self.distinct_cache: dict[tuple[str, tuple[str, ...]], int] = {}
        self._con = duckdb.connect()  # serves ``scan_rids``; closed by ``unpersist``
        # Temp-view names must not collide with another catalog's in the session.
        self._view_prefix = f"cat{uuid.uuid4().hex[:12]}"
        self._finalized = False

    # ------------------------------------------------------------------ load
    def register(self, name: str, pdf: pd.DataFrame) -> Table:
        """Register a base table; assigns the dense virtual RID column."""
        if self._finalized:
            raise RuntimeError("catalog already finalized")
        if name in self.tables:
            raise ValueError(f"table {name!r} already registered")
        if RID in pdf.columns:
            raise ValueError(f"column name {RID!r} is reserved")
        if len(pdf) > MAX_ROWS:
            raise ValueError(f"table {name!r} has {len(pdf)} rows; a 32-bit RID "
                             f"addresses at most {MAX_ROWS}")
        ext = pdf.reset_index(drop=True)  # a copy: the caller's frame is untouched
        ext[RID] = np.arange(len(ext), dtype=RID_DTYPE)
        t = Table(name=name, pdf=ext, user_columns=list(pdf.columns))
        self.tables[name] = t
        # The view keeps the columns present now: the user columns and _rid,
        # all a scan filter may reference. RID columns added later stay hidden.
        self._con.register(name, ext)
        return t

    def predefine_join(
        self,
        f_table: str,
        fk_cols: list[str] | tuple[str, ...],
        p_table: str,
        pk_cols: list[str] | tuple[str, ...],
    ) -> PredefinedJoin:
        """``PREDEFINE JOIN`` — materialize P's RIDs onto F (paper §3).

        Referential integrity is checked: ``pk_cols`` must be unique and
        non-null in P, and every F row must match a P row. Otherwise it raises
        ``ValueError`` and changes nothing, so every pointer is a valid P RID.
        """
        if self._finalized:
            raise RuntimeError("catalog already finalized")
        fk_cols, pk_cols = tuple(fk_cols), tuple(pk_cols)
        if len(fk_cols) != len(pk_cols) or not fk_cols:
            raise ValueError("fk/pk column lists must be non-empty and same length")
        f, p = self.tables[f_table], self.tables[p_table]
        key = (f_table, fk_cols)
        if key in self.predefined:
            raise ValueError(f"join on {f_table}{fk_cols} already predefined")
        keys = p.pdf[list(pk_cols)]
        if keys.isna().to_numpy().any() or keys.duplicated().any():
            raise ValueError(f"{p_table}{pk_cols} holds a null or is not unique — "
                             "not a valid FK target")
        pj = PredefinedJoin(f_table, fk_cols, p_table, pk_cols)
        lookup = p.pdf[list(pk_cols) + [RID]].rename(columns={RID: pj.rid_col})
        lookup = lookup.rename(columns=dict(zip(pk_cols, fk_cols)))
        merged = f.pdf.merge(lookup, on=list(fk_cols), how="left", sort=False)
        # merge can reorder only on sorted keys; how='left' preserves F's order.
        # P's key has no null, so a null FK matches nothing here, as in SQL.
        rids = merged[pj.rid_col]
        if rids.isna().any():
            raise ValueError(f"{rids.isna().sum()} of {f.n_rows} rows of {f_table}{fk_cols} "
                             f"match no {p_table}{pk_cols} row (a dangling or null FK)")
        f.pdf[pj.rid_col] = rids.to_numpy(dtype=RID_DTYPE)
        f.rid_cols[fk_cols] = pj.rid_col
        self.predefined[key] = pj
        return pj

    def build_rid_index(
        self,
        f_table: str,
        fk_cols: list[str] | tuple[str, ...],
        extended_cols: list[str] | tuple[str, ...] | None = None,
    ) -> RIDIndex:
        """Build the CSR RID index on F keyed by the predefined join on
        ``fk_cols``; if ``extended_cols`` names a second predefined join on F,
        the index is extended with that join's RIDs (paper §5.2, Figure 2)."""
        fk_cols = tuple(fk_cols)
        pj = self.predefined.get((f_table, fk_cols))
        if pj is None:
            raise ValueError(f"no predefined join on {f_table}{fk_cols}")
        f = self.tables[f_table]
        n_p = self.tables[pj.p_table].n_rows
        ext_vals = None
        if extended_cols is not None:
            ext_pj = self.predefined.get((f_table, tuple(extended_cols)))
            if ext_pj is None:
                raise ValueError(
                    f"extended columns {extended_cols} are not a predefined join on {f_table}"
                )
            ext_vals = f.pdf[ext_pj.rid_col]
            self.index_ext_target[(f_table, fk_cols)] = ext_pj
        idx = RIDIndex.build(f.pdf[pj.rid_col], n_p, ext_vals)
        self.indices[(f_table, fk_cols)] = idx
        return idx

    def predefine_relationship(
        self,
        f_table: str,
        fk1: list[str],
        p1_table: str,
        pk1: list[str],
        fk2: list[str],
        p2_table: str,
        pk2: list[str],
    ) -> None:
        """Convenience for relationship tables: predefine both joins and build
        forward + backward extended RID indices (like fwd/bwd adjacency lists)."""
        self.predefine_join(f_table, fk1, p1_table, pk1)
        self.predefine_join(f_table, fk2, p2_table, pk2)
        self.build_rid_index(f_table, fk1, extended_cols=fk2)
        self.build_rid_index(f_table, fk2, extended_cols=fk1)

    def finalize(self) -> None:
        """Cache and materialize each table in Spark and register it as a
        temp view.

        A table under 200k rows loads in a one-task Spark job, so the tables
        load concurrently on a pool of ``defaultParallelism`` threads: one
        table per Spark core. For the loads only, the session's
        ``spark.sql.execution.arrow.localRelationThreshold`` is 0, so
        ``createDataFrame`` from pandas ships the rows as an RDD (a
        ``LogicalRDD`` in the plan) instead of a ``LocalRelation`` that holds
        them: no statement's analysis or planning over a view then grows with
        its table's rows, and two catalogs with equal data get two cache
        entries, so ``unpersist`` of one leaves the other's cached. The
        previous value is restored afterwards. Each table is coalesced to
        ~200k rows per partition before caching.

        If a load fails, the first error in table order is raised once every
        load has ended, and the catalog stays unfinalized. A view is registered
        before its data is materialized, so ``unpersist`` releases every table
        that was persisted.
        """
        if self._finalized:
            return

        def load(t: Table) -> None:
            n_parts = max(1, min(16, -(-t.n_rows // 200_000)))
            df = self.spark.createDataFrame(t.pdf).coalesce(n_parts).persist()
            t.view = f"{self._view_prefix}_{t.name}"
            df.createOrReplaceTempView(t.view)
            df.count()  # materialize so query timings exclude load

        threshold = self.spark.conf.get(_LOCAL_RELATION_THRESHOLD)
        self.spark.conf.set(_LOCAL_RELATION_THRESHOLD, "0")
        try:
            with ThreadPoolExecutor(self.spark.sparkContext.defaultParallelism) as pool:
                loads = [pool.submit(load, t) for t in self.tables.values()]
        finally:
            self.spark.conf.set(_LOCAL_RELATION_THRESHOLD, threshold)
        for f in loads:
            f.result()
        self._finalized = True

    def unpersist(self) -> None:
        """Drop the temp views, which also uncaches the data behind them, and
        close the DuckDB connection."""
        for t in self.tables.values():
            if t.view is not None:
                self.spark.catalog.dropTempView(t.view)
        self._con.close()

    # ---------------------------------------------------------------- filter
    def scan_rids(self, table: str, alias: str, filters: list[str]) -> np.ndarray:
        """RIDs (``RID_DTYPE``) of ``table``'s rows that pass all
        of ``filters``, raw ``alias.col`` predicates (a scan's pushed-down
        filters). DuckDB reads ``_rid`` as ``INTEGER`` and returns it as is."""
        if not filters:
            return np.arange(self.tables[table].n_rows, dtype=RID_DTYPE)
        where = " AND ".join(f"({f})" for f in filters)
        sql = f'SELECT "{RID}" FROM "{table}" AS {alias} WHERE {where}'
        return self._con.execute(sql).fetchnumpy()[RID]

    # ---------------------------------------------------------------- lookup
    def classify(
        self,
        a_table: str,
        a_cols: tuple[str, ...],
        b_table: str,
        b_cols: tuple[str, ...],
    ) -> EdgeClass:
        """Classify the equi-join ``a.a_cols = b.b_cols`` (see ``EdgeClass``).
        RID-index availability is left to the caller."""
        pa = self.predefined.get((a_table, tuple(a_cols)))
        pb = self.predefined.get((b_table, tuple(b_cols)))
        if pa is not None and (pa.p_table, pa.pk_cols) == (b_table, tuple(b_cols)):
            return EdgeClass("fk", a_pj=pa)
        if pb is not None and (pb.p_table, pb.pk_cols) == (a_table, tuple(a_cols)):
            return EdgeClass("fk", b_pj=pb)
        if pa is not None and pb is not None and (
            (pa.p_table, pa.pk_cols) == (pb.p_table, pb.pk_cols)
        ):
            return EdgeClass("fkfk", a_pj=pa, b_pj=pb)
        return EdgeClass("value")

    def rid_index(self, f_table: str, fk_cols: tuple[str, ...]) -> RIDIndex | None:
        return self.indices.get((f_table, tuple(fk_cols)))

    def oracle_tables(self) -> dict[str, pd.DataFrame]:
        """The tables as registered, for ``repro.oracle.assert_equivalent``."""
        return {name: t.pdf_original for name, t in self.tables.items()}

    def table(self, name: str) -> Table:
        return self.tables[name]
