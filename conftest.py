import os
import sys

from repro.bench.tables import driver_memory

# spark.driver.memory is read at JVM launch, not from SparkConf, so it must be
# in PYSPARK_SUBMIT_ARGS before any SparkSession starts; pytest loads this
# conftest before any test module. SPARK_DRIVER_MEM overrides the repo's rule.
os.environ.setdefault("SPARK_DRIVER_MEM", driver_memory())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow, broadcast threshold) are set here.
    Automatic broadcast joins are disabled, so every join Catalyst picks on
    its own is a shuffle join; the executor asks for a broadcast hash join
    with an explicit ``/*+ BROADCAST(…) */`` hint on the build side, which
    wins over the threshold.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
