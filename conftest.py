import os
import sys

from repro.bench.tables import SPARK_CONF, driver_memory

# spark.driver.memory is read at JVM launch, not from SparkConf, so it must be
# in PYSPARK_SUBMIT_ARGS before any SparkSession starts; pytest loads this
# conftest before any test module. SPARK_DRIVER_MEM overrides the repo's rule.
os.environ.setdefault("SPARK_DRIVER_MEM", driver_memory())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch); every other setting is ``repro.bench.tables.SPARK_CONF``,
    the one the paper tables run with (AQE off, automatic broadcast joins
    disabled, so every join Catalyst picks on its own is a shuffle join; the
    executor asks for a broadcast hash join with an explicit
    ``/*+ BROADCAST(…) */`` hint on the build side, which wins over the
    threshold).
    """
    builder = SparkSession.builder.appName("repro")
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    s = builder.getOrCreate()
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
