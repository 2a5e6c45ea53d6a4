"""Regenerate one of the paper's evaluation tables as ``<out>/<results>.md``.

    python -m repro.bench.tables {job,snb,tpch,ablation,spectrum,micro} [--out DIR]

Each table is one ``TABLES`` entry: its results file, catalog builder, spec
set, compared systems and renderer. All of them run on one local Spark session
with ``SPARK_CONF``, time every query with ``harness``'s protocol, and use the
scales of the recorded ``results/*.md``.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from pyspark.sql import SparkSession

from repro.bench import harness, micro, workloads_job, workloads_snb, workloads_tpch
from repro.bench.runners import make_runners
from repro.bench.spectrum import table7
from repro.core.catalog import Catalog
from repro.data.imdb import imdb_catalog
from repro.data.snb import snb_catalog
from repro.data.tpch import tpch_catalog
from repro.plan.spec import QuerySpec

JOB_SCALE = 0.3
SNB_SCALE = 2.0
TPCH_SF = 0.05
SPECTRUM_PLANS = 8  # left-deep orders per query
RESULTS = Path(__file__).resolve().parents[3] / "results"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    # AQE re-optimization adds ~25% fixed latency per action at this scale
    # and never changes these small plans for the better.
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
}


@dataclass(frozen=True)
class PaperTable:
    """One paper table: what it runs, how it is rendered, where it is written."""

    results: str  # file stem under --out
    title: str
    catalog: Callable[[SparkSession], Catalog]
    specs: Callable[[Catalog], dict[str, QuerySpec]]
    systems: tuple[str, ...]  # the first is the baseline
    render: Callable[[SparkSession, Catalog, "PaperTable"], list[str]]


def _suite(spark: SparkSession, cat: Catalog, t: PaperTable) -> list[str]:
    """Percentiles per system, then every other system per query against
    the baseline (runtimes, speedup, scan reduction)."""
    md = harness.to_markdown
    df = harness.run_suite(t.specs(cat), make_runners(spark, cat, list(t.systems)))
    out = ["## Percentiles (ms)", md(harness.percentile_table(df)), ""]
    for s in t.systems[1:]:
        out += [f"## Per-query (ms) — {s} vs {t.systems[0]}",
                md(harness.per_query_table(df, t.systems[0], s)), ""]
    return out


def _spectrum(spark: SparkSession, cat: Catalog, t: PaperTable) -> list[str]:
    per_plan, summary = table7(spark, cat, t.specs(cat), max_plans=SPECTRUM_PLANS)
    return ["## Summary: P*_Duck vs P*_opt, plus spectrum extremes",
            harness.to_markdown(summary), "",
            "## All enumerated plans", harness.to_markdown(per_plan), ""]


def _micro(spark: SparkSession, cat: Catalog, t: PaperTable) -> list[str]:
    df = micro.run_micro(spark, cat, t.systems)
    out = []
    for sweep in ("MICRO-P", "MICRO-K"):
        p = df[df.sweep == sweep].pivot_table(
            index="selectivity", columns="system", values="ms"
        ).reset_index()
        out += [f"## {sweep} (ms by selectivity)", harness.to_markdown(p), ""]
    return out


_snb = partial(snb_catalog, scale=SNB_SCALE, seed=7)
_imdb = partial(imdb_catalog, scale=JOB_SCALE, seed=11)
_RUNS = f"runs={harness.RUNS}"
TABLES = {
    "job": PaperTable(
        "table3_4_job", f"Tables 3 & 4 — JOB-lite (scale={JOB_SCALE}, {_RUNS})", _imdb,
        lambda _: workloads_job.first_variants(), ("DuckDB", "GRainDB"), _suite),
    "snb": PaperTable(
        "table5_6_snb", f"Tables 5 & 6 — SNB-M (scale={SNB_SCALE}, {_RUNS})", _snb,
        lambda _: workloads_snb.specs(), ("DuckDB", "GRainDB", "GraphflowDB"), _suite),
    "tpch": PaperTable(
        "table9_tpch", f"Table 9 — TPC-H-lite (sf={TPCH_SF}, {_RUNS})",
        partial(tpch_catalog, sf=TPCH_SF, seed=21),
        lambda _: workloads_tpch.specs(), ("DuckDB", "GRainDB"), _suite),
    "ablation": PaperTable(
        "table10_ablation", f"Table 10 — ablation on SNB-M (scale={SNB_SCALE}, {_RUNS})",
        _snb, lambda _: workloads_snb.specs(),
        ("DuckDB", "GRainDB-JM-RSJ", "GRainDB-JM", "GRainDB"), _suite),
    "spectrum": PaperTable(
        "table7_spectrum",
        f"Table 7 — plan spectrum (scale={JOB_SCALE}, ≤{SPECTRUM_PLANS} orders/query)",
        _imdb, lambda _: workloads_job.spectrum_queries(), ("DuckDB", "GRainDB"), _spectrum),
    "micro": PaperTable(
        "micro_figure5", f"MICRO-P / MICRO-K (scale={SNB_SCALE}, {_RUNS})", _snb,
        micro.specs, ("DuckDB", "GRainDB", "GraphflowDB"), _micro),
}


def driver_memory() -> str:
    """Half of the machine's memory in GiB, clamped to [2, 8]."""
    half_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (2 << 30)
    return f"{min(8, max(2, half_gib))}g"


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description="Regenerate one of the paper's tables.")
    ap.add_argument("table", choices=list(TABLES))
    ap.add_argument("--out", type=Path, default=RESULTS, help="output directory")
    args = ap.parse_args(argv)
    t = TABLES[args.table]
    # Driver memory is read at JVM launch, so it must be a submit argument.
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] --driver-memory {driver_memory()} pyspark-shell")
    builder = SparkSession.builder.appName(f"tables-{args.table}")
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    try:
        cat = t.catalog(spark)
        text = "\n".join([f"# {t.title}", ""] + t.render(spark, cat, t))
        cat.unpersist()
    finally:
        spark.stop()
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{t.results}.md"
    path.write_text(text)
    print(text)
    print(f"[written] {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
