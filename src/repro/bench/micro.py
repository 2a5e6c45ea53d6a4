"""MICRO-P / MICRO-K controlled selectivity sweep (§7.3.2, Figure 5).

One-hop query (p1:Person)-[e:Knows]->(p2:Person). MICRO-P fixes a 99.9%
predicate on Knows and sweeps the Person predicate from 0.01% to 100%;
MICRO-K fixes 99.9% on Person and sweeps Knows. Selectivity is implemented as
a threshold on the dense key columns (personid / creationdate quantiles), so
"sel=0.01" keeps ~1% of the table. Figures are out of scope, but this sweep
backs §7.3.2's crossover claims and is summarized in EXPERIMENTS.md.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.bench.harness import RUNS, run_suite
from repro.bench.runners import make_runners
from repro.core.catalog import Catalog
from repro.plan.spec import JoinEdge, QuerySpec, TableRef

SELECTIVITIES = (0.0001, 0.001, 0.01, 0.1, 0.5, 1.0)


def specs(catalog: Catalog,
          selectivities: tuple[float, ...] = SELECTIVITIES) -> dict[str, QuerySpec]:
    """The sweep's queries, named ``<sweep>@<selectivity>``."""
    n_person = catalog.table("person").n_rows
    kd = catalog.table("knows").pdf["creationdate"]
    out = {}
    for sweep in ("MICRO-P", "MICRO-K"):
        for sel in selectivities:
            p_sel, k_sel = (sel, 0.999) if sweep == "MICRO-P" else (0.999, sel)
            k_thresh = int(kd.quantile(k_sel)) if k_sel < 1.0 else int(kd.max()) + 1
            p_thresh = max(1, int(n_person * p_sel)) if p_sel < 1.0 else n_person + 1
            name = f"{sweep}@{sel:g}"
            out[name] = QuerySpec(
                name=name,
                tables=[TableRef("p1", "person"), TableRef("e", "knows"),
                        TableRef("p2", "person")],
                joins=[JoinEdge.of("p1.personid", "e.person1id"),
                       JoinEdge.of("e.person2id", "p2.personid")],
                filters=[f"p1.personid < {p_thresh}", f"e.creationdate < {k_thresh}"],
                select=[("count(*)", "cnt"), ("min(p2.personid)", "min_p2")],
                group_by=[],
            )
    return out


def run_micro(
    spark: SparkSession,
    catalog: Catalog,
    systems: tuple[str, ...] = ("DuckDB", "GRainDB", "GraphflowDB"),
    selectivities: tuple[float, ...] = SELECTIVITIES,
    runs: int = RUNS,
) -> pd.DataFrame:
    df = run_suite(specs(catalog, selectivities),
                   make_runners(spark, catalog, list(systems)), runs=runs)
    df["sweep"] = df["query"].str.split("@").str[0]
    df["selectivity"] = df["query"].str.split("@").str[1].astype(float)
    return df
