"""Plan-spectrum study (§7.3.3, Table 7, Figures 6/10).

For each query: enumerate connected left-deep join orders, execute every order
both as a vanilla value-join plan (P_d) and as its predefined-join rewrite
(P_d*), and compare GRainDB's default plan P*_Duck (the rewrite of the greedy
optimizer's order) against the oracle-best rewritten plan P*_opt — the
headroom a sip-aware optimizer could claim.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.bench.harness import RUNS, time_query
from repro.core.catalog import Catalog
from repro.core.rewrite import DUCK, GRAIN_FULL
from repro.exec.executor import PlanExecutor
from repro.plan.optimizer import enumerate_left_deep_orders
from repro.plan.spec import QuerySpec


def spectrum_for_query(
    spark: SparkSession,
    catalog: Catalog,
    spec: QuerySpec,
    max_plans: int = 12,
    runs: int = RUNS,
) -> pd.DataFrame:
    """Per-order timings of P_d and P_d*, plus the default-plan row."""
    ex = PlanExecutor(spark, catalog)

    def ms(cfg, order=None) -> float:
        stats, _ = time_query(lambda: ex.execute(spec, mode=cfg, order=order), runs=runs)
        return stats["ms"]

    rows = []
    for order in enumerate_left_deep_orders(spec, limit=max_plans):
        rows.append({"query": spec.name, "order": "->".join(order),
                     "duck_ms": round(ms(DUCK, order), 1),
                     "grain_ms": round(ms(GRAIN_FULL, order), 1)})
    ms_def = ms(GRAIN_FULL)
    rows.append({"query": spec.name, "order": "(default)", "duck_ms": float("nan"),
                 "grain_ms": round(ms_def, 1)})
    return pd.DataFrame(rows)


def table7(
    spark: SparkSession,
    catalog: Catalog,
    specs: dict[str, QuerySpec],
    max_plans: int = 12,
    runs: int = RUNS,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (per-plan spectrum frame, Table-7 summary: P*_Duck vs P*_opt)."""
    frames = []
    summary = []
    for name, spec in specs.items():
        df = spectrum_for_query(spark, catalog, spec, max_plans=max_plans, runs=runs)
        frames.append(df)
        enumerated = df[df["order"] != "(default)"]
        p_duck = float(df[df["order"] == "(default)"]["grain_ms"].iloc[0])
        p_opt = float(enumerated["grain_ms"].min())
        summary.append(
            {
                "query": name,
                "P*_Duck_ms": round(p_duck, 1),
                "P*_opt_ms": round(min(p_opt, p_duck), 1),
                "headroom": round(p_duck / max(min(p_opt, p_duck), 1e-9), 2),
                "n_plans": len(enumerated),
                "duck_best_ms": round(float(enumerated["duck_ms"].min()), 1),
                "duck_worst_ms": round(float(enumerated["duck_ms"].max()), 1),
                "grain_best_ms": round(float(enumerated["grain_ms"].min()), 1),
                "grain_worst_ms": round(float(enumerated["grain_ms"].max()), 1),
            }
        )
    return pd.concat(frames, ignore_index=True), pd.DataFrame(summary)
