"""Timing harness and table formatting for the paper's evaluation tables.

Timing protocol follows §7.1: every query gets ``WARMUP`` warm-up
executions, then ``RUNS`` successive timed executions of the end-to-end query
(plan → rewrite → Spark execution → collect), reported as their median, min
and max.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
import pandas as pd

from repro.exec.executor import ExecOutcome

RUNS = 5
WARMUP = 1
PCTS = (5, 25, 50, 75, 95)


def time_query(fn: Callable[[], ExecOutcome], warmup: int = WARMUP,
               runs: int = RUNS) -> tuple[dict[str, float], ExecOutcome]:
    """Median, min and max wall-clock ms (keys ``ms``, ``min_ms``, ``max_ms``)
    over ``runs`` executions after ``warmup``, and the last outcome."""
    out = None
    for _ in range(warmup):
        out = fn()
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        out = fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    stats = {"ms": float(np.median(samples)), "min_ms": min(samples), "max_ms": max(samples)}
    return stats, out


def run_suite(
    specs: dict,
    runners: dict[str, Callable],
    warmup: int = WARMUP,
    runs: int = RUNS,
) -> pd.DataFrame:
    """Run every (query, system) pair; returns a tidy results frame whose
    ``ms`` is the median of ``runs``, beside ``min_ms`` and ``max_ms``."""
    rows = []
    for qname, spec in specs.items():
        for system, runner in runners.items():
            stats, out = time_query(lambda: runner(spec), warmup, runs)
            rows.append({
                "query": qname, "system": system,
                **{k: round(v, 1) for k, v in stats.items()},
                "rows": 0 if out.result is None else len(out.result),
                "scanned": out.metrics.total_scanned,
                "table_rows": out.metrics.total_table_rows,
            })
    return pd.DataFrame(rows)


def percentiles(ms: pd.Series) -> dict[str, float]:
    return {f"p{p}": round(float(np.percentile(ms, p)), 1) for p in PCTS}


def percentile_table(df: pd.DataFrame) -> pd.DataFrame:
    """Table 3/5-style percentile summary, one row per system."""
    out = []
    for system, grp in df.groupby("system", sort=False):
        out.append({"system": system, **percentiles(grp["ms"])})
    return pd.DataFrame(out)


def per_query_table(df: pd.DataFrame, baseline: str, contender: str) -> pd.DataFrame:
    """Table 4/6-style per-query comparison with speedup and scan reduction."""
    b = df[df.system == baseline].set_index("query")
    g = df[df.system == contender].set_index("query")
    rows = []
    for q in b.index:
        speedup = b.loc[q, "ms"] / max(g.loc[q, "ms"], 1e-9)
        scan_red = b.loc[q, "scanned"] / max(g.loc[q, "scanned"], 1)
        rows.append(
            {
                "query": q,
                f"{baseline}_ms": b.loc[q, "ms"],
                f"{contender}_ms": g.loc[q, "ms"],
                "speedup": round(speedup, 2),
                "scan_reduction": round(scan_red, 1),
            }
        )
    return pd.DataFrame(rows)


def to_markdown(df: pd.DataFrame) -> str:
    """Small dependency-free markdown renderer (tabulate is not installed)."""
    cols = list(df.columns)
    lines = ["| " + " | ".join(str(c) for c in cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for _, r in df.iterrows():
        lines.append("| " + " | ".join(str(r[c]) for c in cols) + " |")
    return "\n".join(lines)
