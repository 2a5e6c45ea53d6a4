"""System runners: one callable per compared system over a shared catalog."""
from __future__ import annotations

from functools import partial
from typing import Callable

from pyspark.sql import SparkSession

from repro.core.catalog import Catalog
from repro.core.rewrite import CONFIGS
from repro.exec.executor import ExecOutcome, PlanExecutor
from repro.exec.inlj import GraphExecutor
from repro.plan.spec import QuerySpec

# The relational executor under each rewrite config ('DuckDB', 'GRainDB',
# 'GRainDB-JM', 'GRainDB-JM-RSJ') and the INLJ executor ('GraphflowDB').
SYSTEMS = (*CONFIGS, "GraphflowDB")


def _check(system: str) -> None:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")


def run_system(spark: SparkSession, catalog: Catalog, spec: QuerySpec, system: str,
               collect: bool = True) -> ExecOutcome:
    """Execute ``spec`` under ``system``, one of ``SYSTEMS``."""
    _check(system)
    if system == "GraphflowDB":
        return GraphExecutor(spark, catalog).execute(spec, collect=collect)
    return PlanExecutor(spark, catalog).execute(spec, mode=system, collect=collect)


def make_runners(spark: SparkSession, catalog: Catalog,
                 systems: list[str]) -> dict[str, Callable[[QuerySpec], ExecOutcome]]:
    """A ``run_system`` callable per system of ``systems``, each name checked here."""
    for s in systems:
        _check(s)
    return {s: partial(run_system, spark, catalog, system=s) for s in systems}
