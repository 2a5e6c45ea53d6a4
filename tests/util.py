"""Test helpers: run a spec under a system mode and oracle-check the result."""
from __future__ import annotations

import re

from repro.bench.runners import run_system
from repro.core.catalog import Catalog
from repro.exec.executor import ExecOutcome
from repro.oracle import assert_equivalent
from repro.plan.spec import QuerySpec

RELATIONAL_MODES = ["DuckDB", "GRainDB-JM-RSJ", "GRainDB-JM", "GRainDB"]
ALL_SYSTEMS = RELATIONAL_MODES + ["GraphflowDB"]


def oracle_check(spark, catalog: Catalog, spec: QuerySpec, system: str) -> ExecOutcome:
    """Execute under ``system`` and diff against DuckDB running the spec's SQL
    over the original (pre-RID) tables."""
    out = run_system(spark, catalog, spec, system, collect=False)
    assert_oracle(catalog, spec, out)
    return out


def assert_oracle(catalog: Catalog, spec: QuerySpec, out: ExecOutcome) -> None:
    """Diff an uncollected outcome against the DuckDB oracle."""
    tables = {t.table: catalog.table(t.table).pdf_original for t in spec.tables}
    assert_equivalent(out.df, spec.to_sql(), **tables)


_OP = re.compile(r"^[\s:|+\-]*(?:\*\(\d+\)\s*)?(\w+)(.*)$")
_EXPR_ID = re.compile(r"#\d+L?")


def executed_joins(df) -> list[tuple[str, str]]:
    """(operator, rest of line) of every join in the physical plan Catalyst
    chose, top-down with left before right children and expression IDs
    stripped; read before any action, so adaptive execution has not
    replanned."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    return [(m[1], _EXPR_ID.sub("", m[2]).strip())
            for m in map(_OP.match, plan.splitlines()) if m and m[1].endswith("Join")]
