"""Invariants the design rests on, asserted over all 86 workload queries at
unit scale: a scan reads at most its table, and scanned tuples never grow as
GRainDB's features are added (DuckDB → GRainDB-JM-RSJ → GRainDB-JM →
GRainDB). Executions are built but not run (no Spark action)."""
import pytest

from repro.bench import workloads_job, workloads_snb, workloads_tpch
from repro.bench.runners import run_system
from tests.util import RELATIONAL_MODES

_WORKLOADS = {"snb_cat": workloads_snb.specs(), "imdb_cat": workloads_job.specs(),
              "tpch_cat": workloads_tpch.specs()}


def test_workloads_have_86_queries():
    assert sum(map(len, _WORKLOADS.values())) == 86


@pytest.mark.parametrize("cat_name, qname", [
    (c, q) for c, specs in _WORKLOADS.items() for q in sorted(specs)])
def test_scanned_tuples_never_grow(spark, request, cat_name, qname):
    cat = request.getfixturevalue(cat_name)
    spec = _WORKLOADS[cat_name][qname]
    totals = []
    for mode in RELATIONAL_MODES:
        m = run_system(spark, cat, spec, mode, collect=False).metrics
        assert all(m.scanned[a] <= m.table_rows[a] for a in spec.aliases), mode
        totals.append(m.total_scanned)
    assert totals == sorted(totals, reverse=True), dict(zip(RELATIONAL_MODES, totals))
