"""Every TPC-H-lite query under DuckDB and GRainDB modes, oracle-checked
(44 parametrized cases)."""
import pytest

from repro.bench.workloads_tpch import specs
from tests.util import oracle_check

_SPECS = specs()


def test_workload_has_22_queries():
    assert len(_SPECS) == 22
    assert set(_SPECS) == {f"Q{i}" for i in range(1, 23)}


@pytest.mark.parametrize("system", ["DuckDB", "GRainDB"])
@pytest.mark.parametrize("qname", sorted(_SPECS, key=lambda q: int(q[1:])))
def test_tpch_query_correct(spark, tpch_cat, qname, system):
    oracle_check(spark, tpch_cat, _SPECS[qname], system)


def test_tpch_q2_selective_part_scans_less(spark, tpch_cat):
    """Q2 is the paper's 2.6x TPC-H winner: the selective part predicate passes
    through the many-to-many partsupp joins."""
    from repro.bench.runners import run_system

    duck = run_system(spark, tpch_cat, _SPECS["Q2"], "DuckDB")
    grain = run_system(spark, tpch_cat, _SPECS["Q2"], "GRainDB")
    assert grain.metrics.total_scanned < duck.metrics.total_scanned
