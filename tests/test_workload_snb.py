"""Every SNB-M query (paper Appendix A) under every system, oracle-checked.

125 parametrized cases: 25 queries × (DuckDB, GRainDB-JM-RSJ, GRainDB-JM,
GRainDB, GraphflowDB). Each execution is diffed row-for-row against DuckDB
running the spec's SQL over the original tables.
"""
import pytest

from repro.bench.workloads_snb import specs
from tests.util import ALL_SYSTEMS, oracle_check

_SPECS = specs()


def test_workload_has_25_queries():
    assert len(_SPECS) == 25
    assert {"IS1", "IS7", "IC1-3", "IC6-2", "IC12"} <= set(_SPECS)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("qname", sorted(_SPECS))
def test_snb_query_correct(spark, snb_cat, qname, system):
    oracle_check(spark, snb_cat, _SPECS[qname], system)


@pytest.mark.parametrize("qname", ["IS3", "IC2", "IC9-2"])
def test_snb_grain_scans_less_than_duck(spark, snb_cat, qname):
    """Spot-check the paper's central claim at unit scale: on seeded SNB
    queries GRainDB scans far fewer tuples than DuckDB."""
    from repro.bench.runners import run_system

    duck = run_system(spark, snb_cat, _SPECS[qname], "DuckDB")
    grain = run_system(spark, snb_cat, _SPECS[qname], "GRainDB")
    assert grain.metrics.total_scanned < duck.metrics.total_scanned
