"""Every JOB-lite query under DuckDB and GRainDB modes, oracle-checked
(78 parametrized cases), plus structural checks on the workload."""
import pytest

from repro.bench.workloads_job import first_variants, spectrum_queries, specs
from tests.util import oracle_check

_SPECS = specs()


def test_workload_shape():
    assert len(first_variants()) == 33
    assert len(spectrum_queries()) == 12
    assert all(q.group_by == [] for q in _SPECS.values())  # JOB: MIN() aggregates


@pytest.mark.parametrize("system", ["DuckDB", "GRainDB"])
@pytest.mark.parametrize("qname", sorted(_SPECS))
def test_job_query_correct(spark, imdb_cat, qname, system):
    oracle_check(spark, imdb_cat, _SPECS[qname], system)


@pytest.mark.parametrize("qname", ["Q3a", "Q6a", "Q21a", "Q32a"])
def test_job_selective_queries_scan_less(spark, imdb_cat, qname):
    from repro.bench.runners import run_system

    duck = run_system(spark, imdb_cat, _SPECS[qname], "DuckDB")
    grain = run_system(spark, imdb_cat, _SPECS[qname], "GRainDB")
    assert grain.metrics.total_scanned < duck.metrics.total_scanned


def test_job_nonselective_query_scans_similar(spark, imdb_cat):
    """Q5a has no selective predicate — sip cannot prune much (paper: 1.0x)."""
    from repro.bench.runners import run_system

    duck = run_system(spark, imdb_cat, _SPECS["Q5a"], "DuckDB")
    grain = run_system(spark, imdb_cat, _SPECS["Q5a"], "GRainDB")
    assert grain.metrics.total_scanned >= 0.5 * duck.metrics.total_scanned
