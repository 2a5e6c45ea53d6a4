"""The paper-table driver's registry (``python -m repro.bench.tables``),
checked without Spark."""
import pytest

from repro.bench.tables import TABLES
from repro.core.catalog import Catalog
from repro.core.rewrite import CONFIGS
from repro.data.snb import snb_tables
from repro.plan.spec import QuerySpec


@pytest.fixture(scope="module")
def pandas_cat():
    """An unfinalized SNB-lite catalog: enough for specs derived from data."""
    cat = Catalog(spark=None)
    for name, pdf in snb_tables(0.003, 7).items():
        cat.register(name, pdf)
    return cat


@pytest.mark.parametrize("name", sorted(TABLES))
def test_registered_table(name, pandas_cat):
    t = TABLES[name]
    assert t.results and t.title
    specs = t.specs(pandas_cat)
    assert specs and all(isinstance(s, QuerySpec) for s in specs.values())
    assert t.systems and set(t.systems) <= set(CONFIGS) | {"GraphflowDB"}
    assert callable(t.catalog) and callable(t.render)


def test_results_files_distinct():
    assert len({t.results for t in TABLES.values()}) == len(TABLES)
