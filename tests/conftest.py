"""Shared fixtures: session-scoped tiny catalogs.

Catalogs are built once per session at unit-test scale (thousands of rows) so
the ~890 tests stay fast; every result-bearing test still goes through the
DuckDB oracle.
"""
import pandas as pd
import pytest

from repro.core.catalog import Catalog
from repro.data.imdb import imdb_catalog
from repro.data.snb import snb_catalog
from repro.data.tpch import tpch_catalog


@pytest.fixture(scope="session")
def follows_cat(spark) -> Catalog:
    """The paper's running example (Tables 1–2, Figure 2), zone size 2."""
    person = pd.DataFrame(
        {"ID": [101, 202, 303, 404], "name": ["Mahinda", "Karim", "Carmen", "Zhang"]}
    )
    follows = pd.DataFrame(
        {
            "ID1": [101, 303, 101, 202, 101],
            "ID2": [202, 404, 303, 303, 404],
            "year": [2021, 2019, 2021, 2020, 2021],
        }
    )
    cat = Catalog(spark, zone_size=2)
    cat.register("person", person)
    cat.register("follows", follows)
    cat.predefine_relationship(
        "follows", ["ID1"], "person", ["ID"], ["ID2"], "person", ["ID"]
    )
    cat.finalize()
    yield cat
    cat.unpersist()


@pytest.fixture(scope="session")
def snb_cat(spark) -> Catalog:
    cat = snb_catalog(spark, scale=0.003, seed=7, zone_size=64)
    yield cat
    cat.unpersist()


@pytest.fixture(scope="session")
def imdb_cat(spark) -> Catalog:
    cat = imdb_catalog(spark, scale=0.002, seed=11, zone_size=128)
    yield cat
    cat.unpersist()


@pytest.fixture(scope="session")
def tpch_cat(spark) -> Catalog:
    cat = tpch_catalog(spark, sf=0.002, seed=21, zone_size=256)
    yield cat
    cat.unpersist()
