"""Executor correctness on small ad-hoc catalogs: join shapes, projections,
aggregations, self-joins, string/multi-column keys — all oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro.bench.runners import run_system
from repro.core.catalog import Catalog
from repro.plan.spec import JoinEdge, QuerySpec, TableRef
from tests.util import ALL_SYSTEMS, RELATIONAL_MODES, oracle_check


@pytest.fixture(scope="module")
def mini_cat(spark):
    """Small star schema with skew, nulls, strings, and multi-col keys."""
    g = np.random.default_rng(3)
    n_dim, n_fact = 40, 800
    dim = pd.DataFrame(
        {
            "k": np.arange(n_dim, dtype=np.int64),
            "cat": g.choice(["red", "green", "blue"], n_dim),
            "val": g.random(n_dim).round(3),
        }
    )
    fact = pd.DataFrame(
        {
            "fk": np.minimum((g.random(n_fact) ** 2 * n_dim).astype(np.int64), n_dim - 1),
            "fk2": g.integers(0, n_dim, n_fact),
            "amount": g.integers(1, 100, n_fact),
            "tag": g.choice(["x", "y", "z"], n_fact),
        }
    )
    pairkey = pd.DataFrame(
        {"a": np.repeat(np.arange(8), 5), "b": np.tile(np.arange(5), 8),
         "label": [f"L{i}" for i in range(40)]}
    )
    link = pd.DataFrame(
        {"pa": g.integers(0, 8, 200), "pb": g.integers(0, 5, 200),
         "w": g.integers(0, 10, 200)}
    )
    cat = Catalog(spark, zone_size=16)
    cat.register("dim", dim)
    cat.register("fact", fact)
    cat.register("pairkey", pairkey)
    cat.register("link", link)
    cat.predefine_relationship("fact", ["fk"], "dim", ["k"], ["fk2"], "dim", ["k"])
    cat.predefine_join("link", ["pa", "pb"], "pairkey", ["a", "b"])
    cat.build_rid_index("link", ["pa", "pb"])
    cat.finalize()
    yield cat
    cat.unpersist()


def _spec(**kw):
    base = dict(
        name="q",
        tables=[TableRef("d", "dim"), TableRef("f", "fact")],
        joins=[JoinEdge.of("f.fk", "d.k")],
        filters=[],
        select=[("d.cat", "cat"), ("sum(f.amount)", "total"), ("count(*)", "cnt")],
        group_by=["cat"],
    )
    base.update(kw)
    return QuerySpec(**base)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_grouped_join(spark, mini_cat, mode):
    oracle_check(spark, mini_cat, _spec(), mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_selective_filter_on_dim(spark, mini_cat, mode):
    oracle_check(spark, mini_cat, _spec(filters=["d.k = 3"]), mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_filter_on_fact(spark, mini_cat, mode):
    oracle_check(spark, mini_cat, _spec(filters=["f.tag = 'x'", "f.amount > 50"]), mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_self_join_two_hops(spark, mini_cat, mode):
    spec = QuerySpec(
        name="hops",
        tables=[TableRef("d1", "dim"), TableRef("f1", "fact"),
                TableRef("d2", "dim"), TableRef("f2", "fact")],
        joins=[JoinEdge.of("f1.fk", "d1.k"), JoinEdge.of("f1.fk2", "d2.k"),
               JoinEdge.of("f2.fk", "d2.k")],
        filters=["d1.k = 1", "f2.amount < 10"],
        select=[("count(*)", "cnt"), ("min(d2.cat)", "mc")],
        group_by=[],
    )
    oracle_check(spark, mini_cat, spec, mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_multi_column_predefined_key(spark, mini_cat, mode):
    spec = QuerySpec(
        name="pairs",
        tables=[TableRef("p", "pairkey"), TableRef("l", "link")],
        joins=[JoinEdge.of("l.pa,l.pb", "p.a,p.b")],
        filters=["p.label = 'L7'"],
        select=[("sum(l.w)", "w"), ("count(*)", "cnt")],
        group_by=[],
    )
    oracle_check(spark, mini_cat, spec, mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_plain_projection_no_agg(spark, mini_cat, mode):
    spec = _spec(
        select=[("d.cat", "cat"), ("f.amount", "amount")], group_by=None,
        filters=["d.k = 2"],
    )
    oracle_check(spark, mini_cat, spec, mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_distinct_projection(spark, mini_cat, mode):
    spec = _spec(select=[("d.cat", "cat"), ("f.tag", "tag")], group_by=None,
                 distinct=True)
    oracle_check(spark, mini_cat, spec, mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_residual_multi_alias_filter(spark, mini_cat, mode):
    spec = _spec(filters=["f.amount > d.k + 50"])
    oracle_check(spark, mini_cat, spec, mode)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_empty_result(spark, mini_cat, mode):
    spec = _spec(filters=["d.k = 999"],
                 select=[("d.cat", "cat"), ("f.amount", "amount")], group_by=None)
    out = run_system(spark, mini_cat, spec, mode)
    assert len(out.result) == 0


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
def test_expression_aggregates(spark, mini_cat, mode):
    spec = _spec(select=[("sum(f.amount * (1 + d.val))", "weighted"),
                         ("count(distinct f.tag)", "tags")], group_by=[])
    oracle_check(spark, mini_cat, spec, mode)


def test_explicit_order_matches_greedy_result(spark, mini_cat):
    spec = _spec(filters=["d.k = 5"], select=[("count(*)", "cnt")], group_by=[])
    from repro.exec.executor import PlanExecutor

    ex = PlanExecutor(spark, mini_cat)
    a = ex.execute(spec, mode="GRainDB").result
    b = ex.execute(spec, mode="GRainDB", order=["f", "d"]).result
    c = ex.execute(spec, mode="GRainDB", order=["d", "f"]).result
    assert a.equals(b) and b.equals(c)


def test_metrics_table_rows(spark, mini_cat):
    out = run_system(spark, mini_cat, _spec(), "DuckDB")
    assert out.metrics.table_rows == {"d": 40, "f": 800}
    assert out.metrics.total_scanned == 840


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_braces_in_spec_text(spark, follows_cat, system):
    # The statement is formatted by ``spark.sql`` when it has DataFrame
    # arguments: braces and ``alias.col`` text inside literals stay literal.
    spec = QuerySpec(
        name="braces",
        tables=[TableRef("p", "person"), TableRef("f", "follows")],
        joins=[JoinEdge.of("f.ID1", "p.ID")],
        filters=["concat(p.name, '{') <> 'Karim{'", "p.name <> '}{p.x}'",
                 "p.name <> '{f.year}' AND f.year > 2019"],
        select=[("concat(p.name, '{p.x}')", "tagged"), ("f.year", "year")],
    )
    oracle_check(spark, follows_cat, spec, system)
