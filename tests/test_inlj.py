"""INLJ (GDBMS-style) executor tests: binding order, extends, lookups,
property reads — oracle-checked against the same specs — and the executed
shape every system shares: no Python worker, one statement per execution."""
import pytest
from pyspark.sql import SparkSession

from repro.bench import workloads_snb
from repro.bench.runners import run_system
from repro.exec.inlj import GraphExecutor, _derive_order
from repro.plan.spec import JoinEdge, QuerySpec, TableRef
from tests.util import ALL_SYSTEMS, oracle_check

_SNB = workloads_snb.specs()


def _one_hop(select=None, filters=None, **kw):
    return QuerySpec(
        name="hop",
        tables=[TableRef("p1", "person"), TableRef("f", "follows"),
                TableRef("p2", "person")],
        joins=[JoinEdge.of("p1.ID", "f.ID1"), JoinEdge.of("f.ID2", "p2.ID")],
        filters=filters if filters is not None else ["p1.name = 'Mahinda'"],
        select=select or [("p2.name", "n2"), ("f.year", "y")],
        **kw,
    )


def test_derive_order_seed_is_most_selective(follows_cat):
    binds = _derive_order(_one_hop(), follows_cat)
    assert binds[0].kind == "scan" and binds[0].alias == "p1"


def test_derive_order_extend_cobinds_dst(follows_cat):
    binds = _derive_order(_one_hop(), follows_cat)
    ext = [b for b in binds if b.kind == "extend"]
    assert len(ext) == 1 and ext[0].alias == "f" and ext[0].dst == "p2"
    assert ext[0].index_key == ("follows", ("ID1",))


def test_inlj_one_hop_result(spark, follows_cat):
    oracle_check(spark, follows_cat, _one_hop(), "GraphflowDB")


def test_inlj_edge_filter_after_extension(spark, follows_cat):
    # Filter on the relationship table: properties read after the join.
    oracle_check(spark, follows_cat,
                 _one_hop(filters=["p1.name = 'Mahinda'", "f.year = 2021"]),
                 "GraphflowDB")


def test_inlj_unfiltered_full_graph(spark, follows_cat):
    oracle_check(spark, follows_cat, _one_hop(filters=[]), "GraphflowDB")


def test_inlj_aggregate(spark, follows_cat):
    spec = _one_hop(select=[("count(*)", "cnt"), ("min(p2.name)", "mn")],
                    filters=[], group_by=[])
    oracle_check(spark, follows_cat, spec, "GraphflowDB")


def test_inlj_two_hop_path(spark, follows_cat):
    spec = QuerySpec(
        name="hop2",
        tables=[TableRef("p1", "person"), TableRef("f1", "follows"),
                TableRef("p2", "person"), TableRef("f2", "follows"),
                TableRef("p3", "person")],
        joins=[JoinEdge.of("p1.ID", "f1.ID1"), JoinEdge.of("f1.ID2", "p2.ID"),
               JoinEdge.of("p2.ID", "f2.ID1"), JoinEdge.of("f2.ID2", "p3.ID")],
        filters=["p1.name = 'Mahinda'"],
        select=[("p3.name", "n3")],
    )
    oracle_check(spark, follows_cat, spec, "GraphflowDB")


def test_inlj_star_pattern(spark, follows_cat):
    # p1 with two independent follow edges (a star, not a path) — the case
    # GR-Fusion's PathScan cannot express but left-deep INLJ still can.
    spec = QuerySpec(
        name="star",
        tables=[TableRef("p1", "person"), TableRef("f1", "follows"),
                TableRef("f2", "follows"), TableRef("p2", "person"),
                TableRef("p3", "person")],
        joins=[JoinEdge.of("p1.ID", "f1.ID1"), JoinEdge.of("p1.ID", "f2.ID1"),
               JoinEdge.of("f1.ID2", "p2.ID"), JoinEdge.of("f2.ID2", "p3.ID")],
        filters=["p1.name = 'Mahinda'"],
        select=[("p2.name", "n2"), ("p3.name", "n3")],
    )
    oracle_check(spark, follows_cat, spec, "GraphflowDB")


def test_inlj_scans_are_full_tables(spark, follows_cat):
    out = run_system(spark, follows_cat, _one_hop(), "GraphflowDB")
    # No SIP in GDBMS mode: every touched table is read in full.
    for alias, n in out.metrics.scanned.items():
        assert n == out.metrics.table_rows[alias]


def test_value_edge_has_no_graph_plan(spark, follows_cat):
    # No index or pointer joins p1 and p2: a GDBMS cannot traverse the edge.
    spec = QuerySpec(name="same_name",
                     tables=[TableRef("p1", "person"), TableRef("p2", "person")],
                     joins=[JoinEdge.of("p1.name", "p2.name")],
                     select=[("p1.ID", "id1"), ("p2.ID", "id2")])
    with pytest.raises(ValueError, match="cannot derive a graph plan"):
        GraphExecutor(spark, follows_cat).execute(spec)


@pytest.mark.parametrize("qname", sorted(_SNB))
def test_one_gather_per_extend(spark, snb_cat, qname):
    """Each EXTEND is a broadcast hash join of the frontier with F's pointer
    columns, not a Python worker; no system's plan holds one."""
    spec = _SNB[qname]
    plans = {s: run_system(spark, snb_cat, spec, s, collect=False)
             .df._jdf.queryExecution().executedPlan().toString() for s in ALL_SYSTEMS}
    assert [s for s, p in plans.items() if "MapInPandas" in p] == []
    plan = plans["GraphflowDB"]
    n_extend = sum(b.kind == "extend" for b in _derive_order(spec, snb_cat))
    assert plan.count("BroadcastHashJoin") >= n_extend
    # Extensions and property reads are broadcast hash joins: no sort-merge
    # join, no shuffle.
    assert "SortMergeJoin" not in plan
    assert "Exchange hashpartitioning" not in plan


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("qname", ["IS3", "IC1-1", "IC6-1", "IC9-2"])
def test_one_statement_per_execution(spark, snb_cat, monkeypatch, qname, system):
    # One ``spark.sql`` call whose text is the whole statement: no DataFrame
    # arguments, so no relation the driver built is formatted into it.
    calls = []
    sql = SparkSession.sql

    def counted(self, *args, **kwargs):
        calls.append((args, kwargs))
        return sql(self, *args, **kwargs)

    monkeypatch.setattr(SparkSession, "sql", counted)
    run_system(spark, snb_cat, _SNB[qname], system, collect=False)
    assert len(calls) == 1
    (args, kwargs), = calls
    assert len(args) == 1 and kwargs == {}
    assert "{arg" not in args[0]
