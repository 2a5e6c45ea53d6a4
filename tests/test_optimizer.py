"""Unit tests for join ordering: true cardinalities, greedy plans, enumeration."""
import pytest

from repro.plan.nodes import JoinNode, ScanNode, aliases_of, scans_of
from repro.plan.optimizer import (
    enumerate_left_deep_orders,
    filtered_cardinalities,
    greedy_plan,
    plan_from_order,
)
from repro.plan.spec import JoinEdge, QuerySpec, TableRef


def _two_hop():
    return QuerySpec(
        name="two_hop",
        tables=[TableRef("p1", "person"), TableRef("f1", "follows"),
                TableRef("p2", "person")],
        joins=[JoinEdge.of("p1.ID", "f1.ID1"), JoinEdge.of("f1.ID2", "p2.ID")],
        filters=["p1.name = 'Karim'"],
        select=[("p2.name", "n2")],
    )


def test_filtered_cardinalities_exact(follows_cat):
    cards = filtered_cardinalities(_two_hop(), follows_cat)
    assert cards == {"p1": 1, "f1": 5, "p2": 4}


def test_greedy_plan_covers_all_aliases(follows_cat):
    plan = greedy_plan(_two_hop(), follows_cat)
    assert aliases_of(plan) == {"p1", "f1", "p2"}
    assert len(scans_of(plan)) == 3


def test_greedy_plan_joins_selective_first(follows_cat):
    plan = greedy_plan(_two_hop(), follows_cat)
    # Bottom-most join must involve the 1-row filtered p1.
    inner = plan.left if isinstance(plan.left, JoinNode) else plan.right
    assert "p1" in aliases_of(inner)


def test_build_side_is_smaller(follows_cat):
    plan = greedy_plan(_two_hop(), follows_cat)
    for j in [n for n in [plan] if isinstance(n, JoinNode)]:
        b = j.left if j.build == "left" else j.right
        p = j.right if j.build == "left" else j.left
        assert b.est_rows <= max(p.est_rows, 1) or isinstance(b, ScanNode)


def test_plan_from_order_left_deep(follows_cat):
    plan = plan_from_order(_two_hop(), follows_cat, ["p1", "f1", "p2"])
    assert isinstance(plan, JoinNode)
    assert isinstance(plan.right, ScanNode) and plan.right.alias == "p2"


def test_plan_from_order_validates_permutation(follows_cat):
    with pytest.raises(ValueError):
        plan_from_order(_two_hop(), follows_cat, ["p1", "f1"])


def test_plan_from_order_rejects_disconnected_step(follows_cat):
    with pytest.raises(ValueError, match="disconnects"):
        plan_from_order(_two_hop(), follows_cat, ["p1", "p2", "f1"])


def test_enumerate_orders_connected_only():
    spec = _two_hop()
    orders = enumerate_left_deep_orders(spec)
    assert ["p1", "p2", "f1"] not in orders
    assert ["p1", "f1", "p2"] in orders
    # path of 3: 2 orders from each end + 2 from middle = 4 total
    assert len(orders) == 4


def test_enumerate_orders_limit_sampling():
    spec = _two_hop()
    orders = enumerate_left_deep_orders(spec, limit=2)
    assert len(orders) == 2


def test_disconnected_graph_raises(follows_cat):
    spec = QuerySpec(
        name="cross",
        tables=[TableRef("p1", "person"), TableRef("p2", "person")],
        joins=[],
        select=[("p1.name", "n")],
    )
    with pytest.raises(ValueError, match="disconnected"):
        greedy_plan(spec, follows_cat)


def test_single_table_plan(follows_cat):
    spec = QuerySpec(
        name="one", tables=[TableRef("p", "person")], joins=[],
        filters=["p.ID = 101"], select=[("p.name", "n")],
    )
    plan = greedy_plan(spec, follows_cat)
    assert isinstance(plan, ScanNode) and plan.filters == ["p.ID = 101"]


def test_stats_cached_per_catalog(spark):
    """Two live catalogs with the same table name and query but different data
    each get their own statistics; a repeat call is served from the cache."""
    import pandas as pd

    from repro.core.catalog import Catalog

    spec = QuerySpec(name="q", tables=[TableRef("t", "t")], joins=[],
                     filters=["t.x > 1"], select=[("t.x", "x")])
    small, big = Catalog(spark), Catalog(spark)
    small.register("t", pd.DataFrame({"x": [1, 2]}))
    big.register("t", pd.DataFrame({"x": [1, 2, 3, 4]}))
    first = filtered_cardinalities(spec, small)
    assert first == {"t": 1}
    assert filtered_cardinalities(spec, big) == {"t": 3}
    assert filtered_cardinalities(spec, small) is first
    assert len(small.card_cache) == len(big.card_cache) == 1
