"""Unit tests for QuerySpec: SQL generation, qualification, filter routing."""
import pytest

from repro.plan.spec import JoinEdge, QuerySpec, TableRef, aliases_in, cols_of, qualify


def _spec(**kw):
    base = dict(
        name="q",
        tables=[TableRef("a", "ta"), TableRef("b", "tb")],
        joins=[JoinEdge.of("a.x", "b.y")],
        filters=["a.v > 3"],
        select=[("a.v", "av"), ("b.w", "bw")],
    )
    base.update(kw)
    return QuerySpec(**base)


def test_join_edge_shorthand():
    e = JoinEdge.of("a.x,a.y", "b.u,b.v")
    assert e.left_cols == ("x", "y") and e.right_cols == ("u", "v")
    assert e.sql() == "a.x = b.u AND a.y = b.v"


def test_join_edge_mixed_alias_rejected():
    with pytest.raises(ValueError):
        JoinEdge.of("a.x,b.y", "c.z,c.w")


def test_qualify_rewrites_refs():
    assert qualify("a.x = b.y", ["a", "b"]) == "a__x = b__y"


def test_qualify_leaves_string_literals():
    assert qualify("a.name = 'x.y'", ["a", "x"]) == "a__name = 'x.y'"


def test_qualify_prefix_aliases():
    # 'p' must not swallow 'p1.' references.
    assert qualify("p.x = p1.y", ["p", "p1"]) == "p__x = p1__y"


def test_aliases_in():
    assert aliases_in("a.x + b.y", ["a", "b", "c"]) == {"a", "b"}
    assert aliases_in("c.z = 'a.x'", ["a", "c"]) == {"c"}


def test_cols_of():
    assert cols_of("min(t.title) + t.year", "t") == {"title", "year"}
    assert cols_of("u.title", "t") == set()


def test_duplicate_alias_rejected():
    with pytest.raises(ValueError):
        _spec(tables=[TableRef("a", "ta"), TableRef("a", "tb")], joins=[])


def test_unknown_join_alias_rejected():
    with pytest.raises(ValueError):
        _spec(joins=[JoinEdge.of("a.x", "z.y")])


def test_group_by_key_must_be_selected():
    with pytest.raises(ValueError):
        _spec(group_by=["nope"])


def test_scan_vs_residual_filters():
    s = _spec(filters=["a.v > 3", "a.v < b.w", "b.w = 7"])
    assert s.scan_filters("a") == ["a.v > 3"]
    assert s.scan_filters("b") == ["b.w = 7"]
    assert s.residual_filters() == ["a.v < b.w"]


def test_needed_columns():
    s = _spec(filters=["a.v > 3", "b.z = 'a.q'"])
    need = s.referenced_columns()  # select + filters; join keys are the plan's
    assert need["a"] == {"v"} and need["b"] == {"w", "z"}


def test_to_sql_plain():
    s = _spec()
    assert s.to_sql() == (
        "SELECT a.v AS av, b.w AS bw FROM ta AS a, tb AS b "
        "WHERE a.x = b.y AND (a.v > 3)"
    )


def test_to_sql_distinct_and_group():
    s = _spec(distinct=True)
    assert s.to_sql().startswith("SELECT DISTINCT")
    s2 = _spec(select=[("a.v", "av"), ("count(*)", "c")], group_by=["av"])
    assert s2.to_sql().endswith("GROUP BY a.v")


def test_to_sql_global_agg_has_no_group_by():
    s = _spec(select=[("count(*)", "c")], group_by=[])
    assert "GROUP BY" not in s.to_sql()


def test_edges_of_and_table_of():
    s = _spec()
    assert len(s.edges_of("a")) == 1
    assert s.table_of("b") == "tb"
    with pytest.raises(KeyError):
        s.table_of("zz")
