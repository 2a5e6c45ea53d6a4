"""Unit tests for the catalog: dense RIDs, PREDEFINE JOIN materialization,
index registration (paper §3)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PySparkTypeError

import repro.core.catalog as catalog_mod
from repro.bench import workloads_snb
from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import RID, Catalog, rid_col_name
from repro.core.rewrite import CONFIGS
from repro.exec.executor import PlanExecutor
from repro.oracle import assert_equivalent
from repro.plan.spec import JoinEdge, QuerySpec, TableRef
from tests.util import ALL_SYSTEMS, executed_joins, oracle_check


@pytest.fixture()
def cat(spark):
    c = Catalog(spark, zone_size=4)
    yield c
    c.unpersist()


def _register_pair(cat):
    cat.register("p", pd.DataFrame({"k": [10, 20, 30], "v": ["a", "b", "c"]}))
    cat.register("f", pd.DataFrame({"fk": [20, 10, 20, 30], "w": [1, 2, 3, 4]}))
    return cat


def test_dense_rid_assignment(cat):
    t = cat.register("t", pd.DataFrame({"x": [5, 6, 7]}))
    assert t.pdf[RID].tolist() == [0, 1, 2]


def test_register_rejects_more_rows_than_a_rid_addresses(cat, monkeypatch):
    monkeypatch.setattr(catalog_mod, "MAX_ROWS", 3)
    cat.register("ok", pd.DataFrame({"x": [1, 2, 3]}))
    # The guard runs before ``register`` copies the frame.
    monkeypatch.setattr(pd.DataFrame, "reset_index",
                        lambda *a, **k: pytest.fail("the frame was copied"))
    with pytest.raises(ValueError, match="32-bit RID"):
        cat.register("big", pd.DataFrame({"x": [1, 2, 3, 4]}))
    assert "big" not in cat.tables


def test_rids_are_32_bit_end_to_end(spark, snb_cat, monkeypatch):
    int32 = np.dtype(np.int32)
    for t in snb_cat.tables.values():
        rid_cols = [RID] + list(t.rid_cols.values())
        assert all(t.pdf[c].dtype == int32 for c in rid_cols)
        types = dict(spark.table(t.view).dtypes)
        assert all(types[c] == "int" for c in rid_cols)
        # User columns keep the types Spark gives the frame as registered.
        assert [types[c] for c in t.user_columns] == [
            ty for _, ty in spark.createDataFrame(t.pdf_original.head(1)).dtypes]
    extended = 0
    for idx in snb_cat.indices.values():
        assert idx.offsets.dtype == idx.f_rids.dtype == int32
        p_rids = np.arange(min(5, len(idx.offsets) - 1), dtype=np.int32)
        assert idx.lookup_many(p_rids).dtype == int32
        if idx.ext_rids is not None:
            extended += 1
            assert idx.ext_rids.dtype == int32
            assert all(a.dtype == int32 for a in idx.pairs(p_rids))
    assert extended
    assert snb_cat.scan_rids("person", "p", []).dtype == int32
    assert snb_cat.scan_rids("person", "p", ["p.id > 0"]).dtype == int32
    # Every RID set the executor turns into masks, in every relational mode.
    seen = []
    from_rids = SemiJoinMasks.from_rids.__func__
    monkeypatch.setattr(SemiJoinMasks, "from_rids", classmethod(
        lambda cls, rids, *a: seen.append(rids) or from_rids(cls, rids, *a)))
    ex = PlanExecutor(spark, snb_cat)
    for mode in CONFIGS:
        ex.execute(workloads_snb.specs()["IC1-1"], mode, collect=False)
    assert seen and all(r.dtype == int32 for r in seen)


def test_rid_reserved(cat):
    with pytest.raises(ValueError):
        cat.register("t", pd.DataFrame({RID: [1]}))


def test_duplicate_registration_rejected(cat):
    cat.register("t", pd.DataFrame({"x": [1]}))
    with pytest.raises(ValueError):
        cat.register("t", pd.DataFrame({"x": [1]}))


def test_predefine_materializes_rids(cat):
    _register_pair(cat)
    pj = cat.predefine_join("f", ["fk"], "p", ["k"])
    col = cat.table("f").pdf[pj.rid_col]
    assert col.dtype == np.int32 and col.tolist() == [1, 0, 1, 2]


def test_predefine_preserves_row_order(cat):
    _register_pair(cat)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    assert cat.table("f").pdf["w"].tolist() == [1, 2, 3, 4]


def test_predefine_rejects_non_unique_pk(cat):
    cat.register("p", pd.DataFrame({"k": [1, 1]}))
    cat.register("f", pd.DataFrame({"fk": [1]}))
    with pytest.raises(ValueError, match="not unique"):
        cat.predefine_join("f", ["fk"], "p", ["k"])


def test_predefine_twice_rejected(cat):
    _register_pair(cat)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    with pytest.raises(ValueError, match="already predefined"):
        cat.predefine_join("f", ["fk"], "p", ["k"])


def test_multi_column_key(cat):
    cat.register("p", pd.DataFrame({"a": [1, 1, 2], "b": [1, 2, 1]}))
    cat.register("f", pd.DataFrame({"x": [2, 1], "y": [1, 2]}))
    pj = cat.predefine_join("f", ["x", "y"], "p", ["a", "b"])
    assert cat.table("f").pdf[pj.rid_col].tolist() == [2, 1]


def test_self_referential_predefine(cat):
    cat.register("t", pd.DataFrame({"id": [100, 200, 300], "parent": [300, 100, 100]}))
    pj = cat.predefine_join("t", ["parent"], "t", ["id"])
    assert cat.table("t").pdf[pj.rid_col].tolist() == [2, 0, 0]


def test_string_key_predefine(cat):
    cat.register("p", pd.DataFrame({"k": ["x", "y"]}))
    cat.register("f", pd.DataFrame({"fk": ["y", "x", "y"]}))
    pj = cat.predefine_join("f", ["fk"], "p", ["k"])
    assert cat.table("f").pdf[pj.rid_col].tolist() == [1, 0, 1]


def test_rid_col_name_stable():
    assert rid_col_name("person", ("person1id",)) == "_rid_person__person1id"


def test_classify_fk_both_orientations(cat):
    _register_pair(cat)
    pj = cat.predefine_join("f", ["fk"], "p", ["k"])
    e = cat.classify("f", ("fk",), "p", ("k",))
    assert (e.kind, e.f_side, e.a_pj, e.b_pj) == ("fk", "a", pj, None)
    e = cat.classify("p", ("k",), "f", ("fk",))
    assert (e.kind, e.f_side, e.a_pj, e.b_pj) == ("fk", "b", None, pj)


def test_classify_value(cat):
    _register_pair(cat)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    e = cat.classify("f", ("w",), "p", ("k",))
    assert (e.kind, e.f_side, e.a_pj, e.b_pj) == ("value", None, None, None)
    # The predefined FK, but against a non-key column of P.
    assert cat.classify("f", ("fk",), "p", ("v",)).kind == "value"


def _register_fkfk(cat):
    cat.register("p", pd.DataFrame({"k": [1, 2]}))
    cat.register("q", pd.DataFrame({"k": [1, 2]}))
    cat.register("e1", pd.DataFrame({"s": [1, 2], "d": [2, 1]}))
    cat.register("e2", pd.DataFrame({"s": [1, 1], "t": [2, 2]}))
    return (cat.predefine_join("e1", ["d"], "p", ["k"]),
            cat.predefine_join("e2", ["s"], "p", ["k"]),
            cat.predefine_join("e2", ["t"], "q", ["k"]))


def test_classify_fkfk(cat):
    d_pj, s_pj, _ = _register_fkfk(cat)
    e = cat.classify("e1", ("d",), "e2", ("s",))
    assert (e.kind, e.f_side, e.a_pj, e.b_pj) == ("fkfk", None, d_pj, s_pj)
    e = cat.classify("e2", ("s",), "e1", ("d",))
    assert (e.a_pj, e.b_pj) == (s_pj, d_pj)


def test_classify_fkfk_needs_same_p(cat):
    _register_fkfk(cat)
    # Both sides are FKs, but into different tables (p vs q).
    assert cat.classify("e1", ("d",), "e2", ("t",)).kind == "value"


def test_classify_self_join(snb_cat):
    e = snb_cat.classify("tagclass", ("subclassoftagclassid",), "tagclass", ("tagclassid",))
    assert e.kind == "fk" and e.f_side == "a"
    assert e.a_pj.f_table == e.a_pj.p_table == "tagclass"
    e = snb_cat.classify("tagclass", ("tagclassid",), "tagclass", ("subclassoftagclassid",))
    assert e.kind == "fk" and e.f_side == "b"


def test_classify_multi_column_key(cat):
    cat.register("p", pd.DataFrame({"a": [1, 1, 2], "b": [1, 2, 1]}))
    cat.register("f", pd.DataFrame({"x": [2, 1], "y": [1, 2]}))
    pj = cat.predefine_join("f", ["x", "y"], "p", ["a", "b"])
    e = cat.classify("f", ("x", "y"), "p", ("a", "b"))
    assert (e.kind, e.a_pj) == ("fk", pj)
    # A single column of the key, or the columns paired in another order, is no FK.
    assert cat.classify("f", ("x",), "p", ("a",)).kind == "value"
    assert cat.classify("f", ("y", "x"), "p", ("a", "b")).kind == "value"


def test_build_rid_index_requires_predefine(cat):
    _register_pair(cat)
    with pytest.raises(ValueError, match="no predefined join"):
        cat.build_rid_index("f", ["fk"])


def test_build_rid_index(cat):
    _register_pair(cat)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    idx = cat.build_rid_index("f", ["fk"])
    assert idx.lookup_many(np.array([0])).tolist() == [1]
    assert sorted(idx.lookup_many(np.array([1])).tolist()) == [0, 2]
    assert idx.lookup_many(np.array([2])).tolist() == [3]
    assert cat.rid_index("f", ("fk",)) is idx


def test_extended_index_requires_second_predefine(cat):
    _register_pair(cat)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    with pytest.raises(ValueError, match="not a predefined join"):
        cat.build_rid_index("f", ["fk"], extended_cols=["w"])


def test_finalize_creates_cached_dfs(spark, cat):
    _register_pair(cat)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    cat.finalize()
    view = cat.table("f").view
    assert spark.catalog.isCached(view)
    df = spark.table(view)
    cols = set(df.columns)
    assert RID in cols and rid_col_name("p", ("fk",)) in cols
    assert dict(df.dtypes)[rid_col_name("p", ("fk",))] == "int"
    assert df.count() == 4


def test_finalize_then_mutation_rejected(cat):
    _register_pair(cat)
    cat.finalize()
    with pytest.raises(RuntimeError):
        cat.register("t2", pd.DataFrame({"x": [1]}))
    with pytest.raises(RuntimeError):
        cat.predefine_join("f", ["fk"], "p", ["k"])


def test_oracle_tables_exclude_rid_columns(cat):
    _register_pair(cat)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    orig = cat.oracle_tables()
    assert list(orig["f"].columns) == ["fk", "w"]
    assert orig["f"]["fk"].tolist() == [20, 10, 20, 30]
    assert cat.table("f").pdf_original.equals(orig["f"])


@pytest.mark.parametrize("p_rows, f_rows, fk, pk", [
    pytest.param({"k": ["x", "y"]}, {"fk": ["y", "z"]}, ["fk"], ["k"], id="dangling_value"),
    pytest.param({"k": [10, 20, 30]}, {"fk": [20, None, 10]}, ["fk"], ["k"], id="null_fk"),
    # pandas' merge pairs the two nulls; SQL's NULL = NULL matches nothing.
    pytest.param({"k": [10, 20, None]}, {"fk": [20, None, 10]}, ["fk"], ["k"], id="null_pk"),
    pytest.param({"a": [1, 1, 2], "b": [1, 2, 1]}, {"x": [2, 1], "y": [1, None]},
                 ["x", "y"], ["a", "b"], id="two_column_fk_one_null"),
    # An FK–FK edge f1.fk = f2.fk over the dangling 99 matches in SQL; as an
    # equality of two pointers it would match nothing.
    pytest.param({"k": [10, 20, 30]}, {"fk": [20, 10, 20, 99], "w": [1, 2, 3, 4]},
                 ["fk"], ["k"], id="fkfk_over_a_dangling_value"),
])
def test_predefine_rejects_a_pointer_to_no_row(cat, p_rows, f_rows, fk, pk):
    cat.register("p", pd.DataFrame(p_rows))
    f = cat.register("f", pd.DataFrame(f_rows))
    with pytest.raises(ValueError, match="holds a null|match no"):
        cat.predefine_join("f", fk, "p", pk)
    assert list(f.pdf.columns) == list(f_rows) + [RID]
    assert not f.rid_cols and not cat.predefined


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("seed_filter", ["p.v <> 'a'", "f.w >= 3"])
def test_join_over_a_dangling_fk(spark, cat, system, seed_filter):
    # PREDEFINE JOIN rejects the dangling row (fk = 99); with that row dropped
    # it succeeds, and every system returns the rows of the join over the data
    # the row came from. Seeded on p, INLJ extends f through the index; seeded
    # on f, it looks p up by pointer. No RID join may compare its keys as doubles.
    p = cat.register("p", pd.DataFrame({"k": [10, 20, 30], "v": ["a", "b", "c"]}))
    raw = pd.DataFrame({"fk": [20, 10, 20, 99], "w": [1, 2, 3, 4]})
    cat.register("f_raw", raw)
    with pytest.raises(ValueError, match="match no"):
        cat.predefine_join("f_raw", ["fk"], "p", ["k"])
    cat.register("f", raw[raw["fk"].isin(p.pdf["k"])].reset_index(drop=True))
    cat.predefine_join("f", ["fk"], "p", ["k"])
    cat.build_rid_index("f", ["fk"])
    cat.finalize()
    spec = QuerySpec(name="dangling", tables=[TableRef("p", "p"), TableRef("f", "f")],
                     joins=[JoinEdge.of("f.fk", "p.k")], filters=[seed_filter],
                     select=[("p.v", "v"), ("f.w", "w")])
    out = oracle_check(spark, cat, spec, system)
    assert_equivalent(out.df, spec.to_sql(), p=p.pdf_original, f=raw)
    joins = executed_joins(out.df)
    assert joins and not any("double" in rest for _op, rest in joins)


def test_predefine_relationship_builds_both_indices(cat):
    cat.register("p", pd.DataFrame({"k": [1, 2]}))
    cat.register("e", pd.DataFrame({"s": [1, 2, 1], "d": [2, 1, 1]}))
    cat.predefine_relationship("e", ["s"], "p", ["k"], ["d"], "p", ["k"])
    fwd, bwd = cat.rid_index("e", ("s",)), cat.rid_index("e", ("d",))
    assert fwd is not None and bwd is not None
    assert fwd.ext_rids is not None and bwd.ext_rids is not None
    assert cat.index_ext_target[("e", ("s",))].fk_cols == ("d",)


def test_scan_rids_no_filters_is_every_row(cat):
    _register_pair(cat)
    got = cat.scan_rids("f", "x", [])
    assert got.dtype == np.int32 and got.tolist() == [0, 1, 2, 3]


def test_scan_rids_alias_text_inside_literal(cat):
    cat.register("person", pd.DataFrame({"name": ["p.x", "q", "p.x", "p.name"]}))
    assert cat.scan_rids("person", "p", ["p.name = 'p.x'"]).tolist() == [0, 2]
    assert cat.scan_rids("person", "p", ["p.name <> 'p.x'", "p.name <> 'q'"]).tolist() == [3]


def test_scan_rids_after_predefine_join(cat):
    _register_pair(cat)
    pj = cat.predefine_join("f", ["fk"], "p", ["k"])
    assert pj.rid_col in cat.table("f").pdf.columns
    assert cat.scan_rids("f", "f1", ["f1.fk = 20", "f1.w > 1"]).tolist() == [2]
    assert cat.scan_rids("p", "p", ["p.v <> 'a'"]).tolist() == [1, 2]


def test_scan_rids_empty_result(cat):
    _register_pair(cat)
    got = cat.scan_rids("f", "f", ["f.w > 100"])
    assert got.dtype == np.int32 and len(got) == 0


def test_unpersist_closes_the_connection(spark):
    import duckdb

    c = Catalog(spark)
    _register_pair(c)
    c.unpersist()
    with pytest.raises(duckdb.ConnectionException):
        c.scan_rids("f", "f", ["f.w > 1"])


def test_catalogs_in_one_session_scan_their_own_tables(spark, follows_cat, snb_cat):
    # Both catalogs have a ``person`` table; each scan reads its own.
    spec = QuerySpec(name="people", tables=[TableRef("p", "person")], joins=[],
                     select=[("count(*)", "n")], group_by=[])
    for c in (follows_cat, snb_cat):
        out = oracle_check(spark, c, spec, "DuckDB")
        assert out.df.toPandas()["n"].tolist() == [c.table("person").n_rows]


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def test_unpersist_drops_the_views(spark):
    c = Catalog(spark)
    _register_pair(c)
    before = _persistent_rdds(spark)
    c.finalize()
    views = [c.table(name).view for name in ("p", "f")]
    assert all(spark.catalog.tableExists(v) for v in views)
    assert _persistent_rdds(spark) == before + 2
    c.unpersist()
    assert not any(spark.catalog.tableExists(v) for v in views)
    assert _persistent_rdds(spark) == before  # dropping a view uncaches its data


def test_finalize_loads_more_tables_than_cores(spark):
    # More tables than the load pool has threads; every table has a distinct
    # row count, so a view bound to another table's data would show.
    n = 2 * spark.sparkContext.defaultParallelism + 1
    c = Catalog(spark)
    c.register("t0", pd.DataFrame({"k": np.arange(5) * 10}))
    for i in range(1, n):
        rows = 5 + i
        c.register(f"t{i}", pd.DataFrame({
            "k": np.arange(rows), "s": [f"s{i}_{r}" for r in range(rows)],
            "x": np.arange(rows) / 4.0, "fk": (np.arange(rows) % 5) * 10,
        }))
        c.predefine_join(f"t{i}", ["fk"], "t0", ["k"])
    before = _persistent_rdds(spark)
    c.finalize()
    views = [t.view for t in c.tables.values()]
    assert len(set(views)) == n
    assert _persistent_rdds(spark) == before + n
    for t in c.tables.values():
        assert spark.catalog.isCached(t.view)
        df = spark.table(t.view)
        if t.rid_cols:
            assert dict(df.dtypes)[t.rid_cols[("fk",)]] == "int"
        got = df.toPandas().sort_values(RID).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, t.pdf)
    c.unpersist()
    assert _persistent_rdds(spark) == before


def test_unpersist_leaves_a_same_data_catalog_cached(spark):
    # Each catalog caches its own copy of equal data, so dropping one
    # catalog's views leaves the other's cached.
    key = "spark.sql.execution.arrow.localRelationThreshold"
    previous = spark.conf.get(key)
    spark.conf.set(key, "1m")
    try:
        before = _persistent_rdds(spark)
        cats = []
        for _ in range(2):
            c = Catalog(spark)
            c.register("p", pd.DataFrame({"k": [10, 20, 30]}))
            c.finalize()
            cats.append(c)
        assert spark.conf.get(key) == "1m"  # restored after the loads
    finally:
        spark.conf.set(key, previous)
    first, second = cats
    assert _persistent_rdds(spark) == before + 2
    first.unpersist()
    assert _persistent_rdds(spark) == before + 1
    view = second.table("p").view
    assert spark.catalog.isCached(view)
    assert "LocalTableScan" not in spark.table(view)._jdf.queryExecution().toString()
    assert sorted(r.k for r in spark.table(view).collect()) == [10, 20, 30]
    second.unpersist()
    assert _persistent_rdds(spark) == before


@pytest.mark.filterwarnings("ignore:createDataFrame attempted Arrow optimization")
def test_finalize_raises_after_every_load_ends(spark):
    # An object column mixing int and bytes converts to neither Arrow nor a
    # Spark schema (int and str would merge to string), so that table's load
    # fails; the tables after it still load before ``finalize`` raises.
    c = Catalog(spark)
    c.register("bad", pd.DataFrame({"m": pd.Series([1, b"a"], dtype=object)}))
    for i in range(3):
        c.register(f"ok{i}", pd.DataFrame({"x": np.arange(4 + i)}))
    before = _persistent_rdds(spark)
    with pytest.raises(PySparkTypeError, match="CANNOT_MERGE_TYPE"):
        c.finalize()
    assert not c._finalized
    assert c.table("bad").view is None
    assert _persistent_rdds(spark) == before + 3
    assert all(spark.catalog.isCached(c.table(f"ok{i}").view) for i in range(3))
    c.unpersist()
    assert _persistent_rdds(spark) == before
