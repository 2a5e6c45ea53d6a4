"""SIP behavior tests: bitmask filters actually prune scans, results stay
correct with/without SIP, multiple masks intersect (paper §4 Step 2)."""
import importlib
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import SparkSession

from repro.bench import workloads_snb
from repro.bench.runners import run_system
from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import Catalog
from repro.exec import executor, sip
from repro.exec.executor import PlanExecutor, relation_text
from repro.exec.sip import apply_sip_filter
from repro.plan.nodes import MergeJoinNode, joins_of
from repro.plan.spec import JoinEdge, QuerySpec, TableRef
from tests.util import assert_oracle, executed_joins, oracle_check


def _filtered(spark, pdf, masks):
    """The scan of ``pdf`` as alias ``p`` with ScanSJ applied: its statement
    text and result, through the executor's relation renderer."""
    spark.createDataFrame(pdf).createOrReplaceTempView("sip_p")
    source, cond = apply_sip_filter(relation_text, "`sip_p` AS `p`", "p", masks)
    sql = f"SELECT * FROM {source}" + (f" WHERE {cond}" if cond else "")
    return sql, spark.sql(sql)


def test_apply_sip_filter_selects_rows(spark, monkeypatch):
    pdf = pd.DataFrame({"_rid": np.arange(10, dtype=np.int64), "v": np.arange(10) * 2})
    masks = SemiJoinMasks.from_rids(np.array([1, 5, 9]), 10, 4)
    sql, df = _filtered(spark, pdf, masks)
    assert sql == "SELECT * FROM `sip_p` AS `p` WHERE `p`.`_rid` IN (1, 5, 9)"
    assert sorted(df.toPandas()["_rid"]) == [1, 5, 9]
    # Above ISIN_MAX the same set is a broadcast semi-join on a RID relation.
    monkeypatch.setattr(sip, "ISIN_MAX", 2)
    sql, df = _filtered(spark, pdf, masks)
    assert sql == ("SELECT * FROM (SELECT /*+ BROADCAST(`p__sip`) */ * FROM `sip_p` AS `p` "
                   "LEFT SEMI JOIN (SELECT z.`0` AS `_rid` FROM (SELECT inline(arrays_zip("
                   "CAST(split('1,5,9', ',') AS ARRAY<INT>)))) AS z) AS `p__sip` "
                   "ON `p`.`_rid` = `p__sip`.`_rid`) AS `p`")
    assert "LeftSemi, BuildRight" in df._jdf.queryExecution().executedPlan().toString()
    assert sorted(df.toPandas()["_rid"]) == [1, 5, 9]


def test_apply_sip_filter_empty_mask(spark, monkeypatch):
    pdf = pd.DataFrame({"_rid": np.arange(5, dtype=np.int64)})
    masks = SemiJoinMasks.from_rids(np.array([], dtype=np.int64), 5, 2)
    for isin_max in (64, 0):  # FALSE on either side of the IN-list limit
        monkeypatch.setattr(sip, "ISIN_MAX", isin_max)
        sql, df = _filtered(spark, pdf, masks)
        assert sql == "SELECT * FROM `sip_p` AS `p` WHERE FALSE"
        assert df.count() == 0


def test_apply_sip_preserves_schema(spark, monkeypatch):
    pdf = pd.DataFrame({"_rid": np.arange(4, dtype=np.int64),
                        "s": ["a", "b", "c", "d"],
                        "f": [0.1, 0.2, 0.3, 0.4]})
    masks = SemiJoinMasks.from_rids(np.array([2]), 4, 2)
    for isin_max in (64, 0):  # IN list, semi-join
        monkeypatch.setattr(sip, "ISIN_MAX", isin_max)
        _sql, df = _filtered(spark, pdf, masks)
        assert df.schema == spark.table("sip_p").schema
        assert df.toPandas()["s"].tolist() == ["c"]


def test_relation_text_keeps_rows_types_and_duplicates(spark):
    # The SJoinIdxM pairs are a bag: a (p1, p2) pair appears once per F row.
    # RIDs are 32-bit, so the largest value is the int32 maximum.
    big = 2**31 - 1
    df = spark.sql("SELECT * FROM " + relation_text(
        {"a": np.array([3, 1, 1, big]), "b": np.array([7, 0, 0, -1])}) + " AS m")
    assert df.dtypes == [("a", "int"), ("b", "int")]
    assert [tuple(r) for r in df.collect()] == [(3, 7), (1, 0), (1, 0), (big, -1)]


def test_empty_relation_text_is_typed(spark):
    empty = np.array([], dtype=np.int64)
    df = spark.sql(f"SELECT * FROM {relation_text({'a': empty, 'b': empty})} AS m")
    assert df.dtypes == [("a", "int"), ("b", "int")]
    assert df.count() == 0


def test_sjoin_idxm_with_an_empty_build_side(spark, follows_cat, monkeypatch):
    # No person is called Nobody, so SJoinIdxM's build side selects no row
    # and its pairs relation is the empty text.
    spec = QuerySpec(
        name="merge_nobody",
        tables=[TableRef("p1", "person"), TableRef("f1", "follows"),
                TableRef("p2", "person"), TableRef("f2", "follows"),
                TableRef("p3", "person")],
        joins=[JoinEdge.of("p1.ID", "f1.ID1"), JoinEdge.of("f1.ID2", "p2.ID"),
               JoinEdge.of("p2.ID", "f2.ID1"), JoinEdge.of("f2.ID2", "p3.ID")],
        filters=["p1.name = 'Nobody'"],
        select=[("p3.name", "n3")],
    )
    plan = PlanExecutor(spark, follows_cat).build_plan(spec, "GRainDB")
    assert any(isinstance(j, MergeJoinNode) for j in joins_of(plan))
    texts = []
    sql = SparkSession.sql
    monkeypatch.setattr(SparkSession, "sql",
                        lambda self, text: texts.append(text) or sql(self, text))
    out = oracle_check(spark, follows_cat, spec, "GRainDB")
    assert "(SELECT CAST(NULL AS INT) AS `__m_p1`" in texts[0]
    assert out.df.count() == 0


@pytest.fixture(scope="module")
def sip_cat(spark):
    g = np.random.default_rng(5)
    n_p, n_f = 200, 4000
    p = pd.DataFrame({"k": np.arange(n_p, dtype=np.int64),
                      "grp": g.choice(["a", "b", "c", "d"], n_p)})
    f = pd.DataFrame({"fk": np.minimum((g.random(n_f) ** 3 * n_p).astype(np.int64),
                                       n_p - 1),
                      "v": g.integers(0, 1000, n_f)})
    cat = Catalog(spark, zone_size=16)
    cat.register("p", p)
    cat.register("f", f)
    cat.predefine_join("f", ["fk"], "p", ["k"])
    cat.build_rid_index("f", ["fk"])
    cat.finalize()
    yield cat
    cat.unpersist()


def _spec(filters):
    return QuerySpec(
        name="sipq",
        tables=[TableRef("p", "p"), TableRef("f", "f")],
        joins=[JoinEdge.of("f.fk", "p.k")],
        filters=filters,
        select=[("count(*)", "cnt"), ("sum(f.v)", "sv")],
        group_by=[],
    )


def test_selective_filter_reduces_scans(spark, sip_cat):
    spec = _spec(["f.v < 10"])  # selective on F -> Case 1 sip into P
    duck = run_system(spark, sip_cat, spec, "DuckDB")
    grain = run_system(spark, sip_cat, spec, "GRainDB")
    assert grain.metrics.total_scanned < duck.metrics.total_scanned
    pd.testing.assert_frame_equal(duck.result, grain.result, check_dtype=False)


def test_reverse_semijoin_reduces_f_scan(spark, sip_cat):
    spec = _spec(["p.k = 7"])  # selective on P -> SJoinIdxR prunes F's scan
    grain = run_system(spark, sip_cat, spec, "GRainDB")
    assert grain.metrics.scanned["f"] < sip_cat.table("f").n_rows
    oracle_check(spark, sip_cat, spec, "GRainDB")


def test_no_selective_filter_no_overhead_in_result(spark, sip_cat):
    spec = _spec([])
    oracle_check(spark, sip_cat, spec, "GRainDB")
    oracle_check(spark, sip_cat, spec, "DuckDB")


def _two_sip_spec():
    # Two F aliases both pass masks to the same P scan.
    return QuerySpec(
        name="two_sip",
        tables=[TableRef("p", "p"), TableRef("f1", "f"), TableRef("f2", "f")],
        joins=[JoinEdge.of("f1.fk", "p.k"), JoinEdge.of("f2.fk", "p.k")],
        filters=["f1.v < 5", "f2.v > 995"],
        select=[("count(*)", "cnt")],
        group_by=[],
    )


def test_two_sips_intersect_on_one_scan(spark, sip_cat):
    out = oracle_check(spark, sip_cat, _two_sip_spec(), "GRainDB")
    assert out.metrics.scanned["p"] <= sip_cat.table("p").n_rows


@pytest.mark.parametrize(
    "cat_name, spec",
    [("sip_cat", _spec(["f.v < 10"])), ("sip_cat", _spec(["p.k = 7"])),
     ("sip_cat", _two_sip_spec()),
     # IC6-1 scans ``post`` as alias ``m`` and applies a mask to it.
     ("snb_cat", workloads_snb.specs()["IC6-1"])],
    ids=["sjoin", "sjoin_idxr", "two_sip", "ic6_1"])
def test_bitmask_scansj_through_the_executor(spark, request, cat_name, spec, monkeypatch):
    # With both gates at 0 every non-empty mask is applied as a broadcast
    # semi-join on its RID relation; no Python worker runs.
    cat = request.getfixturevalue(cat_name)
    monkeypatch.setattr(sip, "APPLY_MIN_PRUNED_ROWS", 0)
    monkeypatch.setattr(sip, "ISIN_MAX", 0)
    out = run_system(spark, cat, spec, "GRainDB", collect=False)
    joins = executed_joins(out.df)
    assert any(op == "BroadcastHashJoin" and "LeftSemi" in rest for op, rest in joins)
    assert "MapInPandas" not in out.df._jdf.queryExecution().executedPlan().toString()
    assert_oracle(cat, spec, out)


def test_rid_set_above_the_broadcast_cap_is_not_applied(spark, sip_cat, monkeypatch):
    # The same masks as in the two-SIP case above, but no RID set fits under
    # the broadcast cap: no semi-join is built and the RID equi-joins alone
    # enforce the predicate.
    monkeypatch.setattr(sip, "APPLY_MIN_PRUNED_ROWS", 0)
    monkeypatch.setattr(sip, "ISIN_MAX", 0)
    monkeypatch.setattr(executor, "BROADCAST_MAX_ROWS", 0)
    out = run_system(spark, sip_cat, _two_sip_spec(), "GRainDB", collect=False)
    assert not any("LeftSemi" in rest for _op, rest in executed_joins(out.df))
    assert_oracle(sip_cat, _two_sip_spec(), out)


def test_empty_scansj_through_the_executor(spark, sip_cat):
    # No F row passes ``f.v < 0``: P's mask is empty and its scan is
    # ``WHERE FALSE``, which Catalyst folds to an empty relation.
    out = oracle_check(spark, sip_cat, _spec(["f.v < 0"]), "GRainDB")
    assert out.metrics.scanned["p"] == 0
    assert "LocalTableScan <empty>" in out.df._jdf.queryExecution().executedPlan().toString()


def test_perfbench_tracer_counts_applied_semi_joins(spark, sip_cat, monkeypatch):
    # The benchmark's layer tracer wraps program entry points by name and
    # reads ``masks`` from ``should_apply``'s first and ``apply_sip_filter``'s
    # fourth positional argument; this guards that seam.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(sip, "APPLY_MIN_PRUNED_ROWS", 0)
    monkeypatch.setattr(sip, "ISIN_MAX", 0)
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert len(patched) == 15
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in patched)
        tracer.mode = "graindb"
        out = run_system(spark, sip_cat, _two_sip_spec(), "GRainDB", collect=False)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in patched)
    semi = [r for op, r in executed_joins(out.df) if "LeftSemi" in r]
    assert_oracle(sip_cat, _two_sip_spec(), out)
    counts = {name: n for (mode, name), n in tracer.counts.items() if mode == "graindb"}
    assert counts["sip.applied_bitmask"] == len(semi) > 0
    assert counts.get("sip.applied_isin", 0) == 0
    assert counts["sip.decisions"] == len(semi)
