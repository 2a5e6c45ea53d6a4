"""SIP behavior tests: bitmask filters actually prune scans, results stay
correct with/without SIP, multiple masks intersect (paper §4 Step 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import Catalog
from repro.exec import sip
from repro.exec.sip import apply_sip_filter
from repro.plan.spec import JoinEdge, QuerySpec, TableRef
from tests.util import oracle_check, run_system


def test_apply_sip_filter_selects_rows(spark):
    pdf = pd.DataFrame({"p___rid": np.arange(10, dtype=np.int64),
                        "p__v": np.arange(10) * 2})
    df = spark.createDataFrame(pdf)
    masks = SemiJoinMasks.from_rids(np.array([1, 5, 9]), 10, 4)
    got = apply_sip_filter(spark, df, "p___rid", masks).toPandas()
    assert sorted(got["p___rid"]) == [1, 5, 9]


def test_apply_sip_filter_empty_mask(spark):
    pdf = pd.DataFrame({"p___rid": np.arange(5, dtype=np.int64)})
    df = spark.createDataFrame(pdf)
    masks = SemiJoinMasks.from_rids(np.array([], dtype=np.int64), 5, 2)
    assert apply_sip_filter(spark, df, "p___rid", masks).count() == 0


def test_apply_sip_preserves_schema(spark):
    pdf = pd.DataFrame({"p___rid": np.arange(4, dtype=np.int64),
                        "p__s": ["a", "b", "c", "d"],
                        "p__f": [0.1, 0.2, 0.3, 0.4]})
    df = spark.createDataFrame(pdf)
    masks = SemiJoinMasks.from_rids(np.array([2]), 4, 2)
    out = apply_sip_filter(spark, df, "p___rid", masks)
    assert out.schema == df.schema
    assert out.toPandas()["p__s"].tolist() == ["c"]


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
    duck = run_system(spark, sip_cat, spec, "DuckDB", collect=True)
    grain = run_system(spark, sip_cat, spec, "GRainDB", collect=True)
    assert grain.metrics.total_scanned < duck.metrics.total_scanned
    pd.testing.assert_frame_equal(duck.result, grain.result, check_dtype=False)


def test_reverse_semijoin_reduces_f_scan(spark, sip_cat):
    spec = _spec(["p.k = 7"])  # selective on P -> SJoinIdxR prunes F's scan
    grain = run_system(spark, sip_cat, spec, "GRainDB", collect=True)
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
    "spec", [_spec(["f.v < 10"]), _spec(["p.k = 7"]), _two_sip_spec()],
    ids=["sjoin", "sjoin_idxr", "two_sip"])
def test_bitmask_scansj_through_the_executor(spark, sip_cat, spec, monkeypatch):
    # With both gates at 0 every non-empty mask is applied as the bitmask pass.
    monkeypatch.setattr(sip, "APPLY_MIN_PRUNED_ROWS", 0)
    monkeypatch.setattr(sip, "ISIN_MAX", 0)
    out = oracle_check(spark, sip_cat, spec, "GRainDB")
    assert "MapInPandas" in out.df._jdf.queryExecution().executedPlan().toString()
