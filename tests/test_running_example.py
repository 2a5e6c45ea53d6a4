"""End-to-end reproduction of the paper's running example:
Tables 1–2 (RID materialization), Figure 2 (extended RID index), and
Examples 2–4 (the two-hop query under each system configuration)."""
import numpy as np
import pytest

from repro.bench.runners import run_system
from repro.core.catalog import RID
from repro.plan.spec import JoinEdge, QuerySpec, TableRef
from tests.util import ALL_SYSTEMS, oracle_check


def two_hop_spec() -> QuerySpec:
    """Example 2: two-hop friends of Karim (SELECT * projected explicitly)."""
    return QuerySpec(
        name="example2",
        tables=[TableRef("p1", "person"), TableRef("f1", "follows"),
                TableRef("p2", "person"), TableRef("f2", "follows"),
                TableRef("p3", "person")],
        joins=[JoinEdge.of("p1.ID", "f1.ID1"), JoinEdge.of("f1.ID2", "p2.ID"),
               JoinEdge.of("p2.ID", "f2.ID1"), JoinEdge.of("f2.ID2", "p3.ID")],
        filters=["p1.name = 'Karim'"],
        select=[("p1.ID", "id1"), ("p1.name", "n1"), ("f1.year", "y1"),
                ("p2.ID", "id2"), ("p2.name", "n2"), ("f2.year", "y2"),
                ("p3.ID", "id3"), ("p3.name", "n3")],
    )


def test_table2_extended_follows(follows_cat):
    """Table 2: the materialized RID columns of Follows'."""
    pdf = follows_cat.table("follows").pdf
    assert pdf[RID].tolist() == [0, 1, 2, 3, 4]
    assert pdf["_rid_person__ID1"].tolist() == [0, 2, 0, 1, 0]
    assert pdf["_rid_person__ID2"].tolist() == [1, 3, 2, 2, 3]


def test_table2_extended_person(follows_cat):
    pdf = follows_cat.table("person").pdf
    assert pdf[RID].tolist() == [0, 1, 2, 3]
    assert pdf["name"].tolist() == ["Mahinda", "Karim", "Carmen", "Zhang"]


def test_figure2_rid_index(follows_cat):
    idx = follows_cat.rid_index("follows", ("ID1",))
    assert idx.offsets.tolist() == [0, 3, 4, 5, 5]
    assert idx.lookup_many(np.array([1])).tolist() == [3]  # Karim follows via Follows row 3
    _, f, ext = idx.pairs([1])
    assert f.tolist() == [3] and ext.tolist() == [2]  # -> Carmen (RID 2)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_example2_result_all_systems(spark, follows_cat, system):
    """The final output must be (Karim, Carmen, Zhang, 2019) everywhere."""
    out = oracle_check(spark, follows_cat, two_hop_spec(), system)
    res = run_system(spark, follows_cat, two_hop_spec(), system).result
    assert len(res) == 1
    row = res.iloc[0]
    assert (row["n1"], row["n2"], row["n3"]) == ("Karim", "Carmen", "Zhang")
    assert (row["y1"], row["y2"]) == (2020, 2019)
    assert (row["id1"], row["id2"], row["id3"]) == (202, 303, 404)
    assert out is not None


def test_example2_scan_reduction_monotone(spark, follows_cat):
    """Each added optimization scans no more tuples than the previous level
    (the ablation intuition of §7.3.1 on the running example)."""
    spec = two_hop_spec()
    totals = {}
    for mode in ["DuckDB", "GRainDB-JM-RSJ", "GRainDB-JM", "GRainDB"]:
        out = run_system(spark, follows_cat, spec, mode)
        totals[mode] = out.metrics.total_scanned
    assert totals["GRainDB"] <= totals["GRainDB-JM"] <= totals["GRainDB-JM-RSJ"] \
        <= totals["DuckDB"]
    assert totals["GRainDB"] < totals["DuckDB"]


def test_example2_sjoin_zone_skipping(spark, follows_cat):
    """With zone size 2, the SJoin bitmasks let ScanSJ(P2)/ScanSJ(P3) scan a
    single zone (2 of 4 person tuples) — Example 2's [0,1] zone bitmask."""
    spec = two_hop_spec()
    out = run_system(spark, follows_cat, spec, "GRainDB-JM")
    assert out.metrics.scanned["p2"] == 2
    assert out.metrics.scanned["p3"] == 2


def test_example4_join_merging_drops_f_scan(spark, follows_cat):
    """Example 4: with extended RID indices and no references to Follows'
    columns, both Follows scans are merged away."""
    spec = QuerySpec(
        name="example4",
        tables=[TableRef("p1", "person"), TableRef("f1", "follows"),
                TableRef("p2", "person"), TableRef("f2", "follows"),
                TableRef("p3", "person")],
        joins=[JoinEdge.of("p1.ID", "f1.ID1"), JoinEdge.of("f1.ID2", "p2.ID"),
               JoinEdge.of("p2.ID", "f2.ID1"), JoinEdge.of("f2.ID2", "p3.ID")],
        filters=["p1.name = 'Karim'"],
        select=[("p3.name", "n3")],
    )
    out = oracle_check(spark, follows_cat, spec, "GRainDB")
    assert out.metrics.scanned.get("f1") == 0
    assert out.metrics.scanned.get("f2") == 0
    assert "SJOIN_IDXM" in out.metrics.plan


def test_example3_reverse_semijoin_plan(spark, follows_cat):
    """Example 3 / Figure 1b: without join merging, probe-side Follows scans
    receive index-based (reverse semijoin) bitmasks."""
    spec = two_hop_spec()
    out = run_system(spark, follows_cat, spec, "GRainDB-JM")
    assert "SJOIN_IDXR" in out.metrics.plan or "sip[index]" in out.metrics.plan
    # Follows scans are pruned below full size by the reverse semijoin.
    assert out.metrics.scanned["f1"] < 5 or out.metrics.scanned["f2"] < 5
