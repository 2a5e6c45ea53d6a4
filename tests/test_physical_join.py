"""Physical joins: every plan join runs as a Spark broadcast hash join that
builds on the plan's build side, in every system mode, up to
``BROADCAST_MAX_ROWS``; above it Catalyst's own join runs instead. Catalyst
keeps the plan's join order: it does not reorder hinted joins."""
import re

import pytest

import repro.exec.executor as executor
from repro.bench import workloads_job, workloads_snb, workloads_tpch
from repro.bench.runners import run_system
from repro.core.catalog import RID
from repro.core.rewrite import CONFIGS
from repro.exec.executor import PlanExecutor
from repro.plan.nodes import JoinNode, MergeJoinNode, PlanNode, ScanNode, joins_of
from repro.plan.spec import JoinEdge, QuerySpec, TableRef, qualify
from tests.util import RELATIONAL_MODES, assert_oracle, executed_joins

SNB_QUERIES = ["IS3", "IC1-1", "IC6-1"]
# workload -> (its specs, the session catalog its workload tests run on)
WORKLOADS = {
    "snb": (workloads_snb.specs, "snb_cat"),
    "job": (workloads_job.specs, "imdb_cat"),
    "tpch": (workloads_tpch.specs, "tpch_cat"),
}


@pytest.mark.parametrize("build", ["left", "right"])
def test_hash_join_builds_on_plan_side(spark, follows_cat, build):
    spec = QuerySpec(
        name="follows",
        tables=[TableRef("p", "person"), TableRef("f", "follows")],
        joins=[JoinEdge.of("f.ID1", "p.ID")],
        filters=[],
        select=[("p.name", "name"), ("f.year", "year")],
    )
    plan = JoinNode(left=ScanNode("p", "person", est_rows=4),
                    right=ScanNode("f", "follows", est_rows=5),
                    conds=[(("p", "ID"), ("f", "ID1"))], build=build)
    out = PlanExecutor(spark, follows_cat).execute_plan(
        spec, plan, cfg=CONFIGS["DuckDB"], collect=False)
    joins = executed_joins(out.df)
    assert [op for op, _ in joins] == ["BroadcastHashJoin"]
    assert f"Build{build.capitalize()}" in joins[0][1]
    assert_oracle(follows_cat, spec, out)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
@pytest.mark.parametrize("qname", SNB_QUERIES)
def test_snb_joins_are_broadcast_hash_joins(spark, snb_cat, qname, mode):
    spec = workloads_snb.specs()[qname]
    ex = PlanExecutor(spark, snb_cat)
    nodes = joins_of(ex.build_plan(spec, mode))
    n_hash = sum(isinstance(j, JoinNode) for j in nodes)
    n_merge = sum(isinstance(j, MergeJoinNode) for j in nodes)
    ops = [op for op, _ in executed_joins(ex.execute(spec, mode, collect=False).df)]
    assert "SortMergeJoin" not in ops and "ShuffledHashJoin" not in ops
    # SJoinIdxM is two joins: build ⋈ pairs, then that ⋈ probe.
    assert ops.count("BroadcastHashJoin") == n_hash + 2 * n_merge
    if qname == "IC1-1" and mode == "GRainDB":
        assert n_merge == 1


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
@pytest.mark.parametrize("qname", SNB_QUERIES)
def test_above_cap_falls_back_to_catalyst_join(spark, snb_cat, qname, mode,
                                               monkeypatch):
    monkeypatch.setattr(executor, "BROADCAST_MAX_ROWS", -1)
    spec = workloads_snb.specs()[qname]
    out = PlanExecutor(spark, snb_cat).execute(spec, mode, collect=False)
    ops = [op for op, _ in executed_joins(out.df)]
    # The session disables automatic broadcasts, so no join broadcasts.
    assert ops and "BroadcastHashJoin" not in ops
    assert_oracle(snb_cat, spec, out)


def _plan_joins(node: PlanNode) -> list[tuple[list[tuple[str, str]], str]]:
    """Key pairs and build side of the broadcast hash joins ``node`` should
    run, in ``executed_joins`` order: a join before its left, then right,
    child."""
    if isinstance(node, ScanNode):
        return []
    if isinstance(node, JoinNode):
        keys = [(f"{la}__{lc}", f"{ra}__{rc}") for (la, lc), (ra, rc) in node.conds]
        return ([(keys, "BuildLeft" if node.build == "left" else "BuildRight")]
                + _plan_joins(node.left) + _plan_joins(node.right))
    # SJoinIdxM: (build ⋈ pairs) ⋈ probe, each building on its left input's side.
    return ([([("__m_p2", f"{node.p2_alias}__{RID}")], "BuildLeft"),
             ([(f"{node.p1_alias}__{RID}", "__m_p1")], "BuildRight")]
            + _plan_joins(node.build) + _plan_joins(node.probe))


_BHJ = re.compile(r"\[(.*?)\], \[(.*?)\], Inner, (Build\w+)")


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
@pytest.mark.parametrize("workload,qname", [
    (w, q) for w, (specs_of, _) in WORKLOADS.items() for q in specs_of()])
def test_executed_joins_follow_the_plan(spark, request, workload, qname, mode):
    specs_of, cat_fixture = WORKLOADS[workload]
    cat = request.getfixturevalue(cat_fixture)
    spec = specs_of()[qname]
    ex = PlanExecutor(spark, cat)
    plan = ex.build_plan(spec, mode)
    # Plan building only: the executed plan is read without running an action.
    df = ex.execute_plan(spec, plan, CONFIGS[mode], collect=False).df
    got, want = executed_joins(df), _plan_joins(plan)
    if want and not got:
        # An empty SIP set (``WHERE false``) lets Catalyst drop the joins.
        plan_text = df._jdf.queryExecution().executedPlan().toString()
        assert "LocalTableScan <empty>" in plan_text
        return
    assert [op for op, _ in got] == ["BroadcastHashJoin"] * len(want)
    # Catalyst adds a residual equality filter to the join it sits on as a key.
    residual_keys = {frozenset(qualify(f, spec.aliases).split(" = "))
                     for f in spec.residual_filters()}
    for (_, rest), (keys, side) in zip(got, want):
        left, right, build = _BHJ.match(rest).groups()
        pairs = list(zip(left.split(", "), right.split(", ")))
        assert build == side
        assert [k for k in pairs if k in keys] == keys
        assert {frozenset(k) for k in pairs if k not in keys} <= residual_keys


_CAST = re.compile(r"cast\(")
# A single integral broadcast key is packed into a long by Spark itself.
_KEY_PACKING = re.compile(
    r"HashedRelationBroadcastMode\(List\(cast\(input\[\d+, int, (?:true|false)\] as bigint\)\)")


@pytest.mark.parametrize("system", list(CONFIGS) + ["GraphflowDB"])
@pytest.mark.parametrize("qname", SNB_QUERIES + ["IC9-2"])
def test_rid_join_keys_are_never_cast(spark, snb_cat, qname, system):
    # Both sides of every RID join are ``int``, so no join key is a cast.
    out = run_system(spark, snb_cat, workloads_snb.specs()[qname], system, collect=False)
    joins = [rest for op, rest in executed_joins(out.df) if op == "BroadcastHashJoin"]
    assert joins
    for rest in joins:
        for keys in re.match(r"\[(.*?)\], \[(.*?)\]", rest).groups():
            assert all(re.fullmatch(r"\w+", k) for k in keys.split(", ")), rest
    plan = out.df._jdf.queryExecution().executedPlan().toString()
    assert len(_CAST.findall(plan)) == len(_KEY_PACKING.findall(plan))
