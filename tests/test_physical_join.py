"""Physical joins: every plan join runs as a Spark broadcast hash join that
builds on the plan's build side, in every system mode, up to
``BROADCAST_MAX_ROWS``; above it Catalyst's own join runs instead."""
import re

import pytest

import repro.exec.executor as executor
from repro.bench.workloads_snb import specs
from repro.core.rewrite import CONFIGS
from repro.exec.executor import PlanExecutor
from repro.plan.nodes import JoinNode, MergeJoinNode, ScanNode, joins_of
from repro.plan.spec import JoinEdge, QuerySpec, TableRef
from tests.util import RELATIONAL_MODES, assert_oracle

SNB_QUERIES = ["IS3", "IC1-1", "IC6-1"]
_OP = re.compile(r"^[\s:|+\-]*(?:\*\(\d+\)\s*)?(\w+)(.*)$")


def _joins(df) -> list[tuple[str, str]]:
    """(operator, rest of line) of every join in the physical plan Catalyst
    chose, read before the action so adaptive execution has not replanned."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    return [(m[1], m[2]) for m in map(_OP.match, plan.splitlines())
            if m and m[1].endswith("Join")]


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
    joins = _joins(out.df)
    assert [op for op, _ in joins] == ["BroadcastHashJoin"]
    assert f"Build{build.capitalize()}" in joins[0][1]
    assert_oracle(follows_cat, spec, out)


@pytest.mark.parametrize("mode", RELATIONAL_MODES)
@pytest.mark.parametrize("qname", SNB_QUERIES)
def test_snb_joins_are_broadcast_hash_joins(spark, snb_cat, qname, mode):
    spec = specs()[qname]
    ex = PlanExecutor(spark, snb_cat)
    nodes = joins_of(ex.build_plan(spec, mode))
    n_hash = sum(isinstance(j, JoinNode) for j in nodes)
    n_merge = sum(isinstance(j, MergeJoinNode) for j in nodes)
    ops = [op for op, _ in _joins(ex.execute(spec, mode, collect=False).df)]
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
    spec = specs()[qname]
    out = PlanExecutor(spark, snb_cat).execute(spec, mode, collect=False)
    ops = [op for op, _ in _joins(out.df)]
    # The session disables automatic broadcasts, so no join broadcasts.
    assert ops and "BroadcastHashJoin" not in ops
    assert_oracle(snb_cat, spec, out)
