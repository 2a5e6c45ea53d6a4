"""Plan executor: runs a (possibly rewritten) physical plan on Spark.

Execution mirrors hash-join pipeline semantics: for every SJoin variant the
build subtree's RID sets are determined first, masks are registered for the
probe-side ScanSJ operators, and only then is the probe subtree constructed —
so the probe scans observe every bitmask that the paper's operators would have
received. The RID sets themselves are computed in the driver by semijoin
propagation over the predefined-join structure (``repro.core.semijoin_reduce``
— exact per-scan filters from ``Catalog.scan_rids``, superset-safe across
joins) so the whole query still runs as one fused Spark action, matching the
paper's in-process SIP cost profile.

Every plan join runs as the hash join the plan describes: the build child is
wrapped in an explicit broadcast hint, so Spark builds its hash table from
exactly that side (``BuildLeft`` / ``BuildRight``) and streams the probe side,
ScanSJ filter included, through it without a shuffle. SJoinIdxM broadcasts
its index pairs and then ``build ⋈ pairs`` the same way. The hint wins over a
session's ``autoBroadcastJoinThreshold=-1``. Only a build side estimated above
``BROADCAST_MAX_ROWS`` rows is left to Catalyst's own (shuffle) join. DuckDB
mode runs through the same code, so both modes get the same physical join.

Also computes the scanned-tuple accounting that backs Table 4's
"Scan Reduction" row: a plain scan reads the whole table; a ScanSJ reads only
the rows of zones whose zone-bitmask bit is set; a join-merged relationship
table is never scanned at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import RID, Catalog
from repro.core.rewrite import CONFIGS, GRAIN_FULL, GrainConfig, rewrite_plan
from repro.core.semijoin_reduce import _via
from repro.plan.nodes import (
    JoinNode,
    MergeJoinNode,
    PlanNode,
    ScanNode,
    SipAction,
    describe,
    joins_of,
    scans_of,
)
from repro.plan.optimizer import greedy_plan, plan_from_order
from repro.plan.spec import QuerySpec, qualify

# Largest build side, in rows, that is broadcast as a hash-join build: the
# optimizer's estimate for a join's build child, the exact count of an
# SJoinIdxM pairs relation. A larger one would ship a giant broadcast, so it
# falls back to Catalyst's shuffle join.
BROADCAST_MAX_ROWS = 2_000_000


@dataclass
class ExecMetrics:
    """Per-execution accounting."""

    scanned: dict[str, int] = field(default_factory=dict)  # alias -> rows scanned
    table_rows: dict[str, int] = field(default_factory=dict)  # alias -> full size
    plan: str = ""

    @property
    def total_scanned(self) -> int:
        return sum(self.scanned.values())

    @property
    def total_table_rows(self) -> int:
        return sum(self.table_rows.values())


@dataclass
class ExecOutcome:
    result: pd.DataFrame | None
    metrics: ExecMetrics
    df: DataFrame | None = None


class _Ctx:
    def __init__(self, cfg: GrainConfig) -> None:
        self.cfg = cfg
        self.masks: dict[str, SemiJoinMasks] = {}
        # alias -> Catalog.scan_rids result, so a scan under several SJoin
        # builds is evaluated once per execution (never across executions).
        self.scan_rids: dict[str, np.ndarray] = {}
        self.metrics = ExecMetrics()


def _plan_needed(spec: QuerySpec, plan: PlanNode) -> dict[str, set[str]]:
    """Columns each scan must emit: user columns referenced by select/filters
    plus the RID columns the physical plan introduces (join conds, SIP sources
    and targets, merge-join endpoints). Original join-key columns that were
    rewritten away are *not* scanned — the paper's Scan(F) modification."""
    need = spec.referenced_columns()

    def walk(node: PlanNode) -> None:
        if isinstance(node, ScanNode):
            return
        if isinstance(node, JoinNode):
            for (la, lc), (ra, rc) in node.conds:
                need[la].add(lc)
                need[ra].add(rc)
            for s in node.sips:
                need[s.source_alias].add(s.source_col)
                need[s.target_alias].add(RID)
            walk(node.left)
            walk(node.right)
            return
        need[node.p1_alias].add(RID)
        need[node.p2_alias].add(RID)
        walk(node.build)
        walk(node.probe)

    walk(plan)
    return need


class PlanExecutor:
    """Executes query specs under a system mode (DuckDB / GRainDB / ablations)."""

    def __init__(self, spark: SparkSession, catalog: Catalog):
        self.spark = spark
        self.catalog = catalog

    # ------------------------------------------------------------- planning
    def build_plan(
        self,
        spec: QuerySpec,
        mode: str | GrainConfig = "GRainDB",
        order: list[str] | None = None,
    ) -> PlanNode:
        cfg = CONFIGS[mode] if isinstance(mode, str) else mode
        plan = (
            plan_from_order(spec, self.catalog, order)
            if order is not None
            else greedy_plan(spec, self.catalog)
        )
        return rewrite_plan(plan, spec, self.catalog, cfg)

    # ------------------------------------------------------------ execution
    def execute(
        self,
        spec: QuerySpec,
        mode: str | GrainConfig = "GRainDB",
        order: list[str] | None = None,
        collect: bool = True,
    ) -> ExecOutcome:
        cfg = CONFIGS[mode] if isinstance(mode, str) else mode
        plan = self.build_plan(spec, cfg, order=order)
        return self.execute_plan(spec, plan, cfg=cfg, collect=collect)

    def execute_plan(self, spec: QuerySpec, plan: PlanNode,
                     cfg: GrainConfig = GRAIN_FULL, collect: bool = True) -> ExecOutcome:
        ctx = _Ctx(cfg)
        ctx.metrics.plan = describe(plan)
        df = finish(self._run(plan, spec, _plan_needed(spec, plan), ctx), spec)
        result = df.toPandas() if collect else None
        return ExecOutcome(result=result, metrics=ctx.metrics, df=None if collect else df)

    # ----------------------------------------------------------- node logic
    def _scan(self, node: ScanNode, spec: QuerySpec, needed: dict[str, set[str]],
              ctx: _Ctx) -> DataFrame:
        t = self.catalog.table(node.table)
        cols = sorted(needed[node.alias]) or [t.user_columns[0]]
        missing = [c for c in cols if c not in t.pdf.columns]
        if missing:
            raise KeyError(f"{node.table} has no columns {missing}")
        df = t.df.select([F.col(c).alias(f"{node.alias}__{c}") for c in cols])
        for f in node.filters:
            df = df.filter(F.expr(qualify(f, spec.aliases)))
        masks = ctx.masks.get(node.alias)
        if masks is not None:
            from repro.exec.sip import apply_sip_filter, should_apply

            # A near-full mask is never worth applying: the RID equi-join
            # enforces the same predicate, so skipping is correctness-neutral
            # (the paper's "no major overheads" property).
            if should_apply(masks):
                df = apply_sip_filter(self.spark, df, f"{node.alias}__{RID}", masks)
            ctx.metrics.scanned[node.alias] = masks.rows_in_active_zones()
        else:
            ctx.metrics.scanned[node.alias] = t.n_rows
        ctx.metrics.table_rows[node.alias] = t.n_rows
        return df

    def _subtree_sets(self, subtree: PlanNode, spec: QuerySpec,
                      ctx: _Ctx) -> dict[str, np.ndarray | None]:
        """Semijoin-reduced RID sets for every alias of a build subtree,
        computed in the driver (see ``repro.core.semijoin_reduce``). A hash
        build reads its input fully before the probe runs, so a scan's set is
        a pure function of its filters and earlier masks: no Spark job. Aliases
        of join-merged relationship tables participate as unfiltered hops so
        information still flows through them."""
        from repro.core.semijoin_reduce import propagate

        init: dict[str, np.ndarray | None] = {}
        for scan in scans_of(subtree):
            masks = ctx.masks.get(scan.alias)
            init[scan.alias] = None
            if scan.filters or masks is not None:
                rids = ctx.scan_rids.get(scan.alias)
                if rids is None:
                    rids = ctx.scan_rids[scan.alias] = self.catalog.scan_rids(
                        scan.table, scan.alias, scan.filters)
                if masks is not None:
                    rids = rids[masks.row[rids]]
                init[scan.alias] = np.unique(rids)
        for j in joins_of(subtree):
            if isinstance(j, MergeJoinNode):
                init.setdefault(j.f_alias, None)
        return propagate(init, spec, self.catalog,
                         allow_reverse=ctx.cfg.reverse_semijoin)

    def _pass_rids(self, rids: np.ndarray, alias: str, spec: QuerySpec, ctx: _Ctx) -> None:
        """Hand a RID set to ``alias``'s ScanSJ, intersected with any earlier one."""
        n_rows = self.catalog.table(spec.table_of(alias)).n_rows
        masks = SemiJoinMasks.from_rids(rids, n_rows, self.catalog.zone_size)
        prev = ctx.masks.get(alias)
        ctx.masks[alias] = masks if prev is None else prev.combine(masks)

    def _register_sip(self, sip: SipAction, sets: dict[str, np.ndarray | None],
                      spec: QuerySpec, ctx: _Ctx) -> None:
        src = self.catalog.table(spec.table_of(sip.source_alias))
        rids = sets.get(sip.source_alias)
        col = None if sip.source_col == RID else src.pdf[sip.source_col]
        if rids is None:
            if col is None:
                return  # no information to pass
            rids = np.arange(src.n_rows)  # every row's pointer
        idx = self.catalog.rid_index(*sip.index_key) if sip.kind == "index" else None
        self._pass_rids(_via(col, idx)(rids), sip.target_alias, spec, ctx)

    def _run(self, node: PlanNode, spec: QuerySpec, needed: dict[str, set[str]],
             ctx: _Ctx) -> DataFrame:
        if isinstance(node, ScanNode):
            return self._scan(node, spec, needed, ctx)
        if isinstance(node, MergeJoinNode):
            return self._run_merge(node, spec, needed, ctx)
        assert isinstance(node, JoinNode)
        build_child = node.left if node.build == "left" else node.right
        probe_child = node.right if node.build == "left" else node.left
        df_build = self._run(build_child, spec, needed, ctx)
        if node.sips:
            sets = self._subtree_sets(build_child, spec, ctx)
            for s in node.sips:
                self._register_sip(s, sets, spec, ctx)
        df_probe = self._run(probe_child, spec, needed, ctx)
        if build_child.est_rows <= BROADCAST_MAX_ROWS:
            df_build = F.broadcast(df_build)
        df_l, df_r = (
            (df_build, df_probe) if node.build == "left" else (df_probe, df_build)
        )
        cond = None
        for (la, lc), (ra, rc) in node.conds:
            c = F.col(f"{la}__{lc}") == F.col(f"{ra}__{rc}")
            cond = c if cond is None else (cond & c)
        return df_l.join(df_r, cond, "inner")

    def _run_merge(self, node: MergeJoinNode, spec: QuerySpec,
                   needed: dict[str, set[str]], ctx: _Ctx) -> DataFrame:
        df_build = self._run(node.build, spec, needed, ctx)
        p1_rid_col = f"{node.p1_alias}__{RID}"
        sets = self._subtree_sets(node.build, spec, ctx)
        p1_rids = sets.get(node.p1_alias)
        if p1_rids is None:
            p1_rids = np.arange(
                self.catalog.table(spec.table_of(node.p1_alias)).n_rows, dtype=np.int64
            )
        idx = self.catalog.rid_index(*node.index_key)
        src, _f, dst = idx.pairs(p1_rids)
        pairs = pd.DataFrame({"__m_p1": src, "__m_p2": dst})
        self._pass_rids(np.unique(dst), node.p2_alias, spec, ctx)
        # The relationship table is never scanned — record it explicitly.
        ctx.metrics.scanned[node.f_alias] = 0
        ctx.metrics.table_rows[node.f_alias] = self.catalog.table(node.f_table).n_rows
        df_probe = self._run(node.probe, spec, needed, ctx)
        pairs_schema = StructType(
            [StructField("__m_p1", LongType()), StructField("__m_p2", LongType())]
        )
        df_pairs = self.spark.createDataFrame(pairs, schema=pairs_schema).coalesce(1)
        # The pairs relation comes straight out of the in-memory RID index, so
        # broadcast it (the analogue of the index lookups feeding SJoinIdxM),
        # then broadcast ``build ⋈ pairs`` as the build of the join with the
        # probe subtree, which streams through unshuffled.
        broadcast = len(pairs) <= BROADCAST_MAX_ROWS
        if broadcast:
            df_pairs = F.broadcast(df_pairs)
        df_build = df_build.join(df_pairs, F.col(p1_rid_col) == F.col("__m_p1"), "inner")
        if broadcast:
            df_build = F.broadcast(df_build)
        return (
            df_build.join(df_probe, F.col("__m_p2") == F.col(f"{node.p2_alias}__{RID}"),
                          "inner")
            .drop("__m_p1", "__m_p2")
        )


def finish(df: DataFrame, spec: QuerySpec) -> DataFrame:
    """Residual filters, projection / aggregation, distinct — shared by the
    relational and the INLJ executors."""
    al = spec.aliases
    for f in spec.residual_filters():
        df = df.filter(F.expr(qualify(f, al)))
    sel = [(qualify(e, al), o) for e, o in spec.select]
    if spec.group_by is None:
        out = df.select([F.expr(e).alias(o) for e, o in sel])
        if spec.distinct:
            out = out.distinct()
        return out
    keys = [(e, o) for (e, o) in sel if o in spec.group_by]
    aggs = [(e, o) for (e, o) in sel if o not in spec.group_by]
    if not keys:
        return df.agg(*[F.expr(e).alias(o) for e, o in aggs])
    grouped = df.groupBy([F.expr(e).alias(o) for e, o in keys]).agg(
        *[F.expr(e).alias(o) for e, o in aggs]
    )
    return grouped.select([F.col(o) for _, o in sel])
