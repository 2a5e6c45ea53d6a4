"""Plan executor: runs a (possibly rewritten) physical plan on Spark.

Each execution compiles the plan tree to one Spark SQL statement over the
catalog's temp views and runs it with a single ``spark.sql`` call, so Spark
parses and analyses the whole query once. A scan is a subquery that renames
every column to ``alias__col`` and applies the spec's filter text verbatim
(``scan_text``); a join is a hinted ``JOIN`` of its children; ``finish`` is
the outer ``SELECT [DISTINCT] … WHERE <residuals> GROUP BY …``. An applied
ScanSJ is text in its scan too (``repro.exec.sip``). So are the relations
the driver computes, SJoinIdxM's index pairs and a ScanSJ RID set too large
for an ``IN`` list: ``relation_text`` renders both, so every statement is text
and ``spark.sql`` gets no arguments. The INLJ executor (``repro.exec.inlj``)
builds its one statement from the same ``scan_text``, ``hash_join`` and
``finish``.

Compilation mirrors hash-join pipeline semantics: for every SJoin variant the
build subtree's RID sets are determined first, masks are registered for the
probe-side ScanSJ operators, and only then is the probe subtree compiled — so
the probe scans observe every bitmask that the paper's operators would have
received. The RID sets themselves are computed in the driver by semijoin
propagation over the predefined-join structure (``repro.core.semijoin_reduce``
— exact per-scan filters from ``Catalog.scan_rids``, superset-safe across
joins) so the whole query still runs as one fused Spark action, matching the
paper's in-process SIP cost profile.

Every plan join runs as the hash join the plan describes: the build child
carries a ``BROADCAST`` hint, so Spark builds its hash table from exactly that
side (``BuildLeft`` / ``BuildRight``) and streams the probe side, ScanSJ filter
included, through it without a shuffle. Hinted joins are not reordered by
Catalyst, so the executed join order is the plan's. SJoinIdxM broadcasts its
index pairs and then ``build ⋈ pairs`` the same way. The hint wins over a
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

from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import RID, RID_DTYPE, Catalog, Table
from repro.core.rewrite import CONFIGS, GRAIN_FULL, GrainConfig, rewrite_plan
from repro.core.semijoin_reduce import _via
from repro.exec import sip
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
# falls back to Catalyst's shuffle join. A ScanSJ RID set above it is not
# applied at all (the RID equi-join enforces the same predicate).
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


def relation_text(cols: dict[str, np.ndarray]) -> str:
    """SQL text of a relation the driver built: one ``int`` column per entry
    of ``cols`` (equal-length arrays of RIDs), one row per position,
    duplicates kept. ``int`` is the type of every RID column in Spark, so a
    join of this relation with a scan's RIDs casts no key. Each column is one
    comma-separated string literal, so the parser sees one token per column,
    not one per value as in a ``VALUES`` list; its cast to ``ARRAY<INT>``
    folds to a literal array at optimization, so no row parses a string. An
    empty relation has its own text, since ``CAST('' AS INT)`` fails under
    ANSI mode."""
    if len(next(iter(cols.values()))) == 0:
        typed = ", ".join(f"CAST(NULL AS INT) AS `{c}`" for c in cols)
        return f"(SELECT {typed} WHERE FALSE)"
    named = ", ".join(f"z.`{i}` AS `{c}`" for i, c in enumerate(cols))
    arrays = ", ".join(f"CAST(split('{','.join(map(str, v.tolist()))}', ',') AS ARRAY<INT>)"
                       for v in cols.values())
    return f"(SELECT {named} FROM (SELECT inline(arrays_zip({arrays}))) AS z)"


def hash_join(left: str, right: str, on: str, build: str, build_rows: float) -> str:
    """SQL text of ``left`` joined with ``right`` on ``on``, shared by both
    executors: a broadcast hash join that builds on the ``build`` side
    (``"left"`` or ``"right"``) and streams the other through it, unless
    ``build_rows`` exceeds ``BROADCAST_MAX_ROWS`` and the join is left to
    Catalyst."""
    hint = ""
    if build_rows <= BROADCAST_MAX_ROWS:
        hint = f"/*+ BROADCAST({'l' if build == 'left' else 'r'}) */ "
    return f"(SELECT {hint}* FROM {left} AS l JOIN {right} AS r ON {on})"


def scan_text(t: Table, alias: str, cols: list[str], filters: list[str],
              masks: SemiJoinMasks | None = None) -> str:
    """SQL text of a scan of ``t``'s view as ``alias``, shared by both
    executors: the columns ``cols`` renamed ``alias__col`` and the spec's
    ``filters`` verbatim, narrowed by ScanSJ when ``masks`` is given (an
    applied mask, see ``sip.apply_sip_filter``)."""
    missing = [c for c in cols if c not in t.pdf.columns]
    if missing:
        raise KeyError(f"{t.name} has no columns {missing}")
    source = f"`{t.view}` AS `{alias}`"
    where = [f"({f})" for f in filters]
    if masks is not None:
        source, cond = sip.apply_sip_filter(relation_text, source, alias, masks)
        if cond:
            where.append(cond)
    sql = (f"SELECT {', '.join(f'`{alias}`.`{c}` AS `{alias}__{c}`' for c in cols)} "
           f"FROM {source}")
    if where:
        sql += " WHERE " + " AND ".join(where)
    return f"({sql})"


def _scan_cols(t: Table, alias: str, needed: dict[str, set[str]]) -> list[str]:
    """The columns a scan of ``t`` emits (at least one)."""
    return sorted(needed[alias]) or [t.user_columns[0]]


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
        body = self._compile(plan, spec, _plan_needed(spec, plan), ctx)
        df = finish(self.spark, spec, body)
        result = df.toPandas() if collect else None
        return ExecOutcome(result=result, metrics=ctx.metrics, df=None if collect else df)

    # ----------------------------------------------------------- node logic
    def _scan(self, node: ScanNode, needed: dict[str, set[str]], ctx: _Ctx) -> str:
        """SQL text of a scan, with the ScanSJ of the mask registered for it
        when ``sip.should_apply`` finds that worth applying and its RID set
        fits under ``BROADCAST_MAX_ROWS``."""
        t = self.catalog.table(node.table)
        a = node.alias
        ctx.metrics.table_rows[a] = t.n_rows
        masks = ctx.masks.get(a)
        ctx.metrics.scanned[a] = t.n_rows if masks is None else masks.rows_in_active_zones()
        # A near-full mask is never worth applying, nor is a RID set too large
        # to broadcast: the RID equi-join enforces the same predicate, so
        # skipping is correctness-neutral (the paper's "no major overheads"
        # property).
        if not (masks is not None and sip.should_apply(masks)
                and masks.selected_rows() <= BROADCAST_MAX_ROWS):
            masks = None
        return scan_text(t, a, _scan_cols(t, a, needed), node.filters, masks)

    def _subtree_sets(self, subtree: PlanNode, spec: QuerySpec,
                      ctx: _Ctx) -> dict[str, np.ndarray | None]:
        """Semijoin-reduced RID sets for every alias of a build subtree,
        computed in the driver (see ``repro.core.semijoin_reduce``). A hash
        build reads its input fully before the probe runs, so a scan's set is
        a pure function of its filters and earlier masks: no Spark job. Aliases
        of join-merged relationship tables participate as unfiltered hops so
        information still flows through them."""
        # Imported at call time, not with ``_via`` at the top: the benchmark's
        # layer tracer replaces the module attribute, and a name bound at
        # import would bypass it.
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

    def _register_sip(self, action: SipAction, sets: dict[str, np.ndarray | None],
                      spec: QuerySpec, ctx: _Ctx) -> None:
        src = self.catalog.table(spec.table_of(action.source_alias))
        rids = sets.get(action.source_alias)
        col = None if action.source_col == RID else src.pdf[action.source_col]
        if rids is None:
            if col is None:
                return  # no information to pass
            rids = np.arange(src.n_rows, dtype=RID_DTYPE)  # every row's pointer
        idx = (self.catalog.rid_index(*action.index_key)
               if action.kind == "index" else None)
        self._pass_rids(_via(col, idx)(rids), action.target_alias, spec, ctx)

    def _compile(self, node: PlanNode, spec: QuerySpec, needed: dict[str, set[str]],
                 ctx: _Ctx) -> str:
        """SQL text of the relation ``node`` computes, with one ``alias__col``
        column per column a scan emits."""
        if isinstance(node, ScanNode):
            return self._scan(node, needed, ctx)
        if isinstance(node, MergeJoinNode):
            return self._merge(node, spec, needed, ctx)
        assert isinstance(node, JoinNode)
        build_child = node.left if node.build == "left" else node.right
        probe_child = node.right if node.build == "left" else node.left
        build = self._compile(build_child, spec, needed, ctx)
        if node.sips:
            sets = self._subtree_sets(build_child, spec, ctx)
            for s in node.sips:
                self._register_sip(s, sets, spec, ctx)
        probe = self._compile(probe_child, spec, needed, ctx)
        left, right = (build, probe) if node.build == "left" else (probe, build)
        on = " AND ".join(f"`{la}__{lc}` = `{ra}__{rc}`"
                          for (la, lc), (ra, rc) in node.conds)
        return hash_join(left, right, on, node.build, build_child.est_rows)

    def _merge(self, node: MergeJoinNode, spec: QuerySpec,
               needed: dict[str, set[str]], ctx: _Ctx) -> str:
        build = self._compile(node.build, spec, needed, ctx)
        sets = self._subtree_sets(node.build, spec, ctx)
        p1_rids = sets.get(node.p1_alias)
        if p1_rids is None:
            p1_rids = np.arange(
                self.catalog.table(spec.table_of(node.p1_alias)).n_rows, dtype=RID_DTYPE
            )
        idx = self.catalog.rid_index(*node.index_key)
        src, _f, dst = idx.pairs(p1_rids)
        self._pass_rids(np.unique(dst), node.p2_alias, spec, ctx)
        # The relationship table is never scanned — record it explicitly.
        ctx.metrics.scanned[node.f_alias] = 0
        ctx.metrics.table_rows[node.f_alias] = self.catalog.table(node.f_table).n_rows
        probe = self._compile(node.probe, spec, needed, ctx)
        pairs = relation_text({"__m_p1": src, "__m_p2": dst})
        # The pairs relation comes straight out of the in-memory RID index, so
        # broadcast it (the analogue of the index lookups feeding SJoinIdxM),
        # then broadcast ``build ⋈ pairs`` as the build of the join with the
        # probe subtree, which streams through unshuffled.
        hint_m = hint_b = ""
        if len(src) <= BROADCAST_MAX_ROWS:
            hint_m, hint_b = "/*+ BROADCAST(m) */ ", "/*+ BROADCAST(b) */ "
        built = (f"(SELECT {hint_m}* FROM {build} AS b JOIN {pairs} AS m "
                 f"ON `{node.p1_alias}__{RID}` = `__m_p1`)")
        # Name the columns, leaving out the pairs', so that an enclosing
        # SJoinIdxM's own ``__m_p1`` / ``__m_p2`` stay unambiguous.
        cols = ", ".join(
            f"`{s.alias}__{c}`"
            for s in scans_of(node.build) + scans_of(node.probe)
            for c in _scan_cols(self.catalog.table(s.table), s.alias, needed)
        )
        return (f"(SELECT {hint_b}{cols} FROM {built} AS b JOIN {probe} AS r "
                f"ON `__m_p2` = `{node.p2_alias}__{RID}`)")


def finish(spark: SparkSession, spec: QuerySpec, body: str) -> DataFrame:
    """The one statement of an execution: residual filters, projection /
    aggregation and distinct over ``body``, the SQL text of the joined
    ``alias__col`` relation. Shared by the relational and the INLJ
    executors."""
    al = spec.aliases
    sel = [(qualify(e, al), o) for e, o in spec.select]
    head = "SELECT DISTINCT" if spec.distinct and spec.group_by is None else "SELECT"
    sql = f"{head} {', '.join(f'{e} AS `{o}`' for e, o in sel)} FROM {body} AS q"
    residual = spec.residual_filters()
    if residual:
        sql += " WHERE " + " AND ".join(f"({qualify(f, al)})" for f in residual)
    if spec.group_by:
        sql += " GROUP BY " + ", ".join(e for e, o in sel if o in spec.group_by)
    return spark.sql(sql)
