"""GRainDB's rule-based plan rewrite (paper §4 Step 1, §5.1, §5.2).

Takes the optimizer's hash-join plan and, for every join condition that the
user predefined, swaps in the RID-based operators:

- **Case 1** (*F* on the build side, *P* scanned on the probe side): the join
  becomes an ``SJoin`` — condition rewritten to ``F.RID(P) = P._rid`` and a
  *direct* SIP action passes the build side's materialized RIDs as zone/row
  bitmasks to ``ScanSJ(P)``.
- **Case 2** (*F* on the probe side): the join condition is rewritten to RID
  equality (single dense integer key instead of possibly multi-column /
  string keys); no SIP is possible without an index, because the information
  to pass must be read on the build side first. With a RID index on *F* and
  reverse semijoins enabled, Case 2 becomes ``SJoinIdxR``: an *index* SIP
  action maps build-side P-RIDs through the CSR to the joining F-RIDs.
- **Join merging** (extended RID index): when a relationship table *F* is used
  only to connect *P1* and *P2* (no filters on *F*, none of its columns in
  the output), the two joins collapse into one ``SJoinIdxM`` and the scan of
  *F* is dropped entirely.

``GrainConfig`` switches each optimization independently — the ablation
lattice of §7.3.1 (DuckDB / −JM−RSJ / −JM / full).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.catalog import RID, Catalog
from repro.plan.nodes import (
    JoinNode,
    MergeJoinNode,
    PlanNode,
    ScanNode,
    SipAction,
    aliases_of,
    scans_of,
)
from repro.plan.spec import QuerySpec, aliases_in, cols_of


@dataclass(frozen=True)
class GrainConfig:
    """Which GRainDB optimizations are active (ablation knobs, §7.3.1)."""

    rid_materialization: bool = True
    reverse_semijoin: bool = True
    join_merging: bool = True

    @property
    def label(self) -> str:
        if not self.rid_materialization:
            return "DuckDB"
        if not self.reverse_semijoin:
            return "GRainDB-JM-RSJ"
        if not self.join_merging:
            return "GRainDB-JM"
        return "GRainDB"


GRAIN_FULL = GrainConfig()
GRAIN_NO_JM = GrainConfig(join_merging=False)
GRAIN_RID_ONLY = GrainConfig(join_merging=False, reverse_semijoin=False)
DUCK = GrainConfig(rid_materialization=False, reverse_semijoin=False, join_merging=False)

CONFIGS = {c.label: c for c in (GRAIN_FULL, GRAIN_NO_JM, GRAIN_RID_ONLY, DUCK)}


def _f_alias_unused_elsewhere(spec: QuerySpec, f_alias: str) -> bool:
    """Paper §5.2 conditions (i)+(ii): F has no filters/other joins and none
    of its columns appear in the output."""
    al = set(spec.aliases)
    for f in spec.filters:
        if f_alias in aliases_in(f, al):
            return False
    for e, _ in spec.select:
        if cols_of(e, f_alias):
            return False
    return len(spec.edges_of(f_alias)) == 2


def _single_edge(conds, f_alias: str):
    """If the node's conditions form exactly one (multi-column) edge between
    f_alias and one other alias, return (f_cols, other_alias, other_cols)."""
    sides = set()
    f_cols: list[str] = []
    o_cols: list[str] = []
    for (la, lc), (ra, rc) in conds:
        sides.add((la, ra))
        if la == f_alias:
            f_cols.append(lc)
            o_cols.append(rc)
        elif ra == f_alias:
            f_cols.append(rc)
            o_cols.append(lc)
        else:
            return None
    if len(sides) != 1:
        return None
    la, ra = sides.pop()
    other = ra if la == f_alias else la
    return tuple(f_cols), other, tuple(o_cols)


def _try_merge(node: PlanNode, spec: QuerySpec, catalog: Catalog) -> PlanNode:
    """Bottom-up join-merging pass (runs on the pre-SJoin hash plan)."""
    if isinstance(node, ScanNode):
        return node
    if isinstance(node, MergeJoinNode):  # already merged below
        node.build = _try_merge(node.build, spec, catalog)
        node.probe = _try_merge(node.probe, spec, catalog)
        return node
    assert isinstance(node, JoinNode)
    node.left = _try_merge(node.left, spec, catalog)
    node.right = _try_merge(node.right, spec, catalog)

    for j2_child_attr, j2_other_attr in (("left", "right"), ("right", "left")):
        j1 = getattr(node, j2_child_attr)
        j2_other = getattr(node, j2_other_attr)
        if not isinstance(j1, JoinNode):
            continue
        for f_attr, p1_attr in (("left", "right"), ("right", "left")):
            f_scan = getattr(j1, f_attr)
            p1_side = getattr(j1, p1_attr)
            if not isinstance(f_scan, ScanNode) or f_scan.filters:
                continue
            f_alias = f_scan.alias
            if not _f_alias_unused_elsewhere(spec, f_alias):
                continue
            e1 = _single_edge(j1.conds, f_alias)
            e2 = _single_edge(node.conds, f_alias)
            if e1 is None or e2 is None:
                continue
            fk1, p1_alias, pk1 = e1
            fk2, p2_alias, pk2 = e2
            if p1_alias not in aliases_of(p1_side) or p2_alias not in aliases_of(j2_other):
                continue
            c1 = catalog.classify(f_scan.table, fk1, spec.table_of(p1_alias), pk1)
            c2 = catalog.classify(f_scan.table, fk2, spec.table_of(p2_alias), pk2)
            if c1.f_side != "a" or c2.f_side != "a":
                continue
            idx = catalog.rid_index(f_scan.table, fk1)
            ext_target = catalog.index_ext_target.get((f_scan.table, fk1))
            if idx is None or idx.ext_rids is None or ext_target != c2.a_pj:
                continue
            # Cost gate: SJoinIdxM reads the adjacency lists of every build-side
            # P1 row; with a huge build side the merged pairs relation dwarfs
            # the scan it saves. Merge only when the build side is small — the
            # regime the paper targets (seeded/selective P1).
            if getattr(p1_side, "est_rows", 0) > 100_000:
                continue
            return MergeJoinNode(
                build=p1_side,
                probe=j2_other,
                f_alias=f_alias,
                f_table=f_scan.table,
                index_key=(f_scan.table, fk1),
                p1_alias=p1_alias,
                p2_alias=p2_alias,
                est_rows=node.est_rows,
            )
    return node


def _rewrite_joins(node: PlanNode, spec: QuerySpec, catalog: Catalog,
                   cfg: GrainConfig) -> PlanNode:
    """Per-join Case 1 / Case 2 / SJoinIdxR rewriting (post join-merging)."""
    if isinstance(node, ScanNode):
        return node
    if isinstance(node, MergeJoinNode):
        node.build = _rewrite_joins(node.build, spec, catalog, cfg)
        node.probe = _rewrite_joins(node.probe, spec, catalog, cfg)
        return node
    assert isinstance(node, JoinNode)
    node.left = _rewrite_joins(node.left, spec, catalog, cfg)
    node.right = _rewrite_joins(node.right, spec, catalog, cfg)

    build_aliases = aliases_of(node.left if node.build == "left" else node.right)
    probe_node = node.right if node.build == "left" else node.left
    probe_scan_aliases = {s.alias for s in scans_of(probe_node)}

    # Group cond pairs into (left_alias, right_alias) edges with column tuples
    # so multi-column predefined keys are matched as a unit.
    groups: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for (la, lc), (ra, rc) in node.conds:
        groups.setdefault((la, ra), []).append((lc, rc))

    new_conds: list[tuple[tuple[str, str], tuple[str, str]]] = []
    sips: list[SipAction] = []
    got_rid = False
    for (la, ra), colpairs in groups.items():
        lcols = tuple(lc for lc, _ in colpairs)
        rcols = tuple(rc for _, rc in colpairs)
        e = catalog.classify(spec.table_of(la), lcols, spec.table_of(ra), rcols)
        if e.kind == "value" or not cfg.rid_materialization:
            new_conds += [((la, lc), (ra, rc)) for lc, rc in colpairs]
            continue
        got_rid = True
        # Rewritten condition: RID equality. An F side contributes its
        # materialized pointer (F.RID(P)), a P side its own _rid.
        new_conds.append(((la, e.a_pj.rid_col if e.a_pj else RID),
                          (ra, e.b_pj.rid_col if e.b_pj else RID)))
        src, tgt, src_pj, tgt_pj = (
            (la, ra, e.a_pj, e.b_pj) if la in build_aliases else (ra, la, e.b_pj, e.a_pj)
        )
        if tgt not in probe_scan_aliases:
            continue
        if tgt_pj is None:
            # Case 1: F on the build side passes its pointers to ScanSJ(P).
            sips.append(SipAction(kind="direct", target_alias=tgt,
                                  source_alias=src, source_col=src_pj.rid_col))
        elif (
            cfg.reverse_semijoin
            and catalog.rid_index(tgt_pj.f_table, tgt_pj.fk_cols) is not None
        ):
            # SJoinIdxR: the probe-side F's RID index maps the build side's
            # P-RIDs (P's own _rid, or on an FK–FK edge the build side's
            # pointer into the shared P) to the F rows that join them.
            sips.append(SipAction(kind="index", target_alias=tgt,
                                  source_alias=src,
                                  source_col=src_pj.rid_col if src_pj else RID,
                                  index_key=(tgt_pj.f_table, tgt_pj.fk_cols)))
    node.conds = new_conds
    node.sips = sips
    if any(s.kind == "index" for s in sips):
        node.kind = "sjoin_idxr"
    elif any(s.kind == "direct" for s in sips):
        node.kind = "sjoin"
    elif got_rid:
        node.kind = "hash_rid"
    else:
        node.kind = "hash"
    return node


def rewrite_plan(node: PlanNode, spec: QuerySpec, catalog: Catalog,
                 cfg: GrainConfig = GRAIN_FULL) -> PlanNode:
    """Apply the GRainDB rewrite to the optimizer's plan (in place on the
    node objects; returns the possibly-new root)."""
    if cfg.rid_materialization and cfg.join_merging:
        node = _try_merge(node, spec, catalog)
    return _rewrite_joins(node, spec, catalog, cfg)
