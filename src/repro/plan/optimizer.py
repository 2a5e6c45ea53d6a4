"""Join-order selection.

Plays the role of DuckDB's optimizer in the paper's setup: the paper injects
*true cardinalities* into DuckDB to isolate join-strategy effects from
join-order noise (§7.1, Appendix B); we do the same by computing exact
post-filter cardinalities with ``Catalog.scan_rids``, then running a
greedy bushy join-ordering. GRainDB then rewrites *the same plan* — the paper
keeps DuckDB's join order and only swaps operators.

Also provides ``plan_from_order`` (left-deep plan for an explicit order) and
``enumerate_left_deep_orders`` for the plan-spectrum study (Table 7 / §7.3.3).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.catalog import Catalog
from repro.plan.nodes import JoinNode, PlanNode, ScanNode
from repro.plan.spec import JoinEdge, QuerySpec


def filtered_cardinalities(spec: QuerySpec, catalog: Catalog) -> dict[str, int]:
    """Exact per-alias row counts after pushed-down filters (the paper's
    injected true cardinalities). Cached on the catalog per query: repeated
    timed runs of the same query should not re-pay the statistics cost."""
    ck = (spec.name, tuple(sorted(spec.filters)),
          tuple((t.alias, t.table) for t in spec.tables))
    if ck not in catalog.card_cache:
        catalog.card_cache[ck] = {
            a: len(catalog.scan_rids(spec.table_of(a), a, spec.scan_filters(a)))
            for a in spec.aliases
        }
    return catalog.card_cache[ck]


def _distinct_count(catalog: Catalog, table: str, cols: tuple[str, ...]) -> int:
    """Distinct-key statistic, cached on the catalog (it is recomputed for
    every planned query otherwise, which costs more than planning)."""
    key = (table, cols)
    if key not in catalog.distinct_cache:
        pdf = catalog.table(table).pdf
        catalog.distinct_cache[key] = max(1, int(pdf[list(cols)].drop_duplicates().shape[0]))
    return catalog.distinct_cache[key]


@dataclass
class _Component:
    node: PlanNode
    aliases: frozenset[str]
    card: float


def _edges_between(spec: QuerySpec, a: frozenset[str], b: frozenset[str]) -> list[JoinEdge]:
    out = []
    for j in spec.joins:
        if j.left_alias in a and j.right_alias in b:
            out.append(j)
        elif j.left_alias in b and j.right_alias in a:
            # Orient so the left side of the cond lives in component a.
            out.append(JoinEdge(j.right_alias, j.right_cols, j.left_alias, j.left_cols))
    return out


def _join_card(spec: QuerySpec, catalog: Catalog, l: _Component, r: _Component,
               edges: list[JoinEdge]) -> float:
    """Classic independence estimate: |L|*|R| / max distinct join-key count."""
    denom = 1.0
    for e in edges:
        dl = _distinct_count(catalog, spec.table_of(e.left_alias), e.left_cols)
        dr = _distinct_count(catalog, spec.table_of(e.right_alias), e.right_cols)
        denom = max(denom, float(max(dl, dr)))
    return max(1.0, l.card * r.card / denom)


def _make_join(l: _Component, r: _Component, edges: list[JoinEdge], card: float) -> _Component:
    conds = [
        ((e.left_alias, lc), (e.right_alias, rc))
        for e in edges
        for lc, rc in zip(e.left_cols, e.right_cols)
    ]
    build = "left" if l.card <= r.card else "right"
    node = JoinNode(left=l.node, right=r.node, conds=conds, build=build,
                    kind="hash", est_rows=int(card))
    return _Component(node=node, aliases=l.aliases | r.aliases, card=card)


def _leaf(spec: QuerySpec, alias: str, cards: dict[str, int]) -> _Component:
    return _Component(
        node=ScanNode(alias=alias, table=spec.table_of(alias),
                      filters=spec.scan_filters(alias), est_rows=cards[alias]),
        aliases=frozenset([alias]),
        card=float(max(1, cards[alias])),
    )


def greedy_plan(spec: QuerySpec, catalog: Catalog) -> PlanNode:
    """Greedy cardinality-driven bushy join ordering. The smaller estimated
    side of every join becomes the hash build side, as in DuckDB."""
    cards = filtered_cardinalities(spec, catalog)
    comps = [_leaf(spec, a, cards) for a in spec.aliases]
    if len(comps) == 1:
        return comps[0].node
    while len(comps) > 1:
        best = None
        for i, j in itertools.combinations(range(len(comps)), 2):
            edges = _edges_between(spec, comps[i].aliases, comps[j].aliases)
            if not edges:
                continue
            card = _join_card(spec, catalog, comps[i], comps[j], edges)
            key = (card, tuple(sorted(comps[i].aliases | comps[j].aliases)))
            if best is None or key < best[0]:
                best = (key, i, j, edges, card)
        if best is None:
            raise ValueError(f"join graph of {spec.name} is disconnected (cartesian needed)")
        _, i, j, edges, card = best
        merged = _make_join(comps[i], comps[j], edges, card)
        comps = [c for k, c in enumerate(comps) if k not in (i, j)] + [merged]
    return comps[0].node


def plan_from_order(spec: QuerySpec, catalog: Catalog, order: list[str]) -> PlanNode:
    """Left-deep plan joining aliases in the given order (plan-spectrum study)."""
    if sorted(order) != sorted(spec.aliases):
        raise ValueError("order must be a permutation of the spec's aliases")
    cards = filtered_cardinalities(spec, catalog)
    acc = _leaf(spec, order[0], cards)
    for a in order[1:]:
        nxt = _leaf(spec, a, cards)
        edges = _edges_between(spec, acc.aliases, nxt.aliases)
        if not edges:
            raise ValueError(f"order {order} disconnects at {a}")
        card = _join_card(spec, catalog, acc, nxt, edges)
        acc = _make_join(acc, nxt, edges, card)
    return acc.node


def enumerate_left_deep_orders(spec: QuerySpec, limit: int | None = None) -> list[list[str]]:
    """All connected left-deep orders (each prefix forms a connected join
    graph), deterministically; optionally capped with even-stride sampling."""
    adj: dict[str, set[str]] = {a: set() for a in spec.aliases}
    for j in spec.joins:
        adj[j.left_alias].add(j.right_alias)
        adj[j.right_alias].add(j.left_alias)
    orders: list[list[str]] = []

    def rec(prefix: list[str], remaining: set[str]) -> None:
        if not remaining:
            orders.append(list(prefix))
            return
        frontier = sorted(a for a in remaining if any(b in prefix for b in adj[a]))
        for a in frontier:
            prefix.append(a)
            remaining.remove(a)
            rec(prefix, remaining)
            remaining.add(a)
            prefix.pop()

    for seed in sorted(spec.aliases):
        rec([seed], set(spec.aliases) - {seed})
    if limit is not None and len(orders) > limit:
        stride = len(orders) / limit
        orders = [orders[int(i * stride)] for i in range(limit)]
    return orders
