"""GDBMS-style executor: left-deep index nested loop joins over adjacency lists.

This is the repo's stand-in for GraphflowDB/Neo4j (and for the plan style of
GR-Fusion / GQ-Fast) used as the comparison point in §7.2.2 and §7.3.2. The
paper describes their execution as:

1. scan and filter a seed node table;
2. EXTEND each bound tuple through the adjacency list index (random lookups
   into a large index keyed by node ID) — an index nested loop join;
3. read the properties of the joined edge/node records *after* the join
   (random access into the base tables) and only then run their filters.

We reproduce exactly that shape: the seed is a full scan + filter; EXTEND is a
hash join of the bound tuples with *F*'s pointer columns (``_rid``, the
pointer keyed on and, for an extended index, the second pointer), *F*'s side
the broadcast build, so each bound tuple is one lookup and the intermediate
tuples exist before any edge filter runs; property reads, and the edge filters
with them, are RID joins against the full base table after the extension —
never SIP-pruned, which is the structural disadvantage the paper measures
against. An EXTEND still needs a RID index: a GDBMS extends only where an
adjacency list exists.

The plan is built as SQL text over the catalog's views, like the relational
executor's, with the same scan and join text (``executor.scan_text``,
``executor.hash_join``): scans, pointer lookups, extensions, property reads
and the post-hoc checks of edges the traversal did not consume are all
statement text, and ``finish`` runs it as one ``spark.sql`` call.

The binding order is derived greedily: seed = most selective node, then the
cheapest extension.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.catalog import RID, Catalog
from repro.exec.executor import ExecMetrics, ExecOutcome, finish, hash_join, scan_text
from repro.plan.optimizer import filtered_cardinalities
from repro.plan.spec import JoinEdge, QuerySpec


@dataclass
class _Bind:
    """How one alias gets bound: 'scan' (seed), 'extend' (INLJ through an
    adjacency index; may co-bind the destination entity) or 'lookup' (follow
    a materialized FK pointer from an already-read alias)."""

    alias: str
    kind: str
    via: str | None = None  # bound alias we come from
    index_key: tuple[str, tuple[str, ...]] | None = None  # for 'extend'
    dst: str | None = None  # co-bound destination alias for 'extend'
    # For 'lookup': the materialized RID col on `via` to follow. For 'extend'
    # over an FK–FK edge: the materialized RID col on `via` that holds the
    # shared node ID used as the adjacency-index key (None = via's own RID).
    rid_col: str | None = None
    consumed: tuple[JoinEdge, ...] = ()


def _derive_order(spec: QuerySpec, catalog: Catalog) -> list[_Bind]:
    cards = filtered_cardinalities(spec, catalog)
    seed = min(sorted(spec.aliases), key=lambda a: cards[a])
    binds = [_Bind(alias=seed, kind="scan")]
    bound = {seed}
    consumed: set[int] = set()

    def edge_id(e: JoinEdge) -> int:
        return spec.joins.index(e)

    while len(bound) < len(spec.aliases):
        candidates: list[tuple[float, str, _Bind]] = []
        for e in spec.joins:
            if edge_id(e) in consumed:
                continue
            for x, xc, b, bc in (
                (e.left_alias, e.left_cols, e.right_alias, e.right_cols),
                (e.right_alias, e.right_cols, e.left_alias, e.left_cols),
            ):
                if x in bound or b not in bound:
                    continue
                c = catalog.classify(spec.table_of(x), xc, spec.table_of(b), bc)
                if (c.a_pj is not None
                        and catalog.rid_index(c.a_pj.f_table, c.a_pj.fk_cols) is not None):
                    # x is F with an adjacency index keyed by its P: EXTEND.
                    # On an FK–FK edge (e.g. k1.person2id = k2.person1id) the
                    # key is the shared node ID held in b's pointer column —
                    # exactly a GDBMS multi-hop.
                    pj = c.a_pj
                    deg = catalog.table(pj.f_table).n_rows / max(
                        1, catalog.table(pj.p_table).n_rows
                    )
                    dst, extra = _find_dst(spec, catalog, x, xc, bound, consumed, edge_id)
                    candidates.append(
                        (
                            1.0 + deg,
                            x,
                            _Bind(alias=x, kind="extend", via=b,
                                  index_key=(pj.f_table, pj.fk_cols), dst=dst,
                                  rid_col=c.b_pj.rid_col if c.b_pj else None,
                                  consumed=tuple([e] + extra)),
                        )
                    )
                elif c.f_side == "b":
                    # b carries a materialized pointer to x: follow it.
                    candidates.append(
                        (
                            0.5,
                            x,
                            _Bind(alias=x, kind="lookup", via=b,
                                  rid_col=c.b_pj.rid_col, consumed=(e,)),
                        )
                    )
        if not candidates:
            raise ValueError(f"cannot derive a graph plan for {spec.name}")
        _, _, chosen = min(candidates, key=lambda c: (c[0], c[1]))
        binds.append(chosen)
        bound.add(chosen.alias)
        if chosen.dst:
            bound.add(chosen.dst)
        consumed |= {edge_id(e) for e in chosen.consumed}
    return binds


def _find_dst(spec, catalog, f_alias, fk_cols, bound, consumed, edge_id):
    """If the extended index payload matches F's other spec edge, the EXTEND
    co-binds the destination entity (edge + neighbour IDs in one list)."""
    ext_pj = catalog.index_ext_target.get((spec.table_of(f_alias), tuple(fk_cols)))
    if ext_pj is None:
        return None, []
    for e2 in spec.edges_of(f_alias):
        if edge_id(e2) in consumed:
            continue
        for x, xc, b, bc in (
            (e2.left_alias, e2.left_cols, e2.right_alias, e2.right_cols),
            (e2.right_alias, e2.right_cols, e2.left_alias, e2.left_cols),
        ):
            if x != f_alias or b in bound:
                continue
            c = catalog.classify(spec.table_of(x), xc, spec.table_of(b), bc)
            if c.f_side == "a" and c.a_pj == ext_pj:
                return b, [e2]
    return None, []


class GraphExecutor:
    """Executes query specs with GDBMS-style left-deep INLJ plans."""

    def __init__(self, spark: SparkSession, catalog: Catalog):
        self.spark = spark
        self.catalog = catalog

    def execute(self, spec: QuerySpec, collect: bool = True) -> ExecOutcome:
        binds = _derive_order(spec, self.catalog)
        metrics = ExecMetrics(plan=" -> ".join(
            f"{b.kind}({b.alias}{'+' + b.dst if b.dst else ''})" for b in binds
        ))
        # Spec edges the traversal does not consume are checked post hoc on
        # both sides' key columns.
        consumed = {spec.joins.index(e) for b in binds for e in b.consumed}
        keyed = [e for i, e in enumerate(spec.joins) if i not in consumed]
        props = spec.referenced_columns()
        for e in keyed:
            props[e.left_alias] |= set(e.left_cols)
            props[e.right_alias] |= set(e.right_cols)
        for b in binds:
            if b.rid_col is not None:  # lookup / FK–FK extend read via's pointer col
                props[b.via].add(b.rid_col)

        def scan(alias: str) -> str:
            t = self.catalog.table(spec.table_of(alias))
            metrics.scanned[alias] = t.n_rows  # no SIP: GDBMS scans/reads it all
            metrics.table_rows[alias] = t.n_rows
            return scan_text(t, alias, sorted(props[alias] | {RID}), spec.scan_filters(alias))

        def prop_read(body: str, alias: str) -> str:
            """Join the properties of ``alias`` (bound to ``__rid_<alias>``)
            after the traversal, if it has any or is filtered: a hash lookup
            by RID, like a GDBMS's random property access."""
            if not (props[alias] or spec.scan_filters(alias)):
                return body
            return hash_join(body, scan(alias), f"`__rid_{alias}` = `{alias}__{RID}`",
                             "right", self.catalog.table(spec.table_of(alias)).n_rows)

        body = ""
        for b in binds:
            if b.kind == "scan":
                body = (f"(SELECT *, `{b.alias}__{RID}` AS `__rid_{b.alias}` "
                        f"FROM {scan(b.alias)} AS q)")
            elif b.kind == "lookup":
                body = prop_read(f"(SELECT *, `{b.via}__{b.rid_col}` AS `__rid_{b.alias}` "
                                 f"FROM {body} AS q)", b.alias)
            else:  # extend: look each bound tuple up in F's pointer columns
                # An FK–FK hop keys on via's pointer col.
                src = f"__rid_{b.via}" if b.rid_col is None else f"{b.via}__{b.rid_col}"
                f = self.catalog.table(b.index_key[0])
                cols = [f"`{RID}` AS `__rid_{b.alias}`",
                        f"`{self.catalog.predefined[b.index_key].rid_col}` AS `__key_{b.alias}`"]
                if b.dst:
                    ext_pj = self.catalog.index_ext_target[b.index_key]
                    cols.append(f"`{ext_pj.rid_col}` AS `__rid_{b.dst}`")
                body = prop_read(hash_join(body, f"(SELECT {', '.join(cols)} FROM `{f.view}`)",
                                           f"`{src}` = `__key_{b.alias}`", "right", f.n_rows),
                                 b.alias)
                if b.dst:
                    body = prop_read(body, b.dst)
        if keyed:
            cond = " AND ".join(f"`{e.left_alias}__{lc}` = `{e.right_alias}__{rc}`"
                                for e in keyed for lc, rc in zip(e.left_cols, e.right_cols))
            body = f"(SELECT * FROM {body} AS q WHERE {cond})"
        out = finish(self.spark, spec, body)
        result = out.toPandas() if collect else None
        return ExecOutcome(result=result, metrics=metrics, df=None if collect else out)
