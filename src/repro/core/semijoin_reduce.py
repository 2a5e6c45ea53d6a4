"""Driver-side semijoin-reduction propagation for SIP mask computation.

The paper's SJoin operators gather build-side RIDs at hash-join build time —
inside the engine, at negligible cost. A Spark reproduction that re-executed
every build subtree just to collect RIDs would pay one extra Spark job per
SJoin (hundreds of ms of fixed scheduler latency each), drowning the effect
being measured. Instead, the executor computes each SJoin's passed RID set in
the driver by propagating per-scan filter results through the predefined-join
structure:

- every filtered scan contributes its exact qualifying RID set
  (``Catalog.scan_rids`` over the catalog's pandas copy, on the catalog's one
  DuckDB connection — the same rows a hash-join build would read);
- sets propagate across predefined edges: ``P-set given F-set`` follows F's
  materialized RID column (forward, needs only RID materialization);
  ``F-set given P-set`` goes through the RID index (a reverse semijoin, so it
  is gated on the reverse-semijoin ablation flag); FK–FK edges compose both;
- propagation intersects to a fixpoint, always yielding a *superset* of the
  rows the paper's exact operator would pass. Supersets are safe: the RID
  equi-join still enforces the real predicate (the same argument that makes
  Bloom-filter SIP sound).

The passed information is therefore identical in kind to the paper's (dense
RID sets derived from predefined joins), only its computation is hoisted out
of the dataflow so that Spark executes one fused job per query.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.catalog import Catalog
from repro.plan.spec import QuerySpec


def _edge_maps(spec: QuerySpec, catalog: Catalog, aliases: set[str], allow_reverse: bool):
    """Yield (from_alias, to_alias, fn) propagation maps for edges inside
    ``aliases``. ``fn`` maps a RID array of ``from`` to a RID array of ``to``."""
    maps = []
    for e in spec.joins:
        if not ({e.left_alias, e.right_alias} <= aliases):
            continue
        for xa, xc, ya, yc in (
            (e.left_alias, e.left_cols, e.right_alias, e.right_cols),
            (e.right_alias, e.right_cols, e.left_alias, e.left_cols),
        ):
            # Derive xa's set FROM ya's set.
            c = catalog.classify(spec.table_of(xa), xc, spec.table_of(ya), yc)
            if c.a_pj is not None:
                # xa is F: a reverse step through xa's RID index.
                idx = catalog.rid_index(c.a_pj.f_table, c.a_pj.fk_cols)
                if idx is None or not allow_reverse:
                    continue
            elif c.b_pj is not None:
                idx = None  # xa is P: forward through ya's pointer column
            else:
                continue  # value join: nothing to propagate
            # ya's pointer column: into xa ('fk'), or into the shared P ('fkfk').
            col = None
            if c.b_pj is not None:
                col = catalog.table(spec.table_of(ya)).pdf[c.b_pj.rid_col]
            maps.append((ya, xa, _via(col, idx)))
    return maps


def _via(col: pd.Series | None, idx):
    """Follow ``col`` (a pointer column of the source) to P-RIDs, then map
    them through ``idx`` (an RID index) to F-RIDs; either step may be absent."""
    if col is not None:
        col = col.to_numpy()

    def fn(rids: np.ndarray) -> np.ndarray:
        if col is not None:
            rids = np.unique(col[rids])
        if idx is not None:
            rids = np.unique(idx.lookup_many(rids))
        return rids

    return fn


def propagate(
    init: dict[str, np.ndarray | None],
    spec: QuerySpec,
    catalog: Catalog,
    allow_reverse: bool = True,
) -> dict[str, np.ndarray | None]:
    """Fixpoint semijoin propagation over the aliases in ``init``.

    ``init[a]`` is the exact RID set of alias ``a``'s scan after its pushed
    filters, or None for "all rows". Returns tightened sets (None where no
    information reached an alias). Monotone: sets only shrink, so the loop
    terminates; #aliases rounds are enough for any tree.
    """
    aliases = set(init)
    maps = _edge_maps(spec, catalog, aliases, allow_reverse)
    sets = dict(init)
    for _ in range(max(2, len(aliases))):
        changed = False
        for src, dst, fn in maps:
            s = sets[src]
            if s is None:
                continue
            derived = fn(s)
            cur = sets[dst]
            new = derived if cur is None else np.intersect1d(cur, derived,
                                                             assume_unique=True)
            if cur is None or len(new) < len(cur):
                sets[dst] = new
                changed = True
        if not changed:
            break
    return sets
