"""ScanSJ: applying SIP bitmasks to a sequential scan (paper §4 Step 2).

The information passed sideways is the exact set of probe-side RIDs seen on
the build side (dense integers — no hashing, no false positives, unlike
Bloom-filter SIP). ScanSJ is statement text in the scan itself:

- a small RID set becomes an ``IN (…)`` conjunct of the scan's ``WHERE``
  (Catalyst compiles it to an ``InSet`` hash-set probe per row); an empty set
  becomes ``FALSE``;
- a larger set becomes a ``LEFT SEMI JOIN`` of the scan with a one-column
  relation of the selected RIDs, written into the text and hinted
  ``BROADCAST``: a hash-set probe per row again, with no shuffle of the
  scanned table;
- masks that prune too few rows to pay for either are not applied at all
  (``should_apply``) — the RID equi-join enforces the same predicate anyway,
  so skipping preserves correctness and mirrors the paper's "minor overheads
  only" behaviour. The executor likewise skips a set too large to broadcast
  (``executor.BROADCAST_MAX_ROWS``).

Zone-skipping is accounted in ``SemiJoinMasks.rows_in_active_zones`` (the
scanned-tuple metric of Table 4).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import RID

# Up to this many RIDs the set is an ``IN`` list in the scan's text, above it
# a broadcast RID relation, itself text (``executor.relation_text``): parse
# and plan time per literal against the fixed cost of expanding and
# broadcasting a relation. The value predates the RID relation and is kept so
# that the ScanSJ decisions and plans stay the same.
ISIN_MAX = 64
# Applying a large RID set costs building and broadcasting its relation and a
# hash probe per scanned row; it pays for itself only when it keeps a large
# number of rows out of the probe side streamed through the downstream hash
# joins. (The RID equi-join enforces the same predicate
# anyway, so skipping never changes results — this is an ordinary cost-based
# decision, like a real system deciding whether a semijoin reducer is worth
# it.) Kept at the value measured for the earlier bitmap pass, so the
# decisions stay the same; re-deriving it needs a workload where masks apply.
APPLY_MIN_PRUNED_ROWS = 300_000


def should_apply(masks: SemiJoinMasks) -> bool:
    sel = masks.selected_rows()
    if sel <= ISIN_MAX:
        return True  # cheap scan predicate, no overhead to speak of
    # Apply the semi-join only when it keeps a large volume out of the
    # downstream hash joins' probe pipeline. Skipping never changes results
    # (the RID equi-join enforces the same predicate).
    return (masks.n_rows - sel) >= APPLY_MIN_PRUNED_ROWS


def apply_sip_filter(relation: Callable[[dict[str, np.ndarray]], str], source: str,
                     alias: str, masks: SemiJoinMasks) -> tuple[str, str | None]:
    """ScanSJ (the semijoin P ⋉ F) on a scan of ``source``, the ``FROM`` item
    that names the table ``alias``: the scan's new ``FROM`` item and an extra
    ``WHERE`` conjunct (or ``None``) that keep exactly the rows whose RID bit
    is set. ``relation`` renders columns of RIDs as the SQL text of a
    relation (``executor.relation_text``, passed in because the executor
    imports this module)."""
    rid = f"`{alias}`.`{RID}`"
    rids = np.flatnonzero(masks.row)
    if rids.size == 0:
        return source, "FALSE"
    if rids.size <= ISIN_MAX:
        return source, f"{rid} IN ({', '.join(map(str, rids))})"
    # The RID relation's alias extends the scan's, so it never equals it.
    m = f"`{alias}__sip`"
    return (f"(SELECT /*+ BROADCAST({m}) */ * FROM {source} "
            f"LEFT SEMI JOIN {relation({RID: rids})} AS {m} "
            f"ON {rid} = {m}.`{RID}`) AS `{alias}`"), None
