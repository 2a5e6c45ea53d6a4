"""RID index: in-memory CSR over a table's materialized RID column (paper §5).

For a table *F* with a predefined join to *P* (so *F* carries a materialized
``RID(P)`` column), the RID index maps each RID of *P* to the list of RIDs of
the *F* rows pointing at it — the relational analogue of a GDBMS adjacency
list index, stored as compressed sparse row (CSR) NumPy arrays.

The *extended* RID index (paper §5.2) additionally stores, aligned with each
F-RID, the materialized RID of a second entity table *P2* — the analogue of
storing both edge IDs and neighbour node IDs in an adjacency list. It enables
(a) reverse semijoins ``F ⋉ P`` via SIP (SJoinIdxR) and (b) the join-merging
optimization that skips the scan of *F* entirely (SJoinIdxM).

The index lives in the driver only: semijoin propagation reads it
(``lookup_many``) and SJoinIdxM's pairs relation is gathered from it
(``pairs``). The INLJ executor's EXTEND joins *F*'s pointer columns in Spark
instead, and only checks that the index exists.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

# The dtype of every RID in the driver: ``_rid``, the pointer columns, the
# index's arrays and the RID sets derived from them (Spark ``int``).
RID_DTYPE = np.int32


@dataclass
class RIDIndex:
    """CSR index keyed by P-RID.

    ``offsets`` has ``n_p + 1`` entries; the F-RIDs joining P-row ``i`` are
    ``f_rids[offsets[i]:offsets[i+1]]``. ``ext_rids`` (if present) holds the
    P2-RIDs aligned one-to-one with ``f_rids``. All three are ``RID_DTYPE``:
    the last offset is F's row count, which ``Catalog.register`` caps at
    ``catalog.MAX_ROWS``.
    """

    offsets: np.ndarray  # int32, shape (n_p + 1,)
    f_rids: np.ndarray  # int32
    ext_rids: np.ndarray | None  # int32 aligned with f_rids, or None

    @classmethod
    def build(
        cls,
        rid_p_values: ArrayLike,
        n_p: int,
        ext_values: ArrayLike | None = None,
    ) -> "RIDIndex":
        """Build from F's materialized RID column (position = F's own RID)."""
        keys = np.asarray(rid_p_values, dtype=RID_DTYPE)
        order = np.argsort(keys, kind="stable")  # int64 positions
        counts = np.bincount(keys, minlength=n_p)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(RID_DTYPE)
        ext_rids = None if ext_values is None else np.asarray(ext_values, dtype=RID_DTYPE)[order]
        return cls(offsets=offsets, f_rids=order.astype(RID_DTYPE), ext_rids=ext_rids)

    def _gather_idx(self, p_rids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ragged-gather positions for a batch of keys.

        Returns (repeat_of_input_positions, flat CSR positions) so callers can
        align gathered entries back to their input rows. Both are int64
        scratch; what callers gather through them keeps the index's dtype.
        """
        p_rids = np.asarray(p_rids)
        starts = self.offsets[p_rids]
        cnt = self.offsets[p_rids + 1] - starts
        total = int(cnt.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        rep = np.repeat(np.arange(p_rids.shape[0], dtype=np.int64), cnt)
        within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        return rep, starts[rep] + within

    def lookup_many(self, p_rids: np.ndarray) -> np.ndarray:
        """Concatenated F-RIDs for a batch of P-RIDs (duplicates preserved)."""
        _, gidx = self._gather_idx(p_rids)
        return self.f_rids[gidx]

    def pairs(self, p_rids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p_rid, f_rid, p2_rid) triples for a batch of P-RIDs, one per F row
        — the join-merging access path (requires the extended index). Bag
        semantics are preserved: a (p1, p2) pair appears once per F row."""
        if self.ext_rids is None:
            raise ValueError("pairs() requires an extended RID index")
        p_rids = np.asarray(p_rids, dtype=RID_DTYPE)
        rep, gidx = self._gather_idx(p_rids)
        return p_rids[rep], self.f_rids[gidx], self.ext_rids[gidx]
