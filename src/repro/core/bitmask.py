"""Zone and row bitmasks for sideways information passing (paper §4, Step 2).

An ``SJoin`` build phase collects the RIDs materialized on the build side and
compacts them into two deterministic bitmasks over the probe-side table *P*:

- *row bitmask*: one bit per row of ``P`` — the exact semijoin ``P ⋉ F``;
- *zone bitmask*: one bit per zone (block of ``zone_size`` consecutive rows) —
  lets ``ScanSJ`` skip whole zones and is the basis of the paper's
  scanned-tuple accounting (Table 4's "Scan Reduction" row).

RIDs are dense integers in ``[0, |P|)``, so unlike Bloom-filter SIP the masks
are exact and need no hashing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SemiJoinMasks:
    """Row + zone bitmask pair passed from an SJoin build to a ScanSJ."""

    row: np.ndarray  # bool, shape (n_rows,)
    zone: np.ndarray  # bool, shape (ceil(n_rows / zone_size),)
    zone_size: int

    @classmethod
    def from_rids(cls, rids: np.ndarray, n_rows: int, zone_size: int) -> "SemiJoinMasks":
        """Build masks from the (possibly duplicated, unsorted) RIDs seen on the
        build side, an integer array read as it is (no widening copy of the
        catalog's 32-bit RIDs). RIDs outside ``[0, n_rows)`` are a programming
        error."""
        rids = np.asarray(rids)
        if rids.size and (rids.min() < 0 or rids.max() >= n_rows):
            raise ValueError(
                f"RID out of range [0, {n_rows}): min={rids.min()}, max={rids.max()}"
            )
        row = np.zeros(n_rows, dtype=bool)
        row[rids] = True
        n_zones = max(1, -(-n_rows // zone_size))
        zone = np.zeros(n_zones, dtype=bool)
        zone[rids // zone_size] = True
        return cls(row=row, zone=zone, zone_size=zone_size)

    def combine(self, other: "SemiJoinMasks") -> "SemiJoinMasks":
        """Intersect with another mask pair — a scan receiving SIP from several
        SJoins performs the conjunction of the semijoins."""
        if self.row.shape != other.row.shape or self.zone_size != other.zone_size:
            raise ValueError("cannot combine masks over different tables")
        return SemiJoinMasks(
            row=self.row & other.row,
            zone=self.zone & other.zone,
            zone_size=self.zone_size,
        )

    @property
    def n_rows(self) -> int:
        return int(self.row.shape[0])

    def selected_rows(self) -> int:
        """Rows surviving the row bitmask (output of the semijoin)."""
        return int(self.row.sum())

    def rows_in_active_zones(self) -> int:
        """Rows that ScanSJ actually scans: every row of every zone whose zone
        bit is set (the paper's scanned-tuple metric — zone skipping avoids the
        rest, the row bitmask is applied as a selection vector *after* the
        zone's rows are read)."""
        n = self.n_rows
        active = np.flatnonzero(self.zone)
        if active.size == 0:
            return 0
        full = int(active.size) * self.zone_size
        # The last zone may be ragged.
        last_zone = (n - 1) // self.zone_size
        if self.zone[last_zone]:
            full -= (last_zone + 1) * self.zone_size - n
        return full
