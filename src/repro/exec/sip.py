"""ScanSJ: applying SIP bitmasks to a sequential scan (paper §4 Step 2).

The information passed sideways is the exact set of probe-side RIDs seen on
the build side (dense integers — no hashing, no false positives, unlike
Bloom-filter SIP). The semijoin is a narrow filter on the scan, like the
paper's selection-vector scan rather than a shuffle join:

- small RID sets become an ``IN <set>`` predicate on the scan (Catalyst
  compiles it to an ``InSet`` hash-set probe per row);
- larger sets are broadcast as a packed row bitmap and applied per Arrow batch
  inside ``mapInPandas`` (no extra stage, no shuffle of the scanned table);
- masks that prune too few rows to pay for that pass are not applied at all
  (``should_apply``) — the RID equi-join enforces the same predicate anyway,
  so skipping preserves correctness and mirrors the paper's "minor overheads
  only" behaviour.

Zone-skipping is accounted in ``SemiJoinMasks.rows_in_active_zones`` (the
scanned-tuple metric of Table 4).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.bitmask import SemiJoinMasks

# Below this many RIDs an InSet predicate beats the bitmask pass. Kept small:
# the literal list crosses the py4j bridge element by element (~0.4 ms per
# literal of driver time), so anything larger is cheaper as a bitmask.
ISIN_MAX = 64
# A broadcast semi-join filter costs a fixed ~hundreds of ms on a local
# cluster regardless of size; it pays for itself only when it actually keeps
# a large number of rows out of the probe side streamed through the
# downstream hash joins. (The RID equi-join enforces the same predicate
# anyway, so skipping never changes results — this is an ordinary cost-based
# decision, like a real system deciding whether a semijoin reducer is worth
# it.)
APPLY_MIN_PRUNED_ROWS = 300_000


def should_apply(masks: SemiJoinMasks) -> bool:
    sel = masks.selected_rows()
    if sel <= ISIN_MAX:
        return True  # cheap scan predicate, no overhead to speak of
    # The bitmask pass costs an Arrow round-trip over the scanned columns;
    # apply it only when it keeps a large volume out of the downstream hash
    # joins' probe pipeline. Skipping never changes results (the RID equi-join
    # enforces the same predicate).
    return (masks.n_rows - sel) >= APPLY_MIN_PRUNED_ROWS


def apply_sip_filter(
    spark: SparkSession, df: DataFrame, rid_col: str, masks: SemiJoinMasks
) -> DataFrame:
    """Filter ``df`` to the rows whose RID bit is set (the semijoin P ⋉ F).

    Small RID sets become an InSet predicate; larger masks are broadcast as a
    packed bitmap and applied inside ``mapInPandas`` — a *narrow* per-batch
    selection vector, exactly the paper's ScanSJ: no extra stage, no shuffle,
    no hashing, cost independent of how many bits are set.
    """
    rids = np.flatnonzero(masks.row)
    if rids.size == 0:
        return df.where(F.lit(False))
    if rids.size <= ISIN_MAX:
        return df.where(F.col(rid_col).isin([int(r) for r in rids]))
    bc = spark.sparkContext.broadcast(np.packbits(masks.row))
    schema = df.schema
    n = masks.n_rows

    def scan_sj(batches):
        mask = np.unpackbits(bc.value, count=n).astype(bool)
        for pdf in batches:
            if len(pdf):
                pdf = pdf[mask[pdf[rid_col].to_numpy(dtype=np.int64)]]
            yield pdf

    return df.mapInPandas(scan_sj, schema)