"""The benchmark's workloads: a catalog builder and a query stream each.

A workload is measured in *passes*. A pass is a fixed list of items; every
item runs once under each relational mode, and the mode that goes first
alternates from pass to pass. An item holds one ``QuerySpec`` per mode:

- ``snb`` repeats the same fixed query list every pass, so the
  spec is the same for both modes and the driver's stats caches are warm after
  the warm-up passes;
- ``snb-fresh`` draws every spec of every item anew from a seeded parameter
  stream, so no query text repeats in a run and the stats caches are cold on
  every execution, in both modes alike.

Both use the same SNB-lite catalog. The scale is fixed here, not an option:
every run measures the same input size.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from pyspark.sql import SparkSession

from repro.bench import workloads_snb
from repro.core.catalog import Catalog
from repro.data.snb import snb_catalog
from repro.plan.spec import JoinEdge, QuerySpec, TableRef

MODES = ("DuckDB", "GRainDB")

SNB_SCALE = 0.05

# Every execution costs about half a second of fixed driver and Spark
# overhead at this scale, and a run has to fit its time budget. ``snb``
# therefore runs 5 of the 25 SNB-M queries: plans of 3 to 8 tables and every
# GRainDB operator (SJoin, SJoinIdxR, SJoinIdxM in IC1-1), taken only from
# queries whose results stay non-empty for every seed. IC11-x and IC12 can
# come out empty for some seeds, which lets GRainDB skip most of its work, so
# their latency depends on the seed more than on the code. With an odd number
# of queries the median falls on the middle query's own executions, not in
# the gap between two queries.
SNB_QUERIES = ("IS3", "IC1-1", "IC6-1", "IC7", "IC9-2")

# snb-fresh: (person selectivity, knows.creationdate selectivity) points per
# number of knows hops. One hop: a selective person side with a non-selective
# knows side (MICRO-P). Two hops: from that shape to the reverse one
# (MICRO-K), with the person side capped so the fan-out stays bounded.
# Two-hop queries cost more, and having most points there puts the median
# inside their latencies rather than in the gap between the two shapes. Each
# draw scales both selectivities by a log-uniform factor in
# [1/FRESH_JITTER, FRESH_JITTER]: every query text is new, while a pass keeps
# the same selectivity mix, so seeds compare.
FRESH_POINTS = {
    1: ((0.003, 0.9),),
    2: ((0.002, 0.9), (0.005, 0.4), (0.01, 0.15), (0.02, 0.03)),
}
FRESH_JITTER = 1.15


@dataclass(frozen=True)
class Item:
    """One step of a pass: the spec each mode executes."""

    label: str
    specs: dict[str, QuerySpec]


@dataclass(frozen=True)
class Workload:
    # (catalog, seed) -> a function returning pass ``k``'s items. Passes -5
    # to -3 are the warm-up passes, -2 the traced pass.
    passes: Callable[[Catalog, int], Callable[[int], list[Item]]]
    # Whether the run must check that no query text repeats.
    unique_texts: bool


def build_catalog(spark: SparkSession, seed: int) -> Catalog:
    return snb_catalog(spark, scale=SNB_SCALE, seed=seed)


def _fixed_passes(_catalog: Catalog, _seed: int) -> Callable[[int], list[Item]]:
    specs = workloads_snb.specs()
    items = [Item(n, {m: specs[n] for m in MODES}) for n in SNB_QUERIES]
    return lambda _k: items


def _knows_spec(name: str, hops: int, p_thresh: int, k_thresh: int) -> QuerySpec:
    """MICRO-P/K person–knows–person shape (§7.3.2), one or two knows hops."""
    ks = [f"k{i}" for i in range(1, hops + 1)]
    tables = [TableRef("p1", "person")] + [TableRef(k, "knows") for k in ks]
    tables.append(TableRef("p2", "person"))
    joins = [JoinEdge.of("p1.personid", f"{ks[0]}.person1id")]
    joins += [JoinEdge.of(f"{a}.person2id", f"{b}.person1id") for a, b in zip(ks, ks[1:])]
    joins.append(JoinEdge.of(f"{ks[-1]}.person2id", "p2.personid"))
    filters = [f"p1.personid < {p_thresh}"] + [f"{k}.creationdate < {k_thresh}" for k in ks]
    return QuerySpec(
        name=name, tables=tables, joins=joins, filters=filters,
        select=[("count(*)", "cnt"), ("min(p2.personid)", "min_p2")], group_by=[],
    )


class FreshStream:
    """Seeded stream of never-repeating person–knows–person queries.

    Each pass holds one item per point of ``FRESH_POINTS``; each mode gets its
    own independently jittered spec for that point. ``seen`` holds every text
    drawn so far, so no text repeats within a run, warm-up included.
    """

    def __init__(self, catalog: Catalog, seed: int):
        self.g = np.random.default_rng([seed, 1])
        self.n_person = catalog.table("person").n_rows
        kd = catalog.table("knows").pdf_original["creationdate"]
        self.k_lo, self.k_hi = int(kd.min()), int(kd.max()) + 1
        self.seen: set[str] = set()
        self.made: set[int] = set()

    def _jitter(self, sel: float) -> float:
        return min(1.0, sel * FRESH_JITTER ** self.g.uniform(-1.0, 1.0))

    def _draw(self, hops: int, p_sel: float, k_sel: float) -> QuerySpec:
        while True:
            p_thresh = max(1, round(self.n_person * self._jitter(p_sel)))
            k_thresh = self.k_lo + max(1, round((self.k_hi - self.k_lo) * self._jitter(k_sel)))
            spec = _knows_spec(f"fresh-{len(self.seen)}", hops, p_thresh, k_thresh)
            text = spec.to_sql()
            if text not in self.seen:
                self.seen.add(text)
                return spec

    def items(self, k: int) -> list[Item]:
        """Pass ``k``'s items; each pass can be drawn once."""
        if k in self.made:
            raise ValueError(f"pass {k} of the fresh stream was already drawn")
        self.made.add(k)
        return [
            Item(f"{hops}hop-p{p_sel:g}-k{k_sel:g}",
                 {m: self._draw(hops, p_sel, k_sel) for m in MODES})
            for hops, points in FRESH_POINTS.items() for p_sel, k_sel in points
        ]


def _fresh_passes(catalog: Catalog, seed: int) -> Callable[[int], list[Item]]:
    return FreshStream(catalog, seed).items


WORKLOADS = {
    "snb": Workload(_fixed_passes, unique_texts=False),
    "snb-fresh": Workload(_fresh_passes, unique_texts=True),
}
