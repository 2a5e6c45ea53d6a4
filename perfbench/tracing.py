"""Layer-by-layer tracing from outside the program.

``Tracer.install()`` wraps the public entry points of each layer where their
callers look them up, records one span per call (name, start, end, parent,
query id) and a few counters per mode, and ``restore()`` puts the originals
back. Spans stay in memory until ``dump()``. Counter updates happen after a
span has ended, so their cost lands in no layer's time.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import repro.core.semijoin_reduce as semijoin_reduce
import repro.data.snb as snb
import repro.exec.executor as executor
import repro.exec.sip as sip
import repro.plan.optimizer as optimizer
from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import Catalog
from repro.core.rid_index import RIDIndex
from repro.plan.nodes import MergeJoinNode, joins_of

REWRITE_KINDS = ("sjoin", "sjoin_idxr", "merge", "hash_rid", "hash")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query: int | None = None
        self.mode = "setup"
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.query))
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.mode, name)] += n

    # ---------------------------------------------------------- patching
    def _wrap(self, owner: object, attr: str, name: str, after=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patched.append((owner, attr, raw))

    def install(self) -> None:
        """Patch every traced entry point."""
        self._wrap(snb, "snb_tables", "catalog.generate")
        self._wrap(Catalog, "register", "catalog.register")
        self._wrap(Catalog, "predefine_join", "catalog.predefine")
        self._wrap(Catalog, "build_rid_index", "catalog.index_build")
        self._wrap(Catalog, "finalize", "catalog.finalize")
        self._wrap(optimizer, "filtered_cardinalities", "optimizer.stats")
        self._wrap(executor, "greedy_plan", "optimizer.plan")
        self._wrap(executor, "rewrite_plan", "rewrite", self._after_rewrite)
        self._wrap(semijoin_reduce, "propagate", "semijoin_reduce",
                   lambda a, o: self.count("semijoin_reduce.calls"))
        self._wrap(SemiJoinMasks, "from_rids", "bitmask",
                   lambda a, o: self.count("bitmask.rids_passed", len(a[1])))
        self._wrap(SemiJoinMasks, "combine", "bitmask")
        self._wrap(sip, "should_apply", "sip", self._after_decision)
        self._wrap(sip, "apply_sip_filter", "sip", self._after_apply)
        self._wrap(RIDIndex, "lookup_many", "rid_index",
                   lambda a, o: self.count("rid_index.entries", len(o)))
        self._wrap(RIDIndex, "pairs", "rid_index",
                   lambda a, o: self.count("rid_index.entries", len(o[0])))

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------- counters
    def _after_rewrite(self, args, plan) -> None:
        for j in joins_of(plan):
            kind = "merge" if isinstance(j, MergeJoinNode) else j.kind
            self.count(f"rewrite.{kind}")

    def _after_decision(self, args, applied: bool) -> None:
        masks = args[0]
        self.count("sip.decisions")
        self.count("bitmask.rows_selected", masks.selected_rows())
        self.count("bitmask.rows_in_active_zones", masks.rows_in_active_zones())

    def _after_apply(self, args, _df) -> None:
        masks = args[3]
        sel = masks.selected_rows()
        self.count("sip.applied_isin" if sel <= sip.ISIN_MAX else "sip.applied_bitmask")
        self.count("sip.rows_pruned", masks.n_rows - sel)

    # --------------------------------------------------------- reporting
    def self_ms(self, query_ids: set[int] | None) -> dict[str, float]:
        """Total self time in ms per span name (optionally restricted to the
        spans of some queries): duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if query_ids is None or s.query in query_ids:
                out[s.name] += (s.end - s.start - child[i]) * 1000.0
        return out

    def total_ms(self, name: str, query_ids: set[int]) -> float:
        return sum((s.end - s.start) * 1000.0 for s in self.spans
                   if s.name == name and s.query in query_ids)

    def dump(self, path, extra: dict) -> None:
        spans = [s.__dict__ for s in self.spans]
        counts = {f"{m}.{n}": v for (m, n), v in sorted(self.counts.items())}
        path.write_text(json.dumps({**extra, "counts": counts, "spans": spans}))


def spark_plan_counters(df) -> dict[str, int]:
    """Engine counters of a DataFrame's executed plan, read after its action
    (AQE off, so the executed plan is final): shuffle and broadcast exchanges,
    ``MapInPandas`` operators, and the rows the in-memory scans returned."""
    out = {"shuffle_exchanges": 0, "broadcast_exchanges": 0, "map_in_pandas": 0,
           "rows_read": 0}
    todo = [df._jdf.queryExecution().executedPlan()]
    while todo:
        node = todo.pop()
        cls = node.getClass().getSimpleName()
        if cls == "ShuffleExchangeExec":
            out["shuffle_exchanges"] += 1
        elif cls == "BroadcastExchangeExec":
            out["broadcast_exchanges"] += 1
        elif cls == "MapInPandasExec":
            out["map_in_pandas"] += 1
        elif cls == "InMemoryTableScanExec":
            out["rows_read"] += int(node.metrics().apply("numOutputRows").value())
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return out
