"""DuckDB-mode vs GRainDB-mode benchmark of the PySpark GRainDB reproduction.

    python3 perfbench/run.py --workload {snb,snb-fresh} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/repro``). One
process, one driver thread, one client in a closed loop, Spark ``local[4]``.

1. Set-up: build the SNB-lite catalog ``SETUPS`` times from ``--seed`` and
   report the median wall time of the ``*_catalog(...)`` call (generation,
   RID materialization, RID indices, Spark cache materialization).
2. Warm-up: ``len(WARM_UP)`` untimed passes (see ``perfbench/workloads.py``).
3. Timed: ``MIN_PASSES`` whole passes, then more until ``--seconds`` have
   elapsed. Every item runs under both relational modes; the mode that goes
   first alternates per pass. Each execution is timed alone, end to end
   (plan, rewrite, SIP sets, Spark action, collect to pandas).
4. Every result, warm-up included, is compared outside the timer with DuckDB
   running the spec's SQL over the original tables. A mismatch or an
   exception counts as failed; any failure makes the exit code 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` the same run is followed by one traced pass whose spans and
counters (``perfbench/tracing.py``) give the per-layer metrics, which the last
line reports instead. Spans, samples and provenance are written under
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUPS = 3
# Untimed warm-up passes, by pass number. The JVM is still compiling hot
# code for several passes: after one warm-up pass the next runs up to twice as
# slow as the fifth, and after two the next is still 10-20% slower. After
# three, per-pass means vary by less than that from pass to pass.
WARM_UP = (-5, -4, -3)
# Timing a fixed number of whole passes keeps what is left of the warm-up
# effect the same in every run: 10 samples per mode. BENCHMARK.json sets
# ``--seconds`` below the time two passes take (8 s or more), so a fast run
# does not time a third, faster pass that a slow run lacks. Over ten seeds a
# third timed pass did not narrow the spread of any latency metric, because
# the host's speed from run to run moves them more than the sample count does.
MIN_PASSES = 2
# Percentile of a mode's timed samples reported as its tail (see
# BENCHMARK.json). Of 10 samples, one lies beyond it.
TAIL_PCT = 90
SPARK_CONF = {
    "spark.master": "local[4]",
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.execution.arrow.maxRecordsPerBatch": "8192",
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
}


def mem_total_kib() -> int | None:
    try:
        with open("/proc/meminfo") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return None


def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to [2, 8] (the Tier-1 rule)."""
    kib = mem_total_kib()
    return f"{min(8, max(2, (kib or 0) // 2097152))}g"


def prepare_environment() -> None:
    """Point imports at the checkout's sources and keep every file Spark and
    Python write inside the checkout. Must run before pyspark is imported."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: {src / 'repro'} not found; run from a source checkout")
    sys.path.insert(0, str(src))
    tmp, local = WORK / "tmp", WORK / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # -XX:-UsePerfData: the JVM would otherwise write counters under /tmp.
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    warehouse = shlex.quote(f"spark.sql.warehouse.dir={WORK / 'warehouse'}")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {SPARK_CONF['spark.master']} --driver-memory {driver_memory()} "
        f"--driver-java-options {java_opts} --conf {warehouse} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )


def start_spark():
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def percentile(xs: list[float], p: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(xs, dtype=float), p))


class Oracle:
    """Expected rows per distinct query text, computed once per run with
    DuckDB over ``Catalog.oracle_tables()``."""

    def __init__(self, catalog):
        self.tables = catalog.oracle_tables()
        self.expected: dict[str, object] = {}
        self.expected_ms: dict[str, float] = {}

    def check(self, spec, got) -> tuple[bool, float]:
        """(result matches, ms for this query's expected rows plus the
        comparison). Every execution of a query is charged the expected-rows
        time, since each mode needs it."""
        import duckdb
        import pandas as pd
        from repro.oracle import _canon  # the tests' canonical row order and rounding

        sql = spec.to_sql()
        if sql not in self.expected:
            t0 = time.perf_counter()
            con = duckdb.connect()
            try:
                for t in spec.tables:
                    con.register(t.table, self.tables[t.table])
                self.expected[sql] = _canon(con.execute(sql).fetchdf())
            finally:
                con.close()
            self.expected_ms[sql] = (time.perf_counter() - t0) * 1000.0
        t0 = time.perf_counter()
        exp = self.expected[sql]
        ok = set(got.columns) == set(exp.columns)
        if ok:
            try:
                pd.testing.assert_frame_equal(_canon(got), exp, check_dtype=False)
            except AssertionError:
                ok = False
        return ok, self.expected_ms[sql] + (time.perf_counter() - t0) * 1000.0


class Runner:
    """Closed-loop client: executes items under each mode, times each
    execution alone and checks its result after the timer has stopped."""

    def __init__(self, pex, oracle: Oracle):
        self.pex = pex
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.samples: list[dict] = []
        self.texts: list[str] = []  # SQL of every execution, in order

    def execute(self, spec, mode: str, tracer=None):
        """Time one end-to-end execution (plan, rewrite, SIP sets, Spark
        action, collect) and check its result after the timer has stopped.

        With a ``tracer``, the execution is split into three spans: building
        the DataFrame, Catalyst planning and the action. Returns (ms, outcome,
        oracle ms), or None when the execution raised or its result was wrong.
        """
        self.attempted += 1
        self.texts.append(spec.to_sql())
        gc.collect()  # start every execution from the same collector state
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.pex.execute(spec, mode=mode)
                result = out.result
            else:
                with tracer.span("executor.build"):
                    out = self.pex.execute(spec, mode=mode, collect=False)
                with tracer.span("spark.catalyst"):
                    out.df._jdf.queryExecution().executedPlan()
                with tracer.span("spark.action"):
                    result = out.df.toPandas()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        ms = (time.perf_counter() - t0) * 1000.0
        ok, oracle_ms = self.oracle.check(spec, result)
        if not ok:
            self.failed += 1
            print(f"perfbench: {spec.name} under {mode} differs from the oracle",
                  file=sys.stderr)
            return None
        return ms, out, oracle_ms

    def run_pass(self, items, k: int) -> None:
        from workloads import MODES

        order = MODES if k % 2 == 0 else MODES[::-1]
        for item in items:
            for mode in order:
                done = self.execute(item.specs[mode], mode)
                if done is not None:
                    self.samples.append({"pass": k, "item": item.label, "mode": mode,
                                         "ms": done[0]})


def catalog_bytes(catalog) -> dict[str, int]:
    """User-column bytes, hidden RID-column bytes and RID-index bytes."""
    from repro.core.catalog import RID

    user = rid = 0
    for t in catalog.tables.values():
        user += int(t.pdf_original.memory_usage(deep=True, index=False).sum())
        cols = [RID] + list(t.rid_cols.values())
        rid += int(t.pdf[cols].memory_usage(deep=True, index=False).sum())
    index = 0
    for idx in catalog.indices.values():
        index += idx.offsets.nbytes + idx.f_rids.nbytes
        if idx.ext_rids is not None:
            index += idx.ext_rids.nbytes
    return {"user_bytes": user, "rid_col_bytes": rid, "index_bytes": index}


def freeze_heap() -> None:
    """Collect, then exclude every surviving object from later collections.

    The catalog, the Spark session and the program's caches live until the
    run ends. Frozen, they no longer make the ``gc.collect()`` before each
    execution cost about 60 ms, which is time a run spends outside its timer.
    """
    gc.collect()
    gc.freeze()


def setup(spark, seed: int) -> tuple[object, list[float]]:
    """Build the catalog ``SETUPS`` times; keep the last one. Earlier ones are
    released first, so peak memory reflects one catalog."""
    from workloads import build_catalog

    times, cat = [], None
    for _ in range(SETUPS):
        if cat is not None:
            cat.unpersist()
            cat = None
            gc.collect()
        t0 = time.perf_counter()
        cat = build_catalog(spark, seed)
        times.append(time.perf_counter() - t0)
    return cat, times


def end_to_end(runner: Runner, setup_s: list[float], cat_bytes) -> dict:
    out = {"setup_s": (statistics.median(setup_s), "s")}
    for mode in ("GRainDB", "DuckDB"):
        ms = [s["ms"] for s in runner.samples if s["mode"] == mode and s["pass"] >= 0]
        key = mode.lower()
        out[f"{key}_p50_ms"] = (percentile(ms, 50), "ms")
        out[f"{key}_tail_ms"] = (percentile(ms, TAIL_PCT), "ms")
        out[f"{key}_qps"] = (len(ms) / (sum(ms) / 1000.0), "1/s")
    out["correct_frac"] = (1.0 - runner.failed / max(1, runner.attempted), "ratio")
    out["driver_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    out["rid_bytes_per_user_byte"] = (
        (cat_bytes["rid_col_bytes"] + cat_bytes["index_bytes"]) / cat_bytes["user_bytes"],
        "ratio")
    return out


def traced_pass(runner: Runner, tracer, items, untraced_ms: float) -> dict:
    """Run ``items`` once per mode under the tracer and derive the per-layer
    metrics. ``untraced_ms`` is the untraced mean latency of the timed passes."""
    from tracing import REWRITE_KINDS, spark_plan_counters

    walls, queries = [], {"duckdb": set(), "graindb": set()}
    plan_counts: dict[str, float] = {}
    oracle_ms: dict[str, float] = {"duckdb": 0.0, "graindb": 0.0}
    for qid, (item, mode) in enumerate(
            (item, mode) for item in items for mode in ("DuckDB", "GRainDB")):
        key = mode.lower()
        tracer.query, tracer.mode = qid, key
        queries[key].add(qid)
        done = runner.execute(item.specs[mode], mode, tracer)
        if done is None:
            continue
        ms, out, check_ms = done
        walls.append(ms)
        oracle_ms[key] += check_ms
        engine = spark_plan_counters(out.df)
        for name, v in engine.items():
            plan_counts[f"{key}.spark.{name}"] = plan_counts.get(f"{key}.spark.{name}", 0) + v
        runner.samples.append({"pass": -2, "item": item.label, "mode": mode, "ms": ms,
                               "rows_accounted": out.metrics.total_scanned, **engine})
        tracer.count("executor.rows_accounted", out.metrics.total_scanned)
        tracer.count("executor.table_rows", out.metrics.total_table_rows)
    tracer.query, tracer.mode = None, "setup"

    m: dict[str, tuple[float, str]] = {}
    for key, qids in queries.items():
        n = max(1, len(qids))
        selfs = tracer.self_ms(qids)
        c = {name: v for (mode, name), v in tracer.counts.items() if mode == key}
        m[f"{key}.optimizer.stats_ms"] = (selfs.get("optimizer.stats", 0.0) / n, "ms")
        m[f"{key}.optimizer.plan_ms"] = (selfs.get("optimizer.plan", 0.0) / n, "ms")
        m[f"{key}.rewrite.ms"] = (selfs.get("rewrite", 0.0) / n, "ms")
        for kind in REWRITE_KINDS:
            m[f"{key}.rewrite.{kind}"] = (c.get(f"rewrite.{kind}", 0), "count")
        m[f"{key}.semijoin_reduce.ms"] = (selfs.get("semijoin_reduce", 0.0) / n, "ms")
        m[f"{key}.semijoin_reduce.calls"] = (c.get("semijoin_reduce.calls", 0), "count")
        m[f"{key}.bitmask.ms"] = (selfs.get("bitmask", 0.0) / n, "ms")
        for name in ("rids_passed", "rows_selected", "rows_in_active_zones"):
            m[f"{key}.bitmask.{name}"] = (c.get(f"bitmask.{name}", 0), "count")
        decisions = c.get("sip.decisions", 0)
        applied = c.get("sip.applied_isin", 0) + c.get("sip.applied_bitmask", 0)
        m[f"{key}.sip.decisions"] = (decisions, "count")
        m[f"{key}.sip.applied_isin"] = (c.get("sip.applied_isin", 0), "count")
        m[f"{key}.sip.applied_bitmask"] = (c.get("sip.applied_bitmask", 0), "count")
        m[f"{key}.sip.apply_ratio"] = (applied / decisions if decisions else 0.0, "ratio")
        m[f"{key}.sip.rows_pruned"] = (c.get("sip.rows_pruned", 0), "count")
        m[f"{key}.rid_index.ms"] = (selfs.get("rid_index", 0.0) / n, "ms")
        m[f"{key}.rid_index.entries"] = (c.get("rid_index.entries", 0), "count")
        m[f"{key}.executor.build_ms"] = (tracer.total_ms("executor.build", qids) / n, "ms")
        m[f"{key}.executor.self_ms"] = (selfs.get("executor.build", 0.0) / n, "ms")
        m[f"{key}.executor.rows_accounted"] = (c.get("executor.rows_accounted", 0), "count")
        m[f"{key}.executor.table_rows"] = (c.get("executor.table_rows", 0), "count")
        m[f"{key}.spark.catalyst_ms"] = (selfs.get("spark.catalyst", 0.0) / n, "ms")
        m[f"{key}.spark.action_ms"] = (selfs.get("spark.action", 0.0) / n, "ms")
        for name in ("shuffle_exchanges", "broadcast_exchanges", "map_in_pandas",
                     "rows_read"):
            m[f"{key}.spark.{name}"] = (plan_counts.get(f"{key}.spark.{name}", 0), "count")
        table_rows = c.get("executor.table_rows", 0)
        m[f"{key}.spark.read_ratio"] = (
            plan_counts.get(f"{key}.spark.rows_read", 0) / table_rows if table_rows else 0.0,
            "ratio")
        m[f"{key}.oracle.ms"] = (oracle_ms[key] / n, "ms")
    traced_mean = sum(walls) / max(1, len(walls))
    m["trace.overhead"] = (traced_mean / untraced_ms, "ratio")
    return m


def catalog_layer_metrics(tracer, cat_bytes: dict[str, int]) -> dict:
    """Mean seconds per set-up in each catalog layer, and the catalog's bytes."""
    selfs = tracer.self_ms(None)
    m = {}
    for name in ("generate", "register", "predefine", "index_build", "finalize"):
        m[f"catalog.{name}_s"] = (selfs.get(f"catalog.{name}", 0.0) / 1000.0 / SETUPS, "s")
    for name, v in cat_bytes.items():
        m[f"catalog.{name}"] = (v, "B")
    return m


def provenance(args, spark) -> dict:
    import duckdb
    import numpy
    import pandas
    import pyspark

    from workloads import SNB_SCALE

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "mem_total_kib": mem_total_kib(),
        "driver_memory": driver_memory(), "python": platform.python_version(),
        "spark": pyspark.__version__, "duckdb": duckdb.__version__,
        "pandas": pandas.__version__, "numpy": numpy.__version__, "git_sha": sha,
        "snb_scale": SNB_SCALE, "setups": SETUPS, "min_passes": MIN_PASSES,
        "tail_percentile": TAIL_PCT,
        "spark_conf": {k: spark.conf.get(k) for k in SPARK_CONF if k != "spark.master"}
        | {"spark.master": spark.sparkContext.master},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    phases = {"start": time.perf_counter()}
    spark = start_spark()
    phases["session"] = time.perf_counter()
    try:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            catalog, setup_s = setup(spark, args.seed)
        finally:
            if tracer is not None:
                tracer.restore()
        phases["setup"] = time.perf_counter()
        cat_bytes = catalog_bytes(catalog)
        from repro.exec.executor import PlanExecutor

        runner = Runner(PlanExecutor(spark, catalog), Oracle(catalog))
        passes = workload.passes(catalog, args.seed)

        freeze_heap()
        for k in WARM_UP:
            runner.run_pass(passes(k), k)
        freeze_heap()
        phases["warm_up"] = time.perf_counter()
        # Drawn before the timed passes, so the traced queries do not depend
        # on how many timed passes fit.
        traced_items = passes(-2) if args.trace else None
        t_start, k = time.perf_counter(), 0
        while k < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
            runner.run_pass(passes(k), k)
            k += 1
        phases["timed"] = time.perf_counter()

        if args.trace:
            untraced = [s["ms"] for s in runner.samples if s["pass"] >= 0]
            tracer.install()
            try:
                metrics = traced_pass(runner, tracer, traced_items,
                                      sum(untraced) / max(1, len(untraced)))
            finally:
                tracer.restore()
            metrics.update(catalog_layer_metrics(tracer, cat_bytes))
        else:
            metrics = end_to_end(runner, setup_s, cat_bytes)
        if workload.unique_texts and len(set(runner.texts)) != len(runner.texts):
            raise RuntimeError(f"{args.workload} repeated a query text within the run")
        prov = provenance(args, spark)
        phases["metrics"] = time.perf_counter()
    finally:
        stop_spark(spark)
    phases["stop"] = time.perf_counter()

    correct = runner.failed == 0
    t0 = phases.pop("start")
    record = {"provenance": prov, "setup_s": setup_s, "passes": k,
              "phase_end_s": {name: t - t0 for name, t in phases.items()},
              "samples": runner.samples, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps(record, default=float))
    if tracer is not None:
        tracer.dump(WORK / f"{stem}-spans.json", {"provenance": prov})
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    prepare_environment()
    sys.exit(main())
