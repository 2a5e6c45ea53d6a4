"""Harness tests: timing protocol, percentile/per-query tables, runners."""
import pandas as pd
import pytest

from repro.bench import harness
from repro.bench.runners import make_runners
from repro.bench.workloads_snb import specs as snb_specs
from repro.exec.executor import ExecMetrics, ExecOutcome


def _fake_outcome(scanned=10):
    m = ExecMetrics(scanned={"a": scanned}, table_rows={"a": 100})
    return ExecOutcome(result=pd.DataFrame({"x": [1, 2]}), metrics=m)


def _timed_runner(monkeypatch, durations_ms):
    """A runner whose successive calls take ``durations_ms`` on the harness's
    clock, which is replaced by a fake one."""
    now = [0.0]
    steps = iter(durations_ms)
    monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])

    def run(_spec=None):
        now[0] += next(steps) / 1000.0
        return _fake_outcome()
    return run


def test_time_query_median_min_max(monkeypatch):
    # One warm-up (untimed), then RUNS = 5 timed runs.
    run = _timed_runner(monkeypatch, [999.0, 30.0, 10.0, 50.0, 20.0, 40.0])
    stats, out = harness.time_query(run)
    assert (harness.WARMUP, harness.RUNS) == (1, 5)
    assert stats == pytest.approx({"ms": 30.0, "min_ms": 10.0, "max_ms": 50.0})
    assert out.metrics.total_scanned == 10


def test_time_query_runs_and_warmups():
    calls = []
    stats, out = harness.time_query(
        lambda: calls.append(1) or _fake_outcome(), warmup=2, runs=3
    )
    assert len(calls) == 5
    assert 0 <= stats["min_ms"] <= stats["ms"] <= stats["max_ms"]
    assert out.metrics.total_scanned == 10


def test_run_suite_shape():
    specs = {"q1": object(), "q2": object()}
    runners = {"A": lambda s: _fake_outcome(5), "B": lambda s: _fake_outcome(50)}
    df = harness.run_suite(specs, runners, warmup=0, runs=1)
    assert len(df) == 4
    assert set(df.columns) >= {"query", "system", "ms", "min_ms", "max_ms", "scanned"}


def test_run_suite_reports_median_min_max(monkeypatch):
    run = _timed_runner(monkeypatch, [999.0, 7.0, 3.0, 5.0])
    df = harness.run_suite({"q": object()}, {"A": run}, warmup=1, runs=3)
    row = df.iloc[0]
    assert (row["ms"], row["min_ms"], row["max_ms"]) == pytest.approx((5.0, 3.0, 7.0))


def test_percentile_table():
    df = pd.DataFrame(
        {"system": ["A"] * 4 + ["B"] * 4, "ms": [1, 2, 3, 4, 10, 20, 30, 40]}
    )
    pt = harness.percentile_table(df)
    assert list(pt["system"]) == ["A", "B"]
    assert pt.loc[0, "p50"] == 2.5 and pt.loc[1, "p50"] == 25.0


def test_per_query_table_speedups():
    df = pd.DataFrame(
        [
            {"query": "q", "system": "DuckDB", "ms": 100.0, "scanned": 1000},
            {"query": "q", "system": "GRainDB", "ms": 25.0, "scanned": 100},
        ]
    )
    t = harness.per_query_table(df, "DuckDB", "GRainDB")
    assert t.loc[0, "speedup"] == 4.0
    assert t.loc[0, "scan_reduction"] == 10.0


def test_to_markdown_renders():
    md = harness.to_markdown(pd.DataFrame({"a": [1], "b": ["x"]}))
    assert md.splitlines()[0] == "| a | b |"
    assert "| 1 | x |" in md


def test_make_runners_systems(spark, snb_cat):
    runners = make_runners(spark, snb_cat, ["DuckDB", "GRainDB", "GraphflowDB"])
    assert set(runners) == {"DuckDB", "GRainDB", "GraphflowDB"}
    out = runners["GRainDB"](snb_specs()["IS1"])
    assert out.result is not None


def test_make_runners_rejects_unknown(spark, snb_cat):
    with pytest.raises(ValueError):
        make_runners(spark, snb_cat, ["Oracle9i"])


def test_runner_closures_bind_distinct_modes(spark, snb_cat):
    """Regression guard: the lambda-in-loop must capture each mode."""
    runners = make_runners(spark, snb_cat, ["DuckDB", "GRainDB"])
    spec = snb_specs()["IS3"]
    duck = runners["DuckDB"](spec)
    grain = runners["GRainDB"](spec)
    assert grain.metrics.total_scanned < duck.metrics.total_scanned
