"""Self-checks of the benchmark: determinism, fresh-query uniqueness, fairness.

    python3 -m pytest perfbench -q -p no:cacheprovider

The stub tests take a second. The determinism and bare-checkout tests run the
benchmark command itself, about a minute per traced run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


class _Table:
    def __init__(self, n_rows: int, pdf: pd.DataFrame | None = None):
        self.n_rows = n_rows
        self.pdf_original = pdf


class _Catalog:
    """Just what ``FreshStream`` reads from a catalog."""

    def table(self, name: str) -> _Table:
        if name == "person":
            return _Table(1000)
        dates = np.arange(1_290_000_000, 1_550_000_000, 17_000)
        return _Table(len(dates), pd.DataFrame({"creationdate": dates}))


def _texts(items) -> list[str]:
    return [spec.to_sql() for item in items for spec in item.specs.values()]


def test_fresh_texts_unique_and_disjoint_from_warm_up():
    stream = workloads.FreshStream(_Catalog(), seed=3)
    warm = [t for k in run.WARM_UP for t in _texts(stream.items(k))]
    timed = [t for k in [-2, *range(20)] for t in _texts(stream.items(k))]
    assert len(set(warm)) == len(warm)
    assert len(set(timed)) == len(timed)
    assert not set(warm) & set(timed)
    with pytest.raises(ValueError):
        stream.items(0)


def test_fresh_stream_depends_only_on_seed():
    a = [_texts(workloads.FreshStream(_Catalog(), seed=s).items(-1)) for s in (5, 5, 6)]
    assert a[0] == a[1]
    assert a[0] != a[2]


def test_fresh_items_give_each_mode_the_same_point():
    for item in workloads.FreshStream(_Catalog(), seed=1).items(0):
        duck, grain = (item.specs[m] for m in workloads.MODES)
        assert duck.to_sql() != grain.to_sql()
        assert [t.table for t in duck.tables] == [t.table for t in grain.tables]


class _Executor:
    def __init__(self, log: list, fail_on: str | None = None):
        self.log = log
        self.fail_on = fail_on

    def execute(self, spec, **kwargs):
        self.log.append(("execute", spec.name, kwargs))
        if spec.name == self.fail_on:
            raise RuntimeError("boom")
        return type("Out", (), {"result": pd.DataFrame({"x": [1]})})()


class _Oracle:
    def __init__(self, log: list, wrong: str | None = None):
        self.log = log
        self.wrong = wrong

    def check(self, spec, got):
        self.log.append(("check", spec.name))
        return spec.name != self.wrong, 0.0


def _fixed_items():
    return workloads.WORKLOADS["snb"].passes(None, 0)(0)


def test_modes_alternate_and_run_the_same_items():
    log: list = []
    runner = run.Runner(_Executor(log), _Oracle(log))
    items = _fixed_items()
    for k in (*run.WARM_UP, 0, 1):
        runner.run_pass(items, k)
    calls = [e for e in log if e[0] == "execute"]
    assert len(calls) == (len(run.WARM_UP) + 2) * 2 * len(items)
    firsts = []
    for k in (*run.WARM_UP, 0, 1):
        per_pass = [s for s in runner.samples if s["pass"] == k]
        firsts.append(per_pass[0]["mode"])
        for mode in workloads.MODES:
            assert [s["item"] for s in per_pass if s["mode"] == mode] == \
                [i.label for i in items]
    # Warm-up and timed passes alike alternate which mode goes first.
    assert all(a != b for a, b in zip(firsts, firsts[1:]))
    assert firsts[-2:] == ["DuckDB", "GRainDB"]
    # Both modes execute the very same spec of a fixed item.
    for item in items:
        assert item.specs["DuckDB"] is item.specs["GRainDB"]


def test_executor_gets_only_spec_and_mode_and_check_follows_it():
    """The benchmark hands the program nothing precomputed, and the oracle
    runs only after the timed call has returned."""
    log: list = []
    runner = run.Runner(_Executor(log), _Oracle(log))
    runner.run_pass(_fixed_items(), 0)
    for call, check in zip(log[::2], log[1::2]):
        assert call[0] == "execute" and set(call[2]) == {"mode"}
        assert check == ("check", call[1])


def test_wrong_results_and_exceptions_count_as_failed():
    log: list = []
    items = _fixed_items()
    runner = run.Runner(_Executor(log, fail_on=items[0].label), _Oracle(log, wrong=items[1].label))
    runner.run_pass(items, 0)
    assert runner.attempted == 2 * len(items)
    assert runner.failed == 4
    assert {s["item"] for s in runner.samples} == {i.label for i in items[2:]}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


DETERMINISTIC_UNITS = ("count", "B")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    counters = []
    for _ in range(2):
        proc = _bench(ROOT, *args)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["correct"] and out["failed"] == 0
        m = out["metrics"]
        counters.append({k: v["value"] for k, v in m.items()
                         if v["unit"] in DETERMINISTIC_UNITS})
        # The baseline mode runs none of GRainDB's operators.
        for k, v in m.items():
            if k.startswith(("duckdb.sip.", "duckdb.bitmask.")) and v["unit"] == "count":
                assert v["value"] == 0, k
        for kind in ("sjoin", "sjoin_idxr", "merge", "hash_rid"):
            assert m[f"duckdb.rewrite.{kind}"]["value"] == 0
    assert counters[0] == counters[1]
    assert len(counters[0]) >= 40


def test_fails_without_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(bare, "--workload", "snb", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
