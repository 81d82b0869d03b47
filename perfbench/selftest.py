"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

They take a few minutes: every workload is set up and traced twice.
"""

import functools
import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

crlab = worker.import_crlab()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def traced_pass(name, seed):
    """Set up and run one pass under the tracer: (per-pass summary, tracer)."""
    tracer = spans.Tracer(crlab)
    with tracer:
        wl = workloads.SETUPS[name](seed)
        _, _, outcomes = worker.run_pass(wl, workloads.OP_ERRORS)
    return worker.summarize(outcomes), tracer


@functools.cache
def first_pass(name):
    return traced_pass(name, 11)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_repeats_exactly(name):
    first, t1 = first_pass(name)
    second, t2 = traced_pass(name, 11)
    assert first == second  # op counts, failure breakdown and max_err
    assert t1.letters == t2.letters > 0
    assert t1.calls == t2.calls and t1.fail == t2.fail
    assert t1.absent == t2.absent == []


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_other_seed_keeps_the_shape(name):
    a = workloads.SETUPS[name](11)
    b = workloads.SETUPS[name](12)
    assert a.shape == b.shape
    assert Counter(op.kind for op in a.ops) == Counter(op.kind for op in b.ops)


def test_known_defects_show():
    """Today's failures are counted, not hidden (see ROADMAP items 1 and 3)."""
    curve, _ = first_pass("curve-L4")
    assert curve["failures"].get("GroupDataError", 0) > 0
    action, _ = first_pass("action-L3")
    assert action["failed"] > 0
    assert set(action["by_kind"]["invariance-n5"]) != {"good"}


def test_tracer_reports_absent_names_and_restores():
    mods = {m: types.ModuleType(m) for m in spans.MODULES}

    def evaluate(gens, word, rep=None):
        return len(word.letters)

    mods["surfgrp"].evaluate = evaluate
    mods["crossratio"].evaluate = evaluate     # imported alias
    pkg = types.ModuleType("fakepkg")
    for m, mod in mods.items():
        setattr(pkg, m, mod)
    tracer = spans.Tracer(pkg)
    with tracer:
        word = types.SimpleNamespace(letters=(1, 2, -1))
        assert mods["crossratio"].evaluate(None, word) == 3
        assert mods["surfgrp"].evaluate is mods["crossratio"].evaluate
    assert mods["surfgrp"].evaluate is evaluate
    assert mods["crossratio"].evaluate is evaluate
    assert set(tracer.absent) == set(spans.TARGETS) - {"surfgrp.evaluate"}
    m = tracer.metrics()
    assert m["surfgrp.evaluate.calls"] == 1
    assert m["surfgrp.evaluate.letters"] == 3
    assert m["trace.absent"] == len(spans.TARGETS) - 1
    assert list(m) == spans.metric_names()


def test_result_line_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "axioms-L3",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1 and 0 < res["failed"] < res["attempted"]
        assert {k: m["unit"] for k, m in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]}


def test_counts_do_not_depend_on_passes():
    per_pass = {"attempted": 10, "good": 7, "failed": 3, "max_err": 1e-3}
    counts = set()
    for passes in (3, 4, 9):
        report = {"per_pass": per_pass, "passes": passes, "deterministic": True,
                  "setup_s": 1.0, "good_ops_per_s": 5.0, "peak_rss_mb": 80.0}
        res = run.result(report, 0)
        counts.add((res["attempted"], res["failed"]))
    assert counts == {(10, 3)}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axioms-L3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
