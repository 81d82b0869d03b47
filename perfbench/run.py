"""Benchmark of the crlab pipeline: accuracy-gated throughput per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload axioms-L3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # every workload, end to end
    python3 perfbench/run.py --workload all --trace 1    # every workload, per layer

Each workload runs in a fresh `worker.py` process with BLAS pinned to one
thread.  Human-readable lines come first; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(for `--workload all`, one such object per workload name).  `attempted`
and `failed` count the distinct ops of the seeded op list, so one seed
gives the same counts whatever `--seconds` is.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones.  The exit code is not 0, and no JSON line is printed, when
a worker fails or the program under test cannot be imported.

What each per-layer metric should move, written down before measuring:
- `crossratio.curve_cr`, `CurvePair.xi/xistar`, `draw_points` self time:
  `good_ops_per_s` on axioms-L3, not on curve-L4.
- `surfgrp.evaluate` self time and `.letters`: `good_ops_per_s` on curve-L4
  and `setup_s` on axioms-L3, not axioms-L3 `good_ops_per_s`.
- `evaluate.fail`, `CurvePair.*.fail`: `good_frac` on curve-L4 and action-L3.
- `translate_point.*`, `period.fail`, `flow_from_cr` self time: action-L3 only.
- `sample_boundary` self time: `setup_s` on curve-L4.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was found
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("axioms-L3", "curve-L4", "action-L3")
WORKER_TIMEOUT_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "good_ops_per_s": "ops/s",
    "good_frac": "frac",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def per_layer_units():
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import spans
    units = {}
    for name in spans.metric_names():
        if name.endswith(".self_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "frac"
        else:
            units[name] = "count"
    units.update(trace_overhead_frac="frac", max_err="1", fail_frac="frac")
    return units


def run_worker(workload, seed, seconds, trace):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def result(report, trace):
    """The contract's result object for one worker report."""
    pp = report["per_pass"]
    fail_frac = pp["failed"] / pp["attempted"]
    if trace:
        tr = report["trace"]
        values = {**tr["metrics"], "max_err": pp["max_err"] or 0.0,
                  "fail_frac": fail_frac}
        units = per_layer_units()
        correct = report["deterministic"] and tr["same_outcomes"]
    else:
        values = {
            "setup_s": report["setup_s"],
            "good_ops_per_s": report["good_ops_per_s"],
            "good_frac": pp["good"] / pp["attempted"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        correct = report["deterministic"]
    # Each distinct op of the seeded list counts once: every timed pass
    # reruns the list and must reproduce each op's outcome, so the counts
    # depend on the seed alone, not on how many passes fit in the time.
    return {
        "correct": bool(correct and pp["good"] > 0),
        "attempted": pp["attempted"],
        "failed": pp["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def describe(report, res):
    """Human-readable lines for one workload."""
    pp = report["per_pass"]
    env = report["env"]
    out = [
        f"== {report['workload']}  seed {env['seed']}  shape {report['shape']}",
        f"   env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}"
        f" threads {env['blas_threads']}, nproc {env['nproc']}"
        f" (affinity {env['affinity']})",
        f"   per pass: {pp['attempted']} ops, {pp['good']} good, {pp['failed']} failed"
        f" (fail_frac {pp['failed'] / pp['attempted']:.4f}); passes {report['passes']},"
        f" pass_s {[round(t, 3) for t in report['pass_s']]},"
        f" per-op fastest pass {report['fastest_pass_wall_s']:.3f} s wall,"
        f" reference call {report['reference_call_s'] * 1e3:.4f} ms",
        f"   failures by type: {pp['failures']}",
        f"   by op kind: {pp['by_kind']}",
        f"   max_err {pp['max_err']!r} over the ops that returned",
        f"   setup_s wall {[round(t, 4) for t in report['setup_s_wall']]}",
    ]
    if "trace" in report:
        tr = report["trace"]
        out.append(f"   absent trace targets: {tr['absent'] or 'none'}")
        out.append("   heaviest spans (parent -> child: calls, total s):")
        out += [f"     {p} -> {c}: {n}, {t:.4f}" for p, c, n, t in tr["edges"][:12]]
    shown = {k: (m["value"], m["unit"]) for k, m in res["metrics"].items()}
    shown.setdefault("fail_frac", (pp["failed"] / pp["attempted"], "frac"))
    shown.setdefault("max_err", (pp["max_err"] or 0.0, "1"))
    out += [f"   {k:<42} {v:.6g} {u}" for k, (v, u) in shown.items()]
    out.append(f"   correct {res['correct']}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crlab").is_dir():
        print(f"no crlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            report = run_worker(name, args.seed, args.seconds, args.trace)
            results[name] = result(report, args.trace)
            print("\n".join(describe(report, results[name])), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    final = results if args.workload == "all" else results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
