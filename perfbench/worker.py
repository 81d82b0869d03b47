"""Run one workload in this process and print its report as one JSON line.

Started by `run.py` in a fresh process with BLAS pinned to one thread, so
that `setup_s` and `peak_rss_mb` belong to this workload alone.

    python3 perfbench/worker.py --workload axioms-L3 --seed 1 --seconds 10 --trace 0

Phases:
1. Set-up, repeated SETUP_REPEATS times; `setup_s` is the median.  It
   covers the group, boundary sample, representation images, warmed curve
   caches (axioms-L3) and every op's oracle value.
2. Timed phase, tracing off: whole passes over the workload's op list until
   the time is spent, and at least MIN_PASSES of them.  Every pass must
   reproduce the first pass's outcome for every op, error values included.
   `good_ops_per_s` divides the good ops of one pass by the sum over ops of
   each op's fastest time across the passes.
3. With `--trace 1` only: the tracer is installed, the set-up and one pass
   run again under it, and its per-layer figures are reported.

Reference-normalized seconds.  On a shared host the speed of the whole
machine can drift by a third or more within minutes, which would swamp the
changes the benchmark is meant to see.  So the worker also times a fixed
piece of work shaped like `crlab`'s pairing loop (`reference_call`: seeded
index draws, dict lookups and small vector products) just before and after
each set-up, and interleaved with the ops REF_SLOTS times a pass.  `setup_s` and `good_ops_per_s` are given in
seconds of a host on which one reference call takes REF_NOMINAL_S.  The
reference never calls `crlab`, so a change to the program moves these
figures in full; the raw wall times are printed beside them.  The trace's
`trace_overhead_frac` compares passes in the same reference units.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_PASSES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REF_NOMINAL_S = 0.55e-3  # about one reference call on a quiet 2-CPU x86 VM
REF_SLOTS = 100          # reference calls interleaved with each pass
_REF_VECTORS = {i: v / np.linalg.norm(v) for i, v in
                enumerate(np.random.default_rng(0).standard_normal((64, 5)))}


def reference_call():
    """A fixed quotient-of-pairings loop, independent of `crlab`.

    It mixes interpreter, generator and small-vector work as the ops do, so
    a busy host slows it about as much as it slows them.  A loop of 5x5
    matrix products alone slows 15-20% more than the ops on a busy host, so
    the normalized figures would jump with the host's load.
    """
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(40):
        a, b, c, d = (_REF_VECTORS[int(i)] for i in rng.choice(64, 4, replace=False))
        acc += (a @ b) * (c @ d) / ((c @ b) * (a @ d) + 10.0)
    return acc


def reference_time(calls=5):
    """Fastest of a few back-to-back reference calls."""
    best = math.inf
    for _ in range(calls):
        t0 = time.perf_counter()
        reference_call()
        best = min(best, time.perf_counter() - t0)
    return best


def import_crlab():
    """Import `crlab` from this checkout's `src/`, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import crlab
    import crlab.crossratio  # noqa: F401  (loads all three modules)
    if not Path(crlab.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"crlab was imported from {crlab.__file__}, not {src}")
    return crlab


def run_pass(workload, op_errors, ref_every=0):
    """One pass over the op list.

    Returns ([seconds per op], [seconds per reference call], [(kind, status,
    error)]); with `ref_every` > 0 a reference call precedes every
    `ref_every`-th op, timed apart from the ops.
    """
    workload.begin_pass()
    times, ref_times, outcomes = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(workload.ops):
        if ref_every and i % ref_every == 0:
            t0 = clock()
            reference_call()
            ref_times.append(clock() - t0)
        t0 = clock()
        try:
            err = float(op.run())
        except op_errors as exc:
            times.append(clock() - t0)
            outcomes.append((op.kind, type(exc).__name__, None))
            continue
        times.append(clock() - t0)
        if not math.isfinite(err):
            outcomes.append((op.kind, "non-finite", None))
            continue
        status = "good" if err <= op.budget else "over-budget"
        outcomes.append((op.kind, status, err))
    return times, ref_times, outcomes


def summarize(outcomes):
    """Per-pass counts by op kind and failure type, and the worst error."""
    by_kind = {}
    for kind, status, _ in outcomes:
        by_kind.setdefault(kind, Counter())[status] += 1
    failures = Counter(s for _, s, _ in outcomes if s != "good")
    errors = [e for _, _, e in outcomes if e is not None]
    good = sum(s == "good" for _, s, _ in outcomes)
    return {
        "attempted": len(outcomes),
        "good": good,
        "failed": len(outcomes) - good,
        "failures": dict(sorted(failures.items())),
        "by_kind": {k: dict(sorted(c.items())) for k, c in sorted(by_kind.items())},
        "max_err": max(errors) if errors else None,
    }


def environment(seed):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    crlab = import_crlab()
    import spans
    import workloads

    setup = workloads.SETUPS[args.workload]
    setup_times, setup_norm = [], []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous set-up before timing the next
        ref = reference_time()
        t0 = time.perf_counter()
        workload = setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        ref = 0.5 * (ref + reference_time())
        setup_norm.append(setup_times[-1] * REF_NOMINAL_S / ref)

    # Each op and each reference slot does the same work in every pass, and
    # other load only ever slows it down, so its fastest pass is its least
    # disturbed time.  The two sums then drift together with the machine.
    ref_every = max(1, len(workload.ops) // REF_SLOTS)
    op_min = ref_min = first = None
    pass_times, pass_in_refs, deterministic = [], [], True
    started = time.perf_counter()
    while True:
        times, refs, outcomes = run_pass(workload, workloads.OP_ERRORS, ref_every)
        pass_times.append(sum(times))
        pass_in_refs.append(sum(times) / statistics.fmean(refs))
        if first is None:
            first, op_min, ref_min = outcomes, np.array(times), np.array(refs)
        else:
            deterministic &= outcomes == first
            op_min = np.minimum(op_min, times)
            ref_min = np.minimum(ref_min, refs)
        spent = time.perf_counter() - started
        # stop when another pass would overrun the time by more than half
        typical = spent / len(pass_times)
        if len(pass_times) >= MIN_PASSES and spent + 0.5 * typical >= args.seconds:
            break
    per_pass = summarize(first)
    fastest_pass = float(op_min.sum())
    fastest_ref = float(ref_min.mean())

    report = {
        "workload": args.workload,
        "env": environment(args.seed),
        "shape": {**workload.shape, "ops": len(workload.ops)},
        "setup_s_wall": setup_times,
        "setup_s": statistics.median(setup_norm),
        "pass_s": pass_times,
        "passes": len(pass_times),
        "per_pass": per_pass,
        "deterministic": deterministic,
        "fastest_pass_wall_s": fastest_pass,
        "reference_call_s": fastest_ref,
        "good_ops_per_s": per_pass["good"] * fastest_ref / (fastest_pass * REF_NOMINAL_S),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if args.trace:
        workload = None
        tracer = spans.Tracer(crlab)
        with tracer:
            workload = setup(args.seed)
            times, refs, traced = run_pass(workload, workloads.OP_ERRORS, ref_every)
        # one traced pass against the median untraced one, each measured in
        # its own reference calls so that machine drift between them cancels
        traced_in_refs = sum(times) / statistics.fmean(refs)
        overhead = traced_in_refs / statistics.median(pass_in_refs) - 1.0
        report["trace"] = {
            "metrics": {**tracer.metrics(), "trace_overhead_frac": overhead},
            "absent": tracer.absent,
            "edges": tracer.edge_table(),
            "same_outcomes": traced == first,
        }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
