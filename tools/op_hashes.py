"""Fingerprint the benchmark's op outcomes, per workload and seed.

Run from the root of a checkout:

    python3 tools/op_hashes.py --seeds 1,2,3

For each workload of `perfbench/workloads.py` and each seed it builds the
workload, runs two passes over its op list, and prints the SHA-256 of the
ordered outcomes of both passes, (kind, status, error) with each error's
exact repr, beside the failed and attempted counts of the first pass.  A
change that should leave every result alone, such as a refactor, must print
the same lines as its parent.  It imports `crlab` from this checkout's
`src/` and the benchmark's modules without changing them, and writes no
bytecode.
"""

import sys

sys.dont_write_bytecode = True  # leave the checkout as it was found

import argparse  # noqa: E402
import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import import_crlab, run_pass  # noqa: E402

PASSES = 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1", help="comma-separated, e.g. 1,2,3")
    args = ap.parse_args(argv)
    import_crlab()
    import workloads  # imports crlab, so only after import_crlab
    for seed in (int(s) for s in args.seeds.split(",")):
        for name, setup in workloads.SETUPS.items():
            workload, digest = setup(seed), hashlib.sha256()
            for k in range(PASSES):
                _, _, outcomes = run_pass(workload, workloads.OP_ERRORS)
                digest.update(repr(outcomes).encode())
                if k == 0:
                    failed = sum(s != "good" for _, s, _ in outcomes)
            print(f"{name} seed {seed}: {digest.hexdigest()} "
                  f"failed {failed}/{len(outcomes)}")


if __name__ == "__main__":
    main()
