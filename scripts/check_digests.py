"""Check every committed seed-0 front digest of the benchmark.

Run from the root of a source checkout:

    python3 scripts/check_digests.py

Runs every distinct round of every workload in ``bench/workloads.py`` once,
seed 0, with BLAS pinned to one thread as ``bench/run.py`` pins it, and
compares each front's digest with ``bench/digests.json``.  A timed
``bench/run.py`` run covers only the rounds that fit in its time; this
covers them all.  Nothing in the checkout is written.  Exits 1 when a
digest differs, is missing or a front fails its checks, else 0.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402  (bench/run.py: environment pinning, before numpy loads)

run.pin_environment()

import workloads  # noqa: E402


def main() -> int:
    committed = workloads.load_digests()
    failures, checked = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("quad_front", "enum_init", "logit_front", "reproduce"):
            t0 = perf_counter()
            wl = workloads.Workload(name, workloads.DEFAULT_SEED, False, ROOT, Path(tmp))
            expected = committed.get(name, {})
            seen = set()
            for rnd in wl.rounds:
                for task in rnd:
                    outcomes, _ = wl.run(task)
                    for out in outcomes:
                        seen.add(out.key)
                        want = expected.get(out.key)
                        if out.digest != want:
                            failures.append(f"{name} {out.key}: digest {out.digest}, "
                                            f"committed {want}")
                        failures += [f"{name} {out.key}: {err}" for err in out.errors]
            failures += [f"{name} {key}: committed but not produced"
                         for key in sorted(set(expected) - seen)]
            checked += len(seen)
            print(f"{name}: {len(seen)} fronts in {perf_counter() - t0:.1f} s")
    for line in failures:
        print(f"FAILED {line}")
    print(f"{checked} fronts checked, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
