"""Check every committed seed-0 front digest of the benchmark.

Run from the root of a source checkout:

    python3 scripts/check_digests.py [--workload NAME]...

Runs every distinct round of every workload in ``bench/workloads.py`` once,
seed 0, with BLAS pinned to one thread as ``bench/run.py`` pins it, and
compares each front's digest with ``bench/digests.json``.  A timed
``bench/run.py`` run covers only the rounds that fit in its time; this
covers them all.  Nothing in the checkout is written.  Exits 1 when a
digest differs, is missing or a front fails its checks, else 0.
``--workload NAME`` (repeatable) checks only the named workloads, in the
order given, and prints only their ``bytes`` lines.

The committed digests round values to 12 digits.  So the script also
prints one ``bytes <workload> <sha256>`` line per workload over the exact
bytes of its fronts: each final archive's supports, ``x`` and ``fvals`` for
the library workloads, and every output file (temporary root replaced) for
``reproduce``.  Two checkouts that print the same lines compute the same
fronts bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402  (bench/run.py: environment pinning, before numpy loads)

run.pin_environment()

import workloads  # noqa: E402


def hash_archive(h, archive):
    """Feed every entry's support, ``x`` and ``fvals`` bytes to ``h``."""
    h.update(b"archive %d\n" % len(archive))
    for e in archive.entries():
        h.update(repr(e.J.indices).encode())
        h.update(e.x.tobytes())
        h.update(e.fvals.tobytes())


def hash_files(h, root: Path, tmp: str):
    """Feed every file under ``root`` to ``h``, by relative path, with ``tmp``
    replaced by a fixed marker."""
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        data = f.read_bytes().replace(tmp.encode(), b"<tmp>")
        h.update(b"%s %d\n" % (str(f.relative_to(root)).encode(), len(data)))
        h.update(data)


WORKLOADS = ("quad_front", "enum_init", "logit_front", "reproduce")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS, metavar="NAME",
                    help="check only this workload (repeatable; default: all four)")
    names = tuple(dict.fromkeys(ap.parse_args().workload or WORKLOADS))
    committed = workloads.load_digests()
    failures, checked, hashers = [], 0, []
    sfsd_run = workloads.sfsd.sfsd_run

    def hashed_run(*args, **kwargs):
        archive = sfsd_run(*args, **kwargs)
        hash_archive(hashers[-1], archive)
        return archive

    # run_front's call; cli imported its own name, which reproduce keeps using
    workloads.sfsd.sfsd_run = hashed_run
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            t0 = perf_counter()
            wl = workloads.Workload(name, workloads.DEFAULT_SEED, False, ROOT, Path(tmp))
            expected = committed.get(name, {})
            seen = set()
            hashers.append(hashlib.sha256())
            for rnd in wl.rounds:
                for task in rnd:
                    outcomes, _ = wl.run(task)
                    if name == "reproduce":
                        hash_files(hashers[-1], task.out_dir, tmp)
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
    for name, h in zip(names, hashers):
        print(f"bytes {name} {h.hexdigest()}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"{checked} fronts checked, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
