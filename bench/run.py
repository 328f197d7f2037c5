"""Benchmark for sparsemoo.

Run from the root of a source checkout:

    python3 bench/run.py --workload quad_front --seed 0 --seconds 25 --trace 0

Workloads: quad_front, enum_init, logit_front, reproduce (see README.md in
this directory).  The program under test is imported from ``src/`` of the
checkout, in this process, with BLAS pinned to one thread.

``--trace 0`` repeats the workload's tasks for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs the task list once untraced and once
traced and prints the per-layer metrics with the tracing overhead.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
report the environment, every metric with its unit and every front digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# main process plus two fresh interpreters
SETUP_SAMPLES = 3
END_TO_END_UNITS = {
    "fronts_per_s": "1/s",
    "front_s_p50": "s",
    "front_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "front_hv": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["quad_front", "enum_init", "logit_front", "reproduce"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny task sizes, for the benchmark's self-tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's front digests as the committed "
                         "default-seed digests")
    return ap.parse_args(argv)


def pin_environment():
    """One BLAS thread, no sparsemoo worker pool; before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SPARSEMOO_THREADS", None)


def describe_environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Stats:
    """Front outcomes of one measured phase."""

    def __init__(self, committed):
        self.committed = committed  # key -> digest, or None when not checked
        self.front_s = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.hv = []
        self.fixed = 0  # front runs of the first min_rounds rounds
        self.errors = []

    def add(self, outcomes, wall):
        self.wall += wall
        for out in outcomes:
            errors = list(out.errors)
            seen = self.digests.setdefault(out.key, out.digest)
            if out.digest != seen:
                errors.append(f"digest {out.digest} differs from this run's first {seen}")
            if self.committed is not None and out.digest != self.committed.get(out.key):
                errors.append(f"digest {out.digest} differs from the committed "
                              f"{self.committed.get(out.key)}")
            self.hv.append(out.hv)
            self.front_s.append(out.seconds)
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors.append((out.key, errors))


def measure(wl, stats, seconds, tracer=None, rounds=None):
    """Run whole rounds until ``seconds`` have passed and at least
    ``wl.min_rounds`` are done; with ``rounds``, run exactly that many."""
    start = perf_counter()
    done = 0
    while True:
        for task in wl.rounds[done % len(wl.rounds)]:
            stats.add(*wl.run(task, tracer))
        done += 1
        if done == wl.min_rounds:
            stats.fixed = stats.attempted
        if rounds is not None:
            if done == rounds:
                return stats
        elif done >= wl.min_rounds and perf_counter() - start >= seconds:
            return stats


def report(metrics: dict, stats_list, extra_lines):
    attempted = sum(s.attempted for s in stats_list)
    failed = sum(s.failed for s in stats_list)
    for line in extra_lines:
        print(line)
    for st in stats_list:
        for key, errors in st.errors[:20]:
            for err in errors:
                print(f"FAILED {key}: {err}".rstrip())
    print(f"metric fail_frac {failed / attempted if attempted else 1.0} ratio "
          f"({failed} of {attempted} front runs)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the library's assert checks "
              "are part of the measured program", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "sparsemoo" / "__init__.py").is_file():
        print(f"no sparsemoo sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != 0 or args.smoke or args.trace):
        print("--record-digests needs --seed 0 --trace 0 without --smoke", file=sys.stderr)
        return 2
    pin_environment()

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        t0 = perf_counter()
        sys.path.insert(0, str(src))
        import sparsemoo
        import workloads

        if Path(sparsemoo.__file__).resolve().parent != (src / "sparsemoo").resolve():
            print(f"imported sparsemoo from {sparsemoo.__file__}, not {src}", file=sys.stderr)
            return 2
        wl = workloads.Workload(args.workload, args.seed, args.smoke, ROOT, Path(tmp))
        wl.warm_up()
        setup_s = perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, wl, workloads, setup_s, scratch)


def run(args, wl, workloads, setup_s, scratch) -> int:
    import numpy as np

    committed = None
    if args.seed == workloads.DEFAULT_SEED and not args.smoke and not args.record_digests:
        committed = workloads.load_digests().get(args.workload, {})
    lines = ["env " + json.dumps(describe_environment(), sort_keys=True)]

    if args.trace:
        import tracing

        plain = measure(wl, Stats(committed), args.seconds, rounds=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(wl, Stats(committed), args.seconds, tracer, rounds=1)
        finally:
            tracer.restore()
        overhead = traced.wall / plain.wall
        trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        lines.append(f"traced one round of {traced.attempted} front runs: "
                     f"{traced.wall:.3f} s against {plain.wall:.3f} s untraced "
                     f"({overhead:.2f}x); spans in {trace_path.relative_to(ROOT)}")
        report(tracer.layer_metrics(overhead), [plain, traced], lines)
        return 0

    setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    rounds = len(wl.rounds) if args.record_digests else None
    stats = measure(wl, Stats(committed), args.seconds, rounds=rounds)
    n = len(stats.front_s)
    tail = float(np.percentile(stats.front_s, wl.tail_percentile))
    # the first min_rounds rounds run whatever the speed
    hv_values = stats.hv[:stats.fixed]
    metrics = {
        "fronts_per_s": stats.attempted / stats.wall,
        "front_s_p50": statistics.median(stats.front_s),
        "front_s_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "front_hv": sum(hv_values) / len(hv_values),
    }
    lines.append(f"workload {args.workload} seed {args.seed}: {n} front runs, "
                 f"{stats.wall:.3f} s in the program, set-up samples {setups}")
    lines.append(f"front_s_tail is p{wl.tail_percentile} of {n} front runs, "
                 f"{sum(v > tail for v in stats.front_s)} beyond it")
    lines += [f"digest {key} {digest}" for key, digest in sorted(stats.digests.items())]
    if args.record_digests:
        stored = workloads.load_digests()
        stored[args.workload] = dict(sorted(stats.digests.items()))
        workloads.DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    report({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, [stats], lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
