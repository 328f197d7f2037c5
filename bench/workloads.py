"""The four benchmark workloads, their output checks and front digests.

A workload is a list of rounds of tasks, all built from the benchmark seed.
The three library workloads (``quad_front``, ``enum_init``, ``logit_front``)
run one front per task: ``initialize`` followed by ``sfsd_run``.
``reproduce`` runs one ``sparsemoo reproduce`` call per task, in-process,
and yields one outcome per front of its manifest.

Every front is checked: finite values, ``||x||_0 <= s``, objective values
that match the oracle, the archive invariants, and the subspace stationarity
that ``sfsd_run`` promises at its ``final_eps``.  Its digest hashes the
sorted rows (support, x, f).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from sparsemoo import cli, sfsd
from sparsemoo.core import SupportSet, support
from sparsemoo.directions import theta_L, theta_subspace
from sparsemoo.metrics import hypervolume_2d
from sparsemoo.problems import (
    example_biobjective,
    generate_quadratic,
    load_dataset,
    logistic_problem,
)
from sparsemoo.solvers import default_config

DEFAULT_SEED = 0
# sfsd_run's default final_eps; every workload runs with it.
FINAL_EPS = 1e-4
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Sizes per workload.  A run is made of whole rounds, at least
# ``min_rounds`` of them (front_hv averages over these), and stops once its
# time is up; after ``rounds`` distinct rounds it starts over.  Each size is
# chosen for many front runs per run on distinct inputs: the per-run medians
# must stay steady on a shared 2-core machine.  "smoke" sizes serve the
# self-tests only.
QUAD_GRID = tuple((10, s, kappa, strategy, 1) for kappa in (1.0, 10.0, 100.0)
                  for s in (2, 5, 8) for strategy in ("moiht", "mospd", "mohyb"))
SIZES = {
    # (n, s, kappa, strategy, tasks per round)
    "quad_front": {
        "full": dict(plan=QUAD_GRID, n_starts=4, sweeps=4, rounds=5, min_rounds=2),
        "smoke": dict(plan=((10, 2, 10.0, "moiht", 1),), n_starts=2, sweeps=1,
                      rounds=2, min_rounds=1),
    },
    "enum_init": {
        # C(23, 6) = 100,947 supports is above the support-array cache, so
        # theta_L streams its chunks there; kappa = 1 keeps that front to a
        # few theta_L calls.
        "full": dict(plan=((20, 5, 10.0, "moiht", 10), (25, 5, 10.0, "moiht", 3),
                           (20, 5, 10.0, "scalarized", 1), (23, 6, 1.0, "moiht", 1)),
                     n_starts=1, sweeps=2, rounds=6, min_rounds=3),
        "smoke": dict(plan=((12, 3, 10.0, "moiht", 1), (8, 2, 10.0, "scalarized", 1)),
                      n_starts=1, sweeps=1, rounds=2, min_rounds=1),
    },
    "logit_front": {
        "full": dict(datasets=("synth_margin_b.csv", "synth_screen_a.csv"),
                     budgets_s=(3, 5), run_seeds=3, n_starts=1, sweeps=6,
                     rounds=8, min_rounds=2),
        "smoke": dict(datasets=("synth_margin_b.csv",), budgets_s=(3,),
                      run_seeds=1, n_starts=1, sweeps=1, rounds=2, min_rounds=1),
    },
    "reproduce": {
        "full": dict(quads=((10, 10.0, 5), (10, 100.0, 2)), example4_s=1,
                     strategies=["moiht", "mospd", "mohyb", "scalarized"],
                     run_seeds=[0, 1], n_starts=3, sweeps=3, rounds=8, min_rounds=3),
        "smoke": dict(quads=((6, 10.0, 2),), example4_s=1,
                      strategies=["mohyb", "scalarized"],
                      run_seeds=[0], n_starts=2, sweeps=2, rounds=2, min_rounds=1),
    },
}

# Percentile reported as front_s_tail: the highest of 50/75/80/90 that leaves
# at least ten front runs beyond it at this workload's usual run count, and
# that falls inside one mode of the front-time distribution rather than in a
# gap between task kinds.  It is fixed per workload so that a faster program
# is not scored on a higher percentile.
TAIL_PERCENTILE = {"quad_front": 80, "enum_init": 80, "logit_front": 80, "reproduce": 90}


@dataclass
class Outcome:
    """One front run: its time, digest, normalised hypervolume and errors."""

    key: str
    seconds: float
    digest: str | None = None
    hv: float = 0.0
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# checks shared by every workload


def front_digest(rows) -> str:
    """Hash of the sorted ``(support, x, f)`` rows of one front.

    Values are written with 12 significant digits, so the digest survives a
    last-bit difference in a final value but not a different front.
    """
    lines = sorted(
        " ".join([",".join(str(int(i)) for i in J)]
                 + ["%.11e" % v for v in x] + ["%.11e" % v for v in f])
        for J, x, f in rows
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def check_rows(problem, s: int, rows) -> list:
    """Errors of front rows ``(support, x, f)`` against ``problem``; [] if none."""
    errors = []
    if not rows:
        errors.append("empty front")
    for J, x, f in rows:
        x = np.asarray(x, dtype=float)
        f = np.asarray(f, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(f).all()):
            errors.append(f"non-finite row on support {tuple(J)}")
            continue
        if len(J) > s or support(x).size > s or not set(support(x).tolist()) <= set(J):
            errors.append(f"infeasible row on support {tuple(J)}")
            continue
        if not np.allclose(f, problem.evaluate(x), rtol=1e-9, atol=1e-12):
            errors.append(f"objective values disagree with the oracle on {tuple(J)}")
        theta = theta_subspace(problem, x, SupportSet(tuple(J), problem.n)).theta
        if not theta > -FINAL_EPS:
            errors.append(f"theta_subspace {theta:.3g} <= -{FINAL_EPS} on {tuple(J)}")
    return errors[:5]


def check_archive(archive) -> list:
    try:
        archive.check_invariants()
    except AssertionError as exc:
        return [f"archive invariant: {exc}"]
    return []


def archive_rows(archive):
    return [(e.J.indices, e.x, e.fvals) for e in archive.entries()]


def normalised_hv(F, box) -> float:
    """Hypervolume of ``F`` in the instance box ``(ideal, nadir)`` scaled to [0, 1]."""
    lo, hi = box
    F = np.asarray(F, dtype=float).reshape(-1, 2)
    return hypervolume_2d((F - lo) / (hi - lo), np.ones(2))


def quadratic_box(problem, minimizers) -> tuple:
    """Box from the objectives' unconstrained minimizers and the origin.

    The ideal corner holds each objective's unconstrained minimum, a lower
    bound under any sparsity budget; the nadir corner holds each objective's
    largest value over the origin and the other minimizers.
    """
    points = [np.zeros(problem.n)] + list(minimizers)
    F = np.array([problem.evaluate(x) for x in points])
    lo = np.array([F[1 + j, j] for j in range(2)])
    return lo, F.max(axis=0)


def instance_box(inst) -> tuple:
    minimizers = [np.linalg.solve(inst.Q1, inst.c1), np.linalg.solve(inst.Q2, inst.c2)]
    return quadratic_box(inst.problem(), minimizers)


def example4_box(problem) -> tuple:
    # Both objectives are 0.5 ||x - a_j||^2, so a_j = -gradient_j(0).
    return quadratic_box(problem, list(-problem.gradient(np.zeros(problem.n))))


def logistic_box(s: int) -> tuple:
    # w = 0 gives loss log 2 and dominates every point with a larger loss;
    # 0.5 s is the squared-norm term of a unit box corner with s nonzeros.
    return np.zeros(2), np.array([math.log(2.0), 0.5 * s])


# ---------------------------------------------------------------------------
# library workloads: one initialize + sfsd_run per task


@dataclass
class FrontTask:
    key: str
    problem: object
    s: int
    strategy: str
    n_starts: int
    run_seed: int
    box: tuple
    cfg: object
    sweeps: int
    spacing: float
    hv_box: tuple


def run_front(task: FrontTask, tracer=None):
    """Time one front run, then check it with tracing off."""
    p = task.problem if tracer is None else tracer.problem(task.problem)
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        archive = sfsd.initialize(p, task.s, task.strategy, task.n_starts,
                                  task.run_seed, task.box, task.cfg)
        out = sfsd.sfsd_run(p, archive, task.s, task.cfg, task.sweeps,
                            explore_spacing=task.spacing)
    except Exception:  # a raising front run is counted as failed
        seconds = perf_counter() - t0
        return [Outcome(task.key, seconds, errors=[traceback.format_exc(limit=3)])], seconds
    finally:
        if tracer is not None:
            tracer.enabled = False
    seconds = perf_counter() - t0
    rows = archive_rows(out)
    errors = check_archive(out) + check_rows(task.problem, task.s, rows)
    hv = normalised_hv([r[2] for r in rows], task.hv_box) if rows else 0.0
    return [Outcome(task.key, seconds, front_digest(rows), hv, errors)], seconds


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def build_quadratic(rng, size, root, tmp):
    """Rounds with a fresh random quadratic per entry of the size's plan."""
    return [_quadratic_round(rng, size) for _ in range(size["rounds"])]


def _quadratic_round(rng, size):
    tasks = []
    for n, s, kappa, strategy, count in size["plan"]:
        for _ in range(count):
            inst_seed, run_seed = _seed(rng), _seed(rng)
            inst = generate_quadratic(n, kappa, inst_seed)
            p = inst.problem()
            tasks.append(FrontTask(
                key=f"quad_n{n}_k{kappa:g}_s{s}_i{inst_seed}_{strategy}_r{run_seed}",
                problem=p, s=s, strategy=strategy, n_starts=size["n_starts"],
                run_seed=run_seed, box=(-2.0, 2.0),
                cfg=default_config(p, max_iter=3000), sweeps=size["sweeps"],
                spacing=0.02, hv_box=instance_box(inst),
            ))
    return tasks


def build_logit_front(rng, size, root, tmp):
    """Rounds with fresh start seeds on every (dataset, s) pair."""
    problems = {}
    for name in size["datasets"]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant-column notices
            problems[name] = logistic_problem(*load_dataset(root / "data" / name, "y"))
    rounds = []
    for _ in range(size["rounds"]):
        tasks = []
        for name, p in problems.items():
            cfg = default_config(p, family="logistic")
            for s in size["budgets_s"]:
                for _ in range(size["run_seeds"]):
                    run_seed = _seed(rng)
                    tasks.append(FrontTask(
                        key=f"{Path(name).stem}_s{s}_mohyb_r{run_seed}",
                        problem=p, s=s, strategy="mohyb", n_starts=size["n_starts"],
                        run_seed=run_seed, box=(0.0, 1.0), cfg=cfg,
                        sweeps=size["sweeps"], spacing=5e-3, hv_box=logistic_box(s),
                    ))
        rounds.append(tasks)
    return rounds


# ---------------------------------------------------------------------------
# reproduce: the CLI pipeline in-process


@dataclass
class ReproduceTask:
    key: str
    manifest: Path
    out_dir: Path
    instances: list  # (stem, problem, s, hv_box) in manifest order
    strategies: list
    run_seeds: list


def build_reproduce(rng, size, root, tmp):
    """Rounds of one manifest each: fresh quadratics plus example4."""
    return [[_reproduce_task(rng, size, tmp)] for _ in range(size["rounds"])]


def _reproduce_task(rng, size, tmp):
    entries, instances = [], []
    for n, kappa, s in size["quads"]:
        inst_seed = _seed(rng)
        entries.append({"n": n, "kappa": kappa, "s": s, "seed": inst_seed})
        inst = generate_quadratic(n, kappa, inst_seed)
        instances.append((f"quad_n{n}_k{kappa:g}_s{s}_seed{inst_seed}",
                          inst.problem(), s, instance_box(inst)))
    s4 = size["example4_s"]
    entries.append({"type": "example4", "s": s4})
    ex4 = example_biobjective()
    instances.append((f"example4_s{s4}", ex4, s4, example4_box(ex4)))
    out_dir = tmp / "reproduce_out"
    root_seed = _seed(rng)
    manifest = {
        "seed": root_seed, "out_dir": str(out_dir), "instances": entries,
        "strategies": size["strategies"], "run_seeds": size["run_seeds"],
        "n_starts": size["n_starts"], "sfsd_budget": size["sweeps"],
        "solver_budget": 3000,
    }
    path = tmp / f"manifest_{root_seed}.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return ReproduceTask(f"reproduce_{root_seed}", path, out_dir, instances,
                         size["strategies"], size["run_seeds"])


def run_reproduce(task: ReproduceTask, tracer=None):
    """Time one in-process ``reproduce`` call and check every front it wrote.

    A front's time is its ``initialize`` call plus the ``sfsd_run`` call that
    follows, both taken at the names ``cli`` looks up.
    """
    shutil.rmtree(task.out_dir, ignore_errors=True)
    times, archives = [], []
    init_orig, run_orig = cli.initialize, cli.sfsd_run

    def initialize(*args, **kwargs):
        t0 = perf_counter()
        try:
            return init_orig(*args, **kwargs)
        finally:
            times.append(perf_counter() - t0)

    def sfsd_run(*args, **kwargs):
        t0 = perf_counter()
        try:
            archives.append(run_orig(*args, **kwargs))
            return archives[-1]
        finally:
            times[-1] += perf_counter() - t0

    main = cli.main if tracer is None else tracer.span("cli.reproduce", cli.main)
    cli.initialize, cli.sfsd_run = initialize, sfsd_run
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["reproduce", str(task.manifest)])
        call_errors = [] if code == 0 else [f"reproduce exited with code {code}"]
    except Exception:  # counted as a failure of every front of the call
        call_errors = [traceback.format_exc(limit=3)]
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        cli.initialize, cli.sfsd_run = init_orig, run_orig

    if tracer is not None:
        tracer.counters["cli.out_bytes"] += sum(
            f.stat().st_size for f in task.out_dir.rglob("*") if f.is_file())
    # An archive cannot be told apart from the CSV it became, so a failed
    # archive check fails every front of the call.
    for archive in archives:
        call_errors += check_archive(archive)
    call_errors += _check_reproduce_files(task)
    outcomes = []
    for stem, problem, s, box in task.instances:
        for strategy in task.strategies:
            for run_seed in task.run_seeds:
                seconds = times[len(outcomes)] if len(outcomes) < len(times) else 0.0
                out = Outcome(f"{task.key}/{stem}/{strategy}_seed{run_seed}", seconds,
                              errors=list(call_errors))
                csv_path = task.out_dir / "fronts" / stem / f"{strategy}_seed{run_seed}.csv"
                if csv_path.is_file():
                    F, X, sups = cli.read_front_csv(csv_path)
                    rows = list(zip(sups, X, F))
                    out.errors += check_rows(problem, s, rows)
                    out.digest = front_digest(rows)
                    out.hv = normalised_hv(F, box)
                else:
                    out.errors.append("no front written")
                outcomes.append(out)
    return outcomes, wall


def load_digests() -> dict:
    """The committed default-seed digests, per workload and front key."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def _check_reproduce_files(task: ReproduceTask) -> list:
    expected = [task.out_dir / "summary.json"]
    for stem, *_ in task.instances:
        expected += [task.out_dir / "metrics" / f"{stem}_{tag}.csv" for tag in ("best", "worst")]
    for tag in ("best", "worst"):
        expected += [task.out_dir / "profiles" / tag / f"{m}_profile.csv"
                     for m in ("purity", "gamma_spread", "delta_spread", "hypervolume")]
    return [f"missing output {p.relative_to(task.out_dir)}" for p in expected if not p.is_file()]


# ---------------------------------------------------------------------------


BUILDERS = {
    "quad_front": build_quadratic,
    "enum_init": build_quadratic,
    "logit_front": build_logit_front,
    "reproduce": build_reproduce,
}


class Workload:
    """Rounds of tasks of one workload, with its run function and warm-up.

    A round holds one task per configuration of the workload, each on fresh
    inputs, so a run made of whole rounds has a fixed mix of configurations
    and averages over many distinct inputs.
    """

    def __init__(self, name: str, seed: int, smoke: bool, root: Path, tmp: Path):
        self.name = name
        self.tail_percentile = TAIL_PERCENTILE[name]
        size = SIZES[name]["smoke" if smoke else "full"]
        self.min_rounds = size["min_rounds"]
        rng = np.random.default_rng(seed)
        self.rounds = BUILDERS[name](rng, size, root, tmp)
        self.run = run_reproduce if name == "reproduce" else run_front

    def warm_up(self):
        """Fill the support-array cache for every (n, s) the workload uses."""
        if self.name == "reproduce":
            pairs = [(p, s) for rnd in self.rounds for task in rnd
                     for _, p, s, _ in task.instances]
        else:
            pairs = [(t.problem, t.s) for rnd in self.rounds for t in rnd]
        for p, s in {(p.n, s): (p, s) for p, s in pairs}.values():
            theta_L(p, np.zeros(p.n), s, 1.0)
