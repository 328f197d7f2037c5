"""Command line interface: instance generation, solver runs, front
approximation, metrics and performance profiles, manifest-driven
reproduction.

Exit codes: 0 success, 1 usage or data error, 2 empty result, 3 enumeration
capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from .core import CapacityError, SupportSet, check_number, filter_nondominated, support
from .metrics import (
    build_reference_front,
    delta_spread,
    gamma_spread,
    hypervolume_2d,
    hypervolume_reference_point,
    performance_profiles,
    purity,
    rescale_logistic_objectives,
)
from .problems import (
    DataError,
    check_instance_entry,
    instance_name,
    load_dataset,
    load_instance,
    logistic_problem,
    parse_cell,
    read_json,
    read_table,
    save_instance,
    write_json,
)
from .sfsd import (EXPLORE_SPACING, N_STARTS, SEED_INDEPENDENT, STRATEGIES, initialize, sfsd_run,
                   solve_starts)
from .solvers import SolverConfig, default_config, mosd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_CAPACITY = 3

BENCHMARK_GRID = {
    10: (2, 5, 8),
    25: (5, 10, 20),
    50: (5, 15, 30),
}
BENCHMARK_KAPPAS = (1.0, 10.0, 100.0)

# Metric table columns after ``solver``, each with whether higher is better.
METRICS = (
    ("purity", True),
    ("gamma_spread", False),
    ("delta_spread", False),
    ("hypervolume", True),
)


class EmptyResultError(RuntimeError):
    """A pipeline stage produced no usable rows."""


def _check_unique(values, clash):
    """Raise DataError ``clash(i, j)`` for the first ``values[j]`` equal to a ``values[i]``."""
    seen: dict = {}
    for j, value in enumerate(values):
        if value in seen:
            raise DataError(clash(seen[value], j))
        seen[value] = j


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    # usage errors must exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# front CSV round trip


def _write_table(path, header, rows):
    """Write ``header`` and then ``rows`` as a CSV file, creating its parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_front_csv(path, rows, n: int, m: int):
    """Rows of (fvals, x, SupportSet) -> CSV with 1-based support column."""
    _write_table(
        path,
        [f"f{j + 1}" for j in range(m)] + ["support"] + [f"x_{i + 1}" for i in range(n)],
        ([repr(float(v)) for v in fvals] + ["|".join(str(i) for i in J.to_1based())]
         + [repr(float(v)) for v in x] for fvals, x, J in rows),
    )


def read_front_csv(path):
    """Returns (F, X, supports) with supports as 0-based index tuples.

    The header must open with the objective columns ``f1, f2, ...`` followed
    by ``support``; a row with another cell count, an objective or ``x_``
    cell that is not a finite number, or a support that is not strictly
    increasing within 1..n (n the number of ``x_`` columns) raises
    :class:`DataError` naming ``path:line``.
    """
    header, table = read_table(path)
    m = 0
    while m < len(header) and header[m] == f"f{m + 1}":
        m += 1
    if m == 0 or header[m:m + 1] != ["support"]:
        raise DataError(f"{path}:1: header must be f1, ..., f<m>, support, x_1, ..., x_<n>")
    n = len(header) - m - 1
    fs, xs, sups = [], [], []
    for line, row in table:
        values = [parse_cell(path, line, col, cell)
                  for j, (col, cell) in enumerate(zip(header, row)) if j != m]
        fs.append(values[:m])
        xs.append(values[m:])
        try:
            J = SupportSet(tuple(int(i) - 1 for i in row[m].split("|")) if row[m] else (), n)
        except ValueError:
            raise DataError(f"{path}:{line}: support {row[m]!r} must list "
                            f"strictly increasing indices in 1..{n}") from None
        sups.append(J.indices)
    return np.array(fs), np.array(xs), sups


# ---------------------------------------------------------------------------
# problem loading


def _load_problem(args):
    """Resolve the --instance / --dataset flags into (problem, info) and the
    solver flags into the problem's config: ``(problem, info, cfg)``."""
    if args.instance:
        for flag in ("dataset", "label_column", "s"):  # the file gives the problem and s
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} cannot be used with --instance")
        problem, info = load_instance(args.instance)
        info["source"] = str(args.instance)
    elif args.dataset:
        if not args.label_column:
            raise ValueError("--label-column is required with --dataset")
        if args.s is None:
            raise ValueError("--s is required with --dataset")
        R, t = load_dataset(args.dataset, args.label_column)
        problem = logistic_problem(R, t)
        info = {"type": "logistic", "n": problem.n, "s": int(args.s),
                "family": "logistic", "source": str(args.dataset)}
    else:
        raise ValueError("one of --instance or --dataset is required")
    return problem, info, default_config(problem, info["family"], eps=args.eps,
                                         max_iter=args.solver_budget, tau0=args.tau0)


def _default_box(info):
    return (0.0, 1.0) if info["family"] == "logistic" else (-2.0, 2.0)


def _deadlines(wallclock):
    """(phase-one, phase-two) monotonic deadlines splitting ``wallclock``."""
    if wallclock is None:
        return None, None
    check_number("--wallclock", wallclock, 0, open_low=True)
    now = time.monotonic()
    return now + wallclock / 2.0, now + wallclock


def _run_front(problem, info, strategy, n_starts, seed, cfg, budget,
               wallclock=None, **sfsd_options):
    """Both front phases on one problem: ``(final archive, front rows)``.

    The rows are the archive's globally nondominated (fvals, x, J) triples.
    Raises :class:`EmptyResultError` when a phase leaves no points.
    """
    deadline_init, deadline_run = _deadlines(wallclock)
    archive = initialize(
        problem, info["s"], strategy, n_starts, seed,
        _default_box(info), cfg, deadline=deadline_init,
    )
    if len(archive) == 0:
        raise EmptyResultError("initialization produced no usable points")
    final = sfsd_run(problem, archive, info["s"], cfg, budget,
                     deadline=deadline_run, **sfsd_options)
    rows = [(e.fvals, e.x, e.J) for e in final.entries()]
    return final, _nondominated(rows, "front descent produced no points")


def _nondominated(rows, empty):
    """The (fvals, x, J) rows no other row dominates; raises
    :class:`EmptyResultError` with message ``empty`` when none are left."""
    keep = filter_nondominated(np.array([r[0] for r in rows]))
    if keep.size == 0:
        raise EmptyResultError(empty)
    return [rows[i] for i in keep]


def _write_front(args, problem, info, cfg, rows, **extras):
    """Front CSV, its ``.meta.json`` (shared keys, every ``cfg`` setting and
    ``extras``) and the summary line."""
    write_front_csv(args.out, rows, problem.n, problem.m)
    write_json(f"{args.out}.meta.json", {
        "command": args.command, "strategy": args.strategy, "seed": args.seed,
        "n_starts": args.n_starts, "s": info["s"], **dataclasses.asdict(cfg),
        "wallclock": args.wallclock, "instance": info, **extras,
    }, indent=2)
    print(f"wrote {args.out} ({len(rows)} nondominated points)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    if args.benchmark_grid:
        if not args.out_dir:
            raise ValueError("--out-dir is required with --benchmark-grid")
        out_dir = Path(args.out_dir)
        try:
            seeds = [int(v) for v in args.seeds.split(",")]
        except ValueError:
            raise ValueError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
        _check_unique(seeds, lambda i, j: (
            f"--seeds repeats {seeds[i]} (positions {i + 1} and {j + 1}); "
            "each seed names its instance files"))
        entries = [{"n": n, "kappa": kappa, "s": s, "seed": seed}
                   for n, s_choices in BENCHMARK_GRID.items() for kappa in BENCHMARK_KAPPAS
                   for s in s_choices for seed in seeds]
        jobs = [(out_dir / instance_name(entry), entry) for entry in entries]
    else:
        if args.example4:
            entry = {"type": "example4", "s": 1 if args.s is None else args.s}
        else:
            for name in ("n", "kappa", "s"):
                if getattr(args, name) is None:
                    raise ValueError(f"--{name} is required")
            entry = {"n": args.n, "kappa": args.kappa, "s": args.s, "seed": args.seed}
        if not args.out:
            raise ValueError("--out is required")
        jobs = [(Path(args.out), entry)]
    for path, entry in jobs:  # every entry is checked before any file is written
        check_instance_entry(entry, f"{path}:")
    for path, entry in jobs:
        save_instance(path, entry)
    print(f"wrote {len(jobs)} instances to {out_dir}" if args.benchmark_grid
          else f"wrote {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem, info, cfg = _load_problem(args)
    s = info["s"]
    deadline_solve, deadline_refine = _deadlines(args.wallclock)
    points, iteration_counts = solve_starts(
        problem, s, args.strategy, args.n_starts, args.seed,
        _default_box(info), cfg, deadline_solve,
    )

    rows = []
    for x in points:
        sup = support(x)
        # refine on the point's own support, zeros stay fixed
        if sup.size and (deadline_refine is None or time.monotonic() <= deadline_refine):
            x = mosd(problem, x, sup, cfg.eps, cfg)
        if not np.all(np.isfinite(x)):
            continue
        fv = np.asarray(problem.evaluate(x), dtype=float)
        if not np.all(np.isfinite(fv)):
            continue
        rows.append((fv, x, SupportSet.from_iterable(support(x), problem.n)))
    rows = _nondominated(rows, "no finite solver outputs to report")
    return _write_front(args, problem, info, cfg, rows,
                        iteration_counts=iteration_counts, points=len(rows))


def cmd_front(args) -> int:
    problem, info, cfg = _load_problem(args)
    final, rows = _run_front(
        problem, info, args.strategy, args.n_starts, args.seed, cfg, args.budget,
        args.wallclock, explore_spacing=args.explore_spacing,
    )
    return _write_front(args, problem, info, cfg, rows, budget=args.budget,
                        explore_spacing=args.explore_spacing,
                        archive_points=len(final), front_points=len(rows))


def _parse_named_fronts(items):
    """``[(name, F)]`` for ``NAME=PATH`` items; a name keys one metrics row.
    Fronts with rows must agree on the number of objectives."""
    pairs = []
    for item in items:
        if "=" not in item:
            raise ValueError(f"expected NAME=PATH, got {item!r}")
        pairs.append(item.split("=", 1))
    _check_unique([name for name, _ in pairs], lambda i, j: (
        f"--front {pairs[i][1]} and {pairs[j][1]} are both named {pairs[i][0]!r}; "
        "front names must be unique"))
    named = [(name, read_front_csv(path)[0]) for name, path in pairs]
    sized = [(name, path, F.shape[1]) for (name, path), (_, F) in zip(pairs, named) if F.size]
    for name, path, m in sized[1:]:
        name0, path0, m0 = sized[0]
        if m != m0:
            raise DataError(f"front {name0!r} ({path0}) has {m0} objectives, front {name!r} "
                            f"({path}) has {m}; fronts must agree on the number of objectives")
    return named


def _write_metrics_table(path, named, reference, spread=None):
    """One metrics row per (name, front) pair, measured against ``reference``.

    ``spread`` optionally gives (fronts, reference) in rescaled coordinates
    for the two spread metrics.  Returns the hypervolume reference point and
    the rows as ``(name, values in METRICS order)``.
    """
    ref_point = hypervolume_reference_point(reference)
    spread_fronts, spread_ref = spread or ([F for _, F in named], reference)
    rows = [(name, [purity(F, reference), gamma_spread(Fs, spread_ref),
                    delta_spread(Fs, spread_ref), hypervolume_2d(F, ref_point)])
            for (name, F), Fs in zip(named, spread_fronts)]
    _write_table(path, ["solver"] + [metric for metric, _ in METRICS],
                 ([name] + [repr(v) for v in values] for name, values in rows))
    return ref_point, rows


def cmd_metrics(args) -> int:
    named = _parse_named_fronts(args.front)
    if not named:
        raise ValueError("at least one --front NAME=PATH is required")
    fronts = [F for _, F in named]
    if args.reference == "combined":
        reference = build_reference_front(fronts)
    else:
        reference, _, _ = read_front_csv(args.reference)
        reference = build_reference_front([reference])
    if reference.shape[0] == 0:
        raise EmptyResultError("reference front is empty")
    for name, F in named:  # a combined reference has the fronts' count already
        if F.size and F.shape[1] != reference.shape[1]:
            raise DataError(f"{args.reference}: the reference front has {reference.shape[1]} "
                            f"objectives, front {name!r} has {F.shape[1]}")

    spread = None
    if args.logistic_scaling:
        rescaled = rescale_logistic_objectives(fronts + [reference])
        spread = (rescaled[:-1], rescaled[-1])
    ref_point, _ = _write_metrics_table(args.out, named, reference, spread)
    write_json(f"{args.out}.meta.json", {
        "command": "metrics",
        "reference": args.reference,
        "reference_points": int(reference.shape[0]),
        "ref_point": ref_point.tolist(),
        "logistic_scaling": bool(args.logistic_scaling),
        "fronts": [name for name, _ in named],
    }, indent=2)
    print(f"wrote {args.out}")
    return EXIT_OK


def _read_metrics_csv(path):
    """A metrics table's rows as ``(solver, values in METRICS order)``; bad tables raise DataError."""
    header, table = read_table(path)
    columns = ["solver"] + [metric for metric, _ in METRICS]
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(f"{path}: metrics CSV lacks column(s) {', '.join(missing)}")
    solver, *metrics = [header.index(c) for c in columns]
    rows = []
    for line, row in table:
        try:  # plain float: an empty front scores inf in the spreads
            rows.append((row[solver], [float(row[j]) for j in metrics]))
        except ValueError as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
    _check_unique([solver for solver, _ in rows], lambda i, j: (
        f"{path}:{table[j][0]}: solver {rows[j][0]!r} repeats line {table[i][0]}; "
        "solver names must be unique"))
    return rows


def _write_profiles(tables, out_dir):
    """Per-metric profile CSVs over ``{problem: metric table rows}``.

    Every profile is built before any file is written, so a metric whose
    values a profile rejects leaves no file behind; its error names the metric.
    """
    solvers = sorted({solver for rows in tables.values() for solver, _ in rows})
    problems = sorted(tables)
    profiles = []
    for k, (metric, higher) in enumerate(METRICS):
        V = np.full((len(problems), len(solvers)), np.nan)
        for i, prob in enumerate(problems):
            for solver, values in tables[prob]:
                j = solvers.index(solver)
                val = values[k]
                if higher and val == 0.0:
                    continue  # zero score = failure under the inversion rule
                if np.isfinite(val):
                    V[i, j] = val
        try:
            curves = performance_profiles(V, higher_is_better=higher, solvers=solvers)
        except ValueError as exc:
            raise DataError(f"{metric} profile: {exc}") from None
        profiles.append((metric, curves))
    for metric, curves in profiles:
        _write_table(Path(out_dir) / f"{metric}_profile.csv", ["solver", "tau", "rho"],
                     ([curve.solver, repr(float(t)), repr(float(r))]
                      for curve in curves for t, r in zip(curve.taus, curve.rhos)))


def cmd_profiles(args) -> int:
    if not args.metrics_csv:
        raise ValueError("at least one --metrics-csv is required")
    paths, stems = args.metrics_csv, [Path(path).stem for path in args.metrics_csv]
    _check_unique(stems, lambda i, j: (  # a table's problem is its file's stem
        f"--metrics-csv {paths[i]} and {paths[j]} are both problem {stems[i]!r}; "
        "file stems must be unique"))
    _write_profiles({stem: _read_metrics_csv(path) for stem, path in zip(stems, paths)},
                    args.out_dir)
    print(f"wrote profiles for {len(METRICS)} metrics to {args.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# manifest-driven reproduction


def _load_manifest(path):
    """The manifest JSON with its defaults filled in, and its instance files;
    every value is checked, instance names (file stems), strategies and run
    seeds, which key the outputs, are unique and every ``path`` names a file."""
    manifest = read_json(path)
    source = f"{path}: manifest"
    if not isinstance(manifest, dict):
        raise DataError(f"{source} must be a JSON object")
    out_dir = manifest.setdefault("out_dir", str(path.parent / "reproduce_out"))
    if not isinstance(out_dir, str):
        raise DataError(f"{source} 'out_dir' must be a string, got {out_dir!r}")
    instances = manifest.get("instances")
    if not isinstance(instances, list) or not instances:
        raise DataError(f"{source} 'instances' must be a non-empty list")
    files = []
    for i, entry in enumerate(instances):
        if not isinstance(entry, dict):
            raise DataError(f"{source} 'instances[{i}]' must be an object")
        if "path" in entry:
            if not isinstance(entry["path"], str):
                raise DataError(
                    f"{source} 'instances[{i}].path' must be a string, got {entry['path']!r}")
            files.append((path.parent / entry["path"]).resolve())
        else:
            if entry.get("type") != "example4":
                entry.setdefault("seed", 0)
            check_instance_entry(entry, source, f"instances[{i}].")
            files.append(Path(out_dir) / "instances" / instance_name(entry))
    _check_unique([file.stem for file in files], lambda i, j: (
        f"{source} 'instances[{i}]' and 'instances[{j}]' are both named "
        f"{files[i].stem!r}; instance names must be unique"))
    for i, file in enumerate(files):
        if "path" in instances[i] and not file.is_file():
            raise DataError(f"{source} 'instances[{i}].path' names no file: {file}")
    strategies = manifest.setdefault("strategies", ["mohyb"])
    if (not isinstance(strategies, list) or not strategies
            or any(st not in STRATEGIES for st in strategies)):
        raise DataError(
            f"{source} 'strategies' must be a non-empty list drawn from {list(STRATEGIES)}")
    run_seeds = manifest.setdefault("run_seeds", [0])
    if not isinstance(run_seeds, list) or not run_seeds:
        raise DataError(f"{source} 'run_seeds' must be a non-empty list of integers")
    for r, run_seed in enumerate(run_seeds):
        check_number(f"{source} 'run_seeds[{r}]'", run_seed, 0, integer=True)
    for key, values in (("strategies", strategies), ("run_seeds", run_seeds)):
        _check_unique(values, lambda i, j: (
            f"{source} '{key}[{i}]' and '{key}[{j}]' are both {values[i]!r}; "
            "each run's CSV is keyed by strategy and run seed"))
    for key, default, minimum in (("seed", 0, 0), ("n_starts", N_STARTS, 1),
                                  ("sfsd_budget", 10, 1),
                                  ("solver_budget", SolverConfig.max_iter, 1)):
        check_number(f"{source} '{key}'", manifest.setdefault(key, default), minimum, integer=True)
    return manifest, files


def cmd_reproduce(args) -> int:
    manifest_path = Path(args.manifest)
    manifest, inst_files = _load_manifest(manifest_path)
    out_dir = Path(manifest["out_dir"])
    strategies, run_seeds = manifest["strategies"], manifest["run_seeds"]

    # Every instance file named by the manifest is loaded, and so checked,
    # before anything is written; then the generated ones are saved.
    entries = manifest["instances"]
    loaded = [load_instance(path) if "path" in entry else None
              for entry, path in zip(entries, inst_files)]
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (entry, path) in enumerate(zip(entries, inst_files)):
        if loaded[i] is None:
            save_instance(path, entry)
            loaded[i] = load_instance(path)

    # Runs go serially in manifest order: instance, strategy, run seed.  A
    # seed-independent strategy runs for the first run seed only; its front,
    # or its lack of one, stands for every run seed.
    by_instance: dict = {}
    for ii, (path, (problem, info)) in enumerate(zip(inst_files, loaded)):
        cfg = default_config(problem, info["family"], max_iter=manifest["solver_budget"])
        for si, strategy in enumerate(strategies):
            for r, run_seed in enumerate(run_seeds):
                if r == 0 or strategy not in SEED_INDEPENDENT:
                    seed = np.random.SeedSequence(
                        (manifest["seed"], ii, si, run_seed)).generate_state(1)[0]
                    try:
                        _, rows = _run_front(problem, info, strategy, manifest["n_starts"],
                                             int(seed), cfg, manifest["sfsd_budget"])
                    except EmptyResultError:
                        rows = None
                if rows is None:
                    continue
                front_csv = out_dir / "fronts" / path.stem / f"{strategy}_seed{run_seed}.csv"
                write_front_csv(front_csv, rows, problem.n, problem.m)
                F = np.array([r[0] for r in rows])
                by_instance.setdefault(path.stem, []).append((strategy, F))

    if not by_instance:
        raise EmptyResultError("no fronts were produced")

    # Per instance: combined reference over every produced front, then keep
    # the best and worst run per strategy by purity.
    tables: dict = {"best": {}, "worst": {}}
    for stem, runs in sorted(by_instance.items()):
        reference = build_reference_front([F for _, F in runs])
        per_strategy: dict = {}
        for strategy, F in runs:
            per_strategy.setdefault(strategy, []).append((purity(F, reference), F))
        for tag, chooser in (("best", max), ("worst", min)):
            chosen = [(strategy, chooser(per_strategy[strategy], key=lambda t: t[0])[1])
                      for strategy in sorted(per_strategy)]
            path = out_dir / "metrics" / f"{stem}_{tag}.csv"
            tables[tag][path.stem] = _write_metrics_table(path, chosen, reference)[1]
    for tag, rows in tables.items():
        _write_profiles(rows, out_dir / "profiles" / tag)

    summary = {
        "manifest": str(manifest_path),
        "instances": [str(p) for p in inst_files],
        "strategies": strategies,
        "run_seeds": run_seeds,
        "note": (
            "reference fronts combine only the runs in this manifest; with "
            "few seeds they are sparser than a full-protocol reference"
        ),
    }
    write_json(out_dir / "summary.json", summary, indent=2)
    print(f"reproduced {len(by_instance)} instances into {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparsemoo", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common_problem_flags(sp):
        sp.add_argument("--instance", help="instance JSON file")
        sp.add_argument("--dataset", help="dataset CSV for logistic regression")
        sp.add_argument("--label-column", help="label column name for --dataset")
        sp.add_argument("--s", type=int, default=None,
                        help="cardinality bound (datasets only; instances carry s)")
        sp.add_argument("--seed", type=int, default=0, help="random seed")
        sp.add_argument("--eps", type=float, default=SolverConfig.eps,
                        help="stationarity tolerance")
        sp.add_argument("--solver-budget", type=int, default=SolverConfig.max_iter,
                        help="single-point solver iteration budget")
        sp.add_argument("--tau0", type=float, default=SolverConfig.tau0,
                        help="initial penalty weight for mospd/mohyb")
        sp.add_argument("--wallclock", type=float, default=None,
                        help="wall-clock limit in seconds, split across phases "
                             "(non-deterministic benchmark parity mode)")
        sp.add_argument("--strategy", default="mohyb", choices=STRATEGIES,
                        help="solver strategy for the multi-start (front's phase one)")
        sp.add_argument("--n-starts", type=int, default=N_STARTS, help="number of starts")
        sp.add_argument("--out", required=True, help="output front CSV")

    gen = sub.add_parser("generate", help="write benchmark instance files")
    gen.add_argument("--n", type=int, default=None, help="dimension")
    gen.add_argument("--kappa", type=float, default=None, help="condition number")
    gen.add_argument("--s", type=int, default=None, help="cardinality bound")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--out", default=None, help="output instance JSON")
    gen.add_argument("--example4", action="store_true",
                     help="write the fixed worked 2-D instance instead")
    gen.add_argument("--benchmark-grid", action="store_true",
                     help="write the full 81-instance benchmark grid")
    gen.add_argument("--out-dir", default=None, help="directory for --benchmark-grid")
    gen.add_argument("--seeds", default="0,1,2",
                     help="comma-separated seeds for --benchmark-grid")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="multi-start single-point solver with refinement")
    add_common_problem_flags(solve)
    solve.set_defaults(func=cmd_solve)

    front = sub.add_parser("front", help="two-phase front approximation")
    add_common_problem_flags(front)
    front.add_argument("--budget", type=int, default=20, help="front descent sweeps")
    front.add_argument("--explore-spacing", type=float, default=EXPLORE_SPACING,
                       help="relative objective-space spacing floor for "
                            "exploration insertions (0 = literal rule)")
    front.set_defaults(func=cmd_front)

    met = sub.add_parser("metrics", help="front-quality metrics against a reference")
    met.add_argument("--front", action="append", default=[],
                     help="NAME=PATH front CSV (repeatable)")
    met.add_argument("--reference", default="combined",
                     help="'combined' or a reference front CSV path")
    met.add_argument("--logistic-scaling", action="store_true",
                     help="log10 f2 + joint [0,1] rescale before spread metrics")
    met.add_argument("--out", required=True, help="output metrics CSV")
    met.set_defaults(func=cmd_metrics)

    prof = sub.add_parser("profiles", help="performance profiles from metric tables")
    prof.add_argument("--metrics-csv", action="append", default=[],
                      help="metrics CSV from the metrics command, one per problem "
                           "(repeatable)")
    prof.add_argument("--out-dir", required=True, help="output directory")
    prof.set_defaults(func=cmd_profiles)

    rep = sub.add_parser("reproduce", help="run a full experiment manifest")
    rep.add_argument("manifest", help="experiment manifest JSON")
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyResultError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
