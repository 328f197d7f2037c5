"""Line models (``MultiObjectiveProblem.line``) and the searches they screen.

Each bundled model must bracket the oracle's own difference
``evaluate(x + a d) - evaluate(x)`` for every step ``a = 2^-h``,
h = 0..50, with its rounding bound at least 1e3 times the largest
excursion outside the exact bracket (the "headroom").  The screened line
searches skip only trials the model proves the oracle rejects, so every
search, front and archive must come out byte for byte as it does with
``replace(p, line=None)``.
"""

import math
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemoo import (
    default_config,
    example_biobjective,
    generate_quadratic,
    initialize,
    load_dataset,
    logistic_problem,
    sfsd_run,
)
from sparsemoo import sfsd, solvers
from sparsemoo.problems import QuadraticInstance
from sparsemoo.sfsd import assign_super_support
from sparsemoo.solvers import MAX_HALVINGS, _penalized

from oracles import archive_bytes

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
HEADROOM = 1e3


def datasets():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rows dropped, constant columns
        return {name: load_dataset(DATA_DIR / name, "y")
                for name in ("synth_margin_b.csv", "synth_screen_a.csv")}


DATASETS = datasets()


def excursions(p, x, d):
    """Per objective: the rounding bound ``err_j`` and the largest distance,
    in exact arithmetic, from the oracle's difference to the exact bracket
    ``[a s + a^2 lo / 2, a s + a^2 hi / 2]`` over ``a = 2^-h``."""
    slope, lo, hi, err = p.line(x, d)
    model = [(Fraction(s), Fraction(q) / 2, Fraction(r) / 2) for s, q, r in zip(slope, lo, hi)]
    fx = [Fraction(v) for v in np.asarray(p.evaluate(x), dtype=float).tolist()]
    worst = [Fraction(0)] * p.m
    for h in range(MAX_HALVINGS + 1):
        a = 2.0 ** -h
        fc = np.asarray(p.evaluate(x + a * d), dtype=float).tolist()
        A = Fraction(a)
        for j, (s, q, r) in enumerate(model):
            diff = Fraction(fc[j]) - fx[j]
            worst[j] = max(worst[j], A * (s + A * q) - diff, diff - A * (s + A * r))
    return err, worst


def assert_sound(p, x, d):
    err, worst = excursions(p, x, d)
    for e, w in zip(err, worst):
        assert math.isfinite(e) and e >= 0.0
        assert Fraction(e) >= HEADROOM * w, f"err {e!r} has headroom {e / float(w):.3g}"


def orthogonal(rng, x, scale):
    """A random vector orthogonal to ``x`` (up to rounding) of norm ``scale``."""
    v = rng.normal(size=x.size)
    v -= (v @ x) / (x @ x) * x
    return v / np.linalg.norm(v) * scale


scales = st.floats(-3.0, 3.0)
seeds = st.integers(0, 2**32 - 1)


def quadratic(n, kappa, seed, c_scale, x):
    """A :func:`generate_quadratic` instance whose linear terms are replaced by
    vectors of norm ``10**c_scale`` orthogonal to ``x``."""
    inst = generate_quadratic(n, kappa, seed)
    rng = np.random.default_rng([seed, 1])
    c1, c2 = (orthogonal(rng, x, 10.0 ** c_scale) for _ in range(2))
    return QuadraticInstance(inst.Q1, inst.Q2, c1, c2, kappa, seed).problem()


def point(seed, n, scale):
    return np.random.default_rng(seed).normal(size=n) * 10.0 ** scale


class TestSoundness:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 30), kappa=st.sampled_from([1.0, 10.0, 100.0, 1e4]),
           seed=seeds, xs=scales, ds=scales, cs=st.floats(0.0, 6.0))
    def test_quadratic(self, n, kappa, seed, xs, ds, cs):
        x = point(seed, n, xs)
        assert_sound(quadratic(n, kappa, seed, cs, x), x, point(seed + 1, n, ds))

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, xs=scales, ds=scales)
    def test_worked_example(self, seed, xs, ds):
        assert_sound(example_biobjective(), point(seed, 2, xs), point(seed + 1, 2, ds))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, N=st.integers(5, 200), n=st.integers(2, 20),
           rs=st.floats(-1.0, 2.0), xs=st.floats(-3.0, 2.0), ds=st.floats(-3.0, 2.0))
    def test_logistic(self, seed, N, n, rs, xs, ds):
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(N, n)) * 10.0 ** rs
        t = np.where(rng.random(N) > 0.5, 1.0, -1.0)
        assert_sound(logistic_problem(R, t), point(seed, n, xs), point(seed + 1, n, ds))

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(DATASETS)), seed=seeds, xs=st.floats(-3.0, 1.0),
           ds=st.floats(-3.0, 1.0))
    def test_logistic_on_the_bundled_data(self, name, seed, xs, ds):
        p = logistic_problem(*DATASETS[name])
        assert_sound(p, point(seed, p.n, xs), point(seed + 1, p.n, ds))

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 30), kappa=st.sampled_from([1.0, 10.0, 100.0, 1e4]),
           seed=seeds, xs=scales, ds=scales, cs=st.floats(0.0, 6.0),
           ys=scales, taus=st.floats(-2.0, 8.0))
    def test_penalized_quadratic(self, n, kappa, seed, xs, ds, cs, ys, taus):
        x = point(seed, n, xs)
        p = _penalized(quadratic(n, kappa, seed, cs, x), point(seed + 2, n, ys), 10.0 ** taus)
        assert_sound(p, x, point(seed + 1, n, ds))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, xs=st.floats(-3.0, 1.0), ds=st.floats(-3.0, 1.0), ys=scales,
           taus=st.floats(-2.0, 8.0))
    def test_penalized_logistic(self, seed, xs, ds, ys, taus):
        p = logistic_problem(*DATASETS["synth_margin_b.csv"])
        p = _penalized(p, point(seed + 2, p.n, ys), 10.0 ** taus)
        assert_sound(p, point(seed, p.n, xs), point(seed + 1, p.n, ds))

    def test_a_zero_bound_is_caught(self):
        # the property has teeth: without the rounding bound the oracle's
        # difference leaves the exact bracket on an ordinary quadratic
        p = generate_quadratic(10, 100.0, 3).problem()
        rng = np.random.default_rng(3)
        x, d = rng.normal(size=10), rng.normal(size=10)
        _, worst = excursions(p, x, d)
        assert max(worst) > 0

    def test_the_penalty_needs_an_inner_model(self):
        p = generate_quadratic(4, 10.0, 0).problem()
        assert _penalized(replace(p, line=None), np.zeros(4), 1.0).line is None
        assert _penalized(p, np.zeros(4), 1.0).line is not None


def plain(p):
    return replace(p, line=None)


def front(p, s, strategy, cfg, seed=0, box=(-2.0, 2.0), n_starts=3, budget=3,
          spacing=0.02):
    archive = initialize(p, s, strategy, n_starts, seed, box, cfg)
    return sfsd_run(p, archive, s, cfg, budget, explore_spacing=spacing)


class TestWholeFronts:
    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("s", [2, 5, 8])
    @pytest.mark.parametrize("strategy", ["moiht", "mospd", "mohyb"])
    def test_quadratic(self, kappa, s, strategy):
        p = generate_quadratic(10, kappa, 11).problem()
        cfg = default_config(p, max_iter=3000)
        want = archive_bytes(front(plain(p), s, strategy, cfg))
        assert archive_bytes(front(p, s, strategy, cfg)) == want

    def test_worked_example(self):
        p = example_biobjective()
        cfg = default_config(p)
        for strategy in ("moiht", "mospd", "mohyb"):
            got = front(p, 1, strategy, cfg, box=(0.0, 3.0), n_starts=4, budget=5, spacing=5e-3)
            want = front(plain(p), 1, strategy, cfg, box=(0.0, 3.0), n_starts=4, budget=5,
                         spacing=5e-3)
            assert archive_bytes(got) == archive_bytes(want)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_bundled_datasets(self, name):
        p = logistic_problem(*DATASETS[name])
        cfg = default_config(p, family="logistic")
        got = front(p, 3, "mohyb", cfg, box=(0.0, 1.0), n_starts=1, budget=3, spacing=5e-3)
        want = front(plain(p), 3, "mohyb", cfg, box=(0.0, 1.0), n_starts=1, budget=3,
                     spacing=5e-3)
        assert archive_bytes(got) == archive_bytes(want)


def same(u, v) -> bool:
    return (u is None and v is None) or (
        u is not None and v is not None and np.asarray(u).tobytes() == np.asarray(v).tobytes())


class TestEverySearch:
    def test_screened_searches_return_the_full_search(self, monkeypatch):
        original = solvers.backtrack
        windows = []

        def checked(p, x, d, cfg, accept, window=(0.0, math.inf)):
            got = original(p, x, d, cfg, accept, window)
            full = original(p, x, d, cfg, accept)
            assert got[0] == full[0] and same(got[1], full[1]) and same(got[2], full[2])
            windows.append(window)
            return got

        monkeypatch.setattr(solvers, "backtrack", checked)
        monkeypatch.setattr(sfsd, "backtrack", checked)
        for kappa, s, strategy in ((10.0, 2, "mospd"), (100.0, 5, "mohyb"), (1.0, 8, "moiht")):
            p = generate_quadratic(10, kappa, 5).problem()
            front(p, s, strategy, default_config(p, max_iter=3000), seed=1)
        p = logistic_problem(*DATASETS["synth_margin_b.csv"])
        front(p, 3, "mohyb", default_config(p, family="logistic"), box=(0.0, 1.0),
              n_starts=1, budget=2, spacing=5e-3)
        p = example_biobjective()
        front(p, 1, "mohyb", default_config(p), box=(0.0, 3.0), budget=4, spacing=5e-3)
        # both ends of the window were closed, many times
        assert sum(w[1] < math.inf for w in windows) > 1000
        assert sum(w[0] > 0.0 for w in windows) > 50


class TestAssignSuperSupportDescent:
    @pytest.mark.parametrize("make,s", [
        (example_biobjective, 1),
        (lambda: generate_quadratic(10, 10.0, 4).problem(), 5),
        (lambda: generate_quadratic(10, 100.0, 8).problem(), 5),
    ])
    def test_descends_from_the_origin_as_without_the_model(self, make, s):
        p = make()
        cfg = default_config(p)
        start = np.zeros(p.n)
        x, J = assign_super_support(p, start, s, cfg)
        x0, J0 = assign_super_support(plain(p), start, s, cfg)
        assert x.tobytes() != start.tobytes()  # at least one Armijo step was taken
        assert J == J0 and x.tobytes() == x0.tobytes()
