"""The whole front pipeline against itself with its fast paths switched off.

Each fast path of ``initialize`` + ``sfsd_run`` claims to leave every bit of
the front unchanged; each has a unit test against its reference, and this
test holds them to it together.  Random small quadratics, quadratics with
identity Hessians whose linear terms lie one or two ulps apart (so that
support scores tie or nearly tie), and logistic regressions on row and
column subsets of a bundled dataset, run once as they are and once with a
drawn set of fast paths switched off through ``monkeypatch``, and the two
archives must match byte for byte: keys, points, objective vectors and
entry order.  A new fast path adds its switch to :data:`SWITCHES`.
"""

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemoo import (core, default_config, directions, generate_quadratic, initialize, problems,
                       sfsd)
from sparsemoo.problems import QuadraticInstance, load_dataset
from sparsemoo.sfsd import STRATEGIES

from oracles import archive_bytes, reference_sfsd_run

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # rows with missing cells dropped
    SCREEN_A = load_dataset(Path(__file__).resolve().parent.parent / "data" / "synth_screen_a.csv",
                            "y")


def without_line_model(mp):
    for owner, name in ((QuadraticInstance, "problem"), (problems, "logistic_problem")):
        build = getattr(owner, name)
        mp.setattr(owner, name, lambda *args, build=build: replace(build(*args), line=None))


# How to switch each fast path off, on a MonkeyPatch.
SWITCHES = {
    "chunk": lambda mp: mp.setattr(core, "_CHUNK", 3),
    "certify": lambda mp: mp.setattr(directions, "_certify", lambda *args: None),
    "hard_threshold": lambda mp: mp.setattr(directions, "_hard_threshold", lambda *args: None),
    "screen": lambda mp: mp.setattr(directions, "_screen_min", lambda m: 10**12),
    "line_model": without_line_model,
    "per_key_loop": lambda mp: mp.setattr(sfsd, "sfsd_run", reference_sfsd_run),
}


@st.composite
def fronts(draw, families=("quadratic", "logistic")):
    family = draw(st.sampled_from(families))
    if family == "quadratic":
        n = draw(st.integers(4, 8))
        case = dict(family="quadratic", box=(-2.0, 2.0),
                    inst=generate_quadratic(n, draw(st.sampled_from([1.0, 10.0, 100.0, 1000.0])),
                                            draw(st.integers(0, 2**16))))
    elif family == "near_ties":
        # Q1 = Q2 = I; linear terms from one value, the next two floats
        # above it and their negatives
        n = draw(st.integers(4, 8))
        base = draw(st.sampled_from([0.3, 0.5, 1.0, 1.7]))
        values = [base, np.nextafter(base, 2.0), np.nextafter(np.nextafter(base, 2.0), 2.0)]
        values += [-v for v in values]
        c1, c2 = np.random.default_rng(draw(st.integers(0, 2**16))).choice(values, (2, n))
        case = dict(family="quadratic", box=(-2.0, 2.0),
                    inst=QuadraticInstance(Q1=np.eye(n), Q2=np.eye(n), c1=c1, c2=c2,
                                           kappa=1.0, seed=0))
    else:
        R, t = SCREEN_A
        cols = draw(st.lists(st.integers(0, R.shape[1] - 1), min_size=4, max_size=8,
                             unique=True))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        rows = np.sort(rng.choice(R.shape[0], draw(st.integers(20, R.shape[0])), replace=False))
        n = len(cols)
        case = dict(family="logistic", box=(0.0, 1.0), data=(R[np.ix_(rows, cols)], t[rows]))
    return dict(
        case,
        s=draw(st.integers(1, n - 1)),
        strategy=draw(st.sampled_from(STRATEGIES)),
        seed=draw(st.integers(0, 2**16)),
        budget=draw(st.integers(1, 4)),
        spacing=draw(st.sampled_from([0.0, 5e-3, 0.02])),
    )


def front_bytes(case):
    if case["family"] == "logistic":
        p = problems.logistic_problem(*case["data"])
    else:
        p = case["inst"].problem()
    cfg = default_config(p, case["family"], max_iter=3000)
    archive = initialize(p, case["s"], case["strategy"], 3, case["seed"], case["box"], cfg)
    return archive_bytes(sfsd.sfsd_run(p, archive, case["s"], cfg, case["budget"],
                                       explore_spacing=case["spacing"]))


SWITCH_SETS = st.sets(st.sampled_from(sorted(SWITCHES)), min_size=1)


@settings(max_examples=120, deadline=None)
@given(fronts(), SWITCH_SETS)
def test_fast_paths_leave_the_front_unchanged(case, off):
    assert_switches_keep(case, off)


@settings(max_examples=100, deadline=None)
@given(fronts(families=("near_ties",)), SWITCH_SETS)
def test_fast_paths_leave_near_tie_fronts_unchanged(case, off):
    # the rounding margin of hard thresholding, the certificate and the screen
    # must decline where the s-th and (s+1)-th scores are ulps apart
    assert_switches_keep(case, off)


def assert_switches_keep(case, off):
    want = front_bytes(case)
    # a function-scoped monkeypatch fixture would outlive the examples
    with pytest.MonkeyPatch.context() as mp:
        for name in off:
            SWITCHES[name](mp)
        assert front_bytes(case) == want
