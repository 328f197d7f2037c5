"""The benchmark's call tracer against the library it patches.

``bench/tracing.py`` wraps library functions at the module attributes their
callers look up and reads some of their arguments.  This suite has no other
test that loads it, so a library change that moves a traced function would
only show when the benchmark runs; here a smoke-size front runs traced.
"""

import importlib.util
from pathlib import Path

from sparsemoo import default_config, generate_quadratic, sfsd

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_front(strategy):
    """A smoke-size front of ``strategy``, traced: the tracer, its patches
    as installed, and its per-layer metrics."""
    tracer = load_tracing().Tracer()
    p = generate_quadratic(10, 10.0, 5).problem()
    cfg = default_config(p, max_iter=3000)
    tracer.install()
    patched = list(tracer._patches)
    try:
        tp = tracer.problem(p)
        tracer.enabled = True
        archive = sfsd.initialize(tp, 2, strategy, 2, 0, (-2.0, 2.0), cfg)
        sfsd.sfsd_run(tp, archive, 2, cfg, 1, explore_spacing=0.02)
    finally:
        tracer.enabled = False
        tracer.restore()
    metrics = {name: value for name, (value, _) in tracer.layer_metrics(1.0).items()}
    return tracer, patched, metrics


def test_tracer_counts_a_smoke_front_and_restores_every_patch():
    tracer, patched, metrics = traced_front("mospd")
    assert metrics["solvers.armijo_common.calls"] >= 1
    assert metrics["solvers.armijo_common.evals"] >= 1
    assert metrics["simplex_qp.solve.calls"] >= 1
    # with m = 2 each direction solves exactly one QP, all through the traced
    # name; a path around it would break this sum
    assert metrics["simplex_qp.solve.calls"] == (
        metrics["directions.theta_subspace.calls"] + metrics["directions.theta_L.calls"]
        + metrics["directions.theta_feasible.calls"])
    assert metrics["problems.evaluate.calls"] >= 1
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} left patched"


def test_tracer_sees_every_moiht_search():
    # moiht reaches each step through the traced theta_L, and every search
    # solves at least its final QP through the traced simplex-QP name
    _, _, metrics = traced_front("moiht")
    assert metrics["directions.theta_L.calls"] >= 1
    assert metrics["simplex_qp.solve.calls"] >= (
        metrics["directions.theta_subspace.calls"] + metrics["directions.theta_L.calls"]
        + metrics["directions.theta_feasible.calls"])
