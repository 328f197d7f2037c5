"""Self-tests of the benchmark.

Run from the root of the checkout:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparsemoo import sfsd  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, python_flags=(), cwd=ROOT):
    return subprocess.run(
        [sys.executable, *python_flags, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"metric {m['name']} ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), m["name"]
    assert any(ln.startswith("metric fail_frac 0.0 ratio") for ln in lines)


def test_self_time_subtracts_child_spans_and_leaves():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    leaves = {(0, "leaf"): [3, 0.5], (2, "leaf"): [2, 0.25]}
    st = tracing.self_times(spans, leaves)
    assert st["a"] == [1, pytest.approx(10.0 - 3.0 - 1.0 - 0.5)]
    assert st["b"] == [2, pytest.approx((3.0 - 1.0) + 1.0)]
    assert st["c"] == [1, pytest.approx(1.0 - 0.25)]
    assert st["leaf"] == [5, pytest.approx(0.75)]


def test_tracer_records_nested_spans_and_leaf_counts():
    tracer = tracing.Tracer()
    leaf = tracer.leaf("leaf", lambda: None)
    inner = tracer.span("inner", lambda: [leaf() for _ in range(3)])
    outer = tracer.span("outer", lambda: inner())
    outer()  # disabled: nothing recorded
    assert tracer.spans == [] and not tracer.leaves
    tracer.enabled = True
    outer()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.leaves[(1, "leaf")][0] == 3


def test_digest_check_flags_a_perturbed_front(tmp_path):
    task = workloads.Workload("quad_front", 0, True, ROOT, tmp_path).rounds[0][0]
    archive = sfsd.sfsd_run(
        task.problem,
        sfsd.initialize(task.problem, task.s, task.strategy, task.n_starts,
                        task.run_seed, task.box, task.cfg),
        task.s, task.cfg, task.sweeps, explore_spacing=task.spacing,
    )
    rows = workloads.archive_rows(archive)
    assert workloads.check_rows(task.problem, task.s, rows) == []
    digest = workloads.front_digest(rows)
    assert workloads.front_digest(list(reversed(rows))) == digest

    J, x, f = rows[0]
    x = x.copy()
    x[J[0]] += 1e-7
    perturbed = [(J, x, f)] + rows[1:]
    assert workloads.front_digest(perturbed) != digest
    assert workloads.check_rows(task.problem, task.s, perturbed) != []

    stats = run.Stats(committed={"front": digest})
    stats.add([workloads.Outcome("front", 0.1, digest)], 0.1)
    assert stats.failed == 0
    stats.add([workloads.Outcome("front", 0.1, workloads.front_digest(perturbed))], 0.1)
    assert stats.failed == 1
    assert any("committed" in err for _, errs in stats.errors for err in errs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "quad_front", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_to_run_under_optimize():
    proc = bench("--workload", "quad_front", "--seed", "0", "--seconds", "1",
                 python_flags=("-O",))
    assert proc.returncode == 2
    assert "python -O" in proc.stderr


@pytest.mark.xfail(strict=True, reason="cmd_profiles hands a delta_spread of 0 to "
                   "performance_profiles, which rejects non-positive values")
def test_reproduce_survives_a_zero_delta_spread(tmp_path):
    # The smoke-size reproduce manifest of the benchmark avoids this input
    # (example4 with one start and one sweep gives a two-point front on both
    # reference extremes); this keeps the defect visible until it is fixed.
    from sparsemoo import cli

    manifest = {
        "seed": 5, "out_dir": str(tmp_path / "out"),
        "instances": [{"n": 6, "kappa": 10.0, "s": 2, "seed": 1},
                      {"type": "example4", "s": 1}],
        "strategies": ["moiht", "scalarized"], "run_seeds": [0],
        "n_starts": 1, "sfsd_budget": 1,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["reproduce", str(path)]) == 0
