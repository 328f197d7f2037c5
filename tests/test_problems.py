import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsemoo import (
    DataError,
    example_biobjective,
    generate_quadratic,
    load_dataset,
    load_instance,
    logistic_problem,
    save_instance,
)
from sparsemoo.problems import _power_spectral_norm, instance_name

from oracles import fd_gradient, reference_logistic_values

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


class TestQuadraticGenerator:
    def test_kappa_one_identity(self):
        inst = generate_quadratic(5, 1.0, 0)
        np.testing.assert_array_equal(inst.Q1, np.eye(5))
        np.testing.assert_array_equal(inst.Q2, np.eye(5))

    def test_eigenvalue_extremes(self):
        inst = generate_quadratic(2, 10.0, 3)
        for Q in (inst.Q1, inst.Q2):
            np.testing.assert_allclose(sorted(np.linalg.eigvalsh(Q)), [1.0, 10.0],
                                       atol=1e-8)

    def test_gradient_matches_finite_differences(self):
        p = generate_quadratic(6, 10.0, 1).problem()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=6)
            g = p.gradient(x)
            fd = fd_gradient(p, x)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)

    def test_condition_number(self):
        for kappa in (1.0, 10.0, 100.0):
            inst = generate_quadratic(7, kappa, 5)
            for Q in (inst.Q1, inst.Q2):
                ev = np.linalg.eigvalsh(Q)
                assert ev.max() / ev.min() == pytest.approx(kappa, abs=1e-6)
                np.testing.assert_allclose(Q, Q.T)  # exact symmetry
            assert tuple(inst.problem().lipschitz) == (kappa, kappa)

    def test_bit_identical_regeneration(self):
        a = generate_quadratic(6, 10.0, 9)
        b = generate_quadratic(6, 10.0, 9)
        assert a.Q1.tobytes() == b.Q1.tobytes()
        assert a.Q2.tobytes() == b.Q2.tobytes()
        assert a.c1.tobytes() == b.c1.tobytes()
        assert a.c2.tobytes() == b.c2.tobytes()

    def test_linear_terms_in_range(self):
        inst = generate_quadratic(50, 10.0, 2)
        for c in (inst.c1, inst.c2):
            assert np.all(c >= -1.0) and np.all(c < 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_quadratic(1, 10.0, 0)
        with pytest.raises(ValueError):
            generate_quadratic(5, 0.5, 0)


class TestExampleProblem:
    def test_known_geometry(self):
        p = example_biobjective()
        np.testing.assert_allclose(p.evaluate(np.array([3.0, 0.0])), [3.125, 2.125])
        np.testing.assert_allclose(p.evaluate(np.array([1.0, 0.0])), [5.125, 0.125])
        fd = fd_gradient(p, np.array([0.7, -1.3]))
        np.testing.assert_allclose(p.gradient(np.array([0.7, -1.3])), fd,
                                   rtol=1e-6, atol=1e-7)


def test_scipy_loads_only_with_a_logistic_problem():
    # a fresh interpreter: this test session may have loaded scipy already
    script = """
import sys
import numpy as np
from sparsemoo import default_config, generate_quadratic, initialize, logistic_problem, sfsd_run
p = generate_quadratic(6, 10.0, 0).problem()
cfg = default_config(p)
sfsd_run(p, initialize(p, 2, "moiht", 2, 0, (-2.0, 2.0), cfg), 2, cfg, 1)
assert "scipy" not in sys.modules, "a quadratic front loaded scipy"
logistic_problem(np.eye(2), np.array([1.0, -1.0]))
assert "scipy" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestLogistic:
    def test_single_sample_values(self):
        R = np.array([[1.0, 0.0]])
        t = np.array([1.0])
        p = logistic_problem(R, t)
        w0 = np.zeros(2)
        np.testing.assert_allclose(p.evaluate(w0), [np.log(2.0), 0.0], atol=1e-12)
        np.testing.assert_allclose(p.gradient(w0)[0], [-0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(p.lipschitz, [1.0, 1.0], atol=1e-8)

    def test_regularizer_at_zero(self):
        p = logistic_problem(np.array([[1.0, 2.0]]), np.array([-1.0]))
        w0 = np.zeros(2)
        assert p.evaluate(w0)[1] == 0.0
        np.testing.assert_array_equal(p.gradient(w0)[1], np.zeros(2))

    def test_label_validation(self):
        with pytest.raises(DataError):
            logistic_problem(np.ones((2, 2)), np.array([1.0, 0.5]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        R = rng.normal(size=(40, 6))
        t = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        p = logistic_problem(R, t)
        for _ in range(20):
            w = rng.normal(size=6)
            np.testing.assert_allclose(p.gradient(w), fd_gradient(p, w),
                                       rtol=1e-5, atol=1e-8)

    def test_loss_convex_along_segments(self):
        rng = np.random.default_rng(4)
        R = rng.normal(size=(30, 5))
        t = np.where(rng.random(30) > 0.4, 1.0, -1.0)
        p = logistic_problem(R, t)
        for _ in range(20):
            a, b = rng.normal(size=(2, 5))
            mid = p.evaluate((a + b) / 2)
            avg = (p.evaluate(a) + p.evaluate(b)) / 2
            assert np.all(mid <= avg + 1e-12)

    def test_lipschitz_matches_dense_eigenvalue_oracle(self):
        rng = np.random.default_rng(5)
        for shape in ((25, 4), (60, 8)):
            R = rng.normal(size=shape) * rng.uniform(0.2, 2.0, size=shape[1])
            t = np.where(rng.random(shape[0]) > 0.5, 1.0, -1.0)
            p = logistic_problem(R, t)
            oracle = np.linalg.eigvalsh(R.T @ R).max() / shape[0]
            assert p.lipschitz[0] == pytest.approx(oracle, abs=1e-6)

    def test_loss_matches_the_mean_formula_bytes(self):
        # sum / N is the pairwise add.reduce and the one division np.mean does
        rng = np.random.default_rng(12)
        cases = [load_dataset(DATA_DIR / "synth_margin_b.csv", "y")]
        with pytest.warns(UserWarning, match="dropped 3 rows"):
            cases.append(load_dataset(DATA_DIR / "synth_screen_a.csv", "y"))
        for N in (150, 337, 1000):
            cases.append((rng.normal(size=(N, 7)), np.where(rng.random(N) > 0.5, 1.0, -1.0)))
        for R, t in cases:
            p = logistic_problem(R, t)
            for _ in range(40):
                w = rng.normal(size=R.shape[1]) * rng.uniform(0.01, 5.0)
                assert p.evaluate(w).tobytes() == reference_logistic_values(R, t, w).tobytes()

    def test_gradient_rows_match_stacked_bytes(self):
        # the (2, n) gradient is one C-ordered block of the two rows
        rng = np.random.default_rng(13)
        R = rng.normal(size=(50, 6))
        logit = logistic_problem(R, np.where(rng.random(50) > 0.5, 1.0, -1.0))
        inst = generate_quadratic(6, 10.0, 2)
        for _ in range(10):
            w = rng.normal(size=6)
            g = logit.gradient(w)
            assert g.flags.c_contiguous and g[1].tobytes() == w.tobytes()
            g = inst.problem().gradient(w)
            stacked = np.stack([inst.Q1 @ w - inst.c1, inst.Q2 @ w - inst.c2])
            assert g.flags.c_contiguous and g.tobytes() == stacked.tobytes()

    def test_power_iteration_zero_matrix(self):
        assert _power_spectral_norm(np.zeros((3, 2))) == 0.0


class TestLoadDataset:
    def test_standardization(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,0\n2,1\n3,0\n")
        R, t = load_dataset(path, "y")
        sd = np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(R[:, 0], [-1.0 / sd, 0.0, 1.0 / sd], atol=1e-12)
        np.testing.assert_allclose(R.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(R.std(axis=0), 1.0, atol=1e-9)

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,0\n2,1\n")
        _, t = load_dataset(path, "y")
        np.testing.assert_array_equal(t, [-1.0, 1.0])
        path.write_text("a,y\n1,-1\n2,1\n")
        _, t = load_dataset(path, "y")
        np.testing.assert_array_equal(t, [-1.0, 1.0])

    def test_missing_rows_dropped_with_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,0\n?,3,1\n4,,1\n5,6,1\n")
        with pytest.warns(UserWarning, match="dropped 2 rows"):
            R, t = load_dataset(path, "y")
        assert R.shape == (2, 2)

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,0\n3,oops,1\n")
        with pytest.raises(DataError, match=r"d\.csv:3.*'oops'.*'b'"):
            load_dataset(path, "y")

    def test_constant_column_warns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,7,0\n2,7,1\n3,7,0\n")
        with pytest.warns(UserWarning, match="constant"):
            R, _ = load_dataset(path, "y")
        np.testing.assert_array_equal(R[:, 1], np.zeros(3))

    def test_bad_labels_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\n2,3\n")
        with pytest.raises(DataError, match="labels"):
            load_dataset(path, "y")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_dataset(path, "label")

    def test_bundled_datasets_load(self):
        with pytest.warns(UserWarning, match="dropped 3 rows"):
            Ra, ta = load_dataset(DATA_DIR / "synth_screen_a.csv", "y")
        assert Ra.shape == (197, 12)
        assert set(np.unique(ta)) == {-1.0, 1.0}
        Rb, tb = load_dataset(DATA_DIR / "synth_margin_b.csv", "y")
        assert Rb.shape == (150, 8)
        np.testing.assert_allclose(Rb.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Rb.std(axis=0), 1.0, atol=1e-9)


class TestInstanceRoundTrip:
    def test_quadratic_schema_exact(self, tmp_path):
        path = tmp_path / "q.json"
        save_instance(path, {"n": 4, "kappa": 10.0, "s": 2, "seed": 2})
        doc = json.loads(path.read_text())
        assert set(doc) == {"type", "n", "kappa", "seed", "s", "Q1", "Q2", "c1", "c2"}
        assert doc["type"] == "quadratic" and doc["n"] == 4 and doc["s"] == 2
        assert len(doc["Q1"]) == 4 and len(doc["Q1"][0]) == 4  # row-major, full

    def test_round_trip_evaluations(self, tmp_path):
        inst = generate_quadratic(5, 10.0, 7)
        path = tmp_path / "q.json"
        save_instance(path, {"n": 5, "kappa": 10.0, "s": 3, "seed": 7})
        problem, info = load_instance(path)
        assert info["s"] == 3 and info["n"] == 5
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        np.testing.assert_allclose(problem.evaluate(x), inst.problem().evaluate(x),
                                   atol=1e-12)

    def test_example4_round_trip(self, tmp_path):
        path = tmp_path / "e.json"
        save_instance(path, {"type": "example4", "s": 1})
        problem, info = load_instance(path)
        assert info["type"] == "example4" and info["s"] == 1
        np.testing.assert_allclose(problem.evaluate(np.array([3.0, 0.0])),
                                   [3.125, 2.125])

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text('{"type": "cubic", "s": 1}')
        with pytest.raises(DataError):
            load_instance(path)

    def test_unknown_type_never_saved(self, tmp_path):
        path = tmp_path / "sub" / "u.json"
        with pytest.raises(DataError, match=re.escape(f"{path}: 'type' must be")):
            save_instance(path, {"type": "logistic", "n": 6, "kappa": 10, "s": 2, "seed": 0})
        assert not path.parent.exists()

    def test_instance_names(self):
        assert instance_name({"n": 10, "kappa": 10.0, "s": 5, "seed": 0}) == \
            "quad_n10_k10_s5_seed0.json"
        assert instance_name({"type": "example4", "s": 1}) == "example4_s1.json"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(Q1=doc["Q1"][:3]), "Q1 has shape"),
        (lambda doc: doc.update(c2=doc["c2"] + [0.0]), "c2 has shape"),
        (lambda doc: doc["Q2"][1].__setitem__(2, float("nan")), "non-finite"),
        (lambda doc: doc["Q1"][0].__setitem__(1, doc["Q1"][0][1] + 0.5), "not symmetric"),
        (lambda doc: doc.update(kappa=5.0), "below the largest eigenvalue"),
        (lambda doc: doc.pop("c1"), "lacks 'c1'"),
        (lambda doc: doc.pop("seed"), "instance lacks 'seed'; an instance needs"),
        (lambda doc: doc.update(s=2.7), "'s' must be an integer >= 1, got 2.7"),
        (lambda doc: doc.update(s=True), "'s' must be an integer >= 1, got True"),
        (lambda doc: doc.update(s=4), "'s' must be below n=4, got 4"),
        (lambda doc: doc.update(n=4.0), "'n' must be an integer >= 2, got 4.0"),
        (lambda doc: doc.update(seed=-1), "'seed' must be an integer >= 0, got -1"),
    ])
    def test_invalid_quadratic_rejected(self, tmp_path, edit, message):
        path = tmp_path / "q.json"
        save_instance(path, {"n": 4, "kappa": 10.0, "s": 2, "seed": 2})
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=message):
            load_instance(path)

    @pytest.mark.parametrize("s", [2.7, True, 2, 0])
    def test_example4_budget_checked(self, tmp_path, s):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"type": "example4", "s": s}))
        with pytest.raises(DataError, match=re.escape(f"{path}: 's' must be")):
            load_instance(path)

    def test_example4_without_budget_rejected(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"type": "example4"}')
        with pytest.raises(DataError, match=re.escape(f"{path}: instance lacks 's'; an instance")):
            load_instance(path)

    def test_generated_instances_load_unchanged(self, tmp_path):
        # the eigenvalue check must not reject kappa at its own spectrum edge
        for n, kappa, seed in ((2, 1.0, 0), (10, 10.0, 1), (25, 100.0, 2), (50, 1000.0, 3)):
            inst = generate_quadratic(n, kappa, seed)
            path = tmp_path / f"q{n}.json"
            save_instance(path, {"n": n, "kappa": kappa, "s": 1, "seed": seed})
            problem, info = load_instance(path)
            assert info["kappa"] == kappa and info["seed"] == seed
            x = np.random.default_rng(seed).normal(size=n)
            assert problem.evaluate(x).tobytes() == inst.problem().evaluate(x).tobytes()
