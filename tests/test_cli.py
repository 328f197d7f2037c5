import dataclasses
import inspect
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemoo.cli as cli
from sparsemoo import SolverConfig, is_L_stationary, load_instance, sfsd_run
from sparsemoo.cli import main, read_front_csv
from sparsemoo.problems import read_table
from sparsemoo.sfsd import N_STARTS

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_kappa_one_identity_instance(self, tmp_path):
        out = tmp_path / "q.json"
        assert run("generate", "--n", 10, "--kappa", 1, "--s", 2, "--seed", 0,
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        np.testing.assert_array_equal(np.array(doc["Q1"]), np.eye(10))

    def test_byte_identical_regeneration(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("generate", "--n", 6, "--kappa", 10, "--s", 3, "--seed", 1,
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_benchmark_grid_81_instances(self, tmp_path):
        out_dir = tmp_path / "grid"
        assert run("generate", "--benchmark-grid", "--out-dir", out_dir) == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 81
        # spot check the s choices per size
        names = {f.name for f in files}
        assert "quad_n10_k1_s2_seed0.json" in names
        assert "quad_n25_k100_s20_seed2.json" in names
        assert "quad_n50_k10_s30_seed1.json" in names

    def test_missing_flags_usage_error(self, tmp_path):
        assert run("generate", "--n", 5) == 1

    @pytest.mark.parametrize("flags", [
        ("--n", 5, "--kappa", 10, "--s", 7, "--seed", 0),
        ("--example4", "--s", 2),
    ], ids=["s_above_n", "example4_s2"])
    def test_budget_at_or_above_n_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "q.json"
        assert run("generate", *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"{out}: 's' must be below n=" in err
        assert not out.exists()

    @pytest.mark.parametrize("kappa", ["nan", "inf"])
    def test_nonfinite_kappa_rejected(self, tmp_path, capsys, kappa):
        out = tmp_path / "q.json"
        assert run("generate", "--n", 5, "--kappa", kappa, "--s", 2, "--out", out) == 1
        assert f"{out}: 'kappa' must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exit_code(self):
        assert run("generate", "--frobnicate") == 1


class TestSolve:
    @pytest.fixture
    def ex4(self, tmp_path):
        inst = tmp_path / "ex4.json"
        assert run("generate", "--example4", "--s", 1, "--out", inst) == 0
        return inst

    def test_mohyb_rows_l_stationary(self, ex4, tmp_path):
        out = tmp_path / "front.csv"
        assert run("solve", "--instance", ex4, "--strategy", "mohyb",
                   "--n-starts", 6, "--seed", 0, "--out", out) == 0
        problem, info = load_instance(ex4)
        F, X, sups = read_front_csv(out)
        assert F.shape[0] >= 1
        for x in X:
            assert is_L_stationary(problem, x, info["s"], 1.1, 1e-6)
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["strategy"] == "mohyb"
        assert len(meta["iteration_counts"]) >= 1

    def test_zero_starts_usage_error(self, ex4, tmp_path):
        assert run("solve", "--instance", ex4, "--n-starts", 0,
                   "--out", tmp_path / "f.csv") == 1

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_nonfinite_eps_rejected(self, ex4, tmp_path, capsys, eps):
        # --eps inf once stopped every start at once and wrote them as a front
        out = tmp_path / "f.csv"
        assert run("solve", "--instance", ex4, "--n-starts", 2, "--eps", eps,
                   "--out", out) == 1
        assert "eps must be" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_seeds_identical_csv(self, ex4, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("solve", "--instance", ex4, "--strategy", "moiht",
                       "--n-starts", 5, "--seed", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dataset_logistic_path(self, tmp_path):
        out = tmp_path / "log.csv"
        assert run("solve", "--dataset", DATA_DIR / "synth_margin_b.csv",
                   "--label-column", "y", "--s", 2, "--strategy", "moiht",
                   "--n-starts", 3, "--solver-budget", 300, "--out", out) == 0
        F, X, _ = read_front_csv(out)
        assert np.all(np.count_nonzero(X, axis=1) <= 2)

    def test_requires_problem_source(self, tmp_path):
        assert run("solve", "--out", tmp_path / "f.csv") == 1

    def test_scalarized_large_weights(self, tmp_path):
        # the trade-off grid reaches lambda ~ 6e9 at n = 40; moiht's
        # descent-lemma check must allow for rounding at that magnitude
        inst, out = tmp_path / "i.json", tmp_path / "f.csv"
        assert run("generate", "--n", 40, "--kappa", 1, "--s", 3, "--seed", 0,
                   "--out", inst) == 0
        assert run("solve", "--instance", inst, "--strategy", "scalarized",
                   "--out", out) == 0
        F, X, sups = read_front_csv(out)
        assert F.shape[0] > 0
        assert all(np.count_nonzero(x) <= 3 for x in X)


class TestFront:
    @pytest.fixture
    def ex4(self, tmp_path):
        inst = tmp_path / "ex4.json"
        assert run("generate", "--example4", "--s", 1, "--out", inst) == 0
        return inst

    def test_scalarized_front_covers_segment(self, ex4, tmp_path):
        out = tmp_path / "front.csv"
        assert run("front", "--instance", ex4, "--strategy", "scalarized",
                   "--budget", 20, "--out", out) == 0
        F, X, sups = read_front_csv(out)
        # the first-axis segment maps to f1 in [3.125, 5.125]
        assert F[:, 0].min() <= 3.125 + 0.2
        assert F[:, 0].max() >= 5.125 - 0.2
        info = json.loads(Path(str(out) + ".meta.json").read_text())
        assert info["front_points"] == F.shape[0]

    def test_rows_feasible_on_reparse(self, ex4, tmp_path):
        out = tmp_path / "front.csv"
        assert run("front", "--instance", ex4, "--strategy", "mohyb",
                   "--n-starts", 4, "--budget", 8, "--out", out) == 0
        F, X, sups = read_front_csv(out)
        for x, sup in zip(X, sups):
            assert np.count_nonzero(x) <= 1
            assert set(np.flatnonzero(np.abs(x) > 1e-12)) <= set(sup)
        lines = out.read_text().splitlines()
        assert lines[0] == "f1,f2,support,x_1,x_2"
        # serialized support indices are 1-based
        assert {ln.split(",")[2] for ln in lines[1:]} <= {"1", "2"}

    def test_capacity_exit_code(self, tmp_path):
        # Q1 = Q2 = I and c = 0 tie every support, so the screen fixes nothing
        # and C(30, 15) supports are left to score
        n, inst = 30, tmp_path / "ties.json"
        eye, zero = np.eye(n).tolist(), [0.0] * n
        inst.write_text(json.dumps({"type": "quadratic", "n": n, "kappa": 1.0, "seed": 0,
                                    "s": 15, "Q1": eye, "Q2": eye, "c1": zero, "c2": zero}))
        assert run("solve", "--instance", inst, "--strategy", "scalarized",
                   "--n-starts", 1, "--out", tmp_path / "f.csv") == 3

    def test_screened_grid_instance_solves(self, tmp_path):
        # C(50, 15) is far above the support cap, but the screen leaves few rows
        inst, out = tmp_path / "q.json", tmp_path / "f.csv"
        assert run("generate", "--n", 50, "--kappa", 10, "--s", 15, "--seed", 0,
                   "--out", inst) == 0
        assert run("solve", "--instance", inst, "--strategy", "moiht",
                   "--n-starts", 2, "--out", out) == 0
        _, X, _ = read_front_csv(out)
        assert np.all(np.count_nonzero(X, axis=1) <= 15)

    def test_deterministic(self, ex4, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("front", "--instance", ex4, "--strategy", "moiht",
                       "--n-starts", 4, "--seed", 5, "--budget", 6, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_initialization_exit_code(self, ex4, tmp_path, monkeypatch):
        from sparsemoo.sfsd import ParetoArchive

        monkeypatch.setattr(cli, "initialize",
                            lambda *a, **k: ParetoArchive())
        assert run("front", "--instance", ex4, "--out", tmp_path / "f.csv") == 2

    # (flag, value, more arguments): the id is all of them joined by "-"
    OUT_OF_RANGE = [
        ("--budget", -3),
        ("--explore-spacing", -1),
        ("--wallclock", "nan"),
        ("--wallclock", -1),
        ("--explore-spacing", "inf"),
        ("--tau0", "nan"),
        ("--seed", -1),
        ("--seed", -1, "--strategy", "scalarized"),  # a seed it ignores is still checked
    ]

    @pytest.mark.parametrize("flag, value, more", [(f, v, more) for f, v, *more in OUT_OF_RANGE],
                             ids=["-".join(map(str, case)) for case in OUT_OF_RANGE])
    def test_out_of_range_flag_exits_1(self, ex4, tmp_path, capsys, flag, value, more):
        out = tmp_path / "front.csv"
        # --budget 1 keeps the run short should a bad value be accepted
        assert run("front", "--instance", ex4, "--n-starts", 2, "--budget", 1,
                   flag, value, *more, "--out", out) == 1
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err.replace("-", "_")
        assert not out.exists()

    def test_meta_records_every_solver_setting(self, ex4, tmp_path):
        out = tmp_path / "front.csv"
        assert run("front", "--instance", ex4, "--n-starts", 2, "--budget", 1,
                   "--solver-budget", 50, "--tau0", 2, "--out", out) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert (meta["max_iter"], meta["tau0"], meta["family"]) == (50, 2.0, "quadratic")
        assert meta["eps"] == 1e-7 and meta["L"] == pytest.approx(1.1)
        assert "crowding" not in meta

    def test_crowding_flag_removed(self, ex4, tmp_path):
        out = tmp_path / "front.csv"
        assert run("front", "--instance", ex4, "--crowding", "mean", "--out", out) == 1
        assert not out.exists()

    def test_instance_budget_checked_on_load(self, ex4, tmp_path, capsys):
        ex4.write_text('{"s": true, "type": "example4"}\n')
        assert run("front", "--instance", ex4, "--out", tmp_path / "f.csv") == 1
        assert f"{ex4}: 's' must be an integer" in capsys.readouterr().err

    def test_wallclock_smoke(self, ex4, tmp_path):
        out = tmp_path / "front.csv"
        assert run("front", "--instance", ex4, "--strategy", "moiht",
                   "--n-starts", 3, "--budget", 4, "--wallclock", 30,
                   "--out", out) == 0
        assert out.exists()


class TestFrontCsvValidation:
    @pytest.mark.parametrize("text, where", [
        ("f1,f2,support,x_1,x_2\n1.0,2.0,1,0.5,0.0\n1.0,2.0,1,0.5\n", ":3:"),
        ("a,b,support,x_1,x_2\n1.0,2.0,1,0.5,0.0\n", ":1:"),
        ("f1,f2,x_1,x_2\n1.0,2.0,0.5,0.0\n", ":1:"),
        ("", ":1:"),
        ("f1,f2,support,x_1,x_2\n1.0,oops,1,0.5,0.0\n", ":2:"),
        ("f1,f2,support,x_1,x_2\n3.0,1.0,2,0.0,0.5\n1.0,2.0,0,0.5,0.0\n", ":3:"),
        ("f1,f2,support,x_1,x_2\n1.0,2.0,2|2,0.5,0.0\n", ":2:"),
        ("f1,f2,support,x_1,x_2\n1.0,2.0,2|1,0.5,0.0\n", ":2:"),
        ("f1,f2,support,x_1,x_2\n1.0,2.0,7,0.5,0.0\n", ":2:"),
        ("f1,f2,support,x_1,x_2\n1.0,2.0,1,0.5,0.0\nnan,1.0,2,0.0,0.5\n",
         ":3: cell 'nan' in column 'f1' is not a finite number"),
        ("f1,f2,support,x_1,x_2\n1.0,inf,1,0.5,0.0\n", ":2: cell 'inf' in column 'f2'"),
        ("f1,f2,support,x_1,x_2\n1.0,2.0,1,0.5,-inf\n", ":2: cell '-inf' in column 'x_2'"),
    ])
    def test_bad_front_csv_exits_1(self, tmp_path, capsys, text, where):
        path = tmp_path / "front.csv"
        path.write_text(text)
        assert run("metrics", "--front", f"A={path}", "--out", tmp_path / "m.csv") == 1
        assert f"{path}{where}" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()


class TestInputFiles:
    """Malformed input files exit 1, name the file and write nothing."""

    def test_malformed_manifest_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"instances": [\n  {"type": }]}\n')
        assert run("reproduce", path) == 1
        assert f"{path}:2:12: Expecting value" in capsys.readouterr().err
        assert not (tmp_path / "reproduce_out").exists()

    def test_malformed_instance_json(self, tmp_path, capsys):
        inst, out = tmp_path / "i.json", tmp_path / "f.csv"
        inst.write_text('{"type": "example4", "s": 1,}\n')
        assert run("front", "--instance", inst, "--out", out) == 1
        assert f"{inst}:1:29: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_front_csv(self, tmp_path, capsys):
        path, out = tmp_path / "bad.csv", tmp_path / "m.csv"
        path.write_bytes(b"f1,f2,support,x_1,x_2\n1.0,2.0,1,\xff,0.0\n")
        assert run("metrics", "--front", f"A={path}", "--out", out) == 1
        assert f"{path}: byte 32 is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_instance_json(self, tmp_path, capsys):
        inst, out = tmp_path / "i.json", tmp_path / "f.csv"
        inst.write_bytes(b'{"type": "example4", "s": \xff}\n')
        assert run("front", "--instance", inst, "--out", out) == 1
        assert f"{inst}: byte 26 is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "manifest must be a JSON object"),
        ({"instances": []}, "manifest 'instances' must be a non-empty list"),
    ], ids=["list", "no_instances"])
    def test_manifest_shape_error_names_file(self, tmp_path, capsys, doc, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert run("reproduce", path) == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["m.json"]

    def test_bad_grid_seeds_named(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        assert run("generate", "--benchmark-grid", "--out-dir", out_dir, "--seeds", "1,x") == 1
        assert "--seeds must be comma-separated integers, got '1,x'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_nonfinite_dataset_cell(self, tmp_path, capsys, recwarn):
        data, out = tmp_path / "d.csv", tmp_path / "f.csv"
        data.write_text("a,b,y\n1,2,0\n3,inf,1\n2,5,1\n4,1,0\n")
        assert run("front", "--dataset", data, "--label-column", "y", "--s", 1,
                   "--out", out) == 1
        assert f"{data}:3: cell 'inf' in column 'b' is not a finite number" \
            in capsys.readouterr().err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.text(st.characters(codec="ascii", exclude_characters="\x00")),
             min_size=width, max_size=width),
    st.lists(st.lists(st.text(st.sampled_from('a1 ,"\n\r.')),
                      min_size=width, max_size=width), max_size=4))))
def test_table_round_trip(tmp_path_factory, table):
    # cells with commas, quotes and line breaks come back as written
    header, rows = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    cli._write_table(path, header, rows)
    got_header, got_rows = read_table(path)
    assert got_header == header
    assert got_rows == list(enumerate(rows, start=2))


class TestMetricsAndProfiles:
    def _write_front(self, path, rows):
        with open(path, "w") as fh:
            fh.write("f1,f2,support,x_1,x_2\n")
            for f1, f2 in rows:
                fh.write(f"{f1},{f2},1,0.0,0.0\n")

    def test_metrics_against_combined_reference(self, tmp_path):
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_front(fa, [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)])
        self._write_front(fb, [(1.0, 3.0), (2.5, 2.5)])
        out = tmp_path / "metrics.csv"
        assert run("metrics", "--front", f"A={fa}", "--front", f"B={fb}",
                   "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = {ln.split(",")[0]: dict(zip(header, ln.split(","))) for ln in lines[1:]}
        assert float(rows["A"]["purity"]) == 1.0
        assert float(rows["B"]["purity"]) == 0.5  # (2.5, 2.5) is dominated
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        # max + 0.1 * (max - min) per objective over the combined reference
        np.testing.assert_allclose(meta["ref_point"], [3.2, 3.2])

    def test_negative_fronts_positive_hypervolume(self, tmp_path):
        # 1.1 * max would put the reference point inside this front
        fa = tmp_path / "a.csv"
        self._write_front(fa, [(-1.0, -0.5), (-0.6, -0.9)])
        out = tmp_path / "metrics.csv"
        assert run("metrics", "--front", f"A={fa}", "--out", out) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[4]) > 0.0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        np.testing.assert_allclose(meta["ref_point"], [-0.56, -0.46])

    def test_front_equal_to_reference_self_metrics(self, tmp_path):
        fa = tmp_path / "a.csv"
        self._write_front(fa, [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        out = tmp_path / "m.csv"
        assert run("metrics", "--front", f"A={fa}", "--out", out) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[1]) == 1.0          # purity
        assert float(row[2]) == 1.0          # gamma self-spread
        assert float(row[3]) == 0.0          # delta self-spread (uniform)

    def test_profiles_match_hand_example(self, tmp_path):
        # two problems, two solvers, times [[1,2],[2,2]]
        for prob, (ta, tb) in (("p1", (1.0, 2.0)), ("p2", (2.0, 2.0))):
            path = tmp_path / f"{prob}.csv"
            path.write_text(
                "solver,purity,gamma_spread,delta_spread,hypervolume\n"
                f"S1,1.0,{ta},0.5,1.0\nS2,1.0,{tb},0.5,1.0\n"
            )
        out_dir = tmp_path / "profiles"
        assert run("profiles", "--metrics-csv", tmp_path / "p1.csv",
                   "--metrics-csv", tmp_path / "p2.csv", "--out-dir", out_dir) == 0
        rows = (out_dir / "gamma_spread_profile.csv").read_text().strip().splitlines()[1:]
        table = {}
        for ln in rows:
            solver, tau, rho = ln.split(",")
            table[(solver, float(tau))] = float(rho)
        assert table[("S1", 1.0)] == 1.0
        assert table[("S2", 1.0)] == 0.5
        assert table[("S2", 2.0)] == 1.0

    def test_zero_purity_treated_as_failure(self, tmp_path):
        path = tmp_path / "p1.csv"
        path.write_text(
            "solver,purity,gamma_spread,delta_spread,hypervolume\n"
            "S1,0.0,1.0,0.5,1.0\nS2,1.0,1.0,0.5,1.0\n"
        )
        out_dir = tmp_path / "profiles"
        assert run("profiles", "--metrics-csv", path, "--out-dir", out_dir) == 0
        rows = (out_dir / "purity_profile.csv").read_text().strip().splitlines()[1:]
        s1 = [ln for ln in rows if ln.startswith("S1")]
        # S1 failed the only problem: its curve never rises above zero
        assert all(float(ln.split(",")[2]) == 0.0 for ln in s1)

    def test_rejected_profile_writes_no_file(self, tmp_path, capsys):
        # a zero spread breaks the profile ratios; purity comes first in
        # METRICS, so a writer that wrote as it went would leave its file
        path = tmp_path / "p1.csv"
        path.write_text(
            "solver,purity,gamma_spread,delta_spread,hypervolume\n"
            "S1,1.0,0.0,0.5,1.0\nS2,1.0,1.0,0.5,1.0\n"
        )
        out_dir = tmp_path / "profiles"
        assert run("profiles", "--metrics-csv", path, "--out-dir", out_dir) == 1
        assert "gamma_spread profile: profile values must be strictly positive" \
            in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_reproduce_profiles_match_profiles_command(self, tmp_path):
        # reproduce builds profiles from its tables in memory; the profiles
        # command reads the same tables back from the CSVs reproduce wrote
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "instances": [{"type": "example4", "s": 1},
                          {"n": 6, "kappa": 10.0, "s": 2, "seed": 1}],
            "strategies": ["moiht", "scalarized"],
            "run_seeds": [0, 1],
            "n_starts": 3,
            "sfsd_budget": 3,
            "solver_budget": 2000,
        }))
        assert run("reproduce", manifest) == 0
        out = tmp_path / "out"
        tables = sorted((out / "metrics").glob("*_best.csv"))
        assert len(tables) == 2
        flags = [a for path in tables for a in ("--metrics-csv", path)]
        assert run("profiles", *flags, "--out-dir", tmp_path / "again") == 0
        for metric in ("purity", "gamma_spread", "delta_spread", "hypervolume"):
            name = f"{metric}_profile.csv"
            assert ((tmp_path / "again" / name).read_bytes()
                    == (out / "profiles" / "best" / name).read_bytes())

    def test_repeated_front_name_rejected(self, tmp_path, capsys):
        fa, fb = tmp_path / "x.csv", tmp_path / "y.csv"
        self._write_front(fa, [(1.0, 2.0)])
        self._write_front(fb, [(2.0, 1.0)])
        out = tmp_path / "m.csv"
        assert run("metrics", "--front", f"a={fa}", "--front", f"a={fb}", "--out", out) == 1
        err = capsys.readouterr().err
        assert f"--front {fa} and {fb} are both named 'a'" in err
        assert not out.exists()

    def test_reference_with_other_objective_count_rejected(self, tmp_path, capsys):
        fa, ref = tmp_path / "a.csv", tmp_path / "ref.csv"
        self._write_front(fa, [(1.0, 2.0), (2.0, 1.0)])
        ref.write_text("f1,f2,f3,support,x_1,x_2\n1.0,2.0,3.0,1,0.0,0.0\n")
        out = tmp_path / "m.csv"
        assert run("metrics", "--front", f"A={fa}", "--reference", ref, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"{ref}: the reference front has 3 objectives, front 'A' has 2" in err
        assert not out.exists()

    def test_combined_reference_with_other_objective_counts_rejected(self, tmp_path, capsys):
        fa, fb, fe = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "e.csv"
        self._write_front(fa, [(1.0, 2.0), (2.0, 1.0)])
        fb.write_text("f1,f2,f3,support,x_1,x_2\n1.0,2.0,3.0,1,0.0,0.0\n")
        fe.write_text("f1,f2,f3,support,x_1,x_2\n")  # no rows: no count to disagree with
        out = tmp_path / "m.csv"
        assert run("metrics", "--front", f"E={fe}", "--front", f"A={fa}", "--front", f"B={fb}",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert f"front 'A' ({fa}) has 2 objectives, front 'B' ({fb}) has 3" in err
        assert not out.exists()

    def test_profiles_problem_named_twice_rejected(self, tmp_path, capsys):
        table = "solver,purity,gamma_spread,delta_spread,hypervolume\nS1,1.0,1.0,0.5,1.0\n"
        paths = [tmp_path / d / "inst.csv" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_text(table)
        out_dir = tmp_path / "p"
        assert run("profiles", "--metrics-csv", paths[0], "--metrics-csv", paths[1],
                   "--out-dir", out_dir) == 1
        err = capsys.readouterr().err
        assert f"--metrics-csv {paths[0]} and {paths[1]} are both problem 'inst'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("solver,purity\nx,1.0\n", "lacks column(s) gamma_spread, delta_spread, hypervolume"),
        ("solver,purity,gamma_spread,delta_spread,hypervolume\nx,1.0,abc,0.5,1.0\n", ":2:"),
        ("solver,purity,gamma_spread,delta_spread,hypervolume\nx,1.0\n", ":2:"),
        ("solver,purity,gamma_spread,delta_spread,hypervolume\nx,1.0,1.0,0.5,1.0,9\n",
         ":2: expected 5 cells, got 6"),
        ("solver,purity,gamma_spread,delta_spread,hypervolume\n"
         "x,1.0,1.0,0.5,1.0\ny,1.0,1.0,0.5,1.0\nx,0.5,1.0,0.5,1.0\n",
         ":4: solver 'x' repeats line 2"),
    ], ids=["missing_columns", "non_numeric_cell", "short_row", "extra_cell", "repeated_solver"])
    def test_bad_metrics_csv_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert run("profiles", "--metrics-csv", path, "--out-dir", tmp_path / "p") == 1
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "p").exists()


class TestReproduce:
    def test_mini_manifest_end_to_end(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "seed": 0,
            "out_dir": str(tmp_path / "out"),
            "instances": [
                {"type": "example4", "s": 1},
                {"n": 6, "kappa": 10.0, "s": 3, "seed": 0},
            ],
            "strategies": ["moiht", "mohyb"],
            "run_seeds": [0, 1],
            "n_starts": 4,
            "sfsd_budget": 4,
            "solver_budget": 2000,
        }))
        assert run("reproduce", manifest) == 0
        out = tmp_path / "out"
        assert (out / "summary.json").exists()
        fronts = list((out / "fronts").rglob("*.csv"))
        assert len(fronts) == 8  # 2 instances x 2 strategies x 2 seeds
        metrics = sorted((out / "metrics").glob("*.csv"))
        assert len(metrics) == 4  # best + worst per instance
        for tag in ("best", "worst"):
            assert (out / "profiles" / tag / "purity_profile.csv").exists()

    def test_missing_referenced_file(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "instances": [{"path": "nope.json"}],
        }))
        assert run("reproduce", manifest) == 1

    @pytest.mark.parametrize("content, named", [
        (None, "'instances[1].path' names no file"),
        ('{"type": "quadratic", "n": 6}', "bad.json"),
    ], ids=["missing", "malformed"])
    def test_instance_files_checked_before_writing(self, tmp_path, capsys, content, named):
        if content is not None:
            (tmp_path / "bad.json").write_text(content)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "instances": [{"type": "example4", "s": 1}, {"path": "bad.json"}],
        }))
        assert run("reproduce", manifest) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        outputs = []
        for sub in ("o1", "o2"):
            manifest = tmp_path / f"m_{sub}.json"
            manifest.write_text(json.dumps({
                "seed": 3,
                "out_dir": str(tmp_path / sub),
                "instances": [{"type": "example4", "s": 1}],
                "strategies": ["moiht", "scalarized"],
                "run_seeds": [0, 1],
                "n_starts": 3,
                "sfsd_budget": 3,
            }))
            assert run("reproduce", manifest) == 0
            root = tmp_path / sub
            files = sorted((root / "fronts").rglob("*.csv"))
            files += sorted((root / "metrics").glob("*.csv"))
            files += sorted((root / "profiles").rglob("*.csv"))
            outputs.append({str(f.relative_to(root)): f.read_bytes() for f in files})
        assert len(outputs[0]) == 4 + 2 + 8
        assert outputs[0] == outputs[1]

    def test_front_command_matches_reproduce_front(self, tmp_path):
        seed, n_starts, budget, solver_budget = 5, 3, 4, 2000
        strategies, run_seeds = ["moiht", "mohyb"], [0, 2]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "seed": seed,
            "out_dir": str(tmp_path / "out"),
            "instances": [{"n": 6, "kappa": 10.0, "s": 3, "seed": 1}],
            "strategies": strategies,
            "run_seeds": run_seeds,
            "n_starts": n_starts,
            "sfsd_budget": budget,
            "solver_budget": solver_budget,
        }))
        assert run("reproduce", manifest) == 0
        stem = "quad_n6_k10_s3_seed1"
        inst = tmp_path / "out" / "instances" / f"{stem}.json"
        si, ri = 1, 1
        run_seed = np.random.SeedSequence((seed, 0, si, run_seeds[ri])).generate_state(1)[0]
        out = tmp_path / "front.csv"
        assert run("front", "--instance", inst, "--strategy", strategies[si],
                   "--seed", int(run_seed), "--n-starts", n_starts, "--budget", budget,
                   "--solver-budget", solver_budget, "--out", out) == 0
        expected = tmp_path / "out" / "fronts" / stem / f"{strategies[si]}_seed{run_seeds[ri]}.csv"
        assert out.read_bytes() == expected.read_bytes()

    def test_seed_independent_front_runs_once(self, tmp_path, monkeypatch):
        seed, n_starts, budget, solver_budget = 2, 3, 3, 2000
        strategies, run_seeds = ["moiht", "scalarized"], [0, 1, 2]
        manifest = tmp_path / "manifest.json"
        out_dir = tmp_path / "out"
        manifest.write_text(json.dumps({
            "seed": seed,
            "out_dir": str(out_dir),
            "instances": [{"type": "example4", "s": 1}, {"n": 6, "kappa": 10.0, "s": 3, "seed": 1}],
            "strategies": strategies,
            "run_seeds": run_seeds,
            "n_starts": n_starts,
            "sfsd_budget": budget,
            "solver_budget": solver_budget,
        }))
        calls = []
        initialize = cli.initialize

        def counting(p, s, strategy, *args, **kwargs):
            calls.append((p.n, strategy))
            return initialize(p, s, strategy, *args, **kwargs)

        monkeypatch.setattr(cli, "initialize", counting)
        assert run("reproduce", manifest) == 0
        assert sorted(calls) == [(2, "moiht")] * 3 + [(2, "scalarized")] \
            + [(6, "moiht")] * 3 + [(6, "scalarized")]

        def outputs():
            return {str(f.relative_to(out_dir)): f.read_bytes()
                    for f in sorted(out_dir.rglob("*")) if f.is_file()}

        reused = outputs()
        stem = "quad_n6_k10_s3_seed1"
        csvs = {reused[f"fronts/{stem}/scalarized_seed{r}.csv"] for r in run_seeds}
        assert len(csvs) == 1
        run_seed = np.random.SeedSequence((seed, 1, 1, run_seeds[2])).generate_state(1)[0]
        out = tmp_path / "front.csv"
        assert run("front", "--instance", out_dir / "instances" / f"{stem}.json",
                   "--strategy", "scalarized", "--seed", int(run_seed), "--n-starts", n_starts,
                   "--budget", budget, "--solver-budget", solver_budget, "--out", out) == 0
        assert csvs == {out.read_bytes()}

        # every file is the one separate runs per seed write
        shutil.rmtree(out_dir)
        calls.clear()
        monkeypatch.setattr(cli, "SEED_INDEPENDENT", ())
        assert run("reproduce", manifest) == 0
        assert len(calls) == 12
        assert outputs() == reused

    @pytest.mark.parametrize("manifest, field", [
        ({}, "instances"),
        ({"instances": []}, "instances"),
        ({"instances": {"n": 6, "kappa": 10.0, "s": 3}}, "instances"),
        ({"instances": ["example4"]}, "instances[0]"),
        ({"instances": [{"type": "example4"}]}, "'s'"),
        ({"instances": [{"n": 6, "s": 3}]}, "'kappa'"),
        ({"instances": [{"type": "example4", "s": 1}], "strategies": ["sfsd"]}, "strategies"),
        ({"instances": [{"type": "example4", "s": 1}], "strategies": "moiht"}, "strategies"),
        ({"instances": [{"type": "example4", "s": 1}], "run_seeds": [0, "1"]}, "run_seeds"),
        ({"instances": [{"type": "example4", "s": 1}], "run_seeds": [0.5]}, "run_seeds"),
        ({"instances": [{"n": 6, "kappa": "10", "s": 3}]}, "kappa"),
        ({"instances": [{"n": 6, "kappa": 0.5, "s": 3}]}, "kappa"),
        ({"instances": [{"n": 6.0, "kappa": 10, "s": 3}]}, "instances[0].n"),
        ({"instances": [{"n": 6, "kappa": 10, "s": 9}]}, "instances[0].s"),
        ({"instances": [{"n": 6, "kappa": 10, "s": 0}]}, "instances[0].s"),
        ({"instances": [{"type": "example4", "s": 2}]}, "instances[0].s"),
        ({"instances": [{"n": 6, "kappa": 10, "s": 3, "seed": -1}]}, "seed"),
        ({"instances": [{"type": "example4", "s": 1}], "seed": "0"}, "seed"),
        ({"instances": [{"type": "example4", "s": 1}], "n_starts": "x"}, "n_starts"),
        ({"instances": [{"type": "example4", "s": 1}], "sfsd_budget": 0}, "sfsd_budget"),
        ({"instances": [{"type": "example4", "s": 1}], "solver_budget": True}, "solver_budget"),
        ({"instances": [{"n": 10, "kappa": 1, "s": 2}], "out_dir": 5}, "out_dir"),
        ({"instances": [{"path": 5}]}, "instances[0].path"),
        ({"instances": [{"type": "logistic", "n": 6, "kappa": 10, "s": 2, "seed": 0}]},
         "'instances[0].type' must be 'quadratic' or 'example4'"),
        ({"instances": [{"path": "a/inst.json"}, {"path": "b/inst.json"}]},
         "'instances[0]' and 'instances[1]' are both named 'inst'"),
        ({"instances": [{"n": 6, "kappa": 10, "s": 3}, {"type": "example4", "s": 1},
                        {"n": 6, "kappa": 10.0, "s": 3, "seed": 0}]},
         "'instances[0]' and 'instances[2]' are both named 'quad_n6_k10_s3_seed0'"),
        ({"instances": [{"n": 6, "kappa": 10, "s": 3}, {"n": 6, "kappa": 10.0000001, "s": 3}]},
         "'instances[0]' and 'instances[1]'"),
        ({"instances": [{"type": "example4", "s": 1}, {"path": "example4_s1.json"}]},
         "'instances[0]' and 'instances[1]'"),
        ({"instances": [{"type": "example4", "s": 1}], "strategies": ["moiht", "mohyb", "moiht"]},
         "'strategies[0]' and 'strategies[2]' are both 'moiht'"),
        ({"instances": [{"type": "example4", "s": 1}], "run_seeds": [0, 0]},
         "'run_seeds[0]' and 'run_seeds[1]' are both 0"),
    ])
    def test_invalid_manifest_rejected(self, tmp_path, capsys, manifest, field):
        out_dir = tmp_path / "out"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"out_dir": str(out_dir), **manifest}))
        assert run("reproduce", path) == 1
        err = capsys.readouterr().err
        assert field in err and f"{path}: manifest" in err
        assert not out_dir.exists()  # rejected before any work starts


@pytest.mark.parametrize("command", ["solve", "front"])
@pytest.mark.parametrize("flags, named", [
    (["--dataset", DATA_DIR / "synth_margin_b.csv", "--label-column", "y", "--s", 5], "--dataset"),
    (["--s", 1], "--s"),
    (["--label-column", "y"], "--label-column"),
])
def test_instance_refuses_flags_it_would_ignore(tmp_path, capsys, command, flags, named):
    inst, out = tmp_path / "ex4.json", tmp_path / "f.csv"
    assert run("generate", "--example4", "--s", 1, "--out", inst) == 0
    assert run(command, "--instance", inst, *flags, "--n-starts", 2, "--out", out) == 1
    assert f"error: {named} cannot be used with --instance" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


class TestTopLevel:
    def test_no_command_shows_help(self):
        assert main([]) == 1

    def test_help_exits_clean(self):
        assert main(["--help"]) == 0
        assert main(["front", "--help"]) == 0
        assert main(["reproduce", "--help"]) == 0  # one positional, no defaults

    def test_front_help_shows_solver_defaults(self, capsys):
        assert main(["front", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())  # undo the help's line wrapping
        for flag, shown in (("--eps EPS", "1e-07"), ("--solver-budget SOLVER_BUDGET", "10000"),
                            ("--tau0 TAU0", "1.0")):
            entry = out.split(f" {flag} ", 1)[1].split(" --", 1)[0]
            assert f"(default: {shown})" in entry and "(default: None)" not in entry

    def test_parser_defaults_are_the_library_defaults(self, tmp_path):
        args = cli.build_parser().parse_args(["front", "--out", "f.csv"])
        defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
        assert args.eps == defaults["eps"] == 1e-7
        assert args.solver_budget == defaults["max_iter"] == 10_000
        assert args.tau0 == defaults["tau0"] == 1.0
        spacing = inspect.signature(sfsd_run).parameters["explore_spacing"].default
        assert args.explore_spacing == spacing == 5e-3
        assert args.n_starts == N_STARTS == 10
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"instances": [{"type": "example4", "s": 1}]}))
        manifest = cli._load_manifest(path)[0]
        assert manifest["solver_budget"] == defaults["max_iter"]
        assert manifest["n_starts"] == N_STARTS

    @pytest.mark.parametrize("command", ["generate", "solve", "front", "metrics", "profiles"])
    def test_subcommand_help_shows_defaults(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert "(default: " in capsys.readouterr().out
