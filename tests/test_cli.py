import csv
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_sparse
from saiprec.cli import load_spec_file, main
from saiprec.core import SparseMatrix, load_matrix_market, save_matrix_market


@pytest.fixture()
def demo_matrix(tmp_path):
    rng = np.random.default_rng(101)
    A = random_sparse(rng, 30, 0.12, diag_boost=2.0)
    path = tmp_path / "demo.mtx"
    save_matrix_market(path, A)
    return A, path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestBuildCommand:
    def test_artifacts_written(self, demo_matrix, tmp_path):
        A, path = demo_matrix
        out = tmp_path / "out"
        rc = main([
            "build", "--matrix", str(path), "--eps", "0.2", "--lmax", "8",
            "--drop", "adaptive", "--out", str(out), "--threads", "1",
        ])
        assert rc == 0
        M = load_matrix_market(out / "demo_M.mtx")
        assert M.shape == A.shape
        rows = read_rows(out / "demo_build.csv")
        assert len(rows) == 1
        assert rows[0]["matrix"] == "demo"
        assert int(rows[0]["n"]) == 30
        cols = read_rows(out / "demo_columns.csv")
        assert len(cols) == 30
        assert set(cols[0]) == {"k", "pre_drop", "post_drop", "nnz", "loops", "drop"}
        # per-column rows regenerate the residual scatter: k vs residual norms
        ks = [int(r["k"]) for r in cols]
        assert ks == list(range(30))
        assert all(float(r["post_drop"]) >= 0.0 for r in cols)

    def test_identity_build(self, tmp_path):
        path = tmp_path / "id4.mtx"
        save_matrix_market(path, SparseMatrix.identity(4))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # eps = 0.5 warns by design
            rc = main([
                "build", "--matrix", str(path), "--eps", "0.5", "--lmax", "1",
                "--out", str(out), "--threads", "1",
            ])
        assert rc == 0
        M = load_matrix_market(out / "id4_M.mtx")
        assert M.equals(SparseMatrix.identity(4))
        row = read_rows(out / "id4_build.csv")[0]
        assert float(row["spar"]) == 1.0

    def test_seventeen_digit_floats(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out = tmp_path / "out"
        main(["build", "--matrix", str(path), "--out", str(out), "--threads", "1"])
        row = read_rows(out / "demo_build.csv")[0]
        # 17 significant digits survive a float round trip exactly
        assert float(row["r_max"]) == float(f"{float(row['r_max']):.17g}")
        assert "." in row["spar"] or "e" in row["spar"]


class TestSolveCommand:
    def test_preconditioned_and_plain(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out = tmp_path / "out"
        rc = main([
            "solve", "--matrix", str(path), "--eps", "0.2", "--lmax", "8",
            "--out", str(out), "--threads", "1",
        ])
        assert rc == 0
        rc = main([
            "solve", "--matrix", str(path), "--no-precond", "--out", str(out),
            "--threads", "1",
        ])
        assert rc == 0
        rows = read_rows(out / "solve.csv")
        assert len(rows) == 4  # two methods, with and without preconditioning
        prec = [r for r in rows if r["precond"] != "none"]
        plain = [r for r in rows if r["precond"] == "none"]
        assert all(r["converged"] == "1" for r in rows)
        for p, q in zip(prec, plain):
            assert float(p["iters"]) <= float(q["iters"])

    def test_reuses_saved_preconditioner(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out = tmp_path / "out"
        main(["build", "--matrix", str(path), "--out", str(out), "--threads", "1"])
        rc = main([
            "solve", "--matrix", str(path), "--precond", str(out / "demo_M.mtx"),
            "--out", str(out), "--threads", "1",
        ])
        assert rc == 0
        rows = read_rows(out / "solve.csv")
        assert all(r["converged"] == "1" for r in rows)


class TestSweepCommand:
    def test_monotone_and_consistent(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out = tmp_path / "out"
        rc = main([
            "sweep", "--matrix", str(path), "--eps", "0.2", "--lmax", "8",
            "--scalings", "1,0.5,0.1,0.01,0", "--out", str(out), "--threads", "1",
        ])
        assert rc == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 5
        spars = [float(r["spar"]) for r in rows]
        assert spars == sorted(spars)
        assert all(r["mintol"] for r in rows if r["mode"] == "scale" and float(r["value"]) > 0)

    def test_single_scaling_matches_build(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main([
            "sweep", "--matrix", str(path), "--eps", "0.2", "--lmax", "8",
            "--scalings", "1", "--out", str(out1), "--threads", "1",
        ])
        main([
            "build", "--matrix", str(path), "--eps", "0.2", "--lmax", "8",
            "--out", str(out2), "--threads", "1",
        ])
        sweep_row = read_rows(out1 / "sweep.csv")[0]
        build_row = read_rows(out2 / "demo_build.csv")[0]
        assert sweep_row["spar"] == build_row["spar"]
        assert sweep_row["r_max"] == build_row["r_max"]
        assert sweep_row["mintol"] == build_row["mintol"]

    def test_fixed_tol_sweep(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out = tmp_path / "out"
        rc = main([
            "sweep", "--matrix", str(path), "--eps", "0.2", "--lmax", "8",
            "--scalings", "", "--fixed-tols", "1e-3,1e-4", "--out", str(out),
            "--threads", "1",
        ])
        assert rc == 0
        rows = read_rows(out / "sweep.csv")
        assert [r["mode"] for r in rows] == ["fixed", "fixed"]


    @pytest.mark.parametrize("via_spec", [False, True])
    def test_negative_scaling_rejected(self, demo_matrix, tmp_path, via_spec):
        _, path = demo_matrix
        out = tmp_path / "out"
        argv = ["sweep", "--matrix", str(path), "--out", str(out), "--threads", "1"]
        if via_spec:
            spec_path = tmp_path / "exp.spec"
            spec_path.write_text("[sweep]\nscalings = -0.5\n")
            argv += ["--spec", str(spec_path)]
        else:
            argv.append("--scalings=-0.5")
        with pytest.raises(ValueError, match="drop_scale must be nonnegative"):
            main(argv)
        assert not (out / "sweep.csv").exists()


class TestStaticCommand:
    def test_paired_rows(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out = tmp_path / "out"
        rc = main([
            "static", "--matrix", str(path), "--pattern", "iplusa:3",
            "--out", str(out), "--threads", "1",
        ])
        assert rc == 0
        rows = read_rows(out / "static.csv")
        assert [r["variant"] for r in rows] == ["M", "Md"]
        m_row, md_row = rows
        assert float(md_row["spar"]) <= float(m_row["spar"])
        total = (
            float(m_row["ptime_pattern"])
            + float(m_row["ptime_build"])
            + float(m_row["ptime_filter"])
        )
        assert float(m_row["ptime"]) == pytest.approx(total)

    def test_diagonal_matrix_all_patterns(self, tmp_path):
        path = tmp_path / "diag.mtx"
        save_matrix_market(path, SparseMatrix.from_dense(np.diag([2.0, 4.0, 5.0])))
        out = tmp_path / "out"
        rc = main([
            "static", "--matrix", str(path), "--pattern", "iplusa:3",
            "--pattern", "abs:3", "--pattern", "normal:2", "--out", str(out),
            "--threads", "1",
        ])
        assert rc == 0
        rows = read_rows(out / "static.csv")
        assert len(rows) == 6
        for row in rows:
            assert float(row["iter_b"]) <= 1.0
            assert row["spar"] == rows[0]["spar"]


class TestDeterminism:
    def test_rerun_bit_identical(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        timing_fields = {"ptime", "stime", "ptime_pattern", "ptime_build",
                         "ptime_filter", "stime_b", "stime_g"}
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            main([
                "build", "--matrix", str(path), "--eps", "0.25", "--lmax", "8",
                "--out", str(out), "--threads", "1",
            ])
            main([
                "sweep", "--matrix", str(path), "--eps", "0.25", "--lmax", "8",
                "--scalings", "1,0.1", "--out", str(out), "--threads", "4",
            ])
            outs.append(out)
        for name in ("demo_build.csv", "demo_columns.csv", "sweep.csv"):
            rows1 = read_rows(outs[0] / name)
            rows2 = read_rows(outs[1] / name)
            assert len(rows1) == len(rows2)
            for r1, r2 in zip(rows1, rows2):
                for key, value in r1.items():
                    if key in timing_fields:
                        continue
                    assert value == r2[key], (name, key)


class TestSpecFile:
    def test_load_and_run(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        spec_path = tmp_path / "exp.spec"
        out = tmp_path / "out"
        spec_path.write_text(
            "[matrices]\n"
            f"paths = {path}\n"
            "[sai]\n"
            "eps = 0.2\n"
            "lmax = 8\n"
            "drop = adaptive\n"
            "side = right\n"
            "[solve]\n"
            "methods = bicgstab, gmres:20\n"
            "rel_tol = 1e-8\n"
            "[output]\n"
            f"dir = {out}\n"
            "threads = 1\n"
        )
        values = load_spec_file(spec_path)
        assert values["eps"] == 0.2
        assert values["methods"] == ["bicgstab", "gmres:20"]
        rc = main(["solve", "--spec", str(spec_path)])
        assert rc == 0
        rows = read_rows(out / "solve.csv")
        assert {r["method"] for r in rows} == {"bicgstab", "gmres:20"}

    def test_flags_override_spec(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        spec_path = tmp_path / "exp.spec"
        spec_path.write_text(
            f"[matrices]\npaths = {path}\n[sai]\neps = 0.4\n[output]\ndir = {tmp_path/'o1'}\n"
        )
        rc = main([
            "build", "--spec", str(spec_path), "--eps", "0.2",
            "--out", str(tmp_path / "o2"), "--threads", "1",
        ])
        assert rc == 0
        row = read_rows(tmp_path / "o2" / "demo_build.csv")[0]
        assert float(row["eps"]) == 0.2


class TestFetchAndReport:
    def test_fetch_lists_catalog_offline(self, capsys):
        rc = main(["fetch", "sherman4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sherman4" in out and "1104" in out and "http" in out

    def test_fetch_unknown_name(self, capsys):
        rc = main(["fetch", "not_a_matrix"])
        assert rc == 1

    def test_report_prints_tables(self, demo_matrix, tmp_path, capsys):
        _, path = demo_matrix
        out = tmp_path / "out"
        main(["build", "--matrix", str(path), "--out", str(out), "--threads", "1"])
        main(["solve", "--matrix", str(path), "--out", str(out), "--threads", "1"])
        capsys.readouterr()
        rc = main(["report", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Matrix" in text and "demo" in text and "spar" in text


class TestLeftSideCli:
    def test_build_and_solve_left(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        out = tmp_path / "out"
        rc = main([
            "build", "--matrix", str(path), "--eps", "0.25", "--lmax", "8",
            "--side", "left", "--out", str(out), "--threads", "1",
        ])
        assert rc == 0
        row = read_rows(out / "demo_build.csv")[0]
        assert row["side"] == "left"
        rc = main([
            "solve", "--matrix", str(path), "--eps", "0.25", "--lmax", "8",
            "--side", "left", "--out", str(out), "--threads", "1",
        ])
        assert rc == 0
        rows = read_rows(out / "solve.csv")
        assert all(r["side"] == "left" and r["converged"] == "1" for r in rows)


class TestOptionTable:
    """Spec-file sections, keys and values, and flag values, are checked
    against the option table before any matrix is loaded."""

    @pytest.mark.parametrize("body, message", [
        ("[sai]\nepsilon = 0.2\n", r"unknown key \[sai\] epsilon"),
        ("[sai]\nlmx = 3\n", r"unknown key \[sai\] lmx"),
        ("[solver]\nmethods = bicgstab\n", r"unknown section \[solver\]"),
        ("[solver]\n", r"unknown section \[solver\]"),
        ("[sai]\neps = abc\n", r"\[sai\] eps: could not convert"),
        ("[sai]\ndrop = fixed:abc\n", r"\[sai\] drop: could not convert"),
        ("[solve]\nmethods = bicgstab, cg\n", r"\[solve\] methods: method must be"),
        ("[static]\npatterns = iplusa:x\n", r"\[static\] patterns:"),
        ("[output]\nthreads = -3\n", r"\[output\] threads: threads must be 0"),
    ])
    def test_spec_file_rejects(self, tmp_path, body, message):
        spec_path = tmp_path / "exp.spec"
        spec_path.write_text(body)
        with pytest.raises(SystemExit, match=message) as info:
            load_spec_file(spec_path)
        assert str(spec_path) in str(info.value)
        with pytest.raises(SystemExit, match=message):
            main(["build", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_empty_list_keeps_default(self, tmp_path):
        spec_path = tmp_path / "exp.spec"
        spec_path.write_text("[solve]\nmethods =\n[sweep]\nscalings =\n[static]\npatterns =\n")
        assert load_spec_file(spec_path) == {}

    @pytest.mark.parametrize("argv", [
        ["build", "--drop", "fixed:abc"],
        ["static", "--pattern", "iplusa:x"],
        ["static", "--pattern", "cube:2"],
        ["solve", "--method", "gmres:0"],
        ["build", "--threads", "-3"],
        ["build", "--side", "up"],
    ])
    def test_flag_value_is_usage_error(self, tmp_path, capsys, argv):
        flag = argv[1]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--matrix", str(tmp_path / "missing.mtx"), "--out", str(tmp_path)])
        assert info.value.code == 2  # argparse usage error, not "matrix file not found"
        assert f"argument {flag}" in capsys.readouterr().err

    def test_threads_zero_means_all_cores(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        rc = main(["build", "--matrix", str(path), "--threads", "0", "--out", str(tmp_path)])
        assert rc == 0

    def test_nonsingular_written_as_one(self, demo_matrix, tmp_path):
        _, path = demo_matrix
        main(["build", "--matrix", str(path), "--out", str(tmp_path), "--threads", "1"])
        main(["sweep", "--matrix", str(path), "--scalings", "1", "--out", str(tmp_path),
              "--threads", "1"])
        assert read_rows(tmp_path / "demo_build.csv")[0]["nonsingular"] == "1"
        assert read_rows(tmp_path / "sweep.csv")[0]["nonsingular"] == "1"

    def test_readme_spec_example(self, tmp_path):
        """The README's spec example loads and names every spec-file key."""
        from saiprec.cli import OPTIONS

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        spec_path = tmp_path / "readme.spec"
        spec_path.write_text(blocks[0])
        values = load_spec_file(spec_path)
        assert set(values) == {o.name for o in OPTIONS if o.key}
