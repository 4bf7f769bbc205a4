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
        assert all(r["reason"] == "converged" for r in rows)
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

    def test_missing_precond_stops_before_loading(self, demo_matrix, tmp_path, monkeypatch):
        _, path = demo_matrix
        loaded = []
        monkeypatch.setattr("saiprec.cli.load_matrix_market", loaded.append)
        missing = tmp_path / "missing_M.mtx"
        with pytest.raises(SystemExit, match=f"matrix file not found: {re.escape(str(missing))}"):
            main(["solve", "--matrix", str(path), "--precond", str(missing),
                  "--out", str(tmp_path / "out")])
        assert loaded == []
        assert not (tmp_path / "out").exists()

    def test_precond_of_another_order_stops(self, tmp_path):
        # a 5 x 5 M with a 4 x 4 A failed inside the solver
        M, A = tmp_path / "M.mtx", tmp_path / "A.mtx"
        save_matrix_market(M, SparseMatrix.identity(5))
        save_matrix_market(A, SparseMatrix.identity(4))
        message = f"{re.escape(str(M))}: the preconditioner is 5x5, but {re.escape(str(A))} is 4x4"
        with pytest.raises(SystemExit, match=message):
            main(["solve", "--matrix", str(A), "--precond", str(M), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out" / "solve.csv").exists()

    def test_precond_loaded_once(self, demo_matrix, tmp_path, monkeypatch):
        _, path = demo_matrix
        out = tmp_path / "out"
        main(["build", "--matrix", str(path), "--out", str(out), "--threads", "1"])
        loaded = []

        def counting(p):
            loaded.append(Path(p).name)
            return load_matrix_market(p)

        monkeypatch.setattr("saiprec.cli.load_matrix_market", counting)
        rc = main(["solve", "--matrix", str(path), "--matrix", str(path),
                   "--precond", str(out / "demo_M.mtx"), "--out", str(out)])
        assert rc == 0
        assert sorted(loaded) == ["demo.mtx", "demo.mtx", "demo_M.mtx"]
        assert len(read_rows(out / "solve.csv")) == 4

    def test_mismatched_header_stops_before_loading(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        old = ("matrix,method,side,precond,converged,dagger,iters,matvecs,"
               "precond_applies,rel_residual,stime\n")
        (out / "solve.csv").write_text(old)
        missing = tmp_path / "missing.mtx"  # the header check must come first
        with pytest.raises(SystemExit, match=r"solve\.csv: header has columns .*stime, expected"):
            main(["solve", "--matrix", str(missing), "--no-precond", "--out", str(out)])
        assert (out / "solve.csv").read_text() == old


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


    @pytest.mark.parametrize("key, value, message", [
        ("scalings", "-0.5", "drop_scale must be nonnegative"),
        ("scalings", "nan", "drop_scale must be nonnegative"),
        ("fixed_tols", "0", "fixed drop mode needs tol > 0"),
        ("fixed_tols", "-1e-3", "fixed drop mode needs tol > 0"),
        ("fixed_tols", "nan", "fixed drop mode needs tol > 0"),
    ])
    @pytest.mark.parametrize("via_spec", [False, True])
    def test_negative_scaling_rejected(self, demo_matrix, tmp_path, capsys, via_spec,
                                       key, value, message):
        """A bad sweep list entry is a usage error or a spec-file message, and
        stops the run before the matrix is loaded."""
        _, path = demo_matrix
        out = tmp_path / "out"
        argv = ["sweep", "--matrix", str(path), "--out", str(out), "--threads", "1"]
        if via_spec:
            spec_path = tmp_path / "exp.spec"
            spec_path.write_text(f"[sweep]\n{key} = 1e-2, {value}\n")
            expected = re.escape(f"{spec_path}: [sweep] {key}: ") + message
            with pytest.raises(SystemExit, match=expected):
                main(argv + ["--spec", str(spec_path)])
        else:
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as info:
                main(argv + [f"{flag}=1e-2,{value}"])
            assert info.value.code == 2
            assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_prints_sweep_table(self, demo_matrix, tmp_path, capsys):
        _, path = demo_matrix
        out = tmp_path / "out"
        main(["sweep", "--matrix", str(path), "--method", "bicgstab", "--scalings", "1,0",
              "--out", str(out), "--threads", "1"])
        main(["sweep", "--matrix", str(path), "--method", "bicgstab", "--scalings", "",
              "--fixed-tols", "1e-3", "--max-iters", "1", "--out", str(out / "short"),
              "--threads", "1"])
        capsys.readouterr()
        main(["report", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["Matrix", "mode", "value", "spar", "iter_b", "iter_g", "r_max"]
        rows = [line.split() for line in lines[1:]]
        assert [row[:3] for row in rows] == [["demo", "scale", "1"], ["demo", "scale", "0"]]
        assert all(float(row[4]) > 0 and row[5] == "-" for row in rows)
        assert "†" not in "".join(lines)
        main(["report", "--out", str(out / "short")])
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[:3] == ["demo", "fixed", "0.001"]
        assert row[4:6] == ["1†", "-"]  # one step, not converged; GMRES did not run


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

    def test_report_dashes_a_method_that_did_not_run(self, demo_matrix, tmp_path, capsys):
        _, path = demo_matrix
        out = tmp_path / "out"
        main(["static", "--matrix", str(path), "--method", "gmres", "--out", str(out),
              "--threads", "1"])
        capsys.readouterr()
        main(["report", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines if line.startswith("demo")]
        assert [row[4] for row in rows] == ["-", "-"]  # iter_b
        assert all(float(row[5]) > 0 for row in rows)  # iter_g
        assert "†" not in "".join(lines)


@pytest.mark.parametrize("command", ["sweep", "static"])
@pytest.mark.parametrize("methods", [["gmres:2", "gmres:50"], ["bicgstab", "gmres", "bicgstab"]])
def test_two_methods_of_one_family_stop_before_loading(tmp_path, command, methods):
    argv = [command, "--matrix", str(tmp_path / "missing.mtx"), "--out", str(tmp_path)]
    for method in methods:
        argv += ["--method", method]
    with pytest.raises(SystemExit, match=f"{command} takes one .* method, got"):
        main(argv)
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["build", "sweep", "static"])
def test_matrix_without_entries_stops_before_building(tmp_path, monkeypatch, command):
    # nnz(A) = 0 leaves M's density nnz(M) / nnz(A) undefined
    path = tmp_path / "zero.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
    built = []
    monkeypatch.setattr("saiprec.cli.build_preconditioner", built.append)
    monkeypatch.setattr("saiprec.cli.static_build", built.append)
    with pytest.raises(SystemExit, match=f"{re.escape(str(path))}: the matrix has no entries"):
        main([command, "--matrix", str(path), "--out", str(tmp_path / "out"),
              *(["--scalings", "1"] if command == "sweep" else [])])
    assert built == []


@pytest.mark.parametrize("command", ["build", "solve", "sweep", "static"])
@pytest.mark.parametrize("names", [("a/m.mtx", "b/m.mtx"), ("m.mtx", "m.mtx.gz")])
def test_matrices_sharing_a_name_stop_before_loading(demo_matrix, tmp_path, monkeypatch,
                                                     command, names):
    # both would write m_build.csv / m_M.mtx and rows named "m"; the second
    # would overwrite the first
    A, _ = demo_matrix
    paths = [tmp_path / name for name in names]
    for path in paths:
        path.parent.mkdir(exist_ok=True)
        save_matrix_market(path, A)
    loaded = []
    monkeypatch.setattr("saiprec.cli.load_matrix_market", loaded.append)
    out = tmp_path / "out"
    message = f"matrix files {re.escape(str(paths[0]))} and {re.escape(str(paths[1]))} share"
    with pytest.raises(SystemExit, match=message):
        main([command, "--matrix", str(paths[0]), "--matrix", str(paths[1]),
              *(["--scalings", "1"] if command == "sweep" else []), "--out", str(out)])
    assert loaded == []
    assert not out.exists()


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


def test_report_reads_every_table(demo_matrix, tmp_path, capsys):
    """build, solve, sweep and static into one out dir; report prints their
    four tables in that order."""
    _, path = demo_matrix
    common = ["--matrix", str(path), "--out", str(tmp_path / "out"), "--threads", "1"]
    for argv in (["build"], ["solve"], ["sweep", "--scalings", "1"], ["static"]):
        assert main(argv + common) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "out")]) == 0
    headers = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.startswith("Matrix")]
    assert [header[1] for header in headers] == ["spar", "method", "mode", "pattern"]


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
        ("eps = 0.2\n", r"no section headers"),
        ("[sai]\neps = 0.2\neps = 0.3\n", r"option 'eps' in section 'sai' already exists"),
        ("[static]\npatterns = iplusa:0\n", r"\[static\] patterns: pattern power must be at least 1"),
        ("[sai]\neps = 1.5\n", r"\[sai\] eps: epsilon must lie in \(0, 1\)"),
        ("[sai]\nlmax = 0\n", r"\[sai\] lmax: l_max must be at least 1"),
        ("[solve]\nrel_tol = -1\n", r"\[solve\] rel_tol: rel_tol must be positive"),
        ("[solve]\nmax_iters = 0\n", r"\[solve\] max_iters: max_iters must be at least 1"),
        ("[static]\nfloor = nan\n", r"\[static\] floor: floor must be finite and nonnegative"),
        ("[static]\nfloor = -1\n", r"\[static\] floor: floor must be finite and nonnegative"),
        ("[solve]\nrel_tol = nan\n", r"\[solve\] rel_tol: rel_tol must be positive"),
        ("[sai]\ndrop = fixed:nan\n", r"\[sai\] drop: fixed drop mode needs tol > 0"),
        ("[sai]\ndrop = fixed:inf\n", r"\[sai\] drop: fixed drop mode needs tol > 0"),
        ("[solve]\nrel_tol = inf\n", r"\[solve\] rel_tol: rel_tol must be positive and below 1"),
        ("[solve]\nrel_tol = 1\n", r"\[solve\] rel_tol: rel_tol must be positive and below 1"),
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

    def test_missing_spec_file(self, tmp_path):
        missing = tmp_path / "nothere.spec"
        with pytest.raises(SystemExit, match=re.escape(f"{missing}: ") + ".*No such file"):
            main(["build", "--spec", str(missing), "--out", str(tmp_path / "out")])
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
        ["static", "--pattern", "iplusa:0"],
        ["build", "--eps", "1.5"],
        ["build", "--lmax", "0"],
        ["solve", "--rel-tol", "-1"],
        ["solve", "--max-iters", "0"],
        ["static", "--floor", "nan"],
        ["static", "--floor", "inf"],
        ["solve", "--rel-tol", "nan"],
        ["build", "--drop", "fixed:nan"],
        ["solve", "--rel-tol", "inf"],
        ["solve", "--rel-tol", "1"],
    ])
    def test_flag_value_is_usage_error(self, tmp_path, capsys, argv):
        flag = argv[1]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--matrix", str(tmp_path / "missing.mtx"), "--out", str(tmp_path)])
        assert info.value.code == 2  # argparse usage error, not "matrix file not found"
        assert f"argument {flag}" in capsys.readouterr().err

    def test_high_eps_warns_once(self, tmp_path):
        """Checking a value at parse time adds no second epsilon >= 0.5 warning."""
        spec_path = tmp_path / "exp.spec"
        spec_path.write_text("[sai]\neps = 0.7\n")
        for given in (["--eps", "0.6"], ["--spec", str(spec_path)]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(SystemExit, match="matrix file not found"):
                    main(["build", *given, "--matrix", str(tmp_path / "missing.mtx"),
                          "--out", str(tmp_path)])
            assert sum("epsilon >= 0.5" in str(w.message) for w in caught) == 1

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
