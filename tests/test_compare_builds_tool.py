"""tools/compare_builds.py: both compare modes name the fields of a quality
row or a check_nonsingular row that differ, and keep their exit status; the
bit-for-bit mode lists every solve that differs in any bit of its scalar
fields, its iterate or its residual history, counts each side apart, and
exits 1 when one differs or is missing, while the rtol mode skips solves."""

import dataclasses
import types

import numpy as np
import pytest

from conftest import load_tool
from saiprec.core import SparseMatrix
from saiprec.diagnostics import QualityReport
from saiprec.krylov import SolveParams, solve
from saiprec.psai import SaiParams, build_preconditioner
from saiprec.static import make_pattern, postfilter, static_build

compare_builds = load_tool("compare_builds")


def test_quality_fields_follow_the_report():
    assert compare_builds.QUALITY_FIELDS == tuple(f.name for f in dataclasses.fields(QualityReport))


def identity_build(quality) -> dict:
    """Arrays of one stored build: a 2 x 2 identity M with its quality row."""
    records = np.zeros((2, len(compare_builds.RECORD_FIELDS)))
    return {"x/M/col_ptr": np.array([0, 1, 2]), "x/M/row_idx": np.array([0, 1]),
            "x/M/values": np.ones(2), "x/M/a_one_norm": np.array([1.0]),
            "x/M/left": np.array([False]), "x/M/records": records,
            "x/M/quality": np.asarray(quality, float)}


@pytest.mark.parametrize("rtol", [None, 1e-12])
def test_compare_names_the_differing_quality_fields(tmp_path, capsys, rtol):
    row = [0.0, 0, 1.0, 0.0, 0, 0, 1.0, 1.0, 0.0, 0.0]
    moved = row.copy()
    moved[6], moved[7], moved[9] = 0.0, 0.5, 1e-3  # nonsingular, rcond, one column
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(first, **identity_build(row))
    np.savez(second, **identity_build(moved))
    assert compare_builds.cmd_compare(first, second, rtol) == 1
    assert "quality[nonsingular, rcond, per_column_residuals]" in capsys.readouterr().out
    assert compare_builds.cmd_compare(first, first, rtol) == 0


@pytest.mark.parametrize("rtol", [None, 1e-12])
def test_compare_names_a_moved_nonsingularity_row(tmp_path, capsys, rtol):
    # the benchmark-sized builds store check_nonsingular's (verdict, rcond)
    row = [0.0, 0, 1.0, 0.0, 0, 0, 1.0, 1.0, 0.0, 0.0]
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(first, **identity_build(row), **{"x/M/check_nonsingular": np.array([1.0, 0.5])})
    np.savez(second, **identity_build(row), **{"x/M/check_nonsingular": np.array([1.0, 0.25])})
    assert compare_builds.cmd_compare(first, second, rtol) == 1
    assert "check_nonsingular[rcond]" in capsys.readouterr().out
    assert compare_builds.cmd_compare(first, first, rtol) == 0


A = SparseMatrix.from_dense([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
B = np.array([1.0, 2.0, 3.0])
LABELS = {"right": "M", "left": "M-left", "none": "none"}


def tiny_solves(tweak=None) -> dict:
    """The stored arrays of six tiny solves, two per side; ``tweak(key, x,
    report)`` may change what is recorded for a solve."""
    arrays = {}
    for side, label in LABELS.items():
        M = None if side == "none" else SparseMatrix.identity(3)
        for method in ("bicgstab", "gmres"):
            x, rep = solve(A, B, M, SolveParams(method=method, side=side))
            key = f"tiny/{label}/solve-{method}-00"
            if tweak is not None:
                x = tweak(key, x, rep)
            compare_builds.record_solve(arrays, key, x, rep)
    return arrays


def compare(tmp_path, first: dict, second: dict, rtol=None) -> int:
    np.savez_compressed(tmp_path / "a.npz", **first)
    np.savez_compressed(tmp_path / "b.npz", **second)
    return compare_builds.cmd_compare(tmp_path / "a.npz", tmp_path / "b.npz", rtol)


def test_identical_runs_pass(tmp_path, capsys):
    assert compare(tmp_path, tiny_solves(), tiny_solves()) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 of 0 builds differ"] + [
        f"{side} side: 0 of 2 solves differ" for side in ("right", "left", "none")]


def test_one_bit_of_an_iterate_differs(tmp_path, capsys):
    def tweak(key, x, rep):
        if key == "tiny/M-left/solve-gmres-00":
            x = x.copy()
            x[1] = np.nextafter(x[1], np.inf)
        return x

    assert compare(tmp_path, tiny_solves(), tiny_solves(tweak)) == 1
    out = capsys.readouterr().out
    assert "DIFFERS tiny/M-left/solve-gmres-00: iterate\n" in out
    assert "left side: 1 of 2 solves differ" in out
    assert "right side: 0 of 2 solves differ" in out


def test_history_and_scalar_fields_are_named(tmp_path, capsys):
    def tweak(key, x, rep):
        if key == "tiny/none/solve-bicgstab-00":
            rep.residual_history[-1] = np.nextafter(rep.residual_history[-1], 1.0)
            rep.final_rel_residual = np.nextafter(rep.final_rel_residual, 1.0)
            rep.matvecs += 1
        return x

    assert compare(tmp_path, tiny_solves(), tiny_solves(tweak)) == 1
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("DIFFERS"))
    assert line.startswith("DIFFERS tiny/none/solve-bicgstab-00: matvecs ")
    assert ", final_rel_residual " in line and line.endswith(", residual_history")


def test_a_missing_solve_fails(tmp_path, capsys):
    second = tiny_solves()
    del second["tiny/M/solve-gmres-00"]
    assert compare(tmp_path, tiny_solves(), second) == 1
    out = capsys.readouterr().out
    assert "MISSING tiny/M/solve-gmres-00: only in" in out
    assert "right side: 1 of 2 solves differ" in out


def test_rtol_mode_skips_the_solves(tmp_path, capsys):
    row = [0.0, 0, 1.0, 0.0, 0, 0, 1.0, 1.0, 0.0, 0.0]
    first = {**identity_build(row), **tiny_solves()}
    second = identity_build(row)  # every solve missing
    assert compare(tmp_path, first, second, rtol=1e-12) == 0
    assert "0 of 1 builds differ in some bit" in capsys.readouterr().out
    assert compare(tmp_path, first, second) == 1


# upper bidiagonal: column 0 is exact on {0} and runs no drop step, the
# others grow and drop
BIDIAGONAL = SparseMatrix.from_dense(np.diag([2.0, 3.0, 4.0, 5.0, 6.0]) + np.eye(5, k=1))


def as_record_objects(records) -> list:
    """``records`` in the shape builds had before the record table: one object
    per column, None for the tolerances of a column with no drop step, and a
    ``met_accuracy`` flag that is not compared."""
    return [types.SimpleNamespace(
        **{f: None if f.startswith("tol_") and np.isnan(r[f]) else r[f].item()
           for f in records.dtype.names}, met_accuracy=True) for r in records]


@pytest.mark.parametrize("build", [
    lambda A: build_preconditioner(A, SaiParams(epsilon=0.05, l_max=4)),
    lambda A: postfilter(A, static_build(A, make_pattern(A, "iplusa", 2)), floor=0.1),
], ids=["adaptive", "postfiltered"])
def test_a_record_table_and_record_objects_store_the_same_bytes(build):
    # ``run --src`` of an older tree reads record objects, and of this one a
    # table; ``compare`` needs both to store the same bytes
    records = build(BIDIAGONAL).records
    rows = compare_builds._record_array(records)
    assert rows.shape == (5, len(compare_builds.RECORD_FIELDS))
    assert rows.tobytes() == compare_builds._record_array(as_record_objects(records)).tobytes()
    tol = rows[:, compare_builds.RECORD_FIELDS.index("tol_min")]
    assert not np.isnan(tol).all()
