"""tools/compare_solves.py: compare lists every solve that differs in any bit
of its scalar fields, its iterate or its residual history, counts each side
apart, and exits 1 when one differs or is missing."""

import numpy as np

from conftest import load_tool
from saiprec.core import SparseMatrix
from saiprec.krylov import SolveParams, solve

compare_solves = load_tool("compare_solves")

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
            key = f"tiny/{label}/{method}/00"
            if tweak is not None:
                x = tweak(key, x, rep)
            compare_solves.record(arrays, key, x, rep)
    return arrays


def compare(tmp_path, first: dict, second: dict) -> int:
    np.savez_compressed(tmp_path / "a.npz", **first)
    np.savez_compressed(tmp_path / "b.npz", **second)
    return compare_solves.cmd_compare(tmp_path / "a.npz", tmp_path / "b.npz")


def test_identical_runs_pass(tmp_path, capsys):
    assert compare(tmp_path, tiny_solves(), tiny_solves()) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{side} side: 0 of 2 solves differ" for side in ("left", "none", "right")]


def test_one_bit_of_an_iterate_differs(tmp_path, capsys):
    def tweak(key, x, rep):
        if key == "tiny/M-left/gmres/00":
            x = x.copy()
            x[1] = np.nextafter(x[1], np.inf)
        return x

    assert compare(tmp_path, tiny_solves(), tiny_solves(tweak)) == 1
    out = capsys.readouterr().out
    assert "DIFFERS tiny/M-left/gmres/00: iterate\n" in out
    assert "left side: 1 of 2 solves differ" in out
    assert "right side: 0 of 2 solves differ" in out


def test_history_and_scalar_fields_are_named(tmp_path, capsys):
    def tweak(key, x, rep):
        if key == "tiny/none/bicgstab/00":
            rep.residual_history[-1] = np.nextafter(rep.residual_history[-1], 1.0)
            rep.final_rel_residual = np.nextafter(rep.final_rel_residual, 1.0)
            rep.matvecs += 1
        return x

    assert compare(tmp_path, tiny_solves(), tiny_solves(tweak)) == 1
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("DIFFERS"))
    assert line.startswith("DIFFERS tiny/none/bicgstab/00: matvecs ")
    assert ", final_rel_residual " in line and line.endswith(", residual_history")


def test_a_missing_solve_fails(tmp_path, capsys):
    second = tiny_solves()
    del second["tiny/M/gmres/00"]
    assert compare(tmp_path, tiny_solves(), second) == 1
    out = capsys.readouterr().out
    assert "MISSING tiny/M/gmres/00: only in" in out
    assert "right side: 1 of 2 solves differ" in out
