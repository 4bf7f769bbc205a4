"""tools/compare_builds.py: both compare modes name the fields of a quality
row or a check_nonsingular row that differ, and keep their exit status."""

import dataclasses

import numpy as np
import pytest

from conftest import load_tool
from saiprec.diagnostics import QualityReport

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
