"""Property test of the one drop pass that the adaptive kernel and the static
postfilter share, ``psai._drop_mask``, against the per-column scalar drop
step the adaptive kernel once ran on each solution by itself."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saiprec.psai import _drop_mask

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# few magnitudes, so that entries tie at a column's maximum and equal the
# thresholds drawn from the same set
MAGNITUDES = [0.0, 1e-300, 0.25, 0.5, 1.0, 2.0]


def scalar_drop(solution: np.ndarray, threshold: float):
    """The reference: drop |m_j| <= threshold; a column that would lose every
    entry keeps its largest (the first of equal ones) and is flagged. An
    empty column keeps nothing and is not flagged."""
    small = np.abs(solution) <= threshold
    guard = bool(solution.size) and bool(small.all())
    if guard:
        small[int(np.argmax(np.abs(solution)))] = False
    return ~small, guard


def test_drop_mask_matches_the_scalar_column_step():
    seen = set()

    @SETTINGS
    @given(data=st.data())
    def check(data):
        value = st.builds(lambda m, sign: sign * m, st.sampled_from(MAGNITUDES),
                          st.sampled_from([1.0, -1.0]))
        columns = data.draw(st.lists(st.lists(value, max_size=5), max_size=6))
        per_column = data.draw(st.booleans())
        if per_column:
            threshold = np.array(data.draw(st.lists(st.sampled_from(MAGNITUDES),
                                                    min_size=len(columns),
                                                    max_size=len(columns))))
        else:
            threshold = data.draw(st.sampled_from(MAGNITUDES))
        counts = np.array([len(c) for c in columns], dtype=np.int64)
        values = np.array([v for c in columns for v in c], dtype=np.float64)

        keep, guard = _drop_mask(values, counts, threshold)

        thresholds = np.broadcast_to(threshold, counts.shape)
        expected = [scalar_drop(np.array(c, dtype=np.float64), t)
                    for c, t in zip(columns, thresholds.tolist())]
        assert keep.dtype == bool and keep.shape == values.shape
        assert keep.tolist() == [kept for mask, _ in expected for kept in mask.tolist()]
        assert guard.tolist() == [flag for _, flag in expected]

        magnitudes = [np.abs(c) for c in columns]
        seen.update({
            "empty column": any(len(c) == 0 for c in columns),
            "tie at a guarded maximum": any(
                flag and np.count_nonzero(m == m.max()) > 1
                for m, (_, flag) in zip(magnitudes, expected)),
            "entry equal to its threshold": any(
                (m == t).any() for m, t in zip(magnitudes, thresholds.tolist())),
            "per-column thresholds": per_column,
            "one threshold": not per_column,
        }.items())

    check()
    assert all((case, True) in seen for case in (
        "empty column", "tie at a guarded maximum", "entry equal to its threshold",
        "per-column thresholds", "one threshold"))
