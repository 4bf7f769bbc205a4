import pytest

from saiprec._parallel import _MIN_PARALLEL_COLUMNS, _openblas_functions, map_columns


def _blas_threads(k):
    return [get() for get in _openblas_functions("get_num_threads")]


def test_pool_workers_run_blas_single_threaded():
    if not _openblas_functions("get_num_threads"):
        pytest.skip("no OpenBLAS loaded in this process")
    results = map_columns(_blas_threads, (), _MIN_PARALLEL_COLUMNS, 2)
    assert results[0] and all(threads == [1] * len(results[0]) for threads in results)
