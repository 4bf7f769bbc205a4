import pytest

from saiprec._parallel import _MIN_PARALLEL_COLUMNS, _openblas_functions, map_columns


def _blas_threads(k):
    return [get() for get in _openblas_functions("get_num_threads")]


def test_pool_workers_run_blas_single_threaded():
    if not _openblas_functions("get_num_threads"):
        pytest.skip("no OpenBLAS loaded in this process")
    results = map_columns(_blas_threads, (), _MIN_PARALLEL_COLUMNS, 2)
    assert results[0] and all(threads == [1] * len(results[0]) for threads in results)


def test_in_process_map_holds_blas_at_one_thread_then_restores():
    getters = _openblas_functions("get_num_threads")
    if not getters:
        pytest.skip("no OpenBLAS loaded in this process")
    setters = _openblas_functions("set_num_threads")
    before = [get() for get in getters]
    for set_threads in setters:
        set_threads(2)  # a count the call must change and give back
    try:
        results = map_columns(_blas_threads, (), 3, 1)
        after = [get() for get in getters]
    finally:
        for set_threads, count in zip(setters, before):
            set_threads(count)
    assert all(threads == [1] * len(getters) for threads in results)
    assert after == [2] * len(getters)
