import os

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


def _block_and_pid(ks):
    return list(ks), os.getpid()


def test_pool_counts_columns_and_returns_blocks_in_order():
    # 130 columns in blocks of 64: three blocks, fewer than the pool's
    # column threshold, yet the pool runs them because the threshold counts
    # columns
    n = 130
    assert n >= _MIN_PARALLEL_COLUMNS
    pooled = map_columns(_block_and_pid, (), n, 2, 64)
    in_process = map_columns(_block_and_pid, (), n, 1, 64)
    expected = [list(range(0, 64)), list(range(64, 128)), list(range(128, n))]
    assert [ks for ks, _ in pooled] == [ks for ks, _ in in_process] == expected
    assert all(pid != os.getpid() for _, pid in pooled)
    assert all(pid == os.getpid() for _, pid in in_process)
