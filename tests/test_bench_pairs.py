"""tools/bench_pairs.py: the per-metric statistics and the claim rule it
writes for alternated parent/change runs."""

import importlib.util

import pytest

from conftest import REPO_ROOT

spec = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"build_s": "lower", "w.build_s": "lower", "w.krylov.apply_m_gflops": "higher"}


def runs(before, after, name="w.build_s"):
    def side(value):
        return {"result": {"correct": True, "attempted": 2, "failed": 0,
                           "metrics": {name: {"value": value, "unit": "s"}}}, "exit_code": 0, "wall_s": 1.0}
    return [{"pair": i, "parent": side(b), "change": side(a)}
            for i, (b, a) in enumerate(zip(before, after))]


def test_claim_holds_when_nine_tenths_won_and_gap_beats_parent_iqr():
    before = [4.0, 4.2, 4.4, 4.1, 4.3, 4.0, 4.2, 4.4, 4.1, 4.3]
    after = [3.0] * 9 + [4.5]
    got = bench_pairs.summarize(runs(before, after), BETTER)["w.build_s"]
    assert (got["change_wins"], got["parent_wins"]) == (9, 1)
    assert got["median_before"] == pytest.approx(4.2) and got["median_after"] == 3.0
    assert got["iqr_before"] == pytest.approx(0.2)
    assert got["claim_holds"] and got["gain_exceeds_parent_iqr"]


def test_claim_fails_on_too_few_wins_or_a_gap_inside_the_iqr():
    before = [4.0, 5.0, 4.0, 5.0, 4.0, 5.0, 4.0, 5.0, 4.0, 5.0]
    after = [3.0] * 8 + [6.0, 6.0]  # 8 of 10 won
    assert not bench_pairs.summarize(runs(before, after), BETTER)["w.build_s"]["claim_holds"]
    after = [x - 0.1 for x in before]  # every pair won, gap 0.1 inside an IQR of 1.0
    got = bench_pairs.summarize(runs(before, after), BETTER)["w.build_s"]
    assert got["change_wins"] == 10 and not got["claim_holds"]


def test_higher_is_better_metrics_and_ties():
    name = "w.krylov.apply_m_gflops"
    got = bench_pairs.summarize(runs([1.0, 1.0, 2.0], [2.0, 1.0, 1.0], name), BETTER)[name]
    assert (got["change_wins"], got["parent_wins"]) == (1, 1)


def test_directions_cover_workload_prefixes():
    better = bench_pairs.better_direction(
        {"workloads": [{"name": "w"}], "end_to_end": [{"name": "build_s", "better": "lower"}],
         "per_layer": [{"name": "krylov.apply_m_gflops", "better": "higher"}]})
    assert better == {"build_s": "lower", "krylov.apply_m_gflops": "higher",
                      "w.build_s": "lower", "w.krylov.apply_m_gflops": "higher"}


def test_a_run_without_result_counts_as_a_failed_operation():
    pairs = runs([1.0], [1.0])
    pairs[0]["change"]["result"] = None
    assert bench_pairs.operations(pairs)["change"] == {"attempted": 1, "failed": 1,
                                                       "runs_not_correct": 1}
    assert bench_pairs.summarize(pairs, BETTER) == {}


def test_metric_on_one_side_only_is_named_missing():
    pairs = runs([4.0, 4.1], [3.0, 3.1])
    pairs[1]["parent"]["result"]["metrics"]["w.core.column_calls"] = {"value": 9.0, "unit": "count"}
    pairs[0]["change"]["result"]["metrics"]["w.lsq.total_calls"] = {"value": 5.0, "unit": "count"}
    pairs[1]["parent"]["result"]["metrics"]["w.psai.self_s"] = {"value": None, "unit": "s"}
    assert bench_pairs.missing(pairs) == {"parent": ["w.lsq.total_calls"],
                                          "change": ["w.core.column_calls"]}
    assert sorted(bench_pairs.summarize(pairs, BETTER)) == ["w.build_s"]
    assert bench_pairs.missing(runs([1.0], [1.0])) == {"parent": [], "change": []}


def test_verdict_against_the_bound():
    bounds = {"w.build_s": 0.25}
    before = [4.0, 4.1, 4.2, 4.3, 4.4]

    def got(after, before=before):
        return bench_pairs.summarize(runs(before, after), BETTER, bounds)["w.build_s"]["verdict"]

    assert got([4.3, 4.9, 5.0, 5.1, 3.9]) == "within_bound"  # median 4.9, within 25 % of 4.2
    assert got([5.3, 5.4, 5.5, 5.6, 5.7]) == "worse"  # median 5.5, above 1.25 * 4.2
    wide = [2.0, 3.0, 4.0, 6.0, 8.0]  # IQR 3.0, above a quarter of the median 4.0
    assert got([5.3, 5.4, 5.5, 5.6, 5.7], wide) == "unresolved"
    assert got([1.0, 1.5, 1.2, 1.1, 1.9], wide) == "within_bound"  # every change run wins
    assert "verdict" not in bench_pairs.summarize(runs(before, before), BETTER)["w.build_s"]


def test_higher_is_better_verdict():
    name, bounds = "w.krylov.apply_m_gflops", {"w.krylov.apply_m_gflops": 0.1}
    before = [10.0, 10.1, 10.2, 10.3, 10.4]
    got = bench_pairs.summarize(runs(before, [8.0] * 5, name), BETTER, bounds)[name]["verdict"]
    assert got == "worse"


def test_bounds_cover_workload_prefixes():
    bounds = bench_pairs.end_to_end_bounds(
        {"workloads": [{"name": "w"}], "end_to_end": [{"name": "build_s", "bound": 0.25}],
         "per_layer": [{"name": "lsq.total_s"}]})
    assert bounds == {"build_s": 0.25, "w.build_s": 0.25}
