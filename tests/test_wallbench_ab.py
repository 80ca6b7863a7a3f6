"""The A/B wall-clock runner's pairing and summary arithmetic."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "wallbench_ab.py")
_SPEC = importlib.util.spec_from_file_location("wallbench_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

_METRICS = [{"name": "adapt_per_s", "better": "higher", "bound": 0.25},
            {"name": "peak_mem_mb", "better": "lower", "bound": 0.15}]


def _run(adapt_per_s, peak_mem_mb=None, correct=True, failed=0):
    metrics = {"adapt_per_s": {"value": adapt_per_s, "unit": "1/s"}}
    if peak_mem_mb is not None:
        metrics["peak_mem_mb"] = {"value": peak_mem_mb, "unit": "MB"}
    return {"correct": correct, "failed": failed, "metrics": metrics}


def test_run_order_alternates_which_side_goes_first():
    assert [ab.run_order(i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]
    assert all(sorted(ab.run_order(i)) == sorted(ab.SIDES) for i in range(4))


def test_quartiles_of_one_and_many():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_in_the_better_direction():
    pairs = [{"parent": _run(10 + i, 60), "change": _run(20 + i, 40 + i)}
             for i in range(5)]
    pairs[0]["change"] = _run(9, 70)   # one lost pair on both metrics
    rows = {row["metric"]: row for row in ab.summarize(pairs, _METRICS)}
    assert rows["adapt_per_s"]["wins"] == 4
    assert rows["adapt_per_s"]["pairs"] == 5
    assert rows["adapt_per_s"]["ratio"] == pytest.approx(22 / 12)
    assert rows["adapt_per_s"]["beyond_parent_iqr"]
    assert rows["peak_mem_mb"]["wins"] == 4
    assert rows["peak_mem_mb"]["beyond_parent_iqr"]


def test_median_inside_parent_iqr_is_not_beyond_it():
    pairs = [{"parent": _run(v), "change": _run(v + 0.5)} for v in (10, 11, 12, 13, 14)]
    row = ab.summarize(pairs, _METRICS[:1])[0]
    assert row["wins"] == 5
    assert not row["beyond_parent_iqr"]


def test_summary_skips_pairs_missing_a_metric():
    pairs = [{"parent": _run(10), "change": _run(12)}]
    rows = {row["metric"]: row for row in ab.summarize(pairs, _METRICS)}
    assert rows["peak_mem_mb"]["pairs"] == 0
    assert rows["adapt_per_s"]["wins"] == 1


def test_correctness_needs_correct_and_zero_failed_on_every_run():
    good = [{"parent": _run(1), "change": _run(2)}]
    assert ab.all_correct(good, "change")
    assert not ab.all_correct(good + [{"parent": _run(1), "change": _run(2, failed=1)}],
                              "change")
    assert not ab.all_correct([{"parent": _run(1, correct=False), "change": _run(2)}],
                              "parent")
    assert "every run correct with 0 failed: yes" in ab.render(
        "cold-adapt", [1], ab.summarize(good, _METRICS), good)
