import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_the_change_is_compared_within_each_pair():
    # Four seeds of very different sizes. The change halves the time of
    # the two large ones and doubles that of the two small ones: the
    # ratio of the medians (15 / 55) says it is over three times faster,
    # the per-pair ratios say that it is not.
    parent = [1.0, 10.0, 100.0, 1000.0]
    change = [2.0, 20.0, 10.0, 100.0]
    summary = bench_pairs.compare(parent, change, "lower")
    assert summary["parent_median"] / summary["change_median"] == pytest.approx(55 / 15)
    assert summary["change_over_parent_ratio_median"] == 1.05
    assert summary["change_over_parent_ratio_quartile_distance"] == 1.9
    assert summary["change_better_pairs"] == 2
    assert summary["pairs"] == 4
    assert "change_over_parent_median" not in summary


def test_better_follows_the_metric_direction():
    parent = [4.0, 5.0, 6.0]
    change = [5.0, 5.0, 7.0]
    assert bench_pairs.compare(parent, change, "higher")["change_better_pairs"] == 2
    assert bench_pairs.compare(parent, change, "lower")["change_better_pairs"] == 0
