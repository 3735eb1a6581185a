import pytest

from helpers import load_tool

bench_pairs = load_tool("bench_pairs")


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


def _pair(workload, trace, values, other="change"):
    """A pair as `main` records it, with every end-to-end metric of each
    side set to that side's value."""
    names = [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]]
    pair = {"workload": workload, "seed": 21, "trace": trace}
    for side, value in zip(("parent", other), values):
        metrics = {name: {"value": value} for name in names}
        pair[side] = {"result": {"metrics": metrics}}
    return pair


def test_the_a_a_pairs_are_summarized_beside_each_metric_and_apart_from_it():
    pairs = []
    for workload in bench_pairs.WORKLOADS:
        pairs += [_pair(workload, 0, (10.0, 5.0)) for _ in range(4)]
        pairs += [_pair(workload, 0, values, "parent_again")
                  for values in ((10.0, 9.0), (10.0, 10.0), (10.0, 12.0))]
        pairs.append(_pair(workload, 1, (10.0, 100.0)))
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == bench_pairs.WORKLOADS
    for metrics in summary.values():
        assert metrics.keys() == {m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]}
        for metric in metrics.values():
            # the real pairs alone, the traced one left out
            assert metric["pairs"] == 4
            assert metric["change_over_parent_ratio_median"] == 0.5
            assert metric["change_over_parent_ratio_quartile_distance"] == 0
            # the A/A pairs alone: ratios 0.9, 1.0 and 1.2, quartiles 0.9 and 1.2
            assert metric["a_a_pairs"] == 3
            assert metric["a_a_ratio_median"] == 1.0
            assert metric["a_a_ratio_quartile_distance"] == 0.3


def test_three_a_a_pairs_per_workload_run_among_its_real_pairs():
    plan = bench_pairs.schedule()
    for workload in bench_pairs.WORKLOADS:
        untraced = [(seed, other) for w, seed, trace, other in plan
                    if w == workload and trace == 0]
        assert [seed for seed, other in untraced if other == "change"] == list(bench_pairs.SEEDS)
        a_a = [k for k, (_, other) in enumerate(untraced) if other == "parent_again"]
        assert len(a_a) == 3
        # each right after the real pair of its seed, none first or last
        assert all(untraced[k][0] == untraced[k - 1][0] for k in a_a)
        assert 0 < a_a[0] and a_a[-1] < len(untraced) - 1
