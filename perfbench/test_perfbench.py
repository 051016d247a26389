"""The benchmark's own arithmetic: tail choice, self time, ratio bases.

    python3 -m pytest perfbench -q
"""
import statistics

import pytest

from perfbench import run
from perfbench.compare import verdict
from perfbench.runner import Runner
from perfbench.stats import beyond, covered, latency_summary, percentile, quartiles, tail_percentile
from perfbench.tracing import Tracer


# ------------------------------------------------------------ tail choice ---


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, 50.0),  # no rung has 10 beyond: fall back to the median
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (90_000, 99.0),  # the ladder stops at p99
    ],
)
def test_tail_is_highest_rung_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if n >= 20:
        assert beyond(expected, n) >= 10


def test_nearest_rank_percentile_returns_a_sample():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values, 99) == 99.0
    assert percentile([7.0], 99) == 7.0


def test_latency_summary_reports_its_basis():
    summary = latency_summary([i / 1000 for i in range(100, 0, -1)])  # 1..100 ms, unsorted
    assert summary["samples"] == 100
    assert summary["p50_ms"] == pytest.approx(50.0)
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["tail_beyond"] == 10


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


# -------------------------------------------------------------- self time ---


def test_covered_is_union_clipped_to_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0  # overlap counted once
    assert covered([(2.0, 5.0), (1.0, 3.0)], 0.0, 10.0) == 4.0  # order does not matter
    assert covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == 3.0  # nested child
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0  # clipped at both ends


def test_self_time_is_span_minus_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        ["op.x", None, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["a", 0, 2.0, 5.0],
        ["b", 0, 7.0, 8.0],
        ["c", 3, 7.25, 7.75],  # grandchild: counts against b, not op.x
    ]
    totals = tracer.aggregate()
    assert totals["op.x"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert totals["a"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}
    assert totals["b"]["self_s"] == 0.5
    assert totals["c"]["self_s"] == 0.5


def test_wrapped_calls_nest_under_the_open_op():
    tracer = Tracer()
    inner = tracer.wrap("layer.inner", lambda x: x + 1)
    outer = tracer.wrap("layer.outer", lambda x: inner(x) * 2)
    tracer.open("op.test")
    assert outer(1) == 4
    tracer.close()
    names = [(name, parent) for name, parent, _start, _end in tracer.spans]
    assert names == [("op.test", None), ("layer.outer", 0), ("layer.inner", 1)]
    assert all(start <= end for _name, _parent, start, end in tracer.spans)


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("layer.boom", boom)()
    assert tracer.spans[0][3] is not None
    assert tracer._stack == []


# ------------------------------------------------------------ ratio bases ---


def test_items_per_s_is_items_over_busy_time():
    runner = Runner()
    runner.items, runner.busy_s = 300, 1.5
    assert runner.items_per_s == 200.0
    assert Runner().items_per_s == 0.0


def test_failed_op_counts_as_attempted_not_as_items():
    runner = Runner()
    assert runner.op("ok", 5, lambda: "done") == "done"
    assert runner.op("bad", 5, lambda: 1 / 0) is None
    assert runner.attempted == 2
    assert runner.items == 5
    assert runner.failed == {1}


def test_compare_ratio_is_new_over_old():
    ratio, word = verdict([10.0, 10.0, 10.0], [12.0, 12.0, 12.0], "lower", 0.25)
    assert ratio == pytest.approx(1.2)
    assert word == "within bound"
    assert verdict([10.0] * 3, [13.0] * 3, "lower", 0.25)[1] == "worse"
    assert verdict([10.0] * 3, [7.0] * 3, "higher", 0.25)[1] == "worse"
    assert verdict([10.0] * 3, [13.0] * 3, "higher", 0.25)[1] == "within bound"


def test_compare_is_unresolved_when_a_side_spreads_past_the_bound():
    noisy = [5.0, 10.0, 15.0, 10.0]
    assert verdict(noisy, [10.0] * 4, "lower", 0.25)[1] == "unresolved"
    assert verdict([10.0] * 4, noisy, "lower", 0.25)[1] == "unresolved"


def test_layer_ratios_use_the_stated_bases():
    traced, untraced = Runner(), Runner()
    traced.items, traced.busy_s = 90, 1.0
    untraced.items, untraced.busy_s = 100, 1.0
    traced.counters.update({
        "training.epochs": 1000,
        "training.train_runs": 4,
        "training.target_hits": 1,
        "training.evaluate_accuracy.samples": 500,
        "training.prune.before": 72,
        "training.prune.after": 36,
    })
    spans = {
        "training.train": {"calls": 4, "busy_s": 0.5, "self_s": 0.5},
        "training.evaluate_accuracy": {"calls": 2, "busy_s": 0.01, "self_s": 0.01},
        "cli.infer": {"calls": 4, "busy_s": 0.8, "self_s": 0.8},
    }
    m = run.layer_metrics(spans, traced, untraced, interpreter=[0.02] * 3, imports=[0.2] * 3)
    assert m["trace.overhead_ratio"] == pytest.approx(0.9)  # traced over untraced items/s
    assert m["training.epoch_us"] == pytest.approx(500.0)  # train busy over epochs
    assert m["training.target_hit_ratio"] == 0.25  # hits over train runs
    assert m["training.evaluate_accuracy.us_per_sample"] == pytest.approx(20.0)
    assert m["training.pruned_fraction"] == 0.5  # removed over synapses before prune
    assert m["cli.infer.ms"] == pytest.approx(200.0)
    assert m["cli.import_ms"] == pytest.approx(180.0)  # import minus bare interpreter
    assert m["cli.validate.ms"] == 0.0  # not run: zero, not missing
