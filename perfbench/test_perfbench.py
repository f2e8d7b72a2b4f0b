"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

import json
import time
from pathlib import Path

import pytest

import hostspeed
import measure
import spans

HERE = Path(__file__).resolve().parent


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (1, None), (19, None), (20, 500), (99, 500), (100, 900),
        (999, 900), (1000, 990), (9999, 990), (10000, 999),
    ])
    def test_tail_keeps_ten_samples_beyond(self, n, expected):
        assert measure.tail_permille(n) == expected

    def test_every_reported_tail_has_ten_beyond(self):
        for n in range(1, 3000):
            q = measure.tail_permille(n)
            if q is not None:
                assert measure.samples_beyond(n, q) >= measure.MIN_BEYOND

    def test_p90_of_100_is_the_90th_value(self):
        values = list(range(100, 0, -1))
        assert measure.tail_percentile(values, 900) == 90
        assert sum(v > 90 for v in values) == 10

    def test_p90_refused_below_100_samples(self):
        with pytest.raises(ValueError, match="beyond"):
            measure.tail_percentile(list(range(99)), 900)

    def test_median_rank(self):
        assert measure.percentile([3, 1, 2], 500) == 2
        assert measure.percentile([5], 900) == 5


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSelfTime:
    def test_nested_spans_subtract_children(self):
        rec = spans.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
        a = rec.open("a")
        b = rec.open("b")
        c = rec.open("c")
        rec.close(c)
        rec.close(b)
        d = rec.open("d")
        rec.close(d)
        rec.close(a)
        assert rec.parents == [-1, 0, 1, 0]
        assert rec.self_times() == [5, 2, 1, 2]
        assert rec.self_time_by_name() == {"a": 5, "b": 2, "c": 1, "d": 2}

    def test_same_name_nested_sums_to_outer_duration(self):
        rec = spans.Recorder(clock=FakeClock([0, 2, 5, 9]))
        outer = rec.open("interp.compile")
        inner = rec.open("interp.compile")
        rec.close(inner)
        rec.close(outer)
        assert rec.self_time_by_name() == {"interp.compile": 9}

    def test_wrap_records_span_even_when_call_raises(self):
        rec = spans.Recorder(clock=FakeClock([0, 1]))

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            rec.wrap(boom, "boom")()
        assert rec.durations("boom") == [1]
        assert rec._stack == []

    def test_covered_length_merges_overlaps_and_clips(self):
        assert measure.covered_length(0, 10, [(1, 4), (3, 6), (8, 12)]) == 7
        assert measure.covered_length(0, 10, []) == 0
        assert measure.covered_length(5, 6, [(0, 1)]) == 0


class TestFailureAccounting:
    def test_every_check_attempted_and_mismatches_failed(self):
        tally = measure.Tally()
        for i in range(8):
            tally.check(i % 4 != 0, f"case {i}")
        assert (tally.attempted, tally.failed) == (8, 2)
        assert tally.failed_frac == 0.25
        assert tally.failures == ["case 0", "case 4"]

    def test_messages_capped_counts_not(self):
        tally = measure.Tally()
        for i in range(25):
            tally.check(False, str(i))
        tally.merge(5, 1, ["late"])
        assert (tally.attempted, tally.failed) == (30, 26)
        assert len(tally.failures) == measure.Tally.KEEP

    def test_empty_tally_has_no_failures(self):
        assert measure.Tally().failed_frac == 0.0

    def test_count_mismatches_names_each_key(self):
        a = {"exectree.blocks": 1674, "leakage.classes": 1}
        b = {"exectree.blocks": 1675, "leakage.classes": 1}
        assert measure.count_mismatches(a, b) == ["exectree.blocks: 1674 != 1675"]
        assert measure.count_mismatches(a, dict(a)) == []


class TestHostSpeed:
    def test_time_after_a_slice_scales_by_that_slice(self):
        # init at 0; a 1.6 ms slice; 1 s later now(); a 0.4 ms slice at 2.0016;
        # 1 s later now()
        clock = FakeClock([0, 0, 0.0016, 1.0016, 2.0016, 2.0020, 3.0020])
        speed = hostspeed.HostSpeed(clock=clock)
        assert speed.slices == 1
        assert speed.now() == pytest.approx(1.0 * hostspeed.REF_SLICE_S / 0.0016)
        speed.sample()
        # the slice itself is left out of the reference time
        assert speed.now() == pytest.approx(1.0 + 1.0 * hostspeed.REF_SLICE_S / 0.0004)
        assert speed.slice_s == pytest.approx(0.001)

    def test_collector_time_is_counted_as_measured(self):
        # a slice that sets the scale to 0.5, then a collection from 1.0016
        # to 1.5016, then now() at 2.5016
        clock = FakeClock([0, 0, 0.0016, 1.0016, 1.5016, 2.5016])
        speed = hostspeed.HostSpeed(clock=clock)
        speed._on_gc("start", {})
        speed._on_gc("stop", {})
        assert speed.now() == pytest.approx(0.5 + 0.5 + 0.5)

    def test_signal_during_a_slice_is_dropped(self):
        speed = hostspeed.HostSpeed(clock=FakeClock([0, 0, 0.001]))
        speed._busy = True
        speed.sample()  # would exhaust the fake clock if it ran
        assert speed.slices == 1

    def test_timer_runs_slices_and_clock_advances(self):
        speed = hostspeed.HostSpeed()
        speed.start(interval_s=0.002)
        try:
            readings = [speed.now()]
            deadline = time.thread_time() + 0.05
            while time.thread_time() < deadline:
                readings.append(speed.now())
        finally:
            speed.stop()
        assert speed.slices > 1
        assert readings == sorted(readings) and readings[-1] > readings[0]

    def test_kernel_is_fixed_work(self):
        assert hostspeed.kernel_slice() == hostspeed.kernel_slice() == 3200


def test_spread_is_iqr_over_median():
    assert measure.relative_spread([1.0] * 10) == 0.0
    values = [10, 10, 10, 11, 11, 11, 12, 12, 12, 12]
    q1, q2, q3 = measure.quartiles(values)
    assert measure.relative_spread(values) == (q3 - q1) / q2


def test_layer_map_covers_exactly_the_per_layer_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert sorted(layer_map) == sorted(names)
    metrics = {m["name"] for m in bench["end_to_end"]} | set(names)
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in layer_map.values():
        assert entry["what"]
        for metric, on in entry["moves"].items():
            assert metric in metrics
            assert on and set(on) <= workloads
