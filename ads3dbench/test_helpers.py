"""Tests of the benchmark's own helpers.

    python3 -m pytest ads3dbench/test_helpers.py
"""

import json
import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402
from workloads import STEPS, WORKLOADS, step_commands, step_trials  # noqa: E402


# -- self time ------------------------------------------------------------------

def test_self_time_nested_and_adjacent_children():
    # root [0, 10] has adjacent children b [1, 3] and c [3, 6]; d [4, 5] is
    # nested in c; e [7, 9] is another "b" span under the root.
    trace = [
        ["root", 0.0, 10.0, -1],
        ["b", 1.0, 3.0, 0],
        ["c", 3.0, 6.0, 0],
        ["d", 4.0, 5.0, 2],
        ["b", 7.0, 9.0, 0],
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 2.0, 1.0, 2.0]
    assert spans.self_time_totals(trace) == {"root": 3.0, "b": 4.0, "c": 2.0, "d": 1.0}


def test_self_time_counts_overlapping_children_once():
    trace = [["p", 0.0, 10.0, -1], ["x", 2.0, 6.0, 0], ["y", 4.0, 8.0, 0],
             ["z", 9.0, 12.0, 0]]
    # children cover [2, 8] and [9, 10] of the parent: 7 of its 10 seconds
    assert spans.self_times(trace)[0] == pytest.approx(3.0)


class FakeClock:
    """Each read costs `tick` seconds; work advances time explicitly."""

    def __init__(self, tick):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        t = self.now
        self.now += self.tick
        return t

    def work(self, seconds):
        self.now += seconds


def test_traced_total_matches_untraced_within_overhead(monkeypatch):
    clock = FakeClock(tick=1e-6)
    monkeypatch.setattr(spans, "_clock", clock)

    def leaf():
        clock.work(0.002)
        return 1

    def middle():
        clock.work(0.001)
        return sum(leaf() for _ in range(3))

    def workload(mid, lf):
        clock.work(0.004)
        return sum(mid() for _ in range(5))

    untraced_start = clock.now
    untraced_result = workload(middle, leaf)
    untraced = clock.now - untraced_start

    tracer = spans.Tracer()
    traced_leaf = tracer.wrap(leaf, "leaf")

    def traced_middle_body():
        clock.work(0.001)
        return sum(traced_leaf() for _ in range(3))

    traced_middle = tracer.wrap(traced_middle_body, "middle")
    traced_root = tracer.wrap(lambda: workload(traced_middle, traced_leaf), "root")
    assert traced_root() == untraced_result == 15

    root = tracer.spans[0]
    traced = root[2] - root[1]
    overhead = len(tracer.spans) * 2 * clock.tick     # two clock reads per span
    assert untraced <= traced <= untraced + overhead
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(traced, abs=1e-12)


def test_interception_costs_are_small_and_not_negative():
    costs = spans.interception_costs(samples=2000)
    assert set(costs) == {"span", "lookup", "rfft"}
    assert all(0.0 <= cost < 1e-4 for cost in costs.values())


# -- instrumentation --------------------------------------------------------------

def test_instrument_records_calls_and_restores_originals():
    from ads3d import dsp, nncore
    original = dsp.filtfilt, nncore.Conv3d.forward, nncore.sfft
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        x = np.random.default_rng(0).standard_normal((2, 300))
        dsp.filtfilt(dsp.design_butter_bandpass(4.0, 40.0, 250.0), x)
        conv = nncore.Conv3d(np.ones((1, 1, 1, 1, 3)), np.zeros(1))
        conv.forward(np.ones((2, 1, 1, 1, 8)))
    finally:
        restore()
    assert (dsp.filtfilt, nncore.Conv3d.forward, nncore.sfft) == original
    names = [s[0] for s in tracer.spans]
    assert names == ["dsp.filtfilt", "nncore.conv3d.forward"]
    assert tracer.counters["dsp.filtfilt.calls"] == 1
    assert tracer.counters["dsp.filtfilt.samples"] == 600
    assert tracer.counters["nncore.conv3d.rfft_calls"] == 2   # kernel and input
    # next_fast_len and irfft go through the proxy's attribute lookup
    assert tracer.counters["trace.fft_lookups"] == 2
    assert tracer.hook_s > 0.0


def test_per_layer_reports_one_round_of_identical_rounds():
    tracer = spans.Tracer()
    for start in (0.0, 10.0):                      # two identical rounds
        tracer.spans.append(["dsp.filtfilt", start, start + 3.0, -1])
        tracer.count("dsp.filtfilt.calls", 2)
        tracer.count("nncore.conv3d.rfft_calls", 3)
        tracer.count("trace.fft_lookups", 5)
    tracer.hook_s = 2e-6
    costs = {"span": 1e-6, "lookup": 1e-7, "rfft": 1e-8}
    metrics = run.per_layer(tracer, costs, rounds=2)
    assert metrics["dsp.filtfilt.self_s"] == (3.0, "s")
    assert metrics["dsp.filtfilt.calls"] == (2.0, "count")
    assert metrics["nncore.conv3d.rfft_calls"] == (3.0, "count")
    # per round: 1 span, 5 lookups, 3 rfft calls and half the callback time
    assert metrics["trace.overhead_s"] == (pytest.approx(1e-6 + 5e-7 + 3e-8 + 1e-6), "s")


# -- result lines ---------------------------------------------------------------

def test_last_json_line_takes_the_final_object():
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}})
    result = spread.last_json_line("log line\n{\"not\": \"it\"}\n" + line + "\n\n")
    assert result["attempted"] == 3
    assert result["metrics"]["setup_s"] == {"value": 1.25, "unit": "s"}


@pytest.mark.parametrize("text", [
    "",
    '{"correct": true, "attempted": 1, "failed": 0}',
    '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": "x", "unit": "s"}}}',
])
def test_last_json_line_rejects_malformed_results(text):
    with pytest.raises(ValueError):
        spread.last_json_line(text)


def test_summarize_uses_statistics_quartiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    results = [{"metrics": {"m": {"value": v, "unit": "s"}}} for v in values]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread.summarize(results)["m"] == (med, q1, q3, (q3 - q1) / med)
    assert spread.seed_range("3-5") == [3, 4, 5]
    with pytest.raises(ValueError):
        spread.seed_range("7")              # quartiles need two values


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    w = WORKLOADS["reduced_cv"]
    e2e = run.end_to_end(w, {s: [1.0] for s in STEPS}, 1.0, 1.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    layer = run.per_layer(spans.Tracer(), {"span": 1e-6, "lookup": 0.0, "rfft": 0.0}, 1)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    for table, printed in (("end_to_end", e2e), ("per_layer", layer)):
        for m in bench[table]:
            assert m["unit"] == printed[m["name"]][1]


# -- workloads and checks ----------------------------------------------------------

def test_every_command_carries_the_seed_and_one_job():
    for w in WORKLOADS.values():
        commands = step_commands(w, 42)
        assert set(commands) == set(STEPS)
        for argv in (a for step in commands.values() for a in step):
            assert "seed=42" in argv
        assert "jobs=1" in commands["train"][0]
        assert step_trials(w)["train"] == (w.folds - 1) * w.n_trials * w.epochs


def test_own_reader_round_trips_the_program_writer(tmp_path):
    from ads3d import eegio
    data = np.arange(2 * 3 * 5, dtype=np.float32).reshape(2, 3, 5)
    eegio.write_epochset(eegio.EpochSet(data, np.array([1, 3]), 250.0, ("A", "Bb", "Ccc")),
                         tmp_path / "x.ads3")
    got = checks.read_ads3(tmp_path / "x.ads3")
    assert np.array_equal(got.data, data)
    assert got.labels.tolist() == [1, 3] and got.fs == 250.0
    assert got.names == ("A", "Bb", "Ccc")


def test_expected_power_ratio_passes_alpha_and_rejects_line_noise():
    ratio = checks.expected_power_ratio(np.array([10.0, 60.0]), 500.0)
    assert ratio[0] == pytest.approx(1.0, abs=1e-3)
    assert ratio[1] < 1e-6
