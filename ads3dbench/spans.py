"""In-memory span tracing around calls into the ads3d modules.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the top). Spans are kept in a list while the run lasts and written out once
at its end. A span's self time is its duration minus the part of its
interval that its direct children cover.

``instrument`` wraps the public functions and layer methods of ``ads3d`` by
replacing module and class attributes from here, so the program itself
carries no tracing code; ``restore`` undoes it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from types import SimpleNamespace

_clock = time.perf_counter


class Tracer:
    """Span recorder with named counters; single-threaded."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.hook_s = 0.0        # time spent in count callbacks
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str, counts=None):
        """fn traced as span ``name``; counts(args, kwargs, result) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counts is not None:
                t0 = _clock()
                counts(self, args, kwargs, result)
                self.hook_s += _clock() - t0
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Per-span self time: duration minus the union of direct children."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def self_time_totals(spans) -> dict:
    """Self time summed per span name."""
    totals = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] += own
    return dict(totals)


def _per_call(fn, samples: int) -> float:
    """Median over five timings of `samples` calls of fn, per call."""
    runs = []
    for _ in range(5):
        t0 = _clock()
        for _ in range(samples):
            fn()
        runs.append((_clock() - t0) / samples)
    return sorted(runs)[len(runs) // 2]


def interception_costs(samples: int = 20000) -> dict:
    """Seconds each kind of interception adds to one call, measured here.

    ``span``: a wrapped call over a bare one. ``lookup``: an attribute read
    through the counting FFT proxy over a direct read. ``rfft``: a proxied
    rfft call, with its counter updates, over a direct call. Count
    callbacks are timed where they run (``Tracer.hook_s``)."""
    tracer = Tracer()
    out = memoryview(bytes(64))
    fft = SimpleNamespace(rfft=lambda: out, irfft=lambda: out)
    proxy = _CountingFFT(fft, tracer)

    def bare():
        return None

    traced = tracer.wrap(bare, "probe")
    pairs = {
        "span": (traced, bare),
        "lookup": (lambda: proxy.irfft, lambda: fft.irfft),
        "rfft": (proxy.rfft, fft.rfft),
    }
    costs = {}
    for kind, (slow, fast) in pairs.items():
        costs[kind] = max(0.0, _per_call(slow, samples) - _per_call(fast, samples))
        tracer.spans.clear()
    return costs


# -- instrumentation of ads3d ---------------------------------------------------

def _rng_values(tracer, args, kwargs, result):
    tracer.count("rng.draw.values", result.size)


def _filtfilt_counts(tracer, args, kwargs, result):
    tracer.count("dsp.filtfilt.calls")
    tracer.count("dsp.filtfilt.samples", result.size)


def _calls(name: str):
    return lambda tracer, args, kwargs, result: tracer.count(name)


def _bytes_written(tracer, args, kwargs, result):
    tracer.count("eegio.bytes_written", os.path.getsize(args[1]))


class _CountingFFT:
    """Stand-in for nncore's ``scipy.fft`` binding that counts rfft work."""

    def __init__(self, fft_module, tracer):
        self._fft = fft_module
        self._tracer = tracer

    def rfft(self, *args, **kwargs):
        out = self._fft.rfft(*args, **kwargs)
        self._tracer.count("nncore.conv3d.rfft_calls")
        self._tracer.count("nncore.conv3d.rfft_mib", out.nbytes / 2.0**20)
        return out

    def __getattr__(self, name):
        self._tracer.count("trace.fft_lookups")
        return getattr(self._fft, name)


def instrument(tracer: Tracer):
    """Install spans on ads3d; returns a function that removes them."""
    from ads3d import adsnet, attention, dsp, eegio, nncore, rng, stats, synthgen, training

    targets = [
        (synthgen, "generate", "synthgen.generate", None),
        (synthgen, "mix64", "rng.draw", _rng_values),
        (rng.RngStream, "u64", "rng.draw", _rng_values),
        (dsp, "filtfilt", "dsp.filtfilt", _filtfilt_counts),
        (eegio, "read_epochset", "eegio.read_epochset", None),
        (eegio, "write_epochset", "eegio.write_epochset", _bytes_written),
        (eegio, "read_checkpoint", "eegio.read_checkpoint", None),
        (eegio, "write_checkpoint", "eegio.write_checkpoint", _bytes_written),
        (stats, "welch_psd", "stats.welch_psd", _calls("stats.welch_psd.calls")),
        (stats, "contrast_topography", "stats.contrast_topography", None),
        (stats, "class_channel_anova", "stats.class_channel_anova", None),
        (stats, "export_topomap", "stats.export_topomap", None),
        (training, "adamw_step", "training.adamw_step",
         _calls("training.adamw_step.calls")),
        (training, "evaluate", "training.evaluate", None),
        (training, "train_one_fold", "training.train_one_fold", None),
        (training, "prepare_reduced_inputs", "training.prepare_reduced_inputs", None),
        (adsnet.AdsNet, "forward", "adsnet.forward", None),
        (adsnet.AdsNet, "loss_and_grads", "adsnet.loss_and_grads", None),
        (attention.ChannelAttention, "forward", "attention.forward", None),
        (attention.ChannelAttention, "backward", "attention.backward", None),
        (nncore.Dropout, "forward", "nncore.dropout.forward", None),
    ]
    for cls, label in ((nncore.Conv3d, "conv3d"), (nncore.AvgPool3d, "pool"),
                       (nncore.MaxPool3d, "pool"), (nncore.BatchNorm, "batchnorm"),
                       (nncore.Elu, "elu"), (nncore.Dense, "dense")):
        for method in ("forward", "backward"):
            targets.append((cls, method, f"nncore.{label}.{method}", None))

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    saved.append((nncore, "sfft", nncore.sfft))
    for owner, attr, name, counts in targets:
        setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name, counts))
    nncore.sfft = _CountingFFT(nncore.sfft, tracer)

    def restore():
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore
