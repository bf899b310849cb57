"""Benchmark of the ads3d command line, run in-process.

    python3 ads3dbench/run.py --workload reduced_cv --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: ads3d is imported from ``src/`` of
the checkout that holds this file, never from an installed copy. The run
repeats whole rounds of the workload's ``ads3d`` commands (see
workloads.py) through ``ads3d.cli.main`` for about ``--seconds`` seconds,
then checks the outputs (checks.py) and prints one JSON line: end-to-end
metrics with ``--trace 0``, per-layer metrics from spans (spans.py) with
``--trace 1``. Work files go to ``ads3dbench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

def process_age() -> float:
    """Seconds since this process started (10 ms resolution on Linux)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_ads3d():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ads3d", "__init__.py")):
        raise SystemExit(f"error: no ads3d sources under {src}")
    # One BLAS thread: a second one does not speed up the full model (see
    # README) and would compete with the kernel work every step causes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ADS3D_SEED", None)
    sys.path.insert(0, src)
    import ads3d.cli
    if not os.path.abspath(ads3d.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"error: ads3d imported from {ads3d.cli.__file__}")
    return ads3d.cli


def _warm_up():
    """First calls of the library paths every workload uses, on tiny inputs."""
    import numpy as np
    from ads3d import dsp, nncore, stats, synthgen
    from ads3d.montage import default_montage
    default_montage()
    cfg = synthgen.SynthConfig(n_trials_per_class=1, epoch_seconds=2.0)
    raw = synthgen.generate(cfg)
    pre, fs = dsp.preprocess_array(raw.data.astype(np.float64), raw.fs,
                                   epoch_length=300)
    stats.welch_psd(pre, fs)
    x = np.ones((2, 1, 3, 3, 16))
    nncore.conv3d_valid(x, np.ones((2, 1, 2, 2, 4)), np.zeros(2))


class Runner:
    """Runs ads3d commands, counting those attempted and those that failed."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def command(self, argv) -> None:
        self.attempted += 1
        err = io.StringIO()
        span = self.tracer.begin(f"cli.{argv[0]}") if self.tracer else None
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except Exception:   # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=err)
            code = 1
        finally:
            if span is not None:
                self.tracer.end(span)
        if code != 0:
            self.failed += 1
            sys.stderr.write(f"failed: ads3d {' '.join(argv)}\n{err.getvalue()}")


def measure(runner, workload, seed: int, seconds: float):
    """Whole rounds while the next one is expected to end within `seconds`.

    Returns ({step: [seconds of each pass]}, rounds)."""
    from workloads import STEPS, step_commands
    commands = step_commands(workload, seed)
    passes = {step: [] for step in STEPS}
    start = time.perf_counter()
    rounds = 0
    while True:
        for step in workload.schedule:
            t0 = time.perf_counter()
            for argv in commands[step]:
                runner.command(argv)
            passes[step].append(time.perf_counter() - t0)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes, rounds


def end_to_end(workload, passes, setup_s, peak_rss_mib) -> dict:
    """Rates and pipeline time from the mean pass of each step."""
    from statistics import fmean

    from workloads import STEPS, step_trials
    trials = step_trials(workload)
    typical = {step: fmean(passes[step]) for step in STEPS}
    metrics = {"setup_s": (setup_s, "s")}
    for step in STEPS:
        metrics[f"{step}_trials_per_s"] = (trials[step] / typical[step], "trials/s")
    metrics["pipeline_s"] = (sum(typical.values()), "s")
    metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    return metrics


PER_LAYER_SPANS = (
    "nncore.conv3d.forward", "nncore.conv3d.backward",
    "nncore.pool.forward", "nncore.pool.backward",
    "nncore.batchnorm.forward", "nncore.batchnorm.backward",
    "nncore.elu.forward", "nncore.elu.backward",
    "nncore.dropout.forward", "nncore.dense.forward", "nncore.dense.backward",
    "attention.forward", "attention.backward",
    "adsnet.forward", "adsnet.loss_and_grads",
    "training.adamw_step", "training.evaluate", "training.train_one_fold",
    "training.prepare_reduced_inputs",
    "rng.draw", "synthgen.generate", "dsp.filtfilt",
    "stats.welch_psd", "stats.contrast_topography", "stats.class_channel_anova",
    "stats.export_topomap",
    "eegio.read_epochset", "eegio.write_epochset", "eegio.write_checkpoint",
    "eegio.read_checkpoint",
    "cli.synth", "cli.preprocess", "cli.train", "cli.eval", "cli.stats",
)
PER_LAYER_COUNTS = (
    ("nncore.conv3d.rfft_calls", "count"), ("nncore.conv3d.rfft_mib", "MiB"),
    ("training.adamw_step.calls", "count"), ("rng.draw.values", "count"),
    ("dsp.filtfilt.calls", "count"), ("dsp.filtfilt.samples", "count"),
    ("stats.welch_psd.calls", "count"), ("eegio.bytes_written", "bytes"),
)


def per_layer(tracer, costs: dict, rounds: int) -> dict:
    """Self times and counts summed over the run, per round.

    Rounds are identical, so every count is exact whatever the number of
    rounds that fitted into the run. ``trace.overhead_s`` adds up what each
    interception costs (``spans.interception_costs``) over the calls that
    went through it, plus the count callbacks as timed in the run."""
    from spans import self_time_totals
    totals = self_time_totals(tracer.spans)
    metrics = {f"{name}.self_s": (totals.get(name, 0.0) / rounds, "s")
               for name in PER_LAYER_SPANS}
    for name, unit in PER_LAYER_COUNTS:
        metrics[name] = (tracer.counters.get(name, 0) / rounds, unit)
    overhead = (len(tracer.spans) * costs["span"]
                + tracer.counters.get("trace.fft_lookups", 0) * costs["lookup"]
                + tracer.counters.get("nncore.conv3d.rfft_calls", 0) * costs["rfft"]
                + tracer.hook_s)
    metrics["trace.overhead_s"] = (overhead / rounds, "s")
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    args = _parse_args(argv)
    cli = _import_ads3d()
    import resource
    import shutil

    import checks
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(BENCH_DIR, "_work", workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)
    _warm_up()
    tracer = restore = None
    if args.trace:
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
    setup_s = process_age()

    runner = Runner(cli, tracer)
    passes, rounds = measure(runner, workload, args.seed, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if restore is not None:
        restore()
        tracer.write(os.path.join(BENCH_DIR, "_work", f"trace_{workload.name}.json"))

    t_checks = time.perf_counter()
    try:
        errors = checks.run_all(workload, args.seed, workdir)
    except Exception as exc:   # a check that cannot run is a failed check
        traceback.print_exc()
        errors = [f"checks raised {type(exc).__name__}: {exc}"]
    for message in errors:
        sys.stderr.write(f"check failed: {message}\n")
    sys.stderr.write(f"{workload.name}: {rounds} round(s), {runner.attempted} commands, "
                     f"checks {time.perf_counter() - t_checks:.1f} s\n")
    for step, times in passes.items():
        sys.stderr.write(f"  {step} passes (s): {' '.join(f'{t:.3f}' for t in times)}\n")
    # traced, this is the figure to hold against the untraced median
    pipeline_s = end_to_end(workload, passes, setup_s, peak_rss_mib)["pipeline_s"][0]
    sys.stderr.write(f"  pipeline_s {pipeline_s:.3f}{' (traced)' if args.trace else ''}\n")
    os.chdir(BENCH_DIR)
    shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(tracer, spans.interception_costs(), rounds)
    else:
        metrics = end_to_end(workload, passes, setup_s, peak_rss_mib)
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
