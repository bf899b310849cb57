import os
import subprocess
import sys
import textwrap

import pytest

from ads3d import lanes

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_script(script: str, timeout: float = 120) -> str:
    """stdout of `script` in a fresh interpreter that imports ads3d from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          timeout=timeout, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestPlan:
    def test_work_within_the_budget_is_one_block(self):
        assert lanes.plan(10, 8, 80) == [(0, 10)]
        assert lanes.plan(0, 8, 80) == []

    def test_larger_work_splits_the_budget_across_lanes(self):
        blocks = lanes.plan(10, 8, 79)
        assert blocks == [(0, 4), (4, 8), (8, 10)]   # 79 // (2 * 8) = 4 items
        assert lanes.plan(3, 100, 150) == [(0, 1), (1, 2), (2, 3)]   # at least one


class TestRun:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_results_in_block_order(self, monkeypatch, cpus):
        monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
        blocks = lanes.plan(11, 1, 4)
        assert lanes.count(blocks) == min(cpus, 2)
        assert lanes.run(lambda lo, hi: list(range(lo, hi)), blocks) == \
            [list(range(lo, hi)) for lo, hi in blocks]

    def test_one_block_runs_on_the_calling_thread(self, monkeypatch):
        import threading
        monkeypatch.setattr(lanes, "_cpus", lambda: 2)
        assert lanes.run(lambda lo, hi: threading.get_ident(), [(0, 5)]) == \
            [threading.get_ident()]

    def test_serial_runs_inline(self, monkeypatch):
        monkeypatch.setattr(lanes, "_cpus", lambda: 2)
        monkeypatch.setattr(lanes, "serial", True)
        assert lanes.count(lanes.plan(8, 1, 2)) == 1


def test_run_inside_a_lane_runs_inline():
    # Both pool threads are busy with the outer lanes; an inner run that
    # waited for the pool would never return.
    out = run_script("""
        import threading
        from ads3d import lanes
        lanes._cpus = lambda: 2
        gate = threading.Barrier(2, timeout=30)

        def outer(lo, hi):
            gate.wait()                    # both lanes are running
            widths = lanes.count(lanes.plan(4, 1, 2))
            inner = lanes.run(lambda a, b: (a, b, threading.get_ident()),
                              lanes.plan(4, 1, 2))
            assert {t for _, _, t in inner} == {threading.get_ident()}
            return widths, [(a, b) for a, b, _ in inner]

        assert lanes.run(outer, [(0, 1), (1, 2)]) == [(1, [(0, 1), (1, 2), (2, 3), (3, 4)])] * 2
        print("ok")
    """, timeout=60)
    assert out == "ok"


def test_import_and_warm_up_sized_calls_start_no_thread():
    out = run_script("""
        import sys, threading
        import ads3d.cli
        assert threading.active_count() == 1, threading.enumerate()
        assert "scipy.signal" not in sys.modules
        import numpy as np
        from ads3d import dsp, lanes, nncore, stats, synthgen
        lanes._cpus = lambda: 2
        raw = synthgen.generate(synthgen.SynthConfig(n_trials_per_class=1,
                                                     epoch_seconds=2.0))
        assert raw.data.shape == (4, 64, 1001)
        pre, fs = dsp.preprocess_array(raw.data.astype(np.float64), raw.fs,
                                       epoch_length=300)   # 256 x 1001 rows
        stats.welch_psd(pre, fs)
        nncore.conv3d_valid(np.ones((2, 1, 3, 3, 16)), np.ones((2, 1, 2, 2, 4)), np.zeros(2))
        assert lanes._pool is None
        assert threading.active_count() == 1, threading.enumerate()
        print("ok")
    """)
    assert out == "ok"


def test_pool_survives_fork():
    # A forked child inherits the pool object but none of its threads:
    # a threaded convolution there must not wait for them forever.
    out = run_script("""
        import multiprocessing as mp
        import numpy as np
        from ads3d import adsnet, lanes, nncore, training
        from ads3d.montage import reduced_montage_4x4
        from ads3d.rng import RngStream

        def conv(_):
            return nncore.conv3d_valid(x, w, np.zeros(6))

        lanes._cpus = lambda: 2
        s = RngStream(26)
        x = s.normal((8, 4, 5, 5, 300))
        w = s.normal((6, 4, 3, 3, 10))
        here = conv(0)
        with mp.get_context("fork").Pool(1) as pool:
            there = pool.map(conv, [0])[0]
        assert np.array_equal(here, there)

        data = RngStream(29).normal((24, 16, 64))
        labels = np.arange(24) % 4
        kwargs = dict(k=2, hyper=training.Hyper(epochs=1, batch_size=8), seed=7)
        runs = [training.cross_validate(adsnet.REDUCED_CONFIG, data, labels,
                                        reduced_montage_4x4(), jobs=jobs, **kwargs)
                for jobs in (2, 1)]
        assert [r.eval_loss for r in runs[0].reports] == \\
            [r.eval_loss for r in runs[1].reports]
        print("ok")
    """)
    assert out == "ok"
