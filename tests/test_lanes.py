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
        import threading
        monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
        blocks = lanes.plan(11, 1, 4)
        out = lanes.run(lambda lo, hi: (list(range(lo, hi)), threading.get_ident()), blocks)
        assert [r for r, _ in out] == [list(range(lo, hi)) for lo, hi in blocks]
        threads = [t for _, t in out]
        if cpus == 1:
            assert set(threads) == {threading.get_ident()}
        else:
            # lane j runs blocks j, j + 2, ... on one pool thread
            assert threading.get_ident() not in threads
            assert len(set(threads[0::2])) == len(set(threads[1::2])) == 1

    def test_an_error_waits_for_every_lane(self, monkeypatch):
        import time
        monkeypatch.setattr(lanes, "_cpus", lambda: 2)
        finished = []

        def block(lo, hi):
            if lo == 0:
                raise ValueError("block 0")
            time.sleep(0.2)
            finished.append(lo)

        with pytest.raises(ValueError, match="block 0"):
            lanes.run(block, [(0, 1), (1, 2)])
        assert finished == [1]

    def test_one_block_runs_on_the_calling_thread(self, monkeypatch):
        import threading
        monkeypatch.setattr(lanes, "_cpus", lambda: 2)
        assert lanes.run(lambda lo, hi: threading.get_ident(), [(0, 5)]) == \
            [threading.get_ident()]


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
            inner = lanes.run(lambda a, b: (a, b, threading.get_ident()),
                              lanes.plan(4, 1, 2))
            assert {t for _, _, t in inner} == {threading.get_ident()}
            return threading.get_ident(), [(a, b) for a, b, _ in inner]

        out = lanes.run(outer, [(0, 1), (1, 2)])
        assert [blocks for _, blocks in out] == [[(0, 1), (1, 2), (2, 3), (3, 4)]] * 2
        threads = {t for t, _ in out}
        assert len(threads) == 2 and threading.get_ident() not in threads
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

        # Folds run on the same lanes: no process pool, no more threads.
        from ads3d import adsnet, training
        from ads3d.montage import reduced_montage_4x4
        from ads3d.rng import RngStream
        training.cross_validate(adsnet.REDUCED_CONFIG, RngStream(29).normal((24, 16, 64)),
                                np.arange(24) % 4, reduced_montage_4x4(), k=2,
                                hyper=training.Hyper(epochs=1, batch_size=8), jobs=2)
        assert lanes._pool is not None
        assert "concurrent.futures.process" not in sys.modules
        assert "multiprocessing" not in sys.modules
        import multiprocessing
        assert multiprocessing.active_children() == []
        assert threading.active_count() <= lanes.LANES + 1, threading.enumerate()
        print("ok")
    """)
    assert out == "ok"


def test_reduced_eval_batch_is_one_block_on_the_calling_thread():
    out = run_script("""
        import threading
        from ads3d import adsnet, lanes
        from ads3d.montage import reduced_montage_4x4
        from ads3d.rng import RngStream
        lanes._cpus = lambda: 2
        model = adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4())
        assert model.forward(RngStream(30).normal((40, 16, 64))).shape == (40, 4)
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
        from ads3d import lanes, nncore
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
        print("ok")
    """)
    assert out == "ok"
