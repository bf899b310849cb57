"""The library calls the benchmark (ads3dbench/) makes outside the command
line: its warm-up, and the output checks that build models, convolve, and
prepare training inputs through cli._prepare_training_inputs. Each runs
here on a small corpus and must pass."""

import os
import sys

import pytest

from ads3d import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "ads3dbench")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _train_run(workdir, trials_per_class, reduced):
    raw, pre = workdir / "raw.ads3", workdir / "pre.ads3"
    assert cli.main(["synth", f"out={raw}", f"trials_per_class={trials_per_class}",
                     "seed=1"]) == 0
    assert cli.main(["preprocess", f"in={raw}", f"out={pre}"]) == 0
    assert cli.main(["train", f"in={pre}", f"out_dir={workdir / 'run'}",
                     f"reduced={str(reduced).lower()}", "folds=2", "epochs=1",
                     "seed=1"]) == 0


def test_warm_up_runs():
    run._warm_up()


def test_reduced_cv_checks_pass(tmp_path):
    w = WORKLOADS["reduced_cv"]
    _train_run(tmp_path, 3, w.reduced)
    assert checks.check_gradients(w, 1) == []
    assert checks.check_first_convs(w, 1) == []
    assert checks.check_batch_split(w, str(tmp_path), 1) == []


def test_full_train_checks_pass(tmp_path):
    w = WORKLOADS["full_train"]
    assert checks.check_first_convs(w, 1) == []
    _train_run(tmp_path, 2, w.reduced)
    assert checks.check_batch_split(w, str(tmp_path), 1) == []
