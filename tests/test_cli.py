import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ads3d import cli, eegio
from ads3d.adsnet import FULL_CONFIG, REDUCED_CONFIG, AdsNet
from ads3d.montage import default_montage, reduced_montage_4x4
from ads3d.rng import RngStream


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


def test_print_config_resolves_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 3\ntrials_per_class = 9   # comment\n")
    monkeypatch.setenv("ADS3D_SEED", "5")
    code = run(["synth", "--config", str(cfg), "--print-config",
                "out=x.ads3", "trials_per_class=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed = 5" in out            # env beats file
    assert "trials_per_class = 2" in out  # flag beats everything
    monkeypatch.delenv("ADS3D_SEED")
    run(["synth", "--config", str(cfg), "--print-config", "out=x.ads3"])
    out = capsys.readouterr().out
    assert "seed = 3" in out            # file value


def test_unknown_key_rejected(capsys):
    code = run(["synth", "out=x.ads3", "bogus=1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: config:")
    assert "bogus" in err


def test_missing_required_key(capsys):
    code = run(["synth"])
    err = capsys.readouterr().err
    assert code == 1 and "requires key 'out'" in err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = run(["preprocess", f"in={tmp_path}/nope.ads3",
                f"out={tmp_path}/o.ads3"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: io:")


def test_bad_magic_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.ads3"
    bad.write_bytes(b"XXXX" + b"\0" * 64)
    code = run(["preprocess", f"in={bad}", f"out={tmp_path}/o.ads3"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: format:")


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.ads3", tmp_path / "b.ads3"
    for path in (a, b):
        assert run(["synth", f"out={path}", "seed=7",
                    "trials_per_class=3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.ads3.config.txt").exists()


def test_synth_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a.ads3", tmp_path / "b.ads3"
    run(["synth", f"out={a}", "seed=7", "trials_per_class=3"])
    run(["synth", f"out={b}", "seed=8", "trials_per_class=3"])
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.slow
def test_full_smoke_chain(tmp_path, capsys):
    raw = tmp_path / "raw.ads3"
    pre = tmp_path / "pre.ads3"
    train_dir = tmp_path / "run"
    assert run(["synth", f"out={raw}", "seed=11", "trials_per_class=10",
                "effect_scale=2.5"]) == 0
    assert run(["preprocess", f"in={raw}", f"out={pre}"]) == 0
    loaded = eegio.read_epochset(pre)
    assert loaded.n_samples == 1001 and loaded.fs == 250.0

    assert run(["train", f"in={pre}", f"out_dir={train_dir}", "reduced=true",
                "epochs=20", "folds=5", "seed=1", "lr=0.002"]) == 0
    files = sorted(os.listdir(train_dir))
    assert "summary.txt" in files and "run_config.txt" in files
    for fold in range(5):
        assert f"fold{fold}.log" in files and f"fold{fold}.ckpt" in files

    metrics = tmp_path / "metrics.txt"
    assert run(["eval", f"in={pre}", f"checkpoint={train_dir}/fold0.ckpt",
                f"out={metrics}"]) == 0
    text = metrics.read_text()
    assert text.startswith("loss ") and "accuracy" in text

    assert run(["stats", f"in={pre}", f"out_prefix={tmp_path}/alpha",
                "class_a=split+spread_out+fall_in", "class_b=hovering",
                "band=alpha"]) == 0
    for suffix in ("_t.csv", "_mask.csv", "_t.pgm", "_report.txt",
                   "_anova.txt"):
        assert (tmp_path / f"alpha{suffix}").exists(), suffix
    err = capsys.readouterr().err
    assert "significant channels" in err


def test_train_zero_lr_keeps_initial_accuracy(tmp_path):
    raw = tmp_path / "raw.ads3"
    pre = tmp_path / "pre.ads3"
    out = tmp_path / "run"
    run(["synth", f"out={raw}", "seed=3", "trials_per_class=5"])
    run(["preprocess", f"in={raw}", f"out={pre}"])
    assert run(["train", f"in={pre}", f"out_dir={out}", "reduced=true",
                "epochs=2", "folds=2", "lr=0.0", "weight_decay=0.0"]) == 0
    log = (out / "fold0.log").read_text().strip().splitlines()
    rows = [line.split() for line in log if not line.startswith("#")]
    accs = {row[3] for row in rows}
    assert len(accs) <= 2   # batchnorm stats settle; weights never move


def test_stats_custom_band_and_eval_errors(tmp_path, capsys):
    code = run(["stats", f"in={tmp_path}/x.ads3", "out_prefix=p",
                "class_a=split", "class_b=hovering", "band=whatever"])
    err = capsys.readouterr().err
    assert code == 1 and "unknown band" in err


def test_help_lists_known_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in ("epochs", "lr", "weight_decay", "reduced", "jobs", "folds"):
        assert key in out


def test_outputs_follow_the_umask(tmp_path):
    raw = tmp_path / "raw.ads3"
    old = os.umask(0o022)
    try:
        assert run(["synth", f"out={raw}", "seed=2", "trials_per_class=3"]) == 0
        assert run(["stats", f"in={raw}", f"out_prefix={tmp_path}/s",
                    "class_a=split", "class_b=hovering", "band=alpha"]) == 0
    finally:
        os.umask(old)
    names = sorted(os.listdir(tmp_path))
    assert len(names) == 8, names   # .ads3, 4 topomap files, anova, 2 configs
    for name in names:
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644, name


def test_eval_rejects_mismatched_checkpoint(tmp_path, capsys):
    epochs = eegio.EpochSet(
        data=RngStream(1).normal((4, 64, 300)).astype(np.float32),
        labels=np.arange(4, dtype=np.uint8), fs=250.0,
        channel_names=default_montage().channel_names)
    eegio.write_epochset(epochs, tmp_path / "e.ads3")
    ckpt = AdsNet(REDUCED_CONFIG, reduced_montage_4x4()).to_checkpoint(
        {"model": "reduced", "input_scale": "1.0"})
    transposed = [(n, d[::-1] if n == "head.w" else d, v) for n, d, v in ckpt.entries]
    extra = ckpt.entries + [("bogus", (1,), np.zeros(1, dtype=np.float32))]
    for entries, name in ((transposed, "head.w"), (extra, "bogus")):
        path = tmp_path / f"{name}.ckpt"
        eegio.write_checkpoint(eegio.ModelCheckpoint(entries, ckpt.metadata), path)
        code = run(["eval", f"in={tmp_path}/e.ads3", f"checkpoint={path}",
                    f"out={tmp_path}/m.txt"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: runtime:") and name in err[0]


def test_eval_error_line_has_no_added_quotes(tmp_path, capsys):
    epochs = eegio.EpochSet(
        data=RngStream(2).normal((4, 64, 300)).astype(np.float32),
        labels=np.arange(4, dtype=np.uint8), fs=250.0,
        channel_names=default_montage().channel_names)
    eegio.write_epochset(epochs, tmp_path / "e.ads3")
    ckpt = AdsNet(REDUCED_CONFIG, reduced_montage_4x4()).to_checkpoint(
        {"model": "reduced", "input_scale": "1.0"})
    entries = [e for e in ckpt.entries if e[0] != "attn.wq"]
    eegio.write_checkpoint(eegio.ModelCheckpoint(entries, ckpt.metadata),
                           tmp_path / "m.ckpt")
    code = run(["eval", f"in={tmp_path}/e.ads3", f"checkpoint={tmp_path}/m.ckpt",
                f"out={tmp_path}/m.txt"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: runtime: missing state entries: ['attn.wq']\n"


def test_import_leaves_scipy_signal_unloaded():
    code = "import sys, ads3d.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_preprocess_peak_memory_is_bounded(tmp_path):
    # 32 trials x 64 channels x 4001 samples at 1000 Hz: the raw file is
    # 32.8 MB. A whole-corpus float64 chain traced about 15x that.
    import scipy.signal  # noqa: F401  (its import is not part of the bound)
    raw = tmp_path / "raw.ads3"
    assert run(["synth", f"out={raw}", "seed=4", "trials_per_class=8",
                "fs=1000"]) == 0
    tracemalloc.start()
    try:
        assert run(["preprocess", f"in={raw}", f"out={tmp_path}/pre.ads3"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * raw.stat().st_size, peak / raw.stat().st_size


def _montage_file(path, swap=None):
    """The packaged map as a montage file, with two cells' names swapped."""
    names = list(default_montage().channel_names)
    if swap:
        i, j = swap
        names[i], names[j] = names[j], names[i]
    path.write_text("".join(f"{k // 8} {k % 8} {n}\n" for k, n in enumerate(names)))
    return path


def _reduced_corpus(tmp_path, seed=3):
    data = RngStream(seed).normal((8, 64, 300)).astype(np.float32)
    eegio.write_epochset(eegio.EpochSet(data=data, labels=np.arange(8) % 4, fs=250.0,
                                        channel_names=default_montage().channel_names),
                         tmp_path / "e.ads3")
    return tmp_path / "e.ads3"


def test_reduced_runs_refuse_a_montage(tmp_path, capsys):
    pre = _reduced_corpus(tmp_path)
    montage = _montage_file(tmp_path / "m.txt")
    code = run(["train", f"in={pre}", f"out_dir={tmp_path}/run", "reduced=true",
                "folds=2", "epochs=1", f"montage={montage}"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: config: montage=")
    assert not (tmp_path / "run").exists()
    ckpt = AdsNet(REDUCED_CONFIG, reduced_montage_4x4()).to_checkpoint(
        {"model": "reduced", "input_scale": "1.0"})
    eegio.write_checkpoint(ckpt, tmp_path / "r.ckpt")
    code = run(["eval", f"in={pre}", f"checkpoint={tmp_path}/r.ckpt",
                f"out={tmp_path}/m.txt.out", f"montage={montage}"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: config: montage=")


def test_checkpoints_record_their_montage(tmp_path, capsys):
    pre = _reduced_corpus(tmp_path)
    assert run(["train", f"in={pre}", f"out_dir={tmp_path}/run", "reduced=true",
                "folds=2", "epochs=1"]) == 0
    meta = eegio.read_checkpoint(tmp_path / "run" / "fold0.ckpt").metadata
    assert list(meta)[-1] == "montage"
    assert meta["montage"].split() == list(reduced_montage_4x4().channel_names)

    # A full-size checkpoint evaluated under another map is refused, unless
    # it predates the entry.
    names = default_montage().channel_names
    assert not names[1].lower().endswith("z") and not names[2].lower().endswith("z")
    swapped = _montage_file(tmp_path / "swapped.txt", swap=(1, 2))
    full = np.zeros((4, 64, 1001), dtype=np.float32)
    full[:] = RngStream(5).normal((4, 1, 1001))
    eegio.write_epochset(eegio.EpochSet(data=full, labels=np.arange(4), fs=250.0,
                                        channel_names=names), tmp_path / "f.ads3")
    model = AdsNet(FULL_CONFIG, default_montage(), seed=1)
    meta = {"model": "full", "input_scale": "1.0", "montage": " ".join(names)}
    eegio.write_checkpoint(model.to_checkpoint(meta), tmp_path / "f.ckpt")
    meta.pop("montage")
    eegio.write_checkpoint(model.to_checkpoint(meta), tmp_path / "old.ckpt")
    capsys.readouterr()
    for ckpt, montage, code in (("f", "", 0), ("f", swapped, 1), ("old", swapped, 0),
                                ("f", _montage_file(tmp_path / "same.txt"), 0)):
        argv = ["eval", f"in={tmp_path}/f.ads3", f"checkpoint={tmp_path}/{ckpt}.ckpt",
                f"out={tmp_path}/out.txt", f"montage={montage}"]
        assert run(argv) == code, (ckpt, montage)
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error: config: checkpoint")


def test_zero_epochs_stores_the_initial_weights(tmp_path, monkeypatch):
    from ads3d import training
    pre = _reduced_corpus(tmp_path)
    sizes = []
    evaluate = training.evaluate

    def spy(model, data, labels, indices=None, batch_size=40):
        sizes.append(batch_size)
        return evaluate(model, data, labels, indices, batch_size)

    monkeypatch.setattr(training, "evaluate", spy)
    assert run(["train", f"in={pre}", f"out_dir={tmp_path}/run", "reduced=true",
                "folds=2", "epochs=0", "batch_size=8", "seed=5"]) == 0
    assert sizes == [8, 8]
    for fold in (0, 1):
        log = (tmp_path / "run" / f"fold{fold}.log").read_text()
        assert log == "# epoch train_loss eval_loss eval_acc\n# best_epoch 0\n"
    state = AdsNet(REDUCED_CONFIG, reduced_montage_4x4(), seed=5).state_arrays()
    entries = eegio.read_checkpoint(tmp_path / "run" / "fold0.ckpt").entries
    assert [name for name, _, _ in entries] == list(state)
    for name, dims, values in entries:
        assert dims == state[name].shape
        assert np.array_equal(values, state[name].astype(np.float32).ravel()), name


@pytest.mark.parametrize("key", ["batch_size=-5", "batch_size=0", "epochs=-1", "lr=nan",
                                 "lr=inf", "weight_decay=-inf", "jobs=0", "jobs=-2"])
def test_out_of_range_training_keys_fail_cleanly(tmp_path, capsys, key):
    pre = _reduced_corpus(tmp_path)
    code = run(["train", f"in={pre}", f"out_dir={tmp_path}/run", "reduced=true",
                "folds=2", "epochs=1", key])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith(f"error: runtime: {key}: need ")
    assert not (tmp_path / "run").exists()


def test_non_finite_eval_loss_names_its_fold(tmp_path, capsys):
    pre = _reduced_corpus(tmp_path)
    with np.errstate(all="ignore"):
        code = run(["train", f"in={pre}", f"out_dir={tmp_path}/run", "reduced=true",
                    "folds=2", "epochs=1", "lr=1e300"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: runtime: fold 0 epoch 1: eval loss=")
    assert not (tmp_path / "run").exists()
