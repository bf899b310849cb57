import numpy as np
import pytest

from ads3d import adsnet, eegio, training
from ads3d.montage import reduced_montage_4x4
from ads3d.rng import RngStream


def toy_params(value=1.0):
    return {"w": np.array([value])}


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        params = toy_params(3.7)
        opt = training.OptimState.for_params(params)
        hyper = training.Hyper(weight_decay=0.0)
        training.adamw_step(params, {"w": np.zeros(1)}, opt, hyper)
        assert params["w"][0] == 3.7

    def test_single_step_hand_oracle(self):
        params = toy_params(1.0)
        opt = training.OptimState.for_params(params)
        hyper = training.Hyper(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8,
                               weight_decay=0.01)
        training.adamw_step(params, {"w": np.ones(1)}, opt, hyper)
        want = 1.0 - 0.1 / (1.0 + 1e-8) - 0.001
        assert abs(params["w"][0] - want) < 1e-9
        assert abs(params["w"][0] - 0.89900) < 1e-5

    def test_decay_is_decoupled(self):
        # zero gradient: theta' = theta * (1 - lr*wd) exactly
        params = toy_params(2.0)
        opt = training.OptimState.for_params(params)
        hyper = training.Hyper(lr=0.1, weight_decay=0.05)
        training.adamw_step(params, {"w": np.zeros(1)}, opt, hyper)
        assert params["w"][0] == 2.0 * (1.0 - 0.1 * 0.05)

    def test_differs_from_l2_folded_into_gradient(self):
        # One step where vhat != 1 separates decoupled decay from L2.
        hyper = training.Hyper(lr=0.1, weight_decay=0.5)
        theta0, g = 2.0, 0.1
        params = toy_params(theta0)
        opt = training.OptimState.for_params(params)
        training.adamw_step(params, {"w": np.array([g])}, opt, hyper)
        decoupled = params["w"][0]

        params2 = toy_params(theta0)
        opt2 = training.OptimState.for_params(params2)
        l2_hyper = training.Hyper(lr=0.1, weight_decay=0.0)
        g_l2 = g + 0.5 * theta0
        training.adamw_step(params2, {"w": np.array([g_l2])}, opt2, l2_hyper)
        folded = params2["w"][0]
        assert abs(decoupled - folded) > 1e-3

    def test_nonfinite_gradient_aborts(self):
        params = toy_params()
        opt = training.OptimState.for_params(params)
        with pytest.raises(FloatingPointError, match="w"):
            training.adamw_step(params, {"w": np.array([np.nan])}, opt,
                                training.Hyper())

    def test_moments_track_shapes(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        opt = training.OptimState.for_params(params)
        assert opt.m["a"].shape == (2, 3) and opt.v["b"].shape == (4,)


class TestFolds:
    def test_stratified_200_trials(self):
        labels = np.repeat(np.arange(4), 50)
        plan = training.make_folds(labels, k=5, seed=0)
        for fold in plan.folds:
            assert fold.size == 40
            counts = np.bincount(labels[fold], minlength=4)
            assert np.array_equal(counts, [10, 10, 10, 10])
        combined = np.sort(np.concatenate(plan.folds))
        assert np.array_equal(combined, np.arange(200))

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="folds"):
            training.make_folds(np.repeat(np.arange(4), 10), k=1)

    def test_k_exceeding_class_count_rejected(self):
        with pytest.raises(ValueError, match="class count"):
            training.make_folds(np.repeat(np.arange(4), 3), k=4)

    def test_deterministic_per_seed(self):
        labels = np.repeat(np.arange(4), 25)
        a = training.make_folds(labels, 5, seed=3)
        b = training.make_folds(labels, 5, seed=3)
        c = training.make_folds(labels, 5, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))
        assert any(not np.array_equal(x, y) for x, y in zip(a.folds, c.folds))


class TestEvaluate:
    def _model(self):
        return adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4(), seed=0)

    def test_empty_indices_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="empty"):
            training.evaluate(model, np.zeros((4, 16, 64)), np.zeros(4, int),
                              indices=[])

    def test_accuracy_one_when_predictions_match(self):
        model = self._model()
        x = RngStream(0).normal((8, 16, 64))
        preds = np.argmax(model.forward(x), axis=1)
        loss, acc, conf = training.evaluate(model, x, preds)
        assert acc == 1.0
        assert np.trace(conf) == 8

    def test_random_labels_near_chance(self):
        model = self._model()
        x = RngStream(1).normal((120, 16, 64))
        labels = RngStream(2).integers(0, 4, 120)
        _, acc, conf = training.evaluate(model, x, labels)
        sigma = np.sqrt(0.25 * 0.75 / 120)
        assert abs(acc - 0.25) < 4 * sigma + 0.05
        assert conf.sum() == 120


def tiny_dataset(n_per=6, seed=0):
    """Linearly separable toy data matched to the reduced input shape."""
    stream = RngStream(seed)
    n = n_per * 4
    labels = np.repeat(np.arange(4), n_per)
    x = stream.normal((n, 16, 64)) * 0.1
    t = np.arange(64) / 64.0
    for i, lab in enumerate(labels):
        x[i, lab] += np.sin(2 * np.pi * (4 + 3 * lab) * t)
    return x, labels


class TestTrainOneFold:
    def test_zero_lr_keeps_parameters(self):
        x, labels = tiny_dataset()
        plan = training.make_folds(labels, k=2, seed=0)
        hyper = training.Hyper(lr=0.0, weight_decay=0.0, epochs=3, batch_size=8)
        report = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, plan,
                                         0, hyper, seed=0,
                                         montage=reduced_montage_4x4())
        # learnable parameters are untouched (batchnorm running stats are
        # state, not parameters, and still track the batches they see)
        fresh = adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4(), seed=0)
        for name, value in fresh.parameters().items():
            assert np.array_equal(report.best_state[name], value), name
        restored = adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4(), seed=0)
        restored.load_state(report.best_state)
        _, acc, _ = training.evaluate(restored, x, labels, plan.folds[0],
                                      batch_size=8)
        assert acc == report.best_eval_acc

    def test_best_loss_is_min_over_epochs(self):
        x, labels = tiny_dataset()
        plan = training.make_folds(labels, k=2, seed=0)
        hyper = training.Hyper(epochs=5, batch_size=8)
        report = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, plan,
                                         0, hyper, seed=1,
                                         montage=reduced_montage_4x4())
        assert report.best_eval_loss == min(report.eval_loss)
        assert report.eval_loss[report.best_epoch - 1] == report.best_eval_loss
        assert 0.0 <= report.best_eval_acc <= 1.0

    def test_bit_identical_reports_across_runs(self):
        x, labels = tiny_dataset()
        plan = training.make_folds(labels, k=2, seed=0)
        hyper = training.Hyper(epochs=4, batch_size=8)
        kwargs = dict(plan=plan, fold=1, hyper=hyper, seed=5,
                      montage=reduced_montage_4x4())
        a = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, **kwargs)
        b = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, **kwargs)
        assert a.train_loss == b.train_loss
        assert a.eval_loss == b.eval_loss
        assert all(np.array_equal(a.best_state[k], b.best_state[k])
                   for k in a.best_state)

    def test_checkpoint_restore_reproduces_best_loss(self, tmp_path):
        from ads3d import eegio
        x, labels = tiny_dataset(n_per=8, seed=3)
        plan = training.make_folds(labels, k=2, seed=0)
        hyper = training.Hyper(epochs=6, batch_size=8)
        report = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, plan,
                                         0, hyper, seed=2,
                                         montage=reduced_montage_4x4())
        model = adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4(), seed=2)
        model.load_state(report.best_state)
        ckpt = model.to_checkpoint({"best_eval_loss": repr(report.best_eval_loss)})
        path = tmp_path / "best.adsw"
        eegio.write_checkpoint(ckpt, path)

        restored = adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4(),
                                 seed=42)
        restored.load_checkpoint(eegio.read_checkpoint(path))
        loss, _, _ = training.evaluate(restored, x, labels, plan.folds[0],
                                       batch_size=8)
        assert abs(loss - report.best_eval_loss) < 1e-6

    def test_log_text_format(self):
        x, labels = tiny_dataset()
        plan = training.make_folds(labels, k=2, seed=0)
        hyper = training.Hyper(epochs=2, batch_size=8)
        report = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, plan,
                                         0, hyper, seed=0,
                                         montage=reduced_montage_4x4())
        lines = report.log_text().strip().splitlines()
        assert lines[0].startswith("#")
        fields = lines[1].split()
        assert int(fields[0]) == 1 and len(fields) == 4


class TestCrossValidate:
    def test_population_std_oracle(self):
        accs = np.array([0.6, 0.5, 0.6, 0.5, 0.6])
        assert abs(accs.mean() - 0.56) < 1e-12
        assert abs(accs.std() - 0.04898979485566356) < 1e-12

    def test_reports_per_fold_and_stats(self):
        x, labels = tiny_dataset(n_per=6)
        result = training.cross_validate(
            adsnet.REDUCED_CONFIG, x, labels, reduced_montage_4x4(), k=3,
            hyper=training.Hyper(epochs=2, batch_size=8), seed=0)
        assert len(result.reports) == 3
        accs = [r.best_eval_acc for r in result.reports]
        assert abs(result.mean_accuracy - np.mean(accs)) < 1e-12
        assert abs(result.std_accuracy - np.std(accs)) < 1e-12

    def test_parallel_jobs_match_serial(self, monkeypatch):
        from ads3d import lanes
        x, labels = tiny_dataset(n_per=6)
        kwargs = dict(k=2, hyper=training.Hyper(epochs=2, batch_size=8), seed=7)
        runs = []
        for jobs, cpus in ((1, 2), (2, 1), (2, 2)):
            monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
            runs.append(training.cross_validate(adsnet.REDUCED_CONFIG, x, labels,
                                                reduced_montage_4x4(), jobs=jobs, **kwargs))
        serial = runs[0]
        for parallel in runs[1:]:
            assert serial.mean_accuracy == parallel.mean_accuracy
            for a, b in zip(serial.reports, parallel.reports, strict=True):
                assert a.log_text() == b.log_text()
                assert a.best_epoch == b.best_epoch
                assert list(a.best_state) == list(b.best_state)
                for name in a.best_state:
                    assert np.array_equal(a.best_state[name], b.best_state[name]), name

    def test_fold_error_in_a_lane_surfaces(self, monkeypatch):
        from ads3d import lanes
        monkeypatch.setattr(lanes, "_cpus", lambda: 2)
        x, labels = tiny_dataset(n_per=6)
        x[:] = np.nan
        with pytest.raises(FloatingPointError, match="^fold 0 epoch 1 step 0"):
            training.cross_validate(adsnet.REDUCED_CONFIG, x, labels, reduced_montage_4x4(),
                                    k=2, hyper=training.Hyper(epochs=1, batch_size=8), jobs=2)


def test_hyper_accepts_its_edges():
    # out-of-range values are rejected through the CLI (test_cli.py)
    hyper = training.Hyper(epochs=0, batch_size=1, lr=0.0, weight_decay=0.0)
    assert (hyper.epochs, hyper.batch_size) == (0, 1)


def test_align_to_montage_orders_by_name(small_preprocessed):
    from ads3d.montage import default_montage
    montage = default_montage()
    data = training.align_to_montage(small_preprocessed, montage)
    assert data.shape == (small_preprocessed.n_trials, 64,
                          small_preprocessed.n_samples)
    src = list(small_preprocessed.channel_names)
    for cell, name in enumerate(montage.channel_names[:5]):
        assert np.array_equal(data[:, cell, :],
                              small_preprocessed.data[:, src.index(name), :])

    def epoch_set(perm, names):
        return eegio.EpochSet(data=small_preprocessed.data[:, perm, :],
                              labels=small_preprocessed.labels,
                              fs=small_preprocessed.fs, channel_names=names)

    perm = RngStream(3).permutation(len(src))
    permuted = epoch_set(perm, [src[i] for i in perm])
    assert np.array_equal(training.align_to_montage(permuted, montage), data)
    upper = epoch_set(np.arange(len(src)), [n.upper() for n in src])
    assert np.array_equal(training.align_to_montage(upper, montage), data)
    missing = epoch_set(np.arange(len(src)), ["x" + n for n in src])
    with pytest.raises(ValueError, match="epoch set lacks channel"):
        training.align_to_montage(missing, montage)


def test_standardize_scale_roundtrip():
    data = RngStream(0).normal((3, 2, 5)) * 7.0
    scaled, scale = training.standardize(data)
    assert abs(scaled.std() - 1.0) < 1e-12
    rescaled, _ = training.standardize(data, scale)
    assert np.array_equal(scaled, rescaled)


def test_prepare_reduced_inputs_shapes(small_preprocessed):
    data, labels, montage, scale = training.prepare_reduced_inputs(small_preprocessed)
    assert data.shape == (small_preprocessed.n_trials, 16, 64)
    assert montage.side == 4
    assert abs(data.std() - 1.0) < 1e-9
    assert scale > 0


def _whole_array_reduced(epochs, scale=None, n_samples=64, decimate=4):
    """prepare_reduced_inputs as one whole-array filter: the blocking oracle."""
    from ads3d import dsp
    x = training.align_to_montage(epochs, reduced_montage_4x4())
    x = dsp.filtfilt(dsp.design_butter_bandpass(4.0, 0.8 * epochs.fs / decimate / 2.0,
                                                epochs.fs), x)
    lo = (x.shape[-1] - n_samples * decimate) // 2
    return training.standardize(
        dsp.downsample(x[..., lo:lo + n_samples * decimate], decimate), scale)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("length", [300, 256])
def test_prepare_reduced_inputs_blocks_are_bit_identical(monkeypatch, cpus, length):
    # 256 samples is exactly the 64 x 4 span the reduced model crops
    from ads3d import dsp, lanes
    from ads3d.montage import default_montage
    monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
    epochs = eegio.EpochSet(data=RngStream(31).normal((9, 64, length)).astype(np.float32),
                            labels=np.arange(9) % 4, fs=250.0,
                            channel_names=default_montage().channel_names)
    ref, ref_scale = _whole_array_reduced(epochs)
    runs = [training.prepare_reduced_inputs(epochs)]
    monkeypatch.setattr(dsp, "BLOCK_BYTES", 8 * 16 * length)   # 1-trial blocks
    assert len(lanes.plan(9, 8 * 16 * length, dsp.BLOCK_BYTES)) == 9
    runs.append(training.prepare_reduced_inputs(epochs))
    for data, labels, _, scale in runs:
        assert scale == ref_scale and np.array_equal(data, ref)
        assert np.array_equal(labels, epochs.labels)
    assert np.array_equal(training.prepare_reduced_inputs(epochs, scale=2.5)[0],
                          _whole_array_reduced(epochs, 2.5)[0])
