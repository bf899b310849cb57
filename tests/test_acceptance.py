"""Acceptance gates for the whole pipeline.

Each test enforces one numbered criterion at its stated tolerance and
prints a single PASS line on success (visible with `pytest -s` or in the
captured-output section on failure). The two end-to-end criteria are slow;
the full module is still expected to run on a desktop CPU.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ads3d import adsnet, attention, dsp, eegio, nncore, stats, synthgen, training
from ads3d.montage import default_montage, reduced_montage_4x4
from ads3d.rng import RngStream
from tests.test_adsnet import FULL_CHAIN
from tests.test_attention import loop_attention
from tests.test_dsp import butter_bandpass_magnitude, interior_rms_ratio


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


# -- 1: shape-chain conformance --------------------------------------------

def test_criterion_1_shape_chain_and_forward_runtime():
    t0 = time.time()
    chain = adsnet.shape_chain(adsnet.FULL_CONFIG)
    chain_time = time.time() - t0
    assert chain == FULL_CHAIN
    assert chain_time < 1.0

    model = adsnet.AdsNet(adsnet.FULL_CONFIG, default_montage(), seed=0)
    x = RngStream(1).normal((40, 64, 1001))
    t0 = time.time()
    logits = model.forward(x, train=False)
    fwd_time = time.time() - t0
    assert logits.shape == (40, 4)
    assert np.all(np.isfinite(logits))
    assert fwd_time < 60.0
    _ok(1, f"18/18 output sizes match; B=40 forward in {fwd_time:.1f}s")


# -- 2: gradient correctness -------------------------------------------------

def _layer_cases():
    s = RngStream(2)
    conv = nncore.Conv3d(s.normal((3, 2, 2, 2, 4)) * 0.4, s.normal(3) * 0.1)
    x_conv = s.normal((2, 2, 3, 3, 10))
    bn = nncore.BatchNorm(2)
    x_bn = s.normal((4, 2, 2, 1, 3))
    elu = nncore.Elu()
    x_elu = np.where(np.abs(z := s.normal((2, 2, 1, 1, 6))) < 0.1, z + 0.5, z)
    avg = nncore.AvgPool3d((1, 2, 3), (1, 2, 2))
    mx = nncore.MaxPool3d((2, 1, 4), (1, 1, 3))
    x_pool = s.normal((2, 2, 3, 4, 9))
    dense = nncore.Dense(s.normal((5, 4)) * 0.4, s.normal(4) * 0.1)
    x_dense = s.normal((3, 5))
    attn = attention.ChannelAttention(s.normal((8, 3)) * 0.4,
                                      s.normal((8, 3)) * 0.4,
                                      s.normal((8, 8)) * 0.4)
    x_attn = s.normal((4, 8))
    return [("conv3d", conv, x_conv), ("batchnorm", bn, x_bn),
            ("elu", elu, x_elu), ("avgpool", avg, x_pool),
            ("maxpool", mx, x_pool), ("dense", dense, x_dense),
            ("attention", attn, x_attn)]


def test_criterion_2_per_layer_and_full_network_gradients():
    t0 = time.time()
    worst_layer = 0.0
    for name, layer, x in _layer_cases():
        wt = RngStream(3, hash(name) % 1000).normal(layer.forward(x, train=True).shape)
        arrays = [x] + [layer.params[k] for k in sorted(layer.params)]

        def fn(want, layer=layer, x=x, wt=wt):
            out = layer.forward(x, train=True)
            loss = float((out * wt).sum())
            if not want:
                return loss
            gx = layer.backward(wt.copy())
            return loss, [gx] + [layer.grads[k] for k in sorted(layer.params)]

        err = nncore.grad_check(fn, arrays, eps=1e-5)
        assert err < 1e-6, f"{name}: {err:.3e}"
        worst_layer = max(worst_layer, err)

    config = replace(adsnet.REDUCED_CONFIG, b1_dropout=0.0, b2_dropout=0.0,
                     b3_dropout=0.0)
    model = adsnet.AdsNet(config, reduced_montage_4x4(), seed=1)
    x = RngStream(4).normal((2, 16, 64))
    labels = np.array([0, 2])
    params = model.parameters()
    names = sorted(params)

    def net_fn(want):
        if want:
            loss, grads = model.loss_and_grads(x, labels)
            return loss, [grads[n] for n in names]
        logits = model.forward(x, train=True)
        return nncore.cross_entropy(logits, labels)[0]

    net_err = nncore.grad_check(net_fn, [params[n] for n in names], eps=1e-5)
    elapsed = time.time() - t0
    assert net_err < 1e-5
    assert elapsed < 600.0
    _ok(2, f"per-layer max err {worst_layer:.2e}, full reduced network "
           f"{net_err:.2e} over every coordinate in {elapsed:.0f}s")


# -- 3: attention invariants --------------------------------------------------

def test_criterion_3_attention_invariants():
    s = RngStream(5)
    scores = s.normal((32, 32)) * 3.0
    weights = nncore.softmax(scores)
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-6

    x = s.normal((8, 16))
    layer = attention.ChannelAttention(s.normal((16, 4)) * 0.4,
                                       s.normal((16, 4)) * 0.4,
                                       s.normal((16, 16)) * 0.4)
    base = layer.forward(x)
    worst = 0.0
    for trial in range(100):
        perm = RngStream(6, trial).permutation(8)
        permuted = layer.forward(x[perm])
        worst = max(worst, float(np.max(np.abs(permuted - base[perm]))))
    assert worst < 1e-5

    p = layer.params
    oracle = loop_attention(x, p["wq"], p["wk"], p["wv"])
    oracle_err = float(np.max(np.abs(base - oracle)))
    assert oracle_err < 1e-9
    _ok(3, f"rows sum to 1; equivariance err {worst:.1e} over 100 "
           f"permutations; loop-oracle err {oracle_err:.1e}")


# -- 4: DSP conformance --------------------------------------------------------

def test_criterion_4_dsp_conformance():
    fs = 250.0
    cascade = dsp.design_butter_bandpass(4.0, 40.0, fs=fs)
    probes = np.linspace(0.5, 124.0, 64)
    got = dsp.magnitude(cascade, probes, fs)
    want = butter_bandpass_magnitude(probes, 4.0, 40.0, fs, 5)
    mag_err = float(np.max(np.abs(got - want)))
    assert mag_err < 1e-6

    # 60 Hz attenuation probed at 200 Hz, where bilinear warping puts the
    # tone 30+ dB down per pass; requirement is >= 60 dB for the double pass.
    fs_probe = 200.0
    c200 = dsp.design_butter_bandpass(4.0, 40.0, fs=fs_probe)
    t = np.arange(int(20 * fs_probe)) / fs_probe
    tone60 = np.sin(2 * np.pi * 60.0 * t)
    ratio60 = interior_rms_ratio(dsp.filtfilt(c200, tone60), tone60,
                                 int(5 * fs_probe))
    atten_db = -20.0 * np.log10(ratio60)
    assert atten_db >= 60.0

    tone_mid = np.sin(2 * np.pi * 12.649 * np.arange(int(20 * fs)) / fs)
    ratio_mid = interior_rms_ratio(dsp.filtfilt(cascade, tone_mid), tone_mid,
                                   int(5 * fs))
    passband_db = abs(20.0 * np.log10(ratio_mid))
    assert passband_db <= 0.2

    # pipeline-rate sanity: notch + band-pass at 250 Hz also exceeds 60 dB
    y = dsp.filtfilt(cascade, dsp.notch60(np.sin(
        2 * np.pi * 60.0 * np.arange(int(20 * fs)) / fs), fs))
    chain_ratio = interior_rms_ratio(
        y, np.sin(2 * np.pi * 60.0 * np.arange(int(20 * fs)) / fs), int(5 * fs))
    assert chain_ratio < 1e-3
    _ok(4, f"magnitude oracle err {mag_err:.1e} at 64 probes; 60 Hz two-pass "
           f"{atten_db:.1f} dB; 12.649 Hz within {passband_db:.3f} dB")


# -- 5: optimizer conformance ----------------------------------------------------

def test_criterion_5_adamw_conformance():
    params = {"w": np.array([1.0])}
    opt = training.OptimState.for_params(params)
    hyper = training.Hyper(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8,
                           weight_decay=0.01)
    training.adamw_step(params, {"w": np.ones(1)}, opt, hyper)
    want = 1.0 - 0.1 / (1.0 + 1e-8) - 0.001
    err = abs(params["w"][0] - want)
    assert err < 1e-9

    params = {"w": np.array([2.0])}
    opt = training.OptimState.for_params(params)
    training.adamw_step(params, {"w": np.zeros(1)}, opt, hyper)
    assert params["w"][0] == 2.0 * (1.0 - 0.1 * 0.01)
    _ok(5, f"single-step oracle err {err:.1e}; zero-gradient decay exact")


# -- 6: statistics oracles --------------------------------------------------------

def test_criterion_6_statistics_oracles():
    t, p, df = stats.paired_ttest([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    t_err = abs(t - 3.4641016151377544)
    p_err = abs(p - 0.07417990022744862)
    assert t_err < 1e-6 and df == 2 and p_err < 1e-4

    x = RngStream(7).normal((4, 6, 5)) + np.arange(4).reshape(4, 1, 1)
    res = stats.two_way_anova(x)
    parts = res.ss["a"] + res.ss["b"] + res.ss["ab"] + res.ss["error"]
    add_err = abs(parts - res.ss["total"]) / res.ss["total"]
    assert add_err < 1e-9

    assert stats.bonferroni([0.0005], 64)[0] == 64 * 0.0005
    assert stats.bonferroni([0.5], 64)[0] == 1.0
    assert np.array_equal(stats.bonferroni(np.array([0.1, 0.7]), 1),
                          [0.1, 0.7])
    _ok(6, f"paired-t err ({t_err:.1e}, {p_err:.1e}); ANOVA additivity "
           f"{add_err:.1e}; Bonferroni exact")


# -- 7: end-to-end learning --------------------------------------------------------

def _prepared_corpus(effect_scale, seed=2026):
    config = synthgen.default_paper_template(effect_scale=effect_scale, seed=seed)
    raw = synthgen.generate(config)
    data, fs = dsp.preprocess_array(raw.data.astype(np.float64), raw.fs)
    pre = eegio.EpochSet(data=data, labels=raw.labels, fs=fs,
                         channel_names=raw.channel_names)
    return training.prepare_reduced_inputs(pre)


@pytest.mark.slow
def test_criterion_7_end_to_end_learning():
    t0 = time.time()
    hyper = training.Hyper(epochs=200, lr=2e-3)

    data, labels, montage, _ = _prepared_corpus(effect_scale=2.5)
    high = training.cross_validate(adsnet.REDUCED_CONFIG, data, labels,
                                   montage, k=5, hyper=hyper, seed=0)
    assert high.mean_accuracy >= 0.85, \
        f"high-SNR accuracy {high.mean_accuracy:.3f}"

    data0, labels0, montage0, _ = _prepared_corpus(effect_scale=0.0)
    null = training.cross_validate(adsnet.REDUCED_CONFIG, data0, labels0,
                                   montage0, k=5, hyper=hyper, seed=0)
    assert abs(null.mean_accuracy - 0.25) <= 0.08, \
        f"zero-SNR accuracy {null.mean_accuracy:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    _ok(7, f"high SNR {high.mean_accuracy:.3f} (folds "
           f"{[round(r.best_eval_acc, 2) for r in high.reports]}), zero SNR "
           f"{null.mean_accuracy:.3f}, in {elapsed / 60:.1f} min")


# -- 8: end-to-end statistics ---------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_planted_effect_recovery():
    runs = 100
    alpha_planted = {"O1", "Oz", "O2"}
    beta_planted = {"Fp1", "Fp2"}
    alpha_hits = beta_hits = 0
    false_positives = 0
    occipital_t = []
    for seed in range(runs):
        config = synthgen.default_paper_template(n_trials_per_class=20, seed=seed)
        raw = synthgen.generate(config)
        data, fs = dsp.preprocess_array(raw.data.astype(np.float64), raw.fs)
        pre = eegio.EpochSet(data=data, labels=raw.labels, fs=fs,
                             channel_names=raw.channel_names)
        rep_a = stats.contrast_topography(
            pre, stats.trial_band_powers(pre, stats.ALPHA_BAND),
            ("split", "spread_out", "fall_in"), "hovering", stats.ALPHA_BAND)
        rep_b = stats.contrast_topography(
            pre, stats.trial_band_powers(pre, stats.BETA_BAND),
            ("split", "spread_out"), "fall_in", stats.BETA_BAND)
        sig_a = set(rep_a.significant_channels())
        sig_b = set(rep_b.significant_channels())
        alpha_hits += alpha_planted <= sig_a
        beta_hits += beta_planted <= sig_b
        false_positives += len(sig_a - alpha_planted) + len(sig_b - beta_planted)
        names = list(pre.channel_names)
        occipital_t.append(np.mean([rep_a.t[names.index(c)]
                                    for c in alpha_planted]))
    mean_fp = false_positives / runs
    assert alpha_hits >= 95, f"alpha recovery {alpha_hits}/100"
    assert beta_hits >= 95, f"beta recovery {beta_hits}/100"
    assert mean_fp <= 1.0, f"mean false positives {mean_fp:.2f}"
    # directionality: motion imagery raises occipital alpha power
    assert np.mean(occipital_t) > 0
    _ok(8, f"alpha {alpha_hits}/100, beta {beta_hits}/100, mean FP "
           f"{mean_fp:.3f}, mean occipital t {np.mean(occipital_t):.1f}")


# -- 9: determinism & persistence ---------------------------------------------------

def test_criterion_9_determinism_and_persistence(tmp_path):
    config = synthgen.default_paper_template(n_trials_per_class=4, seed=13)
    a = synthgen.generate(config)
    b = synthgen.generate(config)
    assert np.array_equal(a.data, b.data)

    path = tmp_path / "corpus.ads3"
    eegio.write_epochset(a, path)
    bytes_one = path.read_bytes()
    eegio.write_epochset(b, path)
    assert path.read_bytes() == bytes_one

    back = eegio.read_epochset(path)
    assert np.array_equal(back.data, a.data)

    from tests.test_training import tiny_dataset
    x, labels = tiny_dataset(n_per=8, seed=3)
    plan = training.make_folds(labels, k=2, seed=0)
    hyper = training.Hyper(epochs=6, batch_size=8)
    kwargs = dict(plan=plan, fold=0, hyper=hyper, seed=2,
                  montage=reduced_montage_4x4())
    r1 = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, **kwargs)
    r2 = training.train_one_fold(adsnet.REDUCED_CONFIG, x, labels, **kwargs)
    assert r1.train_loss == r2.train_loss and r1.eval_loss == r2.eval_loss

    model = adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4(), seed=2)
    model.load_state(r1.best_state)
    ckpt_path = tmp_path / "best.adsw"
    eegio.write_checkpoint(model.to_checkpoint(), ckpt_path)
    restored = adsnet.AdsNet(adsnet.REDUCED_CONFIG, reduced_montage_4x4(), seed=9)
    restored.load_checkpoint(eegio.read_checkpoint(ckpt_path))
    loss, _, _ = training.evaluate(restored, x, labels, plan.folds[0],
                                   batch_size=8)
    restore_err = abs(loss - r1.best_eval_loss)
    assert restore_err < 1e-6
    _ok(9, f"bit-identical generation and training; checkpoint restore err "
           f"{restore_err:.1e}")
