import numpy as np
import pytest
from dataclasses import replace

from ads3d import adsnet, eegio, nncore, training
from ads3d.montage import default_montage, reduced_montage_4x4
from ads3d.rng import RngStream
from ads3d.training import align_to_montage

# Output sizes of every stage of the full configuration, (F, D, H, W).
FULL_CHAIN = [
    ("reshape", (1, 8, 8, 1001)),
    ("b1.conv1", (10, 5, 5, 877)),
    ("b1.conv2", (20, 3, 3, 862)),
    ("b1.pool1", (20, 3, 3, 215)),
    ("b1.conv3", (30, 1, 1, 200)),
    ("b1.pool2", (30, 1, 1, 50)),
    ("b2.conv1", (6, 6, 6, 940)),
    ("b2.conv2", (12, 4, 4, 931)),
    ("b2.pool1", (12, 4, 4, 465)),
    ("b2.conv3", (18, 3, 3, 456)),
    ("b2.pool2", (18, 3, 3, 228)),
    ("b2.conv4", (24, 2, 2, 219)),
    ("b2.pool3", (24, 2, 2, 109)),
    ("b2.conv5", (30, 1, 1, 100)),
    ("b2.pool4", (30, 1, 1, 50)),
    ("concat", (30, 1, 2, 50)),
    ("b3.conv1", (60, 1, 1, 41)),
    ("b3.pool1", (60, 1, 1, 20)),
]


def reduced_model(seed=0, **config_overrides):
    config = replace(adsnet.REDUCED_CONFIG, **config_overrides)
    return adsnet.AdsNet(config, reduced_montage_4x4(), seed=seed)


def test_full_shape_chain_matches_frozen_rows():
    assert adsnet.shape_chain(adsnet.FULL_CONFIG) == FULL_CHAIN


def test_flat_head_width():
    assert adsnet.flat_features(adsnet.FULL_CONFIG) == 60 * 1 * 1 * 20 == 1200


def both_models():
    yield reduced_model()
    yield adsnet.AdsNet(adsnet.FULL_CONFIG, default_montage(), seed=0)


def test_param_count_formula_matches_live_arrays():
    for model in both_models():
        live = sum(v.size for v in model.parameters().values())
        assert live == adsnet.param_count(model.config)


def test_param_count_full_config_regression():
    # attention (2*1001*64 + 1001^2) + convs + biases + batchnorm + head
    assert adsnet.param_count(adsnet.FULL_CONFIG) == 1_371_311


def test_inconsistent_config_rejected():
    with pytest.raises(ValueError, match="b1.conv1"):
        replace(adsnet.REDUCED_CONFIG, b1_kernels=((9, 9, 9), (2, 2, 5), (2, 2, 4)))


def test_stream_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="stream outputs differ"):
        replace(adsnet.REDUCED_CONFIG, b2_channels=(2, 4, 6, 8, 10))


def test_eval_forward_deterministic():
    model = reduced_model()
    x = RngStream(1).normal((2, 16, 64))
    a = model.forward(x, train=False)
    b = model.forward(x, train=False)
    assert np.array_equal(a, b)


def test_logits_finite_and_softmax_normalized():
    model = reduced_model(seed=3)
    x = RngStream(2).normal((5, 16, 64))
    logits = model.forward(x)
    assert np.all(np.isfinite(logits))
    rows = nncore.softmax(logits).sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-6


def test_trace_matches_shape_chain():
    for model in both_models():
        cfg = model.config
        x = RngStream(3).normal((2, cfg.n_channels, cfg.n_samples))
        traced = {}

        def record(layer):
            inner = layer.forward

            def forward(x, **kwargs):
                y = inner(x, **kwargs)
                traced[layer.name] = y.shape[1:]
                return y
            layer.forward = forward

        for layer in [*model._seq, *model.b1, *model.b2]:
            record(layer)
        model.forward(x)
        for stage, shape in adsnet.shape_chain(cfg):
            assert traced[stage] == shape, stage


def test_forward_and_backward_keep_no_per_call_state():
    model = reduced_model()
    keys = set(vars(model))
    x = RngStream(18).normal((4, 16, 64))
    model.forward(x, train=True, stream=RngStream(19))
    assert set(vars(model)) == keys
    model.loss_and_grads(x, np.array([0, 1, 2, 3]), stream=RngStream(19))
    assert set(vars(model)) == keys


def test_channel_permutation_is_undone_by_align_to_montage():
    model = reduced_model(seed=4)
    names = list(model.montage.channel_names)
    data = RngStream(5).normal((3, 16, 64))
    labels = np.zeros(3, dtype=np.int64)
    base = model.forward(align_to_montage(
        eegio.EpochSet(data=data, labels=labels, fs=64.0, channel_names=names),
        model.montage))
    for trial in range(5):
        perm = RngStream(6, trial).permutation(16)
        permuted = eegio.EpochSet(data=data[:, perm, :], labels=labels, fs=64.0,
                                  channel_names=[names[i] for i in perm])
        got = model.forward(align_to_montage(permuted, model.montage))
        assert np.array_equal(got, base)


def test_loss_and_grads_cover_every_parameter():
    model = reduced_model()
    x = RngStream(7).normal((4, 16, 64))
    loss, grads = model.loss_and_grads(x, np.array([0, 1, 2, 3]),
                                       stream=RngStream(8))
    assert np.isfinite(loss)
    assert set(grads) == set(model.parameters())
    for g in grads.values():
        assert np.all(np.isfinite(g))


def test_zero_head_loss_is_ln4():
    model = reduced_model(b1_dropout=0.0, b2_dropout=0.0, b3_dropout=0.0)
    model.head.params["w"][...] = 0.0
    model.head.params["b"][...] = 0.0
    x = RngStream(9).normal((4, 16, 64))
    loss, _ = model.loss_and_grads(x, np.array([0, 1, 2, 3]))
    assert abs(loss - np.log(4.0)) < 1e-12


def test_predict_tie_breaks_to_lowest_index():
    model = reduced_model()
    model.head.params["w"][...] = 0.0
    model.head.params["b"][...] = 0.0
    x = RngStream(10).normal((3, 16, 64))
    _, _, confusion = training.evaluate(model, x, np.array([0, 1, 2]))
    assert np.array_equal(confusion[:, 0], [1, 1, 1, 0])


def test_predict_permutation_of_batch():
    model = reduced_model(seed=11)
    x = RngStream(12).normal((6, 16, 64))
    preds = np.argmax(model.forward(x), axis=1)
    perm = RngStream(13).permutation(6)
    assert np.array_equal(np.argmax(model.forward(x[perm]), axis=1), preds[perm])


def test_shape_error_names_offending_layer():
    model = reduced_model()
    with pytest.raises(ValueError, match="input"):
        model.forward(np.zeros((2, 16, 63)))


def test_checkpoint_roundtrip_restores_state(tmp_path):
    model = reduced_model(seed=14)
    x = RngStream(15).normal((4, 16, 64))
    model.loss_and_grads(x, np.array([0, 1, 2, 3]), stream=RngStream(16))
    before = model.forward(x)
    ckpt = model.to_checkpoint({"note": "test"})
    path = tmp_path / "model.adsw"
    eegio.write_checkpoint(ckpt, path)
    other = reduced_model(seed=99)
    other.load_checkpoint(eegio.read_checkpoint(path))
    after = other.forward(x)
    # float32 storage rounds the parameters; forwards agree to that precision
    assert np.max(np.abs(after - before)) < 1e-5


def test_checkpoint_entry_names_follow_contract():
    names = set(reduced_model().state_arrays())
    assert {"attn.wq", "attn.wk", "attn.wv", "head.w", "head.b"} <= names
    assert {"b1.conv1.w", "b1.conv1.b", "b1.bn1.gamma", "b1.bn1.beta",
            "b1.bn1.rmean", "b1.bn1.rvar"} <= names
    assert {"b2.conv5.w", "b3.conv1.w", "b3.bn1.rvar"} <= names


def test_reduced_network_gradients_sampled():
    config = replace(adsnet.REDUCED_CONFIG, b1_dropout=0.0, b2_dropout=0.0,
                     b3_dropout=0.0)
    model = adsnet.AdsNet(config, reduced_montage_4x4(), seed=1)
    x = RngStream(17).normal((2, 16, 64))
    labels = np.array([0, 2])
    params = model.parameters()
    names = sorted(params)

    def fn(want):
        if want:
            loss, grads = model.loss_and_grads(x, labels)
            return loss, [grads[n] for n in names]
        logits = model.forward(x, train=True)
        return nncore.cross_entropy(logits, labels)[0]

    err = nncore.grad_check(fn, [params[n] for n in names], eps=1e-5, sample=4)
    assert err < 1e-5


def test_load_state_rejects_wrong_shape_and_unexpected_entries():
    model = reduced_model()
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    state = model.state_arrays()
    transposed = dict(state, **{"head.w": state["head.w"].T.copy()})
    with pytest.raises(ValueError, match="head.w"):
        model.load_state(transposed)
    with pytest.raises(KeyError, match="bogus"):
        model.load_state(dict(state, bogus=np.zeros(1)))
    for name, arr in model.state_arrays().items():
        assert np.array_equal(arr, before[name]), name
