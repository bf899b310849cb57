import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ads3d import lanes
from ads3d import nncore as nn
from ads3d.rng import RngStream


def conv3d_loop(x, w, b):
    """Direct-summation oracle for valid cross-correlation."""
    B, Fi, D, H, W = x.shape
    Fo, _, kd, kh, kw = w.shape
    out = np.zeros((B, Fo, D - kd + 1, H - kh + 1, W - kw + 1))
    for bb in range(B):
        for o in range(Fo):
            for d in range(out.shape[2]):
                for h in range(out.shape[3]):
                    for t in range(out.shape[4]):
                        patch = x[bb, :, d:d + kd, h:h + kh, t:t + kw]
                        out[bb, o, d, h, t] = (patch * w[o]).sum() + b[o]
    return out


def conv3d_backward_loop(x, w, gy):
    """Direct-summation oracle for the gradients of conv3d_loop."""
    Fo, _, kd, kh, kw = w.shape
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for bb in range(gy.shape[0]):
        for o in range(Fo):
            for d in range(gy.shape[2]):
                for h in range(gy.shape[3]):
                    for t in range(gy.shape[4]):
                        at = (bb, slice(None), slice(d, d + kd), slice(h, h + kh),
                              slice(t, t + kw))
                        gx[at] += gy[bb, o, d, h, t] * w[o]
                        gw[o] += gy[bb, o, d, h, t] * x[at]
    return gx, gw, gy.sum(axis=(0, 2, 3, 4))


def conv_layer_pass(x, w, b, gy):
    """Output and gradients (y, gx, gw, gb) of one Conv3d train step."""
    layer = nn.Conv3d(w, b)
    y = layer.forward(x, train=True)
    gx = layer.backward(gy)
    return y, gx, layer.grads["w"], layer.grads["b"]


def pool_loop(x, gy, kernel, stride, kind):
    """Direct per-window oracle: the mean, or the first maximum with gy sent
    to it. Returns (y, gx)."""
    B, F, D, H, W = x.shape
    out = [(n - k) // s + 1 for n, k, s in zip((D, H, W), kernel, stride)]
    y = np.empty((B, F, *out))
    gx = np.zeros_like(x)
    for b, f, *o in np.ndindex(B, F, *out):
        at = (b, f, *(slice(i * s, i * s + k) for i, s, k in zip(o, stride, kernel)))
        win = x[at]
        if kind == "avg":
            total = 0.0
            for v in win.flat:
                total += v
            y[(b, f, *o)] = total / win.size
            gx[at] += gy[(b, f, *o)] / win.size
        else:
            j = np.unravel_index(np.argmax(win), win.shape)
            y[(b, f, *o)] = win[j]
            gx[at][j] += gy[(b, f, *o)]
    return y, gx


class TestConv3d:
    def test_table_shapes(self):
        x = np.zeros((2, 1, 8, 8, 1001))
        w = np.zeros((10, 1, 4, 4, 125))
        assert nn.conv3d_valid(x, w, np.zeros(10)).shape == (2, 10, 5, 5, 877)
        x = np.zeros((2, 6, 6, 6, 940))
        w = np.zeros((12, 6, 3, 3, 10))
        assert nn.conv3d_valid(x, w, np.zeros(12)).shape == (2, 12, 4, 4, 931)

    def test_identity_kernel(self):
        x = RngStream(0).normal((2, 1, 3, 3, 9))
        w = np.ones((1, 1, 1, 1, 1))
        y = nn.conv3d_valid(x, w, np.array([0.25]))
        assert np.allclose(y, x + 0.25, atol=1e-12)

    def test_matches_loop_oracle(self):
        s = RngStream(1)
        x = s.normal((2, 3, 5, 4, 17))
        w = s.normal((4, 3, 2, 3, 6))
        b = s.normal(4)
        assert np.max(np.abs(nn.conv3d_valid(x, w, b) - conv3d_loop(x, w, b))) < 1e-10

    def test_backward_matches_loop_oracle(self):
        s = RngStream(1)
        x = s.normal((2, 3, 5, 4, 17))
        w = s.normal((4, 3, 2, 3, 6))
        b = s.normal(4)
        gy = s.normal((2, 4, 4, 2, 12))
        y, *got = conv_layer_pass(x, w, b, gy)
        assert np.max(np.abs(y - conv3d_loop(x, w, b))) < 1e-10
        for g, want in zip(got, conv3d_backward_loop(x, w, gy)):
            assert g.shape == want.shape
            assert np.max(np.abs(g - want)) < 1e-10

    def test_linearity_in_input(self):
        s = RngStream(2)
        x1, x2 = s.normal((2, 1, 2, 3, 3, 12))
        w = s.normal((2, 2, 1, 2, 5))
        b = np.zeros(2)
        lhs = nn.conv3d_valid(3.0 * x1 - 0.5 * x2, w, b)
        rhs = 3.0 * nn.conv3d_valid(x1, w, b) - 0.5 * nn.conv3d_valid(x2, w, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_translation_consistency(self):
        s = RngStream(3)
        x = s.normal((1, 1, 1, 1, 30))
        w = s.normal((1, 1, 1, 1, 7))
        y = nn.conv3d_valid(x, w, np.zeros(1))
        shifted = np.roll(x, 3, axis=-1)
        y_shift = nn.conv3d_valid(shifted, w, np.zeros(1))
        assert np.allclose(y_shift[..., 3:], y[..., :-3], atol=1e-10)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="larger than input"):
            nn.conv3d_valid(np.zeros((1, 1, 2, 2, 5)),
                            np.zeros((1, 1, 3, 1, 1)), np.zeros(1))

    def test_gradients(self):
        s = RngStream(4)
        x = s.normal((2, 2, 3, 3, 10))
        w = s.normal((3, 2, 2, 2, 4))
        b = s.normal(3)
        wt = s.normal((2, 3, 2, 2, 7))

        def fn(want):
            y = nn.conv3d_valid(x, w, b)
            loss = float((y * wt).sum())
            if not want:
                return loss
            return loss, conv_layer_pass(x, w, b, wt.copy())[1:]

        assert nn.grad_check(fn, [x, w, b], eps=1e-5, sample=120) < 1e-6


class TestThreads:
    """Large convolutions run in fixed batch chunks, and full-size eval
    batches in blocks of trials, on lanes' thread pool; chunks and blocks
    depend on the shapes only, so the bits never depend on it."""

    def _large(self):
        s = RngStream(26)
        x = s.normal((8, 4, 5, 5, 300))
        w = s.normal((6, 4, 3, 3, 10))
        n = 300
        assert len(nn._conv_plan(x.shape, w.shape, n)) > 1   # above the serial size
        return x, w, s.normal(6), s.normal((8, 6, 3, 3, 291))

    def test_conv_bits_do_not_depend_on_thread_count(self, monkeypatch):
        x, w, b, gy = self._large()
        runs = []
        for n in (1, 2):
            monkeypatch.setattr(lanes, "_cpus", lambda: n)
            runs.append(conv_layer_pass(x, w, b, gy))
        for one, two in zip(*runs):
            assert np.array_equal(one, two)
        assert np.max(np.abs(runs[0][0][:1] - conv3d_loop(x[:1], w, b))) < 1e-10

    def test_full_model_bits_do_not_depend_on_thread_count(self, monkeypatch):
        from ads3d import adsnet
        from ads3d.montage import default_montage
        model = adsnet.AdsNet(adsnet.FULL_CONFIG, default_montage(), seed=3)
        x = RngStream(27).normal((4, 64, 1001))
        labels = np.array([0, 1, 2, 3])
        runs = []
        for n in (1, 2):
            monkeypatch.setattr(lanes, "_cpus", lambda: n)
            runs.append(model.loss_and_grads(x, labels, stream=RngStream(28)))
        (loss1, grads1), (loss2, grads2) = runs
        assert loss1 == loss2
        assert list(grads1) == list(grads2)
        for name in grads1:
            assert np.array_equal(grads1[name], grads2[name]), name

    def test_full_model_eval_blocks(self, monkeypatch):
        # An eval batch of 12 full-size trials runs as blocks of 5, 5 and 2.
        from ads3d import adsnet
        from ads3d.montage import default_montage
        model = adsnet.AdsNet(adsnet.FULL_CONFIG, default_montage(), seed=3)
        x = RngStream(27).normal((12, 64, 1001))
        blocks = lanes.plan(12, x[0].nbytes, adsnet.EVAL_BLOCK_BYTES)
        assert blocks == [(0, 5), (5, 10), (10, 12)]
        runs = []
        for n in (1, 2):
            monkeypatch.setattr(lanes, "_cpus", lambda: n)
            runs.append(model.forward(x))
        assert runs[0].shape == (12, 4)
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], np.concatenate([model.forward(x[lo:hi])
                                                       for lo, hi in blocks]))
        single = np.concatenate([model.forward(x[i:i + 1]) for i in range(12)])
        assert np.max(np.abs(runs[0] - single)) <= 1e-12 * np.max(np.abs(single))
        assert model.forward(x[:0]).shape == (0, 4)


class TestPooling:
    def test_table_widths(self):
        x = np.zeros((1, 20, 3, 3, 862))
        assert nn.AvgPool3d((1, 1, 4)).forward(x).shape == (1, 20, 3, 3, 215)
        x = np.zeros((1, 12, 4, 4, 931))
        assert nn.MaxPool3d((1, 1, 2)).forward(x).shape == (1, 12, 4, 4, 465)

    def test_constant_input(self):
        x = np.full((1, 2, 2, 2, 8), 3.25)
        assert np.all(nn.AvgPool3d((1, 1, 4)).forward(x) == 3.25)
        assert np.all(nn.MaxPool3d((1, 1, 4)).forward(x) == 3.25)

    def test_avg_is_mean_max_is_max(self):
        x = np.arange(8.0).reshape(1, 1, 1, 1, 8)
        assert np.array_equal(nn.AvgPool3d((1, 1, 2)).forward(x).ravel(), [0.5, 2.5, 4.5, 6.5])
        assert np.array_equal(nn.MaxPool3d((1, 1, 2)).forward(x).ravel(), [1, 3, 5, 7])

    def test_kernel_larger_than_axis(self):
        with pytest.raises(ValueError, match="larger"):
            nn.AvgPool3d((1, 1, 4)).forward(np.zeros((1, 1, 1, 1, 3)))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 6), h=st.integers(1, 6), w=st.integers(1, 12),
           kd=st.integers(1, 3), kh=st.integers(1, 3), kw=st.integers(1, 4),
           sw=st.integers(1, 3))
    def test_shape_algebra_property(self, d, h, w, kd, kh, kw, sw):
        if kd > d or kh > h or kw > w:
            return
        x = np.zeros((1, 1, d, h, w))
        got = nn.AvgPool3d((kd, kh, kw), (kd, kh, sw)).forward(x).shape
        want = (1, 1, (d - kd) // kd + 1, (h - kh) // kh + 1, (w - kw) // sw + 1)
        assert got == want

    def test_gradients(self):
        s = RngStream(5)
        x = s.normal((2, 2, 3, 4, 9))
        for layer in (nn.AvgPool3d((1, 2, 3), (1, 2, 2)),
                      nn.MaxPool3d((2, 1, 4), (1, 1, 3))):
            y = layer.forward(x, train=True)
            wt = RngStream(6).normal(y.shape)

            def fn(want, layer=layer, wt=wt):
                out = layer.forward(x, train=True)
                loss = float((out * wt).sum())
                if not want:
                    return loss
                return loss, [layer.backward(wt.copy())]

            assert nn.grad_check(fn, [x], eps=1e-5, sample=150) < 1e-6

    @pytest.mark.parametrize("kind", ["avg", "max"])
    @pytest.mark.parametrize("kernel, stride, shape, tol", [
        ((1, 1, 2), (1, 1, 2), (3, 2, 2, 3, 11), 0.0),
        ((1, 1, 4), (1, 1, 4), (3, 2, 2, 3, 11), 0.0),
        ((1, 2, 3), (1, 2, 2), (2, 2, 3, 4, 9), 1e-12),
        ((2, 1, 4), (1, 1, 3), (2, 2, 3, 4, 9), 1e-12),
    ], ids=["tile2", "tile4", "gate2avg", "gate2max"])
    def test_matches_window_loop(self, kind, kernel, stride, shape, tol):
        # Small integers make ties common; the first maximum takes the
        # gradient. Tiles leave a short tail of the time axis unused.
        x = RngStream(30).integers(0, 3, shape).astype(np.float64)
        layer = (nn.AvgPool3d if kind == "avg" else nn.MaxPool3d)(kernel, stride)
        y = layer.forward(x, train=True)
        gy = RngStream(31).normal(y.shape)
        gx = layer.backward(gy)
        y_want, gx_want = pool_loop(x, gy, kernel, stride, kind)
        if tol == 0.0:
            assert y.tobytes() == y_want.tobytes()
            assert gx.tobytes() == gx_want.tobytes()
        else:
            assert np.max(np.abs(y - y_want)) <= tol
            assert np.max(np.abs(gx - gx_want)) <= tol

    def test_max_nan_in_window(self):
        x = RngStream(32).integers(0, 3, (1, 1, 1, 1, 8)).astype(np.float64)
        x[..., 1] = np.nan                        # second element of window 0
        x[..., 4] = x[..., 5] = np.nan            # both elements of window 2
        layer = nn.MaxPool3d((1, 1, 2))
        y = layer.forward(x, train=True)
        assert np.array_equal(np.isnan(y).ravel(), [True, False, True, False])
        gy = RngStream(33).normal(y.shape)
        gx = layer.backward(gy)
        _, gx_want = pool_loop(x, gy, (1, 1, 2), (1, 1, 2), "max")
        assert gx.tobytes() == gx_want.tobytes()


class TestBatchNorm:
    def test_train_normalizes(self):
        bn = nn.BatchNorm(3)
        x = RngStream(7).normal((6, 3, 2, 2, 5)) * 4.0 + 1.5
        y = bn.forward(x, train=True)
        assert np.max(np.abs(y.mean(axis=(0, 2, 3, 4)))) < 1e-6
        assert np.max(np.abs(y.var(axis=(0, 2, 3, 4)) - 1.0)) < 1e-4

    def test_eval_identity_with_unit_stats(self):
        bn = nn.BatchNorm(2)
        x = RngStream(8).normal((3, 2, 1, 1, 4))
        y = bn.forward(x, train=False)
        assert np.max(np.abs(y - x)) < 1e-4

    def test_four_value_closed_form(self):
        bn = nn.BatchNorm(1)
        vals = np.array([1.0, 2.0, 3.0, 6.0])
        x = vals.reshape(4, 1, 1, 1, 1)
        y = bn.forward(x, train=True).ravel()
        want = (vals - 3.0) / np.sqrt(3.5 + 1e-5)
        assert np.allclose(y, want, atol=1e-12)

    def test_running_stats_update(self):
        bn = nn.BatchNorm(1, momentum=0.1)
        x = np.full((4, 1, 1, 1, 1), 2.0)
        bn.forward(x, train=True)
        assert np.isclose(bn.running_mean[0], 0.2)
        assert np.isclose(bn.running_var[0], 0.9)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            nn.BatchNorm(1).forward(np.zeros((1, 1, 1, 1, 4)), train=True)

    def test_gradients_train_mode(self):
        bn = nn.BatchNorm(2)
        x = RngStream(9).normal((4, 2, 2, 1, 3))
        wt = RngStream(10).normal(x.shape)
        gamma, beta = bn.params["gamma"], bn.params["beta"]

        def fn(want):
            y = bn.forward(x, train=True)
            loss = float((y * wt).sum())
            if not want:
                return loss
            gx = bn.backward(wt.copy())
            return loss, [gx, bn.grads["gamma"], bn.grads["beta"]]

        assert nn.grad_check(fn, [x, gamma, beta], eps=1e-5) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_same_bits_as_textbook_expressions(self, dtype):
        axes, shape = (0, 2, 3, 4), (1, -1, 1, 1, 1)
        s = RngStream(11)
        x = (s.normal((5, 3, 2, 3, 7)) * 3.0 + 0.5).astype(dtype)
        # The output gradient as a model hands it over: a view of a wider array.
        gy = np.split(s.normal((5, 3, 2, 6, 7)).astype(dtype), 2, axis=3)[1]
        bn = nn.BatchNorm(3, dtype=dtype)
        bn.params["gamma"][:] = s.normal(3) + 1.0
        bn.params["beta"][:] = s.normal(3)
        gamma, beta = bn.params["gamma"].reshape(shape), bn.params["beta"].reshape(shape)

        mean, var = x.mean(axis=axes), x.var(axis=axes)
        rmean = bn.running_mean + bn.momentum * (mean - bn.running_mean)
        rvar = bn.running_var + bn.momentum * (var - bn.running_var)
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
        m = x.size // 3
        g_xhat = gy * gamma
        gx = inv.reshape(shape) / m * (
            m * g_xhat - g_xhat.sum(axis=axes).reshape(shape)
            - xhat * (g_xhat * xhat).sum(axis=axes).reshape(shape))

        assert np.array_equal(bn.forward(x, train=True), gamma * xhat + beta)
        assert np.array_equal(bn.running_mean, rmean)
        assert np.array_equal(bn.running_var, rvar)
        assert np.array_equal(bn.backward(gy), gx)
        assert np.array_equal(bn.grads["gamma"], (gy * xhat).sum(axis=axes))
        assert np.array_equal(bn.grads["beta"], gy.sum(axis=axes))

        inv = 1.0 / np.sqrt(rvar + bn.eps)
        want = gamma * ((x - rmean.reshape(shape)) * inv.reshape(shape)) + beta
        y = bn.forward(x)
        assert y.dtype == dtype and np.array_equal(y, want)


class TestElu:
    def test_fixed_points(self):
        assert nn.elu(np.array([0.0]))[0] == 0.0
        assert nn.elu(np.array([1.0]))[0] == 1.0

    def test_negative_branch(self):
        got = nn.elu(np.array([-1.0]))[0]
        assert abs(got - (np.exp(-1.0) - 1.0)) < 1e-12
        assert abs(got + 0.6321205588285577) < 1e-12

    def test_monotone(self):
        x = np.sort(RngStream(11).normal(500))
        y = nn.elu(x)
        assert np.all(np.diff(y) >= 0)

    def test_gradient_away_from_zero(self):
        layer = nn.Elu()
        x = RngStream(12).normal((2, 2, 1, 1, 6))
        x = np.where(np.abs(x) < 0.1, x + 0.5, x)   # keep clear of the kink
        wt = RngStream(13).normal(x.shape)

        def fn(want):
            y = layer.forward(x, train=True)
            loss = float((y * wt).sum())
            if not want:
                return loss
            return loss, [layer.backward(wt.copy())]

        assert nn.grad_check(fn, [x], eps=1e-6) < 1e-8


class TestDropout:
    def test_p_zero_identity(self):
        x = RngStream(14).normal((3, 2, 1, 1, 4))
        layer = nn.Dropout(0.0)
        assert np.array_equal(layer.forward(x, train=True, stream=RngStream(0)), x)

    def test_eval_identity(self):
        x = RngStream(15).normal((3, 2, 1, 1, 4))
        assert np.array_equal(nn.Dropout(0.9).forward(x, train=False), x)

    def test_train_statistics(self):
        x = np.ones((100, 100, 1, 1, 100))
        layer = nn.Dropout(0.5)
        y = layer.forward(x, train=True, stream=RngStream(16))
        zero_frac = np.mean(y == 0.0)
        assert abs(zero_frac - 0.5) < 0.01
        assert abs(y.mean() - 1.0) < 0.01

    def test_deterministic_given_stream(self):
        x = RngStream(17).normal((2, 3, 1, 1, 5))
        a = nn.Dropout(0.25).forward(x, train=True, stream=RngStream(18))
        b = nn.Dropout(0.25).forward(x, train=True, stream=RngStream(18))
        assert np.array_equal(a, b)

    def test_gradient_with_replayed_mask(self):
        x = RngStream(19).normal((2, 2, 1, 1, 4))
        layer = nn.Dropout(0.5)
        wt = RngStream(20).normal(x.shape)

        def fn(want):
            y = layer.forward(x, train=True, stream=RngStream(21))
            loss = float((y * wt).sum())
            if not want:
                return loss
            return loss, [layer.backward(wt.copy())]

        assert nn.grad_check(fn, [x], eps=1e-6) < 1e-8

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestDenseSoftmax:
    def test_zero_head_uniform_softmax(self):
        layer = nn.Dense(np.zeros((6, 4)), np.zeros(4))
        logits = layer.forward(RngStream(22).normal((3, 6)))
        assert np.allclose(nn.softmax(logits), 0.25, atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = RngStream(23).normal((5, 4))
        assert np.allclose(nn.softmax(x), nn.softmax(x + 77.0), atol=1e-6)

    def test_hand_weights_oracle(self):
        w = np.array([[2.0, -1.0]])
        b = np.array([0.5, 0.25])
        layer = nn.Dense(w, b)
        got = layer.forward(np.array([[3.0]]))
        assert np.allclose(got, [[6.5, -2.75]], atol=1e-12)

    def test_gradients(self):
        s = RngStream(24)
        x = s.normal((3, 5))
        layer = nn.Dense(s.normal((5, 4)), s.normal(4))
        labels = np.array([0, 2, 3])

        def fn(want):
            logits = layer.forward(x, train=True)
            loss, g = nn.cross_entropy(logits, labels)
            if not want:
                return loss
            gx = layer.backward(g)
            return loss, [gx, layer.grads["w"], layer.grads["b"]]

        assert nn.grad_check(fn, [x, layer.params["w"], layer.params["b"]],
                             eps=1e-5) < 1e-7


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = nn.cross_entropy(np.zeros((5, 4)), np.arange(5) % 4)
        assert abs(loss - np.log(4.0)) < 1e-12

    def test_one_hot_logit_example(self):
        loss, _ = nn.cross_entropy(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([0]))
        want = np.log(np.e + 3.0) - 1.0
        assert abs(loss - want) < 1e-12
        assert abs(loss - 0.74366) < 1e-4

    def test_loss_is_mean_negative_log_softmax(self):
        logits = RngStream(32).normal((6, 4)) * 5.0
        labels = np.array([0, 1, 2, 3, 3, 1])
        logp = nn.log_softmax(logits)
        assert np.allclose(np.exp(logp), nn.softmax(logits), atol=1e-15)
        loss, _ = nn.cross_entropy(logits, labels)
        assert loss == float(np.mean(-logp[np.arange(6), labels]))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            nn.cross_entropy(np.zeros((1, 4)), np.array([4]))
