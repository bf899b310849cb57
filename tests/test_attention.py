import numpy as np
import pytest

from ads3d import attention as att
from ads3d.nncore import grad_check
from ads3d.rng import RngStream


def loop_attention(x, w_q, w_k, w_v):
    """Scalar-loop oracle for softmax(Q K^T / sqrt(d_k)) V on [C, T] input."""
    C = x.shape[0]
    q, k, v = x @ w_q, x @ w_k, x @ w_v
    dk = q.shape[1]
    out = np.zeros((C, v.shape[1]))
    for i in range(C):
        scores = np.array([np.dot(q[i], k[j]) / np.sqrt(dk) for j in range(C)])
        weights = np.exp(scores)
        weights /= weights.sum()
        for j in range(C):
            out[i] += weights[j] * v[j]
    return out


def small_layer(c=4, t=6, dk=3, dv=None, seed=0):
    dv = t if dv is None else dv
    s = RngStream(seed)
    return att.ChannelAttention(s.normal((t, dk)) * 0.3,
                                s.normal((t, dk)) * 0.3,
                                s.normal((t, dv)) * 0.3)


class TestProjection:
    def test_zero_input(self):
        q, k, v = att.project_qkv(np.zeros((4, 6)), small_layer().params)
        assert not q.any() and not k.any() and not v.any()

    def test_identity_projection(self):
        p = att.ChannelAttention(np.eye(3), np.eye(3), np.eye(3)).params
        x = np.arange(6.0).reshape(2, 3)
        q, k, v = att.project_qkv(x, p)
        assert np.array_equal(q, x)

    def test_matrix_product_oracle(self):
        x = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
        w = np.array([[1.0, 0.0], [2.0, -1.0], [0.0, 0.5]])
        q, _, _ = att.project_qkv(x, {"wq": w, "wk": w.copy(), "wv": w.copy()})
        want = np.array([[1 + 4 + 0, 0 - 2 - 0.5], [0.5, 1.5]])
        assert np.allclose(q, want, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="time axis"):
            att.project_qkv(np.zeros((4, 7)), small_layer().params)


class TestScaledDotAttention:
    def test_single_channel_returns_values(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.3, -1.0]])
        v = np.array([[5.0, 6.0, 7.0]])
        assert np.array_equal(att.scaled_dot_attention(q, k, v), v)

    def test_uniform_scores_average_values(self):
        q = np.zeros((3, 2))
        k = np.random.default_rng(0).standard_normal((3, 2))
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = att.scaled_dot_attention(q, k, v)
        assert np.allclose(out, v.mean(axis=0), atol=1e-12)

    def test_identity_qk_two_channel_example(self):
        q = k = np.eye(2)
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = att.scaled_dot_attention(q, k, v)
        w = np.exp(1.0 / np.sqrt(2.0))
        want_11 = w / (w + 1.0)
        assert np.allclose(out[0], [want_11, 1 - want_11], atol=1e-12)
        assert abs(want_11 - 0.6698) < 5e-4

    def test_matches_loop_oracle(self):
        s = RngStream(5)
        x = s.normal((8, 16))
        layer = small_layer(8, 16, dk=4, seed=6)
        got = layer.forward(x)
        p = layer.params
        want = loop_attention(x, p["wq"], p["wk"], p["wv"])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_rows_sum_to_one(self):
        s = RngStream(7)
        q, k = s.normal((2, 5, 3))
        weights = att.row_softmax(q @ k.T / np.sqrt(3))
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(weights > 0)

    def test_softmax_shift_invariance(self):
        s = RngStream(8)
        scores = s.normal((6, 6))
        assert np.allclose(att.row_softmax(scores),
                           att.row_softmax(scores + 123.456), atol=1e-6)

    def test_nonfinite_rejected(self):
        q = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            att.scaled_dot_attention(q, np.ones((2, 2)), np.ones((2, 2)))


class TestChannelAttention:
    def test_zero_input_zero_output(self):
        out = small_layer().forward(np.zeros((4, 6)))
        assert not out.any()

    def test_shape_preserved(self):
        s = RngStream(9)
        x = s.normal((5, 6))
        assert small_layer(5, 6).forward(x).shape == (5, 6)

    def test_dv_must_equal_t(self):
        with pytest.raises(ValueError, match="d_v"):
            small_layer(4, 6, dv=5)

    def test_channel_permutation_equivariance(self):
        s = RngStream(10)
        x = s.normal((7, 9))
        layer = small_layer(7, 9, dk=4, seed=11)
        base = layer.forward(x)
        for trial in range(20):
            perm = RngStream(12, trial).permutation(7)
            permuted = layer.forward(x[perm])
            assert np.max(np.abs(permuted - base[perm])) < 1e-5

    def test_batched_matches_per_trial(self):
        s = RngStream(13)
        x = s.normal((3, 5, 8))
        layer = small_layer(5, 8, dk=2, seed=14)
        batch = layer.forward(x)
        for b in range(3):
            assert np.allclose(batch[b], layer.forward(x[b]), atol=1e-12)


class TestGradients:
    def test_gradients_match_finite_differences(self):
        s = RngStream(15)
        x = s.normal((4, 8))
        layer = att.ChannelAttention(s.normal((8, 3)) * 0.4,
                                     s.normal((8, 3)) * 0.4,
                                     s.normal((8, 8)) * 0.4)
        wt = s.normal((4, 8))
        arrays = [x, *layer.params.values()]

        def fn(want_grads):
            out = layer.forward(x, train=True)
            loss = float((out * wt).sum())
            if not want_grads:
                return loss
            gx = layer.backward(wt.copy())
            return loss, [gx, layer.grads["wq"], layer.grads["wk"], layer.grads["wv"]]

        assert grad_check(fn, arrays, eps=1e-5) < 1e-6
