"""Layer substrate with hand-written forward/backward passes.

Tensors are plain numpy arrays with the fixed axis convention
``[batch, feature, depth, height, width]`` (width doubles as the time axis).
Convolutions are valid (no padding) cross-correlations. The time axis of EEG
tensors is long (~1000 samples), so convolution runs as an FFT correlation
along the last axis combined with an explicit window contraction over the
small depth/height axes; padding the FFT to at least the input length keeps
the circular result exact for every valid lag.

Every layer, here and ``attention.ChannelAttention``, has one protocol:
``name``, ``params``, ``grads``, ``forward(x, train=False, stream=None)``,
which keeps what the backward pass needs only when ``train`` is true, and
``backward(g)``, which returns the input gradient and fills ``self.grads``
keyed like ``self.params``. Only ``Dropout`` reads ``stream``.
``grad_check`` compares any analytic gradient against central finite
differences.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import fft as sfft

# Upper bound on the materialized FFT-window workspace per chunk.
_CHUNK_BYTES = 192 * 1024 * 1024


def _out_len(n: int, k: int, s: int) -> int:
    return (n - k) // s + 1


def _window_dh(a: np.ndarray, kd: int, kh: int) -> np.ndarray:
    """View of [..., D, H, F] as [..., D', kd, H', kh, F] sliding windows."""
    *lead, d, h, f = a.shape
    st = a.strides
    shape = (*lead, d - kd + 1, kd, h - kh + 1, kh, f)
    strides = (*st[:-3], st[-3], st[-3], st[-2], st[-2], st[-1])
    return as_strided(a, shape=shape, strides=strides)


def _complex_dtype(x: np.ndarray):
    return np.complex64 if x.dtype == np.float32 else np.complex128


def conv3d_valid(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 stride: tuple[int, int, int] = (1, 1, 1)) -> np.ndarray:
    """Valid cross-correlation of [B,Fi,D,H,W] with [Fo,Fi,kD,kH,kW] + bias."""
    x = np.asarray(x)
    b_, fi, d, h, w = x.shape
    fo, fi_w, kd, kh, kw = weight.shape
    if fi != fi_w:
        raise ValueError(f"input has {fi} feature channels, kernel expects {fi_w}")
    if kd > d or kh > h or kw > w:
        raise ValueError(f"kernel {(kd, kh, kw)} larger than input {(d, h, w)}")
    sd, sh, sw = stride
    n = sfft.next_fast_len(w, real=True)
    kf = np.conj(sfft.rfft(weight, n=n, axis=-1))
    wp = w - kw + 1
    out = np.empty((b_, fo, _out_len(d, kd, 1), _out_len(h, kh, 1), wp), dtype=x.dtype)
    for lo, hi in _chunks(b_, fi * (d - kd + 1) * kd * (h - kh + 1) * kh * (n // 2 + 1) * 16):
        xf = sfft.rfft(x[lo:hi], n=n, axis=-1)
        xw = _window_dh(xf, kd, kh)
        yf = np.einsum("bidphqf,oipqf->bodhf", xw, kf, optimize=True)
        out[lo:hi] = sfft.irfft(yf, n=n, axis=-1)[..., :wp]
    out += bias.reshape(1, fo, 1, 1, 1)
    if stride != (1, 1, 1):
        out = np.ascontiguousarray(out[:, :, ::sd, ::sh, ::sw])
    return out


def conv3d_backward(x: np.ndarray, weight: np.ndarray, gy: np.ndarray,
                    stride: tuple[int, int, int] = (1, 1, 1)):
    """Gradients (gx, gw, gb) of conv3d_valid."""
    b_, fi, d, h, w = x.shape
    fo, _, kd, kh, kw = weight.shape
    sd, sh, sw = stride
    dp, hp, wp = d - kd + 1, h - kh + 1, w - kw + 1
    if stride != (1, 1, 1):
        full = np.zeros((b_, fo, dp, hp, wp), dtype=gy.dtype)
        full[:, :, ::sd, ::sh, ::sw] = gy
        gy = full
    cdtype = _complex_dtype(x)
    n = sfft.next_fast_len(w, real=True)
    kf = sfft.rfft(weight, n=n, axis=-1)
    gwf = np.zeros(weight.shape[:-1] + (n // 2 + 1,), dtype=cdtype)
    gx = np.empty_like(x)
    for lo, hi in _chunks(b_, fi * dp * kd * hp * kh * (n // 2 + 1) * 16):
        xf = sfft.rfft(x[lo:hi], n=n, axis=-1)
        gyf = sfft.rfft(gy[lo:hi], n=n, axis=-1)
        xw = _window_dh(xf, kd, kh)
        gwf += np.einsum("bidphqf,bodhf->oipqf", xw, np.conj(gyf), optimize=True)
        gxf = np.zeros(xf.shape, dtype=cdtype)
        for p in range(kd):
            for q in range(kh):
                gxf[:, :, p:p + dp, q:q + hp, :] += np.einsum(
                    "bodhf,oif->bidhf", gyf, kf[:, :, p, q, :], optimize=True
                )
        gx[lo:hi] = sfft.irfft(gxf, n=n, axis=-1)[..., :w]
    gw = sfft.irfft(gwf, n=n, axis=-1)[..., :kw].astype(weight.dtype, copy=False)
    gb = gy.sum(axis=(0, 2, 3, 4))
    return gx, gw, gb


def _chunks(total: int, bytes_per_item: int):
    step = max(1, int(_CHUNK_BYTES // max(1, bytes_per_item)))
    for lo in range(0, total, step):
        yield lo, min(total, lo + step)


def _pool_view(x: np.ndarray, kernel, stride) -> np.ndarray:
    b_, f, d, h, w = x.shape
    kd, kh, kw = kernel
    sd, sh, sw = stride
    if kd > d or kh > h or kw > w:
        raise ValueError(f"pool kernel {kernel} larger than input {(d, h, w)}")
    shape = (b_, f, _out_len(d, kd, sd), _out_len(h, kh, sh), _out_len(w, kw, sw),
             kd, kh, kw)
    st = x.strides
    strides = (st[0], st[1], st[2] * sd, st[3] * sh, st[4] * sw, st[2], st[3], st[4])
    return as_strided(x, shape=shape, strides=strides)


def _pool_index(in_shape, kernel, stride) -> np.ndarray:
    """Flat input index of every window element, shape [P, K]."""
    d, h, w = in_shape
    ref = np.arange(d * h * w).reshape(1, 1, d, h, w)
    view = _pool_view(ref, kernel, stride)[0, 0]
    p = view.shape[0] * view.shape[1] * view.shape[2]
    return view.reshape(p, -1)


def avgpool3d(x, kernel=(1, 1, 4), stride=None):
    stride = kernel if stride is None else stride
    return _pool_view(np.asarray(x), kernel, stride).mean(axis=(-3, -2, -1))


def elu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. logits."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= logits.shape[-1]):
        raise ValueError("label out of range")
    b_ = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    loss = float(np.mean(logz - shifted[np.arange(b_), labels]))
    grad = softmax(logits)
    grad[np.arange(b_), labels] -= 1.0
    return loss, grad / b_


class Conv3d:
    def __init__(self, weight, bias, stride=(1, 1, 1), name="conv"):
        self.params = {"w": np.asarray(weight), "b": np.asarray(bias)}
        self.stride = tuple(stride)
        self.name = name
        self.grads = {}
        self._x = None

    def forward(self, x, train=False, stream=None):
        try:
            y = conv3d_valid(x, self.params["w"], self.params["b"], self.stride)
        except ValueError as err:
            raise ValueError(f"{self.name}: {err}") from None
        self._x = x if train else None
        return y

    def backward(self, gy):
        gx, gw, gb = conv3d_backward(self._x, self.params["w"], gy, self.stride)
        self.grads = {"w": gw, "b": gb}
        return gx


class BatchNorm:
    """Per-feature normalization over (batch, depth, height, width)."""

    def __init__(self, n_features, eps=1e-5, momentum=0.1, dtype=np.float64, name="bn"):
        self.params = {
            "gamma": np.ones(n_features, dtype=dtype),
            "beta": np.zeros(n_features, dtype=dtype),
        }
        self.running_mean = np.zeros(n_features, dtype=dtype)
        self.running_var = np.ones(n_features, dtype=dtype)
        self.eps = eps
        self.momentum = momentum
        self.name = name
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False, stream=None):
        axes = (0, 2, 3, 4)
        shape = (1, -1, 1, 1, 1)
        if train:
            if x.shape[0] < 2:
                raise ValueError(f"{self.name}: train mode needs batch size >= 2")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
        self._cache = (xhat, inv, x.shape) if train else None
        return self.params["gamma"].reshape(shape) * xhat + self.params["beta"].reshape(shape)

    def backward(self, gy):
        xhat, inv, xshape = self._cache
        axes = (0, 2, 3, 4)
        shape = (1, -1, 1, 1, 1)
        self.grads = {"gamma": (gy * xhat).sum(axis=axes), "beta": gy.sum(axis=axes)}
        g_xhat = gy * self.params["gamma"].reshape(shape)
        m = xshape[0] * xshape[2] * xshape[3] * xshape[4]
        sum_g = g_xhat.sum(axis=axes).reshape(shape)
        sum_gx = (g_xhat * xhat).sum(axis=axes).reshape(shape)
        return inv.reshape(shape) / m * (m * g_xhat - sum_g - xhat * sum_gx)


class Elu:
    def __init__(self, name="elu"):
        self.params = {}
        self.grads = {}
        self._y = None
        self.name = name

    def forward(self, x, train=False, stream=None):
        y = elu(x)
        self._y = y if train else None
        return y

    def backward(self, gy):
        return gy * np.where(self._y > 0, 1.0, self._y + 1.0)


class AvgPool3d:
    def __init__(self, kernel, stride=None, name="avgpool"):
        self.kernel = tuple(kernel)
        self.stride = self.kernel if stride is None else tuple(stride)
        self.params = {}
        self.grads = {}
        self.name = name
        self._shape = None

    def forward(self, x, train=False, stream=None):
        try:
            y = avgpool3d(x, self.kernel, self.stride)
        except ValueError as err:
            raise ValueError(f"{self.name}: {err}") from None
        self._shape = x.shape
        return y

    def backward(self, gy):
        b_, f, d, h, w = self._shape
        idx = _pool_index((d, h, w), self.kernel, self.stride)
        k = idx.shape[1]
        gx = np.zeros((b_, f, d * h * w), dtype=gy.dtype)
        share = (gy.reshape(b_, f, -1) / k)[..., None]
        np.add.at(gx, (slice(None), slice(None), idx), share)
        return gx.reshape(self._shape)


class MaxPool3d:
    def __init__(self, kernel, stride=None, name="maxpool"):
        self.kernel = tuple(kernel)
        self.stride = self.kernel if stride is None else tuple(stride)
        self.params = {}
        self.grads = {}
        self.name = name
        self._cache = None

    def forward(self, x, train=False, stream=None):
        try:
            view = _pool_view(np.asarray(x), self.kernel, self.stride)
        except ValueError as err:
            raise ValueError(f"{self.name}: {err}") from None
        b_, f = x.shape[:2]
        flat = view.reshape(*view.shape[:5], -1)
        arg = flat.argmax(axis=-1)
        y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, arg) if train else None
        return y

    def backward(self, gy):
        xshape, arg = self._cache
        b_, f, d, h, w = xshape
        idx = _pool_index((d, h, w), self.kernel, self.stride)   # [P, K]
        p = idx.shape[0]
        pos = idx[np.arange(p), arg.reshape(b_, f, p)]           # [B, F, P]
        gx = np.zeros((b_, f, d * h * w), dtype=gy.dtype)
        bb, ff = np.ogrid[:b_, :f]
        np.add.at(gx, (bb[..., None], ff[..., None], pos), gy.reshape(b_, f, p))
        return gx.reshape(xshape)


class Dropout:
    """Inverted dropout; identity in eval mode, deterministic given a stream."""

    def __init__(self, p, name="dropout"):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.params = {}
        self.grads = {}
        self.name = name
        self._mask = None

    def forward(self, x, train=False, stream=None):
        if not train or self.p == 0.0:
            self._mask = None
            return x
        if stream is None:
            raise ValueError(f"{self.name}: train mode needs an rng stream")
        keep = stream.uniform(x.shape) >= self.p
        self._mask = keep / (1.0 - self.p)
        return x * self._mask

    def backward(self, gy):
        return gy if self._mask is None else gy * self._mask


class Dense:
    def __init__(self, weight, bias, name="dense"):
        self.params = {"w": np.asarray(weight), "b": np.asarray(bias)}
        self.grads = {}
        self.name = name
        self._x = None

    def forward(self, x, train=False, stream=None):
        if x.shape[-1] != self.params["w"].shape[0]:
            raise ValueError(
                f"{self.name}: input width {x.shape[-1]} != {self.params['w'].shape[0]}"
            )
        self._x = x if train else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, gy):
        self.grads = {"w": self._x.T @ gy, "b": gy.sum(axis=0)}
        return gy @ self.params["w"].T


def grad_check(fn, arrays, eps=1e-4, sample=None, seed=0):
    """Max relative error between analytic gradients and central differences.

    fn(want_grads) must return (loss, [grads aligned with arrays]) when
    want_grads is true and a bare loss otherwise; arrays are perturbed in
    place. Relative error is |analytic - fd| / max(1, |analytic|, |fd|).
    With sample=N only N deterministically chosen coordinates per array are
    probed instead of all of them.
    """
    from .rng import RngStream

    _, grads = fn(True)
    worst = 0.0
    for ai, (arr, grad) in enumerate(zip(arrays, grads)):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        if sample is None or flat.size <= sample:
            coords = range(flat.size)
        else:
            coords = np.unique(RngStream(seed, ai).integers(0, flat.size, sample))
        for i in coords:
            keep = flat[i]
            flat[i] = keep + eps
            lp = fn(False)
            flat[i] = keep - eps
            lm = fn(False)
            flat[i] = keep
            fd = (lp - lm) / (2.0 * eps)
            err = abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i]))
            worst = max(worst, err)
    return worst
