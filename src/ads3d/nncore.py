"""Layer substrate with hand-written forward/backward passes.

Tensors are plain numpy arrays with the fixed axis convention
``[batch, feature, depth, height, width]`` (width doubles as the time axis).
Convolutions are valid (no padding) cross-correlations. The time axis of EEG
tensors is long (~1000 samples), so convolution runs as an FFT correlation
along the last axis combined with an explicit window contraction over the
small depth/height axes; padding the FFT to at least the input length keeps
the circular result exact for every valid lag. A large convolution runs in
batch chunks fixed by its shapes, two at a time on ``lanes``' thread pool,
and each chunk transforms its own slice of the batch, so its bits do not
depend on the number of threads.

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

from . import lanes

# Upper bound on the workspace of all batch chunks of one convolution that
# are in flight at once, the spectra of each chunk's input and output
# gradient included. The input spectra that the forward pass keeps for the
# backward pass are outside it.
_CHUNK_BYTES = 192 * 1024 * 1024
# A convolution whose batch needs less workspace than this runs as one
# chunk on the calling thread; every reduced-model call at batch 40 does.
_PARALLEL_BYTES = 8 * 1024 * 1024


def _window_dh(a: np.ndarray, kd: int, kh: int) -> np.ndarray:
    """View of [..., D, H, F] as [..., D', kd, H', kh, F] sliding windows."""
    *lead, d, h, f = a.shape
    st = a.strides
    shape = (*lead, d - kd + 1, kd, h - kh + 1, kh, f)
    strides = (*st[:-3], st[-3], st[-3], st[-2], st[-2], st[-1])
    return as_strided(a, shape=shape, strides=strides)


def _complex_dtype(dtype):
    return np.complex64 if dtype == np.float32 else np.complex128


def _conv_plan(x_shape, w_shape, n: int):
    """Batch chunks of one convolution as (lo, hi) pairs, from the shapes
    alone: one chunk below _PARALLEL_BYTES, else a multiple of lanes.LANES
    chunks, within one item of each other in size and each at most
    _CHUNK_BYTES / lanes.LANES by a bound on the larger per-item workspace of
    the two passes (the forward's window copy, transforms and output
    spectrum; the backward's output-gradient and transposed spectra)."""
    b_, fi, d, h, _ = x_shape
    fo, _, kd, kh, _ = w_shape
    dp, hp = d - kd + 1, h - kh + 1
    total = b_ * 16 * (n // 2 + 1) * (fi * dp * kd * hp * kh + 3 * fi * d * h
                                      + 2 * fo * dp * hp)
    parts = 1 if total < _PARALLEL_BYTES else min(b_, lanes.LANES * -(-total // _CHUNK_BYTES))
    edges = [b_ * j // parts for j in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _conv_forward(x, weight, bias):
    """conv3d_valid and each batch chunk's input spectrum, for the backward pass."""
    x = np.asarray(x)
    b_, fi, d, h, w = x.shape
    fo, fi_w, kd, kh, kw = weight.shape
    if fi != fi_w:
        raise ValueError(f"input has {fi} feature channels, kernel expects {fi_w}")
    if kd > d or kh > h or kw > w:
        raise ValueError(f"kernel {(kd, kh, kw)} larger than input {(d, h, w)}")
    n = sfft.next_fast_len(w, real=True)
    kf = np.conj(sfft.rfft(weight, n=n, axis=-1))
    wp = w - kw + 1
    out = np.empty((b_, fo, d - kd + 1, h - kh + 1, wp), dtype=x.dtype)

    def run(lo, hi):
        # pocketfft transforms each line alone: a whole-batch call's bits
        xf = sfft.rfft(x[lo:hi], n=n, axis=-1)
        yf = np.einsum("bidphqf,oipqf->bodhf", _window_dh(xf, kd, kh), kf, optimize=True)
        out[lo:hi] = sfft.irfft(yf, n=n, axis=-1)[..., :wp]
        return xf

    xfs = lanes.run(run, _conv_plan(x.shape, weight.shape, n))
    out += bias.reshape(1, fo, 1, 1, 1)
    return out, xfs


def conv3d_valid(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of [B,Fi,D,H,W] with [Fo,Fi,kD,kH,kW] + bias."""
    return _conv_forward(x, weight, bias)[0]


def _conv_backward(x_shape, dtype, xfs, weight, gy):
    """Gradients (gx, gw, gb) of a convolution from its chunks' input spectra.

    The products run per frequency on spectra laid out [F, D, H, B, C],
    one batched GEMM per kernel offset (p, q) and gradient: the output
    gradient times the kernel, added into the input gradient shifted by
    (p, q), and the output gradient times a view of the input spectrum
    shifted by (p, q), whose (H', B) axes merge into one contraction axis.
    Nothing is copied per window."""
    _, fi, d, h, w = x_shape
    fo, _, kd, kh, kw = weight.shape
    dp, hp = d - kd + 1, h - kh + 1
    cdtype = _complex_dtype(dtype)
    n = sfft.next_fast_len(w, real=True)
    nf = n // 2 + 1
    chunks = _conv_plan(x_shape, weight.shape, n)     # the forward's chunks
    spectra = dict(zip(chunks, xfs))
    kf = sfft.rfft(weight, n=n, axis=-1)
    kmat = np.ascontiguousarray(kf.transpose(2, 3, 4, 0, 1))    # [kD, kH, F, Fo, Fi]
    gx = np.empty(x_shape, dtype=dtype)

    def run(lo, hi):
        bc = hi - lo
        xc = np.empty((nf, d, h, bc, fi), dtype=cdtype)
        np.conjugate(spectra[lo, hi].transpose(4, 2, 3, 0, 1), out=xc)
        g = np.ascontiguousarray(sfft.rfft(gy[lo:hi], n=n, axis=-1).transpose(4, 2, 3, 0, 1))
        rows = g.reshape(nf, dp * hp * bc, fo)
        cols = g.reshape(nf, dp, hp * bc, fo).swapaxes(-1, -2)
        gxf = np.zeros((nf, d, h, bc, fi), dtype=cdtype)
        gwc = np.empty((nf, fo, fi, kd, kh), dtype=cdtype)
        for p in range(kd):
            for q in range(kh):
                gxf[:, p:p + dp, q:q + hp] += np.matmul(rows, kmat[p, q]).reshape(
                    nf, dp, hp, bc, fi)
                window = xc[:, p:p + dp, q:q + hp].reshape(nf, dp, hp * bc, fi)
                gwc[..., p, q] = np.matmul(cols, window).sum(axis=1)
        gx[lo:hi] = sfft.irfft(gxf.transpose(3, 4, 1, 2, 0), n=n, axis=-1)[..., :w]
        return gwc

    parts = lanes.run(run, chunks)
    gwc = parts[0]
    for part in parts[1:]:
        gwc += part
    # gwc is the conjugate of the weight-gradient spectrum
    gw = sfft.irfft(np.conj(gwc), n=n, axis=0)[:kw].transpose(1, 2, 3, 4, 0)
    gw = np.ascontiguousarray(gw, dtype=weight.dtype)
    gb = gy.sum(axis=(0, 2, 3, 4))
    return gx, gw, gb


def _pool_slices(name, shape, kernel, stride):
    """For each kernel offset, in C order, the basic slice of a [B, F, D,
    H, W] input that holds the element at that offset of every window."""
    dhw = shape[2:]
    if any(k > n for k, n in zip(kernel, dhw)):
        raise ValueError(f"{name}: pool kernel {kernel} larger than input {dhw}")
    out = [(n - k) // s + 1 for n, k, s in zip(dhw, kernel, stride)]
    return [(..., *(slice(o, o + s * (m - 1) + 1, s)
                    for o, s, m in zip(offset, stride, out)))
            for offset in np.ndindex(*kernel)]


def elu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. logits."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= logits.shape[-1]):
        raise ValueError("label out of range")
    b_ = logits.shape[0]
    loss = float(np.mean(-log_softmax(logits)[np.arange(b_), labels]))
    grad = softmax(logits)
    grad[np.arange(b_), labels] -= 1.0
    return loss, grad / b_


class Conv3d:
    def __init__(self, weight, bias, name="conv"):
        self.params = {"w": np.asarray(weight), "b": np.asarray(bias)}
        self.name = name
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False, stream=None):
        try:
            y, xfs = _conv_forward(x, self.params["w"], self.params["b"])
        except ValueError as err:
            raise ValueError(f"{self.name}: {err}") from None
        # The input spectra are about the size of the input and spare the
        # backward pass their transforms.
        self._cache = (x.shape, x.dtype, xfs) if train else None
        return y

    def backward(self, gy):
        gx, gw, gb = _conv_backward(*self._cache, self.params["w"], gy)
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
        # Two full-size buffers in train mode, one in eval mode, each step the
        # same operation as in the textbook expressions, so the same bits.
        axes = (0, 2, 3, 4)
        shape = (1, -1, 1, 1, 1)
        if train:
            if x.shape[0] < 2:
                raise ValueError(f"{self.name}: train mode needs batch size >= 2")
            # x.var's own steps: centre on the mean, square, average.
            mean = x.mean(axis=axes)
            xhat = x - mean.reshape(shape)
            y = np.square(xhat)
            var = y.mean(axis=axes)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
            xhat = y = x - mean.reshape(shape)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv.reshape(shape)
        np.multiply(xhat, self.params["gamma"].reshape(shape), out=y)
        y += self.params["beta"].reshape(shape)
        self._cache = (xhat, inv, x.shape) if train else None
        return y

    def backward(self, gy):
        xhat, inv, xshape = self._cache
        axes = (0, 2, 3, 4)
        shape = (1, -1, 1, 1, 1)
        m = xshape[0] * xshape[2] * xshape[3] * xshape[4]
        # Two full-size buffers: the gradient and a scratch for products.
        scratch = gy * xhat
        self.grads = {"gamma": scratch.sum(axis=axes), "beta": gy.sum(axis=axes)}
        g = gy * self.params["gamma"].reshape(shape)
        sum_g = g.sum(axis=axes).reshape(shape)
        sum_gx = np.multiply(g, xhat, out=scratch).sum(axis=axes).reshape(shape)
        # inv / m * (m * g - sum_g - xhat * sum_gx)
        g *= m
        g -= sum_g
        g -= np.multiply(xhat, sum_gx, out=scratch)
        g *= inv.reshape(shape) / m
        return g


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
        self._cache = None

    def forward(self, x, train=False, stream=None):
        slices = _pool_slices(self.name, x.shape, self.kernel, self.stride)
        # From zero, in offset order: the sum numpy's mean of a window makes.
        y = np.zeros(x[slices[0]].shape, x.dtype)
        for sl in slices:
            y += x[sl]
        y /= len(slices)
        self._cache = (x.shape, slices) if train else None
        return y

    def backward(self, gy):
        xshape, slices = self._cache
        gx = np.zeros(xshape, dtype=gy.dtype)
        share = gy / len(slices)
        # Last offset first: an element in several windows then sums their
        # shares in window order.
        for sl in reversed(slices):
            gx[sl] += share
        return gx


class MaxPool3d:
    """Max over each window. Of equal values the first offset in C order
    wins, and a NaN in a window wins over every number."""

    def __init__(self, kernel, stride=None, name="maxpool"):
        self.kernel = tuple(kernel)
        self.stride = self.kernel if stride is None else tuple(stride)
        self.params = {}
        self.grads = {}
        self.name = name
        self._cache = None

    def forward(self, x, train=False, stream=None):
        slices = _pool_slices(self.name, x.shape, self.kernel, self.stride)
        y = x[slices[0]].copy()
        arg = np.zeros(y.shape, np.min_scalar_type(len(slices))) if train else None
        for i, sl in enumerate(slices[1:], 1):
            v = x[sl]
            if train:
                # v wins where it is larger or NaN, unless a NaN already won;
                # a winner's offset is larger than any earlier one's.
                win = ~(v <= y)
                win &= y == y
                np.maximum(arg, np.multiply(win, i, dtype=arg.dtype), out=arg)
            # np.maximum returns its second operand of two equal values, so
            # the earlier one is kept, -0.0 and 0.0 included.
            np.maximum(v, y, out=y)
        self._cache = (x.shape, slices, arg) if train else None
        return y

    def backward(self, gy):
        xshape, slices, arg = self._cache
        gx = np.zeros(xshape, dtype=gy.dtype)
        # Last offset first, as in AvgPool3d.backward.
        for i, sl in reversed(list(enumerate(slices))):
            gx[sl] += np.where(arg == i, gy, 0.0)
        return gx


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
