"""The attention + dual-stream 3D-CNN classifier.

Pipeline per batch of [B, C, T] epochs whose channels are in the montage's
row-major order (training.align_to_montage resolves them by name): channel
attention, a reshape onto the grid [B, 1, g, g, T], two parallel
convolution streams over the same grid (stream one: three convs with
average pooling; stream two: five convs with max pooling), concatenation of
the equal-shaped stream outputs along the spatial height axis, a fusion
convolution block, then a single dense layer producing one logit per class.

The layers are listed once, as rows derived from the configuration
(_topology); shape_chain, param_count and the model's layers all follow from
those rows. The model runs them as one layer sequence, forward in order and
backward in reverse. The full-size configuration reproduces a fixed 18-row
chain of intermediate shapes (see shape_chain); a reduced configuration with the same
topology exists for gradient checks and fast end-to-end tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import montage as montage_mod
from .attention import ChannelAttention
from .eegio import ModelCheckpoint
from .nncore import (AvgPool3d, BatchNorm, Conv3d, Dense, Dropout, Elu,
                     MaxPool3d, cross_entropy)
from .rng import RngStream

CLASS_COUNT = 4


@dataclass(frozen=True)
class AdsNetConfig:
    n_channels: int = 64
    n_samples: int = 1001
    grid_side: int = 8
    attn_dk: int = 64
    b1_channels: tuple = (10, 20, 30)
    b1_kernels: tuple = ((4, 4, 125), (3, 3, 16), (3, 3, 16))
    b1_pool: int = 4
    b1_dropout: float = 0.5
    b2_channels: tuple = (6, 12, 18, 24, 30)
    b2_kernels: tuple = ((3, 3, 62), (3, 3, 10), (2, 2, 10), (2, 2, 10), (2, 2, 10))
    b2_pool: int = 2
    b2_dropout: float = 0.25
    b3_channels: int = 60
    b3_kernel: tuple = (1, 2, 10)
    b3_pool: int = 2
    b3_dropout: float = 0.5
    n_classes: int = CLASS_COUNT

    def __post_init__(self):
        if self.grid_side * self.grid_side != self.n_channels:
            raise ValueError("n_channels must equal grid_side**2")
        shape_chain(self)   # raises if any stage is inconsistent


def _conv_out(shape, out_ch, kernel, stage):
    f, d, h, w = shape
    kd, kh, kw = kernel
    if kd > d or kh > h or kw > w:
        raise ValueError(f"{stage}: kernel {kernel} larger than input {(d, h, w)}")
    return (out_ch, d - kd + 1, h - kh + 1, w - kw + 1)


def _pool_out(shape, k, stage):
    f, d, h, w = shape
    if k > w:
        raise ValueError(f"{stage}: pool {k} larger than axis {w}")
    return (f, d, h, (w - k) // k + 1)


def _topology(config: AdsNetConfig):
    """The layers after the grid reshape as ordered (name, kind, arg) rows,
    one list each for stream b1, stream b2 and fusion block b3.

    kind is conv (arg: in channels, out channels, kernel), bn (features),
    elu, avgpool/maxpool (time-axis kernel and stride) or dropout (rate).
    Both streams read the grid; b3 reads their concatenation.
    """
    streams = (("b1", config.b1_channels, config.b1_kernels, "avgpool",
                config.b1_pool, config.b1_dropout),
               ("b2", config.b2_channels, config.b2_kernels, "maxpool",
                config.b2_pool, config.b2_dropout))
    blocks = []
    for block, channels, kernels, pool, k, p in streams:
        rows, in_ch = [], 1
        for i, (ch, kernel) in enumerate(zip(channels, kernels), 1):
            rows += [(f"{block}.conv{i}", "conv", (in_ch, ch, kernel)),
                     (f"{block}.bn{i}", "bn", ch)]
            if i >= 2:
                rows += [(f"{block}.elu{i}", "elu", None),
                         (f"{block}.pool{i - 1}", pool, k),
                         (f"{block}.drop{i - 1}", "dropout", p)]
            in_ch = ch
        blocks.append(rows)
    blocks.append([
        ("b3.conv1", "conv", (config.b2_channels[-1], config.b3_channels,
                              config.b3_kernel)),
        ("b3.bn1", "bn", config.b3_channels),
        ("b3.elu1", "elu", None),
        ("b3.pool1", "avgpool", config.b3_pool),
        ("b3.drop1", "dropout", config.b3_dropout),
    ])
    return blocks


def _walk(rows, shape, chain):
    for name, kind, arg in rows:
        if kind == "conv":
            shape = _conv_out(shape, arg[1], arg[2], name)
        elif kind.endswith("pool"):
            shape = _pool_out(shape, arg, name)
        else:
            continue
        chain.append((name, shape))
    return shape


def shape_chain(config: AdsNetConfig):
    """All intermediate output sizes as (stage, (F, D, H, W)), batch omitted."""
    g, t = config.grid_side, config.n_samples
    chain = [("reshape", (1, g, g, t))]
    b1, b2, b3 = _topology(config)
    s1 = _walk(b1, chain[0][1], chain)
    s2 = _walk(b2, chain[0][1], chain)
    if s1 != s2:
        raise ValueError(f"stream outputs differ: {s1} vs {s2}")
    shape = (s1[0], s1[1], s1[2] * 2, s1[3])
    chain.append(("concat", shape))
    _walk(b3, shape, chain)
    return chain


def flat_features(config: AdsNetConfig) -> int:
    f, d, h, w = shape_chain(config)[-1][1]
    return f * d * h * w


FULL_CONFIG = AdsNetConfig()

# Same topology at toy scale: 4x4 grid, 64-sample epochs. Small enough for
# finite-difference checks of the entire network and quick training runs.
# Dropout rates are scaled down with the capacity; the full-size rates
# cripple a ~10k-parameter net trained on 160 trials.
REDUCED_CONFIG = AdsNetConfig(
    n_channels=16, n_samples=64, grid_side=4, attn_dk=8,
    b1_channels=(4, 8, 12), b1_kernels=((2, 2, 9), (2, 2, 5), (2, 2, 4)),
    b1_dropout=0.2,
    b2_channels=(2, 4, 6, 8, 12),
    b2_kernels=((2, 2, 5), (1, 1, 3), (2, 2, 3), (1, 1, 3), (2, 2, 2)),
    b2_dropout=0.1,
    b3_channels=24, b3_kernel=(1, 2, 1), b3_dropout=0.2,
)


def param_count(config: AdsNetConfig) -> int:
    """Number of learnable scalars, straight from the configuration."""
    t = config.n_samples
    total = 2 * t * config.attn_dk + t * t
    for rows in _topology(config):
        for _, kind, arg in rows:
            if kind == "conv":
                in_ch, out_ch, (kd, kh, kw) = arg
                total += out_ch * in_ch * kd * kh * kw + out_ch
            elif kind == "bn":
                total += 2 * arg
    return total + flat_features(config) * config.n_classes + config.n_classes


def _uniform_init(stream: RngStream, shape, fan_in: int, dtype):
    bound = np.sqrt(1.0 / fan_in)
    return ((stream.uniform(shape) * 2.0 - 1.0) * bound).astype(dtype)


class _Reshape:
    """Parameter-free layer between two fixed per-trial shapes."""

    def __init__(self, shape_in, shape_out, name):
        self.shape_in, self.shape_out = tuple(shape_in), tuple(shape_out)
        self.name, self.params, self.grads = name, {}, {}

    def forward(self, x, train=False, stream=None):
        return x.reshape(x.shape[:1] + self.shape_out)

    def backward(self, g):
        return g.reshape(g.shape[:1] + self.shape_in)


class _Streams:
    """Runs every stream (a list of layers) on the same input and stacks
    their equal-shaped outputs along height. The backward pass splits the
    gradient the same way and sums the streams' input gradients in order."""

    def __init__(self, streams, name):
        self.streams = streams
        self.name, self.params, self.grads = name, {}, {}

    def forward(self, x, train=False, stream=None):
        outs = []
        for layers in self.streams:
            y = x
            for layer in layers:
                y = layer.forward(y, train=train, stream=stream)
            outs.append(y)
        return np.concatenate(outs, axis=3)

    def backward(self, g):
        gx = None
        for layers, gy in zip(self.streams, np.split(g, len(self.streams), axis=3)):
            for layer in reversed(layers):
                gy = layer.backward(gy)
            gx = gy if gx is None else gx + gy
        return gx


class AdsNet:
    """Model instance: parameters, normalization state and wiring."""

    def __init__(self, config: AdsNetConfig, montage: montage_mod.MontageMap,
                 seed: int = 0, dtype=np.float64):
        if montage.n_channels != config.n_channels:
            raise ValueError("montage size does not match config channel count")
        self.config = config
        self.montage = montage
        self.dtype = dtype
        self.seed = seed
        self._build(RngStream(seed, 0xADF))

    def _build(self, init: RngStream):
        cfg = self.config
        t, dk = cfg.n_samples, cfg.attn_dk
        # The value projection starts at identity plus the usual uniform
        # noise: a purely random [T, T] mixing matrix erases channel
        # identity at init and measurably stalls training.
        self.attn = ChannelAttention(
            _uniform_init(init, (t, dk), t, self.dtype),
            _uniform_init(init, (t, dk), t, self.dtype),
            np.eye(t, dtype=self.dtype) + _uniform_init(init, (t, t), t, self.dtype),
        )

        def conv(name, arg):
            in_ch, out_ch, (kd, kh, kw) = arg
            fan_in = in_ch * kd * kh * kw
            w = _uniform_init(init, (out_ch, in_ch, kd, kh, kw), fan_in, self.dtype)
            return Conv3d(w, np.zeros(out_ch, dtype=self.dtype), name=name)

        make = {
            "conv": conv,
            "bn": lambda name, n: BatchNorm(n, dtype=self.dtype, name=name),
            "elu": lambda name, _: Elu(name=name),
            "avgpool": lambda name, k: AvgPool3d((1, 1, k), name=name),
            "maxpool": lambda name, k: MaxPool3d((1, 1, k), name=name),
            "dropout": lambda name, p: Dropout(p, name=name),
        }
        self.b1, self.b2, self.b3 = [[make[kind](name, arg) for name, kind, arg in rows]
                                     for rows in _topology(cfg)]
        chain = shape_chain(cfg)
        n_flat = flat_features(cfg)
        self.head = Dense(
            _uniform_init(init, (n_flat, cfg.n_classes), n_flat, self.dtype),
            np.zeros(cfg.n_classes, dtype=self.dtype),
            name="head",
        )
        self._layers = [self.attn] + self.b1 + self.b2 + self.b3 + [self.head]
        # Input rows are in montage order, so the grid is a plain reshape.
        self._seq = [self.attn, _Reshape((cfg.n_channels, t), chain[0][1], "reshape"),
                     _Streams([self.b1, self.b2], "concat"), *self.b3,
                     _Reshape(chain[-1][1], (n_flat,), "flatten"), self.head]

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> dict:
        return {f"{layer.name}.{key}": val
                for layer in self._layers for key, val in layer.params.items()}

    def state_arrays(self) -> dict:
        """Parameters plus batchnorm running statistics."""
        out = self.parameters()
        for layer in self._layers:
            if isinstance(layer, BatchNorm):
                out[f"{layer.name}.rmean"] = layer.running_mean
                out[f"{layer.name}.rvar"] = layer.running_var
        return out

    def load_state(self, arrays: dict):
        """Copy every state entry in; names and shapes must match exactly."""
        state = self.state_arrays()
        missing = set(state) - set(arrays)
        if missing:
            raise KeyError(f"missing state entries: {sorted(missing)}")
        unexpected = set(arrays) - set(state)
        if unexpected:
            raise KeyError(f"unexpected state entries: {sorted(unexpected)}")
        for name, target in state.items():
            shape = np.shape(arrays[name])
            if shape != target.shape:
                raise ValueError(f"state entry {name!r}: shape {shape}, "
                                 f"model expects {target.shape}")
        for name, target in state.items():
            target[...] = np.asarray(arrays[name], dtype=self.dtype)

    def to_checkpoint(self, metadata: dict | None = None) -> ModelCheckpoint:
        entries = [
            (name, arr.shape, np.ascontiguousarray(arr, dtype=np.float32).ravel())
            for name, arr in self.state_arrays().items()
        ]
        meta = {"seed": str(self.seed)}
        meta.update(metadata or {})
        return ModelCheckpoint(entries=entries, metadata=meta)

    def load_checkpoint(self, ckpt: ModelCheckpoint):
        self.load_state({name: vals.reshape(dims)
                         for name, dims, vals in ckpt.entries})

    # -- execution -------------------------------------------------------------

    def forward(self, batch: np.ndarray, train: bool = False,
                stream: RngStream | None = None) -> np.ndarray:
        """Batch [B, C, T] of epochs in montage channel order -> logits."""
        cfg = self.config
        x = np.asarray(batch, dtype=self.dtype)
        if x.ndim != 3 or x.shape[1] != cfg.n_channels or x.shape[2] != cfg.n_samples:
            raise ValueError(
                f"input: expected [B, {cfg.n_channels}, {cfg.n_samples}], got {x.shape}"
            )
        for layer in self._seq:
            x = layer.forward(x, train=train, stream=stream)
        return x

    def loss_and_grads(self, batch, labels, stream: RngStream | None = None):
        """Mean cross-entropy and gradients for every parameter."""
        loss, g = cross_entropy(self.forward(batch, train=True, stream=stream), labels)
        for layer in reversed(self._seq):
            g = layer.backward(g)
        grads = {f"{layer.name}.{key}": layer.grads[key]
                 for layer in self._layers for key in layer.params}
        return loss, grads
