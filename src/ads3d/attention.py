"""Scaled dot-product attention across EEG channels.

A [C, T] epoch is linearly projected along its time axis into queries and
keys of width d_k and values of width d_v; the channel-by-channel score
matrix softmax(Q K^T / sqrt(d_k)) then reweights the values. The layer
requires d_v == T, so its output keeps the epoch shape and can feed the grid
rearrangement.

All operations accept a leading batch axis. Weights act on the time axis
only, so the whole block is equivariant under channel permutations.
"""

from __future__ import annotations

import numpy as np


def project_qkv(x: np.ndarray, params: dict):
    """Per-channel linear maps over time: (x wq, x wk, x wv)."""
    x = np.asarray(x)
    if x.shape[-1] != params["wq"].shape[0]:
        raise ValueError(
            f"input time axis {x.shape[-1]} != projection rows {params['wq'].shape[0]}"
        )
    return x @ params["wq"], x @ params["wk"], x @ params["wv"]


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with per-row max subtraction."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def scaled_dot_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d_k)) v, rows of the weight matrix sum to 1."""
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    if q.shape[-1] != k.shape[-1]:
        raise ValueError("q and k must share d_k")
    if q.shape[-2] != k.shape[-2] or k.shape[-2] != v.shape[-2]:
        raise ValueError("q, k, v must share the channel axis")
    for name, a in (("q", q), ("k", k), ("v", v)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"non-finite values in {name}")
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1])
    return row_softmax(scores) @ v


class ChannelAttention:
    """Layer with the nncore protocol: params/grads keyed wq, wk, wv,
    forward caching only in train mode, analytic backward."""

    def __init__(self, w_q, w_k, w_v, name="attn"):
        w_q, w_k, w_v = np.asarray(w_q), np.asarray(w_k), np.asarray(w_v)
        if w_q.shape != w_k.shape:
            raise ValueError("w_q and w_k must share [T, d_k]")
        if w_v.shape != (w_q.shape[0], w_q.shape[0]):
            raise ValueError(f"w_v is {w_v.shape}: d_v must equal T={w_q.shape[0]}")
        self.params = {"wq": w_q, "wk": w_k, "wv": w_v}
        self.grads = {}
        self.name = name
        self._cache = None

    def forward(self, x, train=False, stream=None):
        q, k, v = project_qkv(x, self.params)
        scale = 1.0 / np.sqrt(q.shape[-1])
        weights = row_softmax(q @ np.swapaxes(k, -1, -2) * scale)
        self._cache = (x, q, k, v, weights, scale) if train else None
        return weights @ v

    def backward(self, g: np.ndarray) -> np.ndarray:
        x, q, k, v, weights, scale = self._cache
        p = self.params
        g_v = np.swapaxes(weights, -1, -2) @ g
        g_w = g @ np.swapaxes(v, -1, -2)
        g_s = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        g_q = g_s @ k * scale
        g_k = np.swapaxes(g_s, -1, -2) @ q * scale
        # Sum over batch for the parameter grads; x may be [C, T] or [B, C, T].
        xt = np.swapaxes(x, -1, -2)
        self.grads = {
            "wq": _sum_batches(xt @ g_q),
            "wk": _sum_batches(xt @ g_k),
            "wv": _sum_batches(xt @ g_v),
        }
        return (g_q @ p["wq"].T) + (g_k @ p["wk"].T) + (g_v @ p["wv"].T)


def _sum_batches(a: np.ndarray) -> np.ndarray:
    return a.sum(axis=tuple(range(a.ndim - 2))) if a.ndim > 2 else a
