"""Preprocessing: band-pass and notch filtering, decimation, epoch windows.

Filters are designed as cascades of second-order sections and applied
forward-backward (zero phase), so a single design attenuates twice as many
dB in use. The canonical chain for raw 500 Hz recordings is
``notch60 -> bandpass 4-40 Hz -> downsample to 250 Hz -> extract_epoch``.

Every step acts on each row (one channel of one trial) alone, so
``preprocess_array`` runs the chain over blocks of rows, up to
``lanes.LANES`` blocks at once (see the ``lanes`` module), each filtered in
float64 and stored straight into the output; the output is bit-identical to
a whole-array run whatever the block size or thread count. A call whose
rows fit in ``BLOCK_BYTES`` runs as one block on the calling thread.
``scipy.signal`` is imported where it is used, which keeps it out of
commands that never filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lanes

# Bytes of float64 input rows in flight at once, over all lanes, in
# preprocess_array, stats.welch_psd and training.prepare_reduced_inputs:
# rows that fit run as one block on the calling thread, more rows in blocks
# of BLOCK_BYTES // lanes.LANES. Each block's filter workspace is a few
# times its size.
BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class BiquadCascade:
    """Second-order sections, rows (b0, b1, b2, a1, a2) with a0 == 1."""

    sections: np.ndarray

    def __post_init__(self):
        sec = np.asarray(self.sections, dtype=np.float64)
        if sec.ndim != 2 or sec.shape[1] != 5:
            raise ValueError("sections must be [n, 5]")
        object.__setattr__(self, "sections", sec)
        for a1, a2 in sec[:, 3:]:
            poles = np.roots([1.0, a1, a2])
            if np.any(np.abs(poles) >= 1.0):
                raise ValueError("unstable section: pole on or outside unit circle")

    @property
    def n_sections(self) -> int:
        return self.sections.shape[0]

    def as_sos(self) -> np.ndarray:
        sos = np.empty((self.n_sections, 6))
        sos[:, :3] = self.sections[:, :3]
        sos[:, 3] = 1.0
        sos[:, 4:] = self.sections[:, 3:]
        return sos


def design_butter_bandpass(low: float = 4.0, high: float = 40.0,
                           fs: float = 500.0, order: int = 5) -> BiquadCascade:
    """Butterworth band-pass; an order-N design yields N biquad sections."""
    from scipy import signal
    if not (0.0 < low < high < fs / 2.0):
        raise ValueError(f"invalid band edges ({low}, {high}) for fs={fs}")
    sos = signal.butter(order, [low, high], btype="bandpass", fs=fs, output="sos")
    return BiquadCascade(np.column_stack([sos[:, :3], sos[:, 4:]]))


def design_notch(freq: float = 60.0, fs: float = 500.0, q: float = 30.0) -> BiquadCascade:
    if fs <= 2.0 * freq:
        raise ValueError(f"fs={fs} too low for a {freq} Hz notch")
    from scipy import signal
    b, a = signal.iirnotch(freq, q, fs=fs)
    b = b / a[0]
    a = a / a[0]
    return BiquadCascade(np.array([[b[0], b[1], b[2], a[1], a[2]]]))


def magnitude(cascade: BiquadCascade, freqs, fs: float) -> np.ndarray:
    """|H(f)| of the cascade at the given frequencies for a single pass."""
    from scipy import signal
    _, h = signal.sosfreqz(cascade.as_sos(), worN=np.atleast_1d(freqs), fs=fs)
    return np.abs(h)


def _odd_pad(x: np.ndarray, padlen: int) -> np.ndarray:
    left = 2.0 * x[..., :1] - x[..., padlen:0:-1]
    right = 2.0 * x[..., -1:] - x[..., -2:-padlen - 2:-1]
    return np.concatenate([left, x, right], axis=-1)


def _causal_pass(sos, zi_unit, x):
    """One left-to-right pass with the state pre-charged to the steady-state
    response of the first sample."""
    from scipy import signal
    batch_shape = x.shape[:-1]
    zi = (zi_unit.reshape(zi_unit.shape[0], *([1] * len(batch_shape)), 2)
          * x[None, ..., :1])
    y, _ = signal.sosfilt(sos, x, axis=-1, zi=zi)
    return y


def filtfilt(cascade: BiquadCascade, x: np.ndarray) -> np.ndarray:
    """Zero-phase filtering along the last axis: the average of the
    forward-backward and backward-forward double passes.

    Edges are odd-reflection padded by 6 x n_sections samples. Averaging the
    two pass orders makes time reversal an exact symmetry,
    filtfilt(x[::-1]) == filtfilt(x)[::-1], bit for bit; the effective
    magnitude response is |H|^2 either way.
    """
    x = np.asarray(x, dtype=np.float64)
    padlen = 6 * cascade.n_sections
    if x.shape[-1] <= padlen:
        raise ValueError(
            f"input too short: need more than {padlen} samples, got {x.shape[-1]}"
        )
    from scipy import signal
    sos = cascade.as_sos()
    zi_unit = signal.sosfilt_zi(sos)
    padded = _odd_pad(x, padlen)
    # y = 0.5 * (fwd_bwd + bwd_fwd), accumulated in place.
    y = _causal_pass(sos, zi_unit, _causal_pass(sos, zi_unit, padded)[..., ::-1])[..., ::-1]
    y += _causal_pass(sos, zi_unit, _causal_pass(sos, zi_unit, padded[..., ::-1])[..., ::-1])
    y *= 0.5
    return np.ascontiguousarray(y[..., padlen:-padlen])


def notch60(x: np.ndarray, fs: float, q: float = 30.0) -> np.ndarray:
    """Zero-phase 60 Hz line-noise notch."""
    return filtfilt(design_notch(60.0, fs, q), x)


def downsample(x: np.ndarray, factor: int = 2) -> np.ndarray:
    """Keep every factor-th sample along the last axis (no extra filtering;
    callers must band-limit first)."""
    if int(factor) != factor or factor < 1:
        raise ValueError("factor must be an integer >= 1")
    return np.asarray(x)[..., ::int(factor)]


def extract_epoch(recording: np.ndarray, onset_sample: int, length: int = 1001) -> np.ndarray:
    """Copy samples [onset, onset + length) along the last axis."""
    recording = np.asarray(recording)
    n = recording.shape[-1]
    if onset_sample < 0 or length < 1 or onset_sample + length > n:
        raise ValueError(
            f"epoch [{onset_sample}, {onset_sample + length}) out of range for {n} samples"
        )
    return recording[..., onset_sample:onset_sample + length].copy()


def preprocess_array(data: np.ndarray, fs: float, *, notch_hz: float = 60.0,
                     band: tuple[float, float] = (4.0, 40.0), order: int = 5,
                     target_fs: float = 250.0, epoch_onset: int = 0,
                     epoch_length: int = 1001, out: np.ndarray | None = None
                     ) -> tuple[np.ndarray, float]:
    """Full chain on [..., samples] data of any float dtype; returns
    (epochs, new_fs). The epochs are float64, or written into `out`, a
    C-contiguous [..., epoch_length] array of any float dtype. Rows are
    filtered in float64 blocks (see BLOCK_BYTES) straight into the output."""
    factor = int(round(fs / target_fs))
    if factor < 1 or abs(fs / factor - target_fs) > 1e-9:
        raise ValueError(f"fs={fs} is not an integer multiple of {target_fs}")
    filters = [design_notch(notch_hz, fs)] if notch_hz else []
    filters.append(design_butter_bandpass(band[0], band[1], fs, order))
    data = np.asarray(data)
    shape = data.shape[:-1] + (epoch_length,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {shape} array")
    rows = data.reshape(-1, data.shape[-1])
    out_rows = out.reshape(-1, epoch_length)

    def block(lo, hi):
        x = rows[lo:hi]
        for cascade in filters:
            x = filtfilt(cascade, x)
        out_rows[lo:hi] = extract_epoch(downsample(x, factor), epoch_onset, epoch_length)

    lanes.run(block, lanes.plan(rows.shape[0], 8 * data.shape[-1], BLOCK_BYTES))
    return out, fs / factor
