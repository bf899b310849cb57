"""Deterministic synthetic EEG corpus with planted spectral effects.

Each trial is 1/f^gamma Gaussian background noise per channel, plus
Hann-windowed narrowband bursts on selected channels for selected classes,
plus an optional common-mode 60 Hz line component. Everything is drawn from
counter-based streams (see rng module), so a seed fixes the corpus
bit-exactly and trials can be generated independently.

The default template plants class-dependent band power with the layout the
decoder and statistics are expected to recover: the three motion classes
carry extra occipital alpha, the two dispersion classes extra prefrontal
beta, and 'split' an additional right-occipital component that separates it
from 'spread_out'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import fft as sfft

from . import lanes
from .eegio import EpochSet
from .montage import CHANNEL_NAMES_64
from .rng import GAMMA, RngStream, mix64

CLASS_NAMES = ("split", "spread_out", "fall_in", "hovering")

_NOISE, _BURST, _LINE = 0xB6, 0xB7, 0xB8
# float64 values of trials in flight at once in generate(), over all lanes.
# Small blocks keep the draw/transform working set near cache size.
CHUNK_VALUES = 1_000_000


@dataclass(frozen=True)
class PlantedEffect:
    classes: tuple          # class names
    channels: tuple         # channel names
    center_hz: float
    bandwidth_hz: float     # per-trial frequency jitter span
    amplitude_uv: float


@dataclass(frozen=True)
class SynthConfig:
    n_trials_per_class: int = 50
    fs: float = 500.0
    epoch_seconds: float = 4.0
    noise_exponent: float = 1.0
    noise_amplitude_uv: float = 10.0
    line_amplitude_uv: float = 1.0
    effects: tuple = ()
    channel_names: tuple = CHANNEL_NAMES_64
    seed: int = 0

    @property
    def n_samples(self) -> int:
        # Inclusive endpoints: a 4 s window at 500 Hz spans 2001 samples and
        # decimates by two onto the 1001-sample epochs the model expects.
        return int(round(self.fs * self.epoch_seconds)) + 1

    def validate(self):
        if self.n_trials_per_class < 1 or self.fs <= 0 or self.epoch_seconds <= 0:
            raise ValueError("invalid corpus dimensions")
        if self.noise_amplitude_uv < 0 or self.line_amplitude_uv < 0:
            raise ValueError("amplitudes must be non-negative")
        names = {n.lower() for n in self.channel_names}
        for eff in self.effects:
            if eff.amplitude_uv < 0:
                raise ValueError("effect amplitude must be non-negative")
            if not 0 < eff.center_hz < self.fs / 2:
                raise ValueError(f"effect center {eff.center_hz} outside (0, fs/2)")
            for cls in eff.classes:
                if cls not in CLASS_NAMES:
                    raise ValueError(f"unknown class {cls!r}")
            for ch in eff.channels:
                if ch.lower() not in names:
                    raise ValueError(f"effect channel {ch!r} not in channel set")


def default_paper_template(effect_scale: float = 1.0, n_trials_per_class: int = 50,
                           seed: int = 0) -> SynthConfig:
    """Corpus whose class contrasts point the same way as the reported
    scalp findings; magnitudes are calibration choices, not measurements."""
    amp = 12.0 * effect_scale
    effects = (
        PlantedEffect(classes=("split", "spread_out", "fall_in"),
                      channels=("O1", "Oz", "O2"),
                      center_hz=10.0, bandwidth_hz=2.0, amplitude_uv=amp),
        PlantedEffect(classes=("split", "spread_out"),
                      channels=("Fp1", "Fp2"),
                      center_hz=20.0, bandwidth_hz=2.0, amplitude_uv=amp),
        # Split-only marker in a disjoint alpha sub-band so its power adds to
        # the base occipital burst instead of interfering with it; stronger
        # than the base burst so the split/spread_out margin stays wide. Its
        # centre is below 13 Hz, but its Welch leakage does reach the beta
        # band: at effect_scale=2.5, O2 is flagged in a beta contrast of
        # split+spread_out against fall_in (t = 5.89), though only Fp1/Fp2
        # carry a beta effect.
        PlantedEffect(classes=("split",),
                      channels=("O2",),
                      center_hz=11.5, bandwidth_hz=1.0, amplitude_uv=1.5 * amp),
    )
    return SynthConfig(n_trials_per_class=n_trials_per_class, effects=effects,
                       seed=seed)


def _noise_sigma(config: SynthConfig) -> np.ndarray:
    n = config.n_samples
    freqs = sfft.rfftfreq(n, 1.0 / config.fs)
    sigma = np.zeros_like(freqs)
    sigma[1:] = 1.0 / np.maximum(freqs[1:], 1.0) ** (config.noise_exponent / 2.0)
    if n % 2 == 0:
        sigma[-1] = 0.0
    # Analytic output variance of the synthesis below, used to hit the
    # requested RMS without data-dependent rescaling.
    var = 4.0 * np.sum(sigma[1:] ** 2) / n ** 2
    return sigma * (config.noise_amplitude_uv / np.sqrt(var) if var > 0 else 0.0)


def _noise_trial(config: SynthConfig, trial: int) -> np.ndarray:
    """Reference single-trial synthesis; generate() batches the same draws."""
    n = config.n_samples
    sigma = _noise_sigma(config)
    z = RngStream(config.seed, _NOISE, trial).normal(
        (2, len(config.channel_names), sigma.size))
    coeff = (z[0] + 1j * z[1]) * sigma
    coeff[:, 0] = 0.0
    return sfft.irfft(coeff, n=n, axis=-1)


def _noise_block(config: SynthConfig, trials: np.ndarray) -> np.ndarray:
    """Vectorized synthesis for many trials, bit-identical to _noise_trial."""
    n = config.n_samples
    n_ch = len(config.channel_names)
    sigma = _noise_sigma(config)
    count = 2 * n_ch * sigma.size
    pairs = (count + 1) // 2
    keys = np.array([RngStream(config.seed, _NOISE, int(t)).key for t in trials],
                    dtype=np.uint64)
    with np.errstate(over="ignore"):
        blocks = mix64(keys[:, None]
                       + np.arange(1, 2 * pairs + 1, dtype=np.uint64) * GAMMA)
    u = (blocks >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u[:, :pairs]))
    theta = 2.0 * np.pi * u[:, pairs:]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :count]
    z = z.reshape(len(trials), 2, n_ch, sigma.size)
    coeff = (z[:, 0] + 1j * z[:, 1]) * sigma
    coeff[:, :, 0] = 0.0
    return sfft.irfft(coeff, n=n, axis=-1)


def _apply_bursts(data: np.ndarray, config: SynthConfig, trial: int, label: int,
                  chan_index: dict) -> None:
    cls = CLASS_NAMES[label]
    n = config.n_samples
    for eff_i, eff in enumerate(config.effects):
        if cls not in eff.classes or eff.amplitude_uv == 0.0:
            continue
        stream = RngStream(config.seed, _BURST, trial, eff_i)
        freq = eff.center_hz + (stream.uniform() - 0.5) * eff.bandwidth_hz
        dur = 0.5 + 0.5 * stream.uniform()
        length = max(2, int(round(dur * n)))
        start = (n - length) // 2
        t = np.arange(length) / config.fs
        window = np.hanning(length)
        for ch in eff.channels:
            phase = 2.0 * np.pi * stream.uniform()
            data[chan_index[ch.lower()], start:start + length] += (
                eff.amplitude_uv * window * np.sin(2.0 * np.pi * freq * t + phase)
            )


def generate(config: SynthConfig) -> EpochSet:
    """Balanced labeled corpus; bit-identical for identical configs."""
    config.validate()
    n_per = config.n_trials_per_class
    n_trials = n_per * len(CLASS_NAMES)
    labels = np.repeat(np.arange(len(CLASS_NAMES), dtype=np.uint8), n_per)
    chan_index = {n.lower(): i for i, n in enumerate(config.channel_names)}
    n = config.n_samples
    t = np.arange(n) / config.fs
    data = np.empty((n_trials, len(config.channel_names), n), dtype=np.float32)

    def chunk(lo, hi):
        # finished in float64, and only then stored as float32
        block = _noise_block(config, np.arange(lo, hi))
        for trial, row in zip(range(lo, hi), block):
            _apply_bursts(row, config, trial, int(labels[trial]), chan_index)
            if config.line_amplitude_uv > 0:
                phase = 2.0 * np.pi * RngStream(config.seed, _LINE, trial).uniform()
                row += config.line_amplitude_uv * np.sin(2.0 * np.pi * 60.0 * t + phase)
        data[lo:hi] = block

    lanes.run(chunk, lanes.plan(n_trials, len(config.channel_names) * n, CHUNK_VALUES))
    return EpochSet(data=data, labels=labels, fs=config.fs,
                    channel_names=config.channel_names)


def null_config(config: SynthConfig) -> SynthConfig:
    """Same corpus with every planted amplitude set to zero."""
    return replace(config, effects=tuple(
        replace(e, amplitude_uv=0.0) for e in config.effects))
