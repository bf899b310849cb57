"""Output checks, run after the timed rounds.

Every check compares an output file with a computation made here, apart
from the program (the epoch container is parsed by this module's own
reader; filter responses, Welch spectra and band powers come straight from
scipy), or with a property the method must have. None compares against a
stored copy of earlier output. Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy import signal

NOISE_UV = 10.0              # synth defaults: noise RMS and 60 Hz amplitude
LINE_UV = 1.0
RMS_TOLERANCE = 0.03         # relative, on channels without a planted effect
PLANTED = {"alpha": ("O1", "Oz", "O2"), "beta": ("Fp1", "Fp2")}
PSD_FREQS_HZ = (10.0, 25.0, 59.0)
PSD_TOLERANCE_DB = 1.0
BAND_HZ = {"alpha": (8.0, 13.0), "beta": (13.0, 30.0), "both": (8.0, 30.0)}
MIN_REDUCED_CV_ACCURACY = 0.40   # chance is 0.25


@dataclass
class Epochs:
    data: np.ndarray         # [trial, channel, sample] float32
    labels: np.ndarray
    fs: float
    names: tuple


def read_ads3(path) -> Epochs:
    """Parse an ADS3 epoch container (layout in the ads3d README)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    head = "<4sHIHIf"
    magic, _, n_trials, n_ch, n_samp, fs = struct.unpack_from(head, buf, 0)
    if magic != b"ADS3":
        raise ValueError(f"{path}: not an ADS3 file")
    off = struct.calcsize(head)
    labels = np.frombuffer(buf, np.uint8, n_trials, off)
    off += n_trials
    names = tuple(buf[off + 8 * i:off + 8 * i + 8].decode("ascii").rstrip(" ")
                  for i in range(n_ch))
    off += 8 * n_ch
    data = np.frombuffer(buf, "<f4", n_trials * n_ch * n_samp, off)
    return Epochs(data.reshape(n_trials, n_ch, n_samp), labels, float(fs), names)


def _mean_psd(x: np.ndarray, fs: float):
    """Welch PSD (1 s Hann segments) averaged over trials and channels."""
    chunk = 16               # trials per welch call, to bound memory
    total = 0.0
    for lo in range(0, x.shape[0], chunk):
        f, p = signal.welch(x[lo:lo + chunk].astype(np.float64), fs=fs,
                            nperseg=int(round(fs)), axis=-1)
        total = total + p.sum(axis=(0, 1))
    return f, total / (x.shape[0] * x.shape[1])


# -- synth --------------------------------------------------------------------

def check_synth(w, raw: Epochs) -> list:
    errors = []
    counts = np.bincount(raw.labels, minlength=4)
    if not np.all(counts == w.trials_per_class):
        errors.append(f"synth: class counts {counts.tolist()}, "
                      f"expected {w.trials_per_class} each")
    planted = {n.lower() for names in PLANTED.values() for n in names}
    quiet = [i for i, n in enumerate(raw.names) if n.lower() not in planted]
    rms = math.sqrt(float(np.mean(np.square(raw.data[:, quiet, :], dtype=np.float64))))
    want = math.sqrt(NOISE_UV ** 2 + LINE_UV ** 2 / 2.0)
    if abs(rms / want - 1.0) > RMS_TOLERANCE:
        errors.append(f"synth: RMS {rms:.4f} uV on unplanted channels, "
                      f"expected {want:.4f} within {RMS_TOLERANCE:.0%}")
    return errors


# -- preprocess ---------------------------------------------------------------

def expected_power_ratio(freqs, fs: float) -> np.ndarray:
    """|H_notch|^2 |H_bandpass|^2 of the zero-phase chain, in power.

    Each zero-phase filter has magnitude |H|^2 of its single-pass design,
    so the power ratio is the single-pass |H|^4.
    """
    b, a = signal.iirnotch(60.0, 30.0, fs=fs)
    _, hn = signal.sosfreqz(signal.tf2sos(b, a), worN=freqs, fs=fs)
    sos = signal.butter(5, [4.0, 40.0], btype="bandpass", fs=fs, output="sos")
    _, hb = signal.sosfreqz(sos, worN=freqs, fs=fs)
    return (np.abs(hn) * np.abs(hb)) ** 4


def check_preprocess(raw: Epochs, pre: Epochs) -> list:
    errors = []
    if pre.fs != 250.0 or pre.data.shape[-1] != 1001:
        errors.append(f"preprocess: got fs={pre.fs}, {pre.data.shape[-1]} samples")
        return errors
    fi, pi = _mean_psd(raw.data, raw.fs)
    fo, po = _mean_psd(pre.data, pre.fs)
    freqs = np.array(PSD_FREQS_HZ)
    measured = np.array([po[fo == f][0] / pi[fi == f][0] for f in freqs])
    want = expected_power_ratio(freqs, raw.fs)
    for f, m, e in zip(freqs, measured, want):
        gap = 10.0 * math.log10(m / e)
        if abs(gap) > PSD_TOLERANCE_DB:
            errors.append(f"preprocess: PSD ratio at {f:g} Hz is "
                          f"{10 * math.log10(m):.2f} dB, filters give "
                          f"{10 * math.log10(e):.2f} dB")
    return errors


# -- train --------------------------------------------------------------------

def check_train(w, workdir) -> list:
    errors = []
    for fold in range(w.folds):
        path = os.path.join(workdir, "run", f"fold{fold}.log")
        with open(path, encoding="utf-8") as fh:
            rows = [line.split() for line in fh if not line.startswith("#")]
        ok = (len(rows) == w.epochs and all(len(r) == 4 for r in rows)
              and all(math.isfinite(float(v)) for r in rows for v in r))
        if not ok:
            errors.append(f"train: {path} has {len(rows)} rows, expected "
                          f"{w.epochs} finite rows of 4 values")
    if w.name == "reduced_cv":
        with open(os.path.join(workdir, "run", "summary.txt"), encoding="utf-8") as fh:
            acc = float(fh.readline().split()[1])
        if acc < MIN_REDUCED_CV_ACCURACY:
            errors.append(f"train: mean CV accuracy {acc:.3f} < "
                          f"{MIN_REDUCED_CV_ACCURACY} (chance 0.25)")
    return errors


def _model(w, seed):
    from ads3d.adsnet import FULL_CONFIG, REDUCED_CONFIG, AdsNet
    from ads3d.montage import default_montage, reduced_montage_4x4
    if w.reduced:
        return AdsNet(REDUCED_CONFIG, reduced_montage_4x4(), seed=seed)
    return AdsNet(FULL_CONFIG, default_montage(), seed=seed)


GRAD_PARAMS = ("attn.wq", "attn.wv", "b1.conv1.w", "b1.bn2.gamma",
               "b2.conv1.w", "b2.conv5.w", "b3.conv1.w", "head.w")


def check_gradients(w, seed) -> list:
    """Central differences of the train-mode loss against loss_and_grads,
    at the largest and at one random coordinate of each sampled array.

    A step that moves a max-pool winner or an ELU across zero sees a kink,
    not the gradient, so a coordinate passes when either step size agrees.
    """
    from ads3d.rng import RngStream
    batch = 2
    model = _model(w, seed)
    cfg = model.config
    rs = np.random.default_rng(seed)
    x = rs.standard_normal((batch, cfg.n_channels, cfg.n_samples))
    y = np.arange(batch) % cfg.n_classes

    def loss():
        z = model.forward(x, train=True, stream=RngStream(seed, 0xFD))
        z = z - z.max(axis=1, keepdims=True)
        return float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(batch), y]))

    def central(arr, i, eps):
        keep = arr.flat[i]
        arr.flat[i] = keep + eps
        up = loss()
        arr.flat[i] = keep - eps
        down = loss()
        arr.flat[i] = keep
        return (up - down) / (2.0 * eps)

    _, grads = model.loss_and_grads(x, y, stream=RngStream(seed, 0xFD))
    params = model.parameters()
    errors = []
    for name in GRAD_PARAMS:
        arr, g = params[name], grads[name]
        tol = 1e-5 * float(np.max(np.abs(g))) + 1e-8
        for i in (int(np.argmax(np.abs(g))), int(rs.integers(arr.size))):
            fds = []
            for eps in (1e-6, 1e-7):
                fds.append(central(arr, i, eps))
                if abs(fds[-1] - g.flat[i]) <= tol:
                    break
            else:
                errors.append(f"train: d loss / d {name}[{i}] is {g.flat[i]:.9g}, "
                              f"central differences {fds}")
    return errors


def check_first_convs(w, seed) -> list:
    """Outputs of each stream's first convolution against a direct sum."""
    samples = 12
    model = _model(w, seed)
    cfg = model.config
    rs = np.random.default_rng(seed + 1)
    x = rs.standard_normal((2, 1, cfg.grid_side, cfg.grid_side, cfg.n_samples))
    errors = []
    for conv in (model.b1[0], model.b2[0]):
        wt, bias = conv.params["w"], conv.params["b"]
        _, _, kd, kh, kw = wt.shape
        out = conv.forward(x)
        for _ in range(samples):
            b, o, d, h, t = (int(rs.integers(n)) for n in out.shape)
            terms = x[b, :, d:d + kd, h:h + kh, t:t + kw] * wt[o]
            direct = terms.sum() + bias[o]
            if abs(out[b, o, d, h, t] - direct) > 1e-9 * np.abs(terms).sum() + 1e-12:
                errors.append(f"train: {conv.name} output {(b, o, d, h, t)} is "
                              f"{out[b, o, d, h, t]:.12g}, direct sum {direct:.12g}")
    return errors


# -- eval ---------------------------------------------------------------------

def _parse_eval(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    loss = float(lines[0].split()[1])
    acc = float(lines[1].split()[1])
    confusion = np.array([[int(v) for v in line.split()] for line in lines[3:] if line])
    return loss, acc, confusion


def check_eval(w, pre: Epochs, workdir, seed) -> list:
    errors = []
    counts = np.bincount(pre.labels, minlength=4)
    _, acc, confusion = _parse_eval(os.path.join(workdir, "eval_fold0.txt"))
    if not np.array_equal(confusion.sum(axis=1), counts):
        errors.append(f"eval: confusion rows sum to {confusion.sum(axis=1).tolist()}, "
                      f"file has {counts.tolist()}")
    if abs(acc - np.trace(confusion) / confusion.sum()) > 5e-7:
        errors.append(f"eval: accuracy {acc} != trace/total")
    errors += check_batch_split(w, workdir, seed)
    return errors


def check_batch_split(w, workdir, seed) -> list:
    """Eval-mode loss of a stored checkpoint must not depend on batching."""
    n = 8
    from ads3d import cli, eegio, training
    from ads3d.montage import default_montage
    ckpt = eegio.read_checkpoint(os.path.join(workdir, "run", "fold0.ckpt"))
    model = _model(w, seed)
    model.load_checkpoint(ckpt)
    epochs = eegio.read_epochset(os.path.join(workdir, "pre.ads3"))
    data, labels, _, _ = cli._prepare_training_inputs(
        epochs, default_montage(), w.reduced, float(ckpt.metadata["input_scale"]))
    idx = np.linspace(0, len(labels) - 1, n).astype(int)
    whole = training.evaluate(model, data, labels, idx, batch_size=n)
    split = training.evaluate(model, data, labels, idx, batch_size=3)
    if abs(whole[0] - split[0]) > 1e-9 * max(1.0, abs(whole[0])) or \
            not np.array_equal(whole[2], split[2]):
        return [f"eval: loss {whole[0]!r} in one batch, {split[0]!r} in batches of 3"]
    return []


# -- stats --------------------------------------------------------------------

def band_powers(pre: Epochs, band: str) -> np.ndarray:
    """[trial, channel] band power: 1 s Hann Welch, trapezoid over the band."""
    lo, hi = BAND_HZ[band]
    nper = int(round(pre.fs))
    f, p = signal.welch(pre.data.astype(np.float64), fs=pre.fs, window="hann",
                        nperseg=nper, noverlap=nper // 2, axis=-1)
    sel = (f >= lo) & (f <= hi)
    return np.trapezoid(p[..., sel], f[sel], axis=-1)


def _classes(spec: str) -> list:
    names = ("split", "spread_out", "fall_in", "hovering")
    return [names.index(c) for c in spec.split("=", 1)[1].split("+")]


def check_stats(w, pre: Epochs, workdir) -> list:
    errors = []
    for band, (spec_a, spec_b) in w.stats_bands:
        prefix = os.path.join(workdir, f"stats_{band}")
        with open(prefix + "_report.txt", encoding="utf-8") as fh:
            rows = {r[0]: r[1:] for r in (line.split() for line in fh)
                    if r and not r[0].startswith("#")}
        powers = band_powers(pre, band)
        for side, spec, col in (("a", spec_a, 4), ("b", spec_b, 5)):
            mine = powers[np.isin(pre.labels, _classes(spec))].mean(axis=0)
            theirs = np.array([float(rows[n][col]) for n in pre.names])
            if not np.allclose(theirs, mine, rtol=1e-6, atol=0.0):
                worst = int(np.argmax(np.abs(theirs / mine - 1.0)))
                errors.append(f"stats {band}: mean_power_{side} of {pre.names[worst]} "
                              f"is {theirs[worst]:.9g}, scipy gives {mine[worst]:.9g}")
        planted = PLANTED["beta"] if spec_b == "class_b=fall_in" else PLANTED["alpha"]
        for name in planted:
            t, _, _, sig = rows[name][:4]
            if not (int(sig) == 1 and float(t) > 0):
                errors.append(f"stats {band}: planted channel {name} has t={t}, "
                              f"significant={sig}")
        with open(prefix + "_anova.txt", encoding="utf-8") as fh:
            cls = next(line.split() for line in fh if line.startswith("class "))
        if not float(cls[4]) < w.alpha_level:
            errors.append(f"stats {band}: ANOVA class p={cls[4]} >= {w.alpha_level}")
    return errors


def run_all(w, seed, workdir) -> list:
    raw = read_ads3(os.path.join(workdir, "raw.ads3"))
    pre = read_ads3(os.path.join(workdir, "pre.ads3"))
    errors = check_synth(w, raw)
    errors += check_preprocess(raw, pre)
    del raw
    errors += check_train(w, workdir)
    errors += check_gradients(w, seed)
    errors += check_first_convs(w, seed)
    errors += check_eval(w, pre, workdir, seed)
    errors += check_stats(w, pre, workdir)
    return errors
