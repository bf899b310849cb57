"""Band-power statistics: Welch PSD, paired t-tests with Bonferroni
correction, class-by-channel two-way ANOVA, and grid topography export.

All tests here use trials within a single recording as the replicate unit;
every report says so in its header. Tail probabilities for t and F come
from the regularized incomplete beta function.

Band powers are computed once per corpus with ``trial_band_powers`` and
passed to the tests that use them. ``welch_psd`` runs over blocks of rows
in float64, up to two at once (see ``dsp.BLOCK_BYTES``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import dsp, lanes
from .eegio import EpochSet, atomic_write
from .montage import MontageMap
from .synthgen import CLASS_NAMES

REPLICATE_NOTE = "replicate unit: trials within one recording (not subjects)"


@dataclass(frozen=True)
class BandSpec:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 < self.lo < self.hi:
            raise ValueError(f"invalid band ({self.lo}, {self.hi})")


ALPHA_BAND = BandSpec("alpha", 8.0, 13.0)
BETA_BAND = BandSpec("beta", 13.0, 30.0)
BOTH_BAND = BandSpec("both", 8.0, 30.0)
BANDS = {b.name: b for b in (ALPHA_BAND, BETA_BAND, BOTH_BAND)}


class DegenerateContrastError(ValueError):
    """Paired differences have zero variance; t is undefined."""


def welch_psd(x: np.ndarray, fs: float, win: int | None = None,
              overlap: float = 0.5):
    """One-sided Welch density (Hann window, per-segment mean removal)
    along the last axis. Returns (freqs, psd). Rows are cast to float64 and
    transformed in blocks (see dsp.BLOCK_BYTES); each row's result is the
    same bits as a whole-array call."""
    from scipy import fft, signal
    x = np.asarray(x)
    win = int(round(fs)) if win is None else int(win)
    if win > x.shape[-1]:
        raise ValueError(f"window {win} longer than signal {x.shape[-1]}")
    rows = x.reshape(-1, x.shape[-1])
    freqs = fft.rfftfreq(win, 1.0 / fs)
    psd = np.empty((rows.shape[0], freqs.size))

    def block(lo, hi):
        _, psd[lo:hi] = signal.welch(
            np.asarray(rows[lo:hi], dtype=np.float64), fs=fs,
            window="hann", nperseg=win, noverlap=int(win * overlap),
            detrend="constant", scaling="density", axis=-1)

    lanes.run(block, lanes.plan(rows.shape[0], 8 * x.shape[-1], dsp.BLOCK_BYTES))
    return freqs, psd.reshape(x.shape[:-1] + (freqs.size,))


def band_power(psd: np.ndarray, freqs: np.ndarray, band: BandSpec) -> np.ndarray:
    """Trapezoidal integral of the PSD over the band's frequency samples."""
    sel = (freqs >= band.lo) & (freqs <= band.hi)
    if sel.sum() < 2:
        raise ValueError(f"band {band.name} covers fewer than 2 frequency samples")
    return np.trapezoid(np.asarray(psd)[..., sel], freqs[sel], axis=-1)


def paired_ttest(a, b):
    """Two-sided paired t-test; returns (t, p, df). Sign convention: a - b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length vectors")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise DegenerateContrastError("degenerate contrast: zero-variance differences")
    t = d.mean() / (sd / np.sqrt(n))
    df = n - 1
    p = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), p, df


def bonferroni(p, m: int | None = None) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    m = p.size if m is None else int(m)
    return np.minimum(1.0, m * p)


@dataclass
class AnovaResult:
    ss: dict
    df: dict
    f: dict
    p: dict
    degenerate: bool


def two_way_anova(values: np.ndarray) -> AnovaResult:
    """Fixed-effects two-way ANOVA with interaction on a balanced
    [factor_a, factor_b, replicate] array."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("need a balanced [a, b, replicate] array")
    a, b, r = x.shape
    if r < 2:
        raise ValueError("need at least 2 replicates per cell")
    grand = x.mean()
    mean_a = x.mean(axis=(1, 2))
    mean_b = x.mean(axis=(0, 2))
    mean_cell = x.mean(axis=2)
    ss = {
        "a": b * r * float(((mean_a - grand) ** 2).sum()),
        "b": a * r * float(((mean_b - grand) ** 2).sum()),
        "ab": r * float(((mean_cell - mean_a[:, None] - mean_b[None, :] + grand) ** 2).sum()),
        "error": float(((x - mean_cell[:, :, None]) ** 2).sum()),
        "total": float(((x - grand) ** 2).sum()),
    }
    df = {"a": a - 1, "b": b - 1, "ab": (a - 1) * (b - 1), "error": a * b * (r - 1)}
    ms_error = ss["error"] / df["error"]
    f = {}
    p = {}
    degenerate = ms_error == 0.0
    for key in ("a", "b", "ab"):
        ms = ss[key] / df[key] if df[key] > 0 else 0.0
        if degenerate:
            f[key] = 0.0 if ms == 0.0 else np.inf
            p[key] = 1.0 if ms == 0.0 else 0.0
        else:
            f[key] = ms / ms_error
            p[key] = float(special.fdtrc(df[key], df["error"], f[key]))
    return AnovaResult(ss=ss, df=df, f=f, p=p, degenerate=degenerate)


def _class_set(spec) -> tuple[int, ...]:
    if isinstance(spec, (int, np.integer)):
        return (int(spec),)
    if isinstance(spec, str):
        items = [s for s in spec.replace("+", ",").split(",") if s]
    else:
        items = list(spec)
    out = []
    for item in items:
        if isinstance(item, (int, np.integer)):
            out.append(int(item))
        else:
            name = str(item).strip().lower().replace(" ", "_")
            if name not in CLASS_NAMES:
                raise ValueError(f"unknown class {item!r}; known: {CLASS_NAMES}")
            out.append(CLASS_NAMES.index(name))
    if not out:
        raise ValueError("empty class set")
    return tuple(sorted(set(out)))


def trial_band_powers(epochs: EpochSet, band: BandSpec, win: int | None = None,
                      log_power: bool = False) -> np.ndarray:
    """[n_trials, n_channels] band power per trial, the input of
    contrast_topography and class_channel_anova."""
    freqs, psd = welch_psd(epochs.data, epochs.fs, win=win)
    power = band_power(psd, freqs, band)
    return np.log(power) if log_power else power


@dataclass
class StatsReport:
    class_a: tuple
    class_b: tuple
    band: BandSpec
    alpha: float
    n_pairs: int
    channel_names: tuple
    t: np.ndarray
    p_raw: np.ndarray
    p_corrected: np.ndarray
    mask: np.ndarray
    mean_power_a: np.ndarray
    mean_power_b: np.ndarray
    notes: str = REPLICATE_NOTE

    def significant_channels(self) -> tuple[str, ...]:
        return tuple(n for n, m in zip(self.channel_names, self.mask) if m)

    def text(self) -> str:
        names_a = "+".join(CLASS_NAMES[c] for c in self.class_a)
        names_b = "+".join(CLASS_NAMES[c] for c in self.class_b)
        lines = [
            f"# contrast: {names_a} vs {names_b}, band {self.band.name} "
            f"({self.band.lo}-{self.band.hi} Hz)",
            f"# {self.notes}",
            f"# pairs: {self.n_pairs}; corrected alpha: {self.alpha} "
            f"(Bonferroni over {len(self.channel_names)} channels)",
            "# channel t p_raw p_corrected significant mean_power_a mean_power_b",
        ]
        for i, name in enumerate(self.channel_names):
            lines.append(
                f"{name} {self.t[i]:.9g} {self.p_raw[i]:.9g} "
                f"{self.p_corrected[i]:.9g} {int(self.mask[i])} "
                f"{self.mean_power_a[i]:.9g} {self.mean_power_b[i]:.9g}"
            )
        return "\n".join(lines) + "\n"


def contrast_topography(epochs: EpochSet, powers: np.ndarray, class_a, class_b,
                        band: BandSpec, alpha: float = 0.01) -> StatsReport:
    """Per-channel paired t-test between two class sets of the trials'
    band powers (trial_band_powers of epochs in band).

    Trials are paired by sorted trial order; the pair count is the smaller
    class-set size. Degenerate channels get t = p = nan and never enter the
    significance mask.
    """
    set_a, set_b = _class_set(class_a), _class_set(class_b)
    if set(set_a) & set(set_b):
        raise ValueError("class sets overlap")
    labels = epochs.labels
    idx_a = np.flatnonzero(np.isin(labels, set_a))
    idx_b = np.flatnonzero(np.isin(labels, set_b))
    if idx_a.size == 0 or idx_b.size == 0:
        raise ValueError("a contrast class has no trials")
    n = min(idx_a.size, idx_b.size)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    pa, pb = powers[idx_a[:n]], powers[idx_b[:n]]
    n_ch = epochs.n_channels
    t = np.full(n_ch, np.nan)
    p_raw = np.full(n_ch, np.nan)
    for c in range(n_ch):
        try:
            t[c], p_raw[c], _ = paired_ttest(pa[:, c], pb[:, c])
        except DegenerateContrastError:
            pass
    p_corr = np.where(np.isnan(p_raw), np.nan, bonferroni(p_raw, n_ch))
    mask = np.where(np.isnan(p_corr), False, p_corr < alpha)
    return StatsReport(
        class_a=set_a, class_b=set_b, band=band, alpha=alpha, n_pairs=n,
        channel_names=epochs.channel_names, t=t, p_raw=p_raw,
        p_corrected=p_corr, mask=mask.astype(bool),
        mean_power_a=powers[idx_a].mean(axis=0),
        mean_power_b=powers[idx_b].mean(axis=0),
    )


def class_channel_anova(epochs: EpochSet, powers: np.ndarray) -> AnovaResult:
    """Two-way ANOVA of the trials' band powers, factors class x channel,
    replicates = trials. Classes are truncated to the smallest class count
    to stay balanced."""
    labels = epochs.labels
    classes = np.unique(labels)
    r = min(np.count_nonzero(labels == c) for c in classes)
    cells = np.stack([powers[np.flatnonzero(labels == c)[:r]].T for c in classes])
    return two_way_anova(cells)   # [class, channel, replicate]


def _t_grid(report: StatsReport, montage: MontageMap):
    side = montage.side
    cell_t = np.zeros((side, side))
    cell_mask = np.zeros((side, side), dtype=int)
    by_name = {n.lower(): i for i, n in enumerate(report.channel_names)}
    for r, row in enumerate(montage.grid):
        for c, name in enumerate(row):
            i = by_name.get(name.lower())
            if i is None:
                raise ValueError(f"montage channel {name!r} missing from report")
            cell_t[r, c] = report.t[i]
            cell_mask[r, c] = int(report.mask[i])
    return cell_t, cell_mask


def _csv(grid, fmt="{:.9g}") -> str:
    return "".join(",".join(fmt.format(v) for v in row) + "\n" for row in grid)


def export_topomap(report: StatsReport, montage: MontageMap, path_prefix) -> dict:
    """Write the t-value grid as CSV, the significance mask as CSV, a P5
    graymap of the t-values, and the full per-channel report text."""
    cell_t, cell_mask = _t_grid(report, montage)
    prefix = str(path_prefix)
    paths = {
        "t_csv": prefix + "_t.csv",
        "mask_csv": prefix + "_mask.csv",
        "pgm": prefix + "_t.pgm",
        "report": prefix + "_report.txt",
    }
    atomic_write(paths["t_csv"], _csv(cell_t))
    atomic_write(paths["mask_csv"], _csv(cell_mask, fmt="{:d}"))
    finite = cell_t[np.isfinite(cell_t)]
    tmax = float(np.max(np.abs(finite))) if finite.size else 0.0
    if tmax == 0.0:
        pixels = np.full(cell_t.shape, 128, dtype=np.uint8)
    else:
        scaled = (cell_t + tmax) / (2.0 * tmax) * 255.0
        scaled = np.where(np.isfinite(scaled), scaled, 128.0)
        pixels = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    header = (f"P5\n# t in [-{tmax:.9g}, +{tmax:.9g}] mapped linearly "
              f"to [0, 255]; nan -> 128\n{montage.side} {montage.side}\n255\n")
    atomic_write(paths["pgm"], header.encode("ascii") + pixels.tobytes())
    atomic_write(paths["report"], report.text())
    return paths
