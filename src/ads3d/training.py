"""AdamW optimization, stratified cross-validation and accuracy reporting.

"Iterations" are epochs over the training split: with 160 training trials
and batch size 40 one epoch is four optimizer steps. After every epoch the
held-out fold is evaluated in eval mode and the parameters with the lowest
held-out loss so far are retained; note this selects the model on the same
split that is reported, which mirrors common practice but is optimistic.
Use a separate selection split if that leak matters for your use.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import dsp, lanes
from .adsnet import AdsNet, AdsNetConfig, REDUCED_CONFIG
from .eegio import EpochSet
from .montage import MontageMap, reduced_montage_4x4
from .nncore import log_softmax
from .rng import RngStream


@dataclass
class Hyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 200
    batch_size: int = 40


@dataclass
class OptimState:
    """Per-parameter AdamW moments."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "OptimState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adamw_step(params: dict, grads: dict, opt: OptimState, hyper: Hyper) -> dict:
    """One decoupled-weight-decay Adam update, in place.

    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * wd * theta;
    the decay term never passes through the moment estimates.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
    opt.t += 1
    c1 = 1.0 - hyper.beta1 ** opt.t
    c2 = 1.0 - hyper.beta2 ** opt.t
    for name, p in params.items():
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m += (1.0 - hyper.beta1) * (g - m)
        v += (1.0 - hyper.beta2) * (g * g - v)
        # Decay acts on the pre-step parameter value, outside the moments.
        p -= hyper.lr * ((m / c1) / (np.sqrt(v / c2) + hyper.eps)
                         + hyper.weight_decay * p)
    return params


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint stratified test-index sets covering all trials."""

    folds: tuple

    def train_indices(self, fold: int, n_trials: int) -> np.ndarray:
        test = set(self.folds[fold].tolist())
        return np.array([i for i in range(n_trials) if i not in test])


def make_folds(labels, k: int = 5, seed: int = 0) -> FoldPlan:
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > counts.min():
        raise ValueError(f"k={k} exceeds smallest class count {counts.min()}")
    per_fold = [[] for _ in range(k)]
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        idx = idx[RngStream(seed, 0xF01D, int(cls)).permutation(idx.size)]
        for f, chunk in enumerate(np.array_split(idx, k)):
            per_fold[f].append(chunk)
    folds = tuple(np.sort(np.concatenate(ch)) for ch in per_fold)
    total = np.sort(np.concatenate(folds))
    if not np.array_equal(total, np.arange(labels.size)):
        raise AssertionError("folds do not partition the trials")
    return FoldPlan(folds=folds)


@dataclass
class TrainReport:
    fold: int
    train_loss: list
    eval_loss: list
    eval_acc: list
    best_epoch: int
    best_eval_loss: float
    best_eval_acc: float
    best_state: dict

    def log_text(self) -> str:
        """Line-oriented log: epoch, train_loss, eval_loss, eval_acc."""
        lines = ["# epoch train_loss eval_loss eval_acc"]
        for e, (tl, el, ea) in enumerate(
                zip(self.train_loss, self.eval_loss, self.eval_acc), 1):
            lines.append(f"{e} {tl:.9e} {el:.9e} {ea:.6f}")
        lines.append(f"# best_epoch {self.best_epoch}")
        return "\n".join(lines) + "\n"


def _batches(indices: np.ndarray, batch_size: int):
    """Contiguous batches; a trailing single trial joins the previous batch
    so batchnorm always sees at least two samples."""
    n = indices.size
    edges = list(range(0, n, batch_size)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        edges.pop(-2)
    for lo, hi in zip(edges[:-1], edges[1:]):
        yield indices[lo:hi]


def evaluate(model: AdsNet, data: np.ndarray, labels: np.ndarray,
             indices=None, batch_size: int = 40):
    """Eval-mode (loss, accuracy, confusion[true, predicted])."""
    if indices is None:
        indices = np.arange(len(labels))
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ValueError("empty index set")
    n_cls = model.config.n_classes
    confusion = np.zeros((n_cls, n_cls), dtype=np.int64)
    total_nll = 0.0
    for lo in range(0, indices.size, batch_size):
        batch_idx = indices[lo:lo + batch_size]
        logits = model.forward(data[batch_idx], train=False)
        y = labels[batch_idx]
        total_nll -= log_softmax(logits)[np.arange(len(batch_idx)), y].sum()
        pred = np.argmax(logits, axis=1)
        np.add.at(confusion, (y, pred), 1)
    loss = total_nll / indices.size
    accuracy = float(np.trace(confusion)) / indices.size
    return float(loss), accuracy, confusion


def train_one_fold(config: AdsNetConfig, data: np.ndarray, labels: np.ndarray,
                   plan: FoldPlan, fold: int, hyper: Hyper, seed: int,
                   montage: MontageMap) -> TrainReport:
    test_idx = plan.folds[fold]
    train_idx = plan.train_indices(fold, len(labels))
    model = AdsNet(config, montage, seed=seed)
    params = model.parameters()
    opt = OptimState.for_params(params)
    report = TrainReport(fold=fold, train_loss=[], eval_loss=[], eval_acc=[],
                         best_epoch=0, best_eval_loss=np.inf, best_eval_acc=0.0,
                         best_state={})
    for epoch in range(1, hyper.epochs + 1):
        order = RngStream(seed, 0x5F1E, fold, epoch).permutation(train_idx.size)
        shuffled = train_idx[order]
        epoch_losses = []
        for step, batch_idx in enumerate(_batches(shuffled, hyper.batch_size)):
            drop = RngStream(seed, 0xD0, fold, epoch, step)
            try:
                loss, grads = model.loss_and_grads(
                    data[batch_idx], labels[batch_idx], stream=drop)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"fold {fold} epoch {epoch} step {step}: {err}") from None
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"fold {fold} epoch {epoch} step {step}: loss={loss}")
            adamw_step(params, grads, opt, hyper)
            epoch_losses.append(loss)
        ev_loss, ev_acc, _ = evaluate(model, data, labels, test_idx,
                                      hyper.batch_size)
        report.train_loss.append(float(np.mean(epoch_losses)))
        report.eval_loss.append(ev_loss)
        report.eval_acc.append(ev_acc)
        if ev_loss < report.best_eval_loss:
            report.best_eval_loss = ev_loss
            report.best_eval_acc = ev_acc
            report.best_epoch = epoch
            report.best_state = copy.deepcopy(model.state_arrays())
    if hyper.epochs == 0:
        ev_loss, ev_acc, _ = evaluate(model, data, labels, test_idx)
        report.best_eval_loss, report.best_eval_acc = ev_loss, ev_acc
        report.best_state = copy.deepcopy(model.state_arrays())
    return report


@dataclass
class CVResult:
    mean_accuracy: float
    std_accuracy: float
    reports: list


def cross_validate(config: AdsNetConfig, data: np.ndarray, labels: np.ndarray,
                   montage: MontageMap, k: int = 5,
                   hyper: Hyper | None = None, seed: int = 0,
                   jobs: int = 1) -> CVResult:
    """Mean and population std of per-fold best accuracies."""
    hyper = hyper or Hyper()
    plan = make_folds(labels, k=k, seed=seed)
    args = [(config, data, labels, plan, f, hyper, seed, montage)
            for f in range(k)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_fold_worker, args))
    else:
        reports = [train_one_fold(*a) for a in args]
    accs = np.array([r.best_eval_acc for r in reports])
    return CVResult(mean_accuracy=float(accs.mean()),
                    std_accuracy=float(accs.std()),
                    reports=reports)


def _fold_worker(args):
    # One worker process per CPU already: its blocks run serially.
    lanes.serial = True
    return train_one_fold(*args)


def standardize(data: np.ndarray, scale: float | None = None):
    """Scale a [N, C, T] array to unit global standard deviation.

    Raw microvolt amplitudes saturate the attention softmax at init, so
    model inputs are always standardized. Returns (scaled, scale) where
    scale is the divisor; record it next to any trained weights and pass it
    back in when evaluating a stored model on new data.
    """
    if scale is None:
        scale = float(np.std(data))
        if scale == 0.0:
            scale = 1.0
    return np.asarray(data, dtype=np.float64) / scale, float(scale)


def _montage_rows(epochs: EpochSet, montage: MontageMap) -> list:
    """Channel indices of epochs in the montage's channel order."""
    lookup = {n.lower(): i for i, n in enumerate(epochs.channel_names)}
    try:
        return [lookup[name.lower()] for name in montage.channel_names]
    except KeyError as err:
        raise ValueError(f"epoch set lacks channel {err}") from None


def align_to_montage(epochs: EpochSet, montage: MontageMap) -> np.ndarray:
    """Trial data reordered to the montage's channel order, as float64."""
    return epochs.data[:, _montage_rows(epochs, montage), :].astype(np.float64)


def prepare_reduced_inputs(epochs: EpochSet, montage: MontageMap | None = None,
                           n_samples: int = None, decimate: int = 4,
                           scale: float | None = None):
    """Adapt preprocessed full-size epochs to the reduced model.

    Selects the reduced montage's channels, band-limits to stay below the
    decimated Nyquist rate, center-crops before decimating so planted
    mid-epoch activity survives, then standardizes amplitude. Trials are
    filtered in blocks (see dsp.BLOCK_BYTES), and only the cropped,
    decimated samples are kept. Returns (data[N, C', T'], labels, montage,
    scale).
    """
    montage = montage or reduced_montage_4x4()
    n_samples = n_samples or REDUCED_CONFIG.n_samples
    rows = _montage_rows(epochs, montage)
    length = epochs.n_samples
    span = n_samples * decimate
    if span > length:
        raise ValueError(f"epochs too short: need {span} samples")
    lo = (length - span) // 2
    new_nyquist = epochs.fs / decimate / 2.0
    band = dsp.design_butter_bandpass(4.0, 0.8 * new_nyquist, epochs.fs)
    # np.std in standardize sums a strided array row by row but a contiguous
    # one as one run, which can change the last bits of its mean. A spare
    # column per row keeps x strided like the crop of a whole filtered array
    # that it replaces; epochs exactly span long gave one run there too.
    x = np.empty((epochs.n_trials, len(rows), n_samples + (length != span)))[..., :n_samples]

    def block(a, b):
        x[a:b] = dsp.downsample(dsp.filtfilt(band, epochs.data[a:b, rows])[..., lo:lo + span],
                                decimate)

    lanes.run(block, lanes.plan(epochs.n_trials, 8 * len(rows) * length, dsp.BLOCK_BYTES))
    x, scale = standardize(x, scale)
    return x, epochs.labels.astype(np.int64), montage, scale
