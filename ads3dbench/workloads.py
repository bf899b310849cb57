"""The benchmark's workloads: one round of ``ads3d`` commands each.

A round is a fixed sequence of passes over the five user steps. A pass of
``eval`` evaluates the fold-0 checkpoint; a pass of ``stats`` runs every
contrast of the workload. Steps whose pass is short appear several times
in a round, spread between the long ones, so that in a run every step is
timed for several seconds in passes spread across the run: the machine's
speed changes from one second to the next, and a step timed in few places
samples few of those changes. The first occurrences keep the pipeline order synth, preprocess, train, eval,
stats wherever a step needs the files of an earlier one. Every command
gets ``seed=`` on its command line and trains with ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass

STEPS = ("synth", "preprocess", "train", "eval", "stats")

MOTION_VS_STATIC = ("class_a=split+spread_out+fall_in", "class_b=hovering")
DISPERSION_VS_AGGREGATION = ("class_a=split+spread_out", "class_b=fall_in")
EFFECT_SCALE = 2.5            # synth effect size of every corpus (ads3d README example)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trials_per_class: int
    fs: float                 # raw sampling rate
    reduced: bool             # reduced or full-size model
    folds: int
    epochs: int
    lr: float
    stats_bands: tuple        # (band, contrast) per stats command
    schedule: tuple           # steps of one round, in order
    alpha_level: float = 0.01     # corrected significance level of stats

    @property
    def n_trials(self) -> int:
        return 4 * self.trials_per_class

    @property
    def train_trials(self) -> int:
        """Training trials x epochs x folds of one ``train`` command."""
        return (self.folds - 1) * self.n_trials * self.epochs


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="reduced_cv",
            why="reduced-model 5-fold CV on 100 trials: small-op and Python "
                "overhead in nncore, adsnet and training dominate the train step",
            trials_per_class=25, fs=500.0, reduced=True, folds=5, epochs=3,
            lr=0.01,
            stats_bands=(("alpha", MOTION_VS_STATIC),
                         ("beta", DISPERSION_VS_AGGREGATION)),
            schedule=("synth", "preprocess", "train", "eval", "eval", "eval", "eval",
                      "stats", "synth", "train", "eval", "eval", "eval", "eval"),
        ),
        Workload(
            name="full_train",
            why="paper-size model, 2 folds x 1 epoch on 40 trials: FFT "
                "convolution and the [1001, 1001] attention dominate",
            trials_per_class=10, fs=500.0, reduced=False, folds=2, epochs=1,
            lr=0.001,
            stats_bands=(("alpha", MOTION_VS_STATIC),
                         ("beta", DISPERSION_VS_AGGREGATION)),
            schedule=("synth", "preprocess", "stats", "train",
                      "synth", "preprocess", "stats", "eval",
                      "synth", "preprocess", "stats",
                      "synth", "preprocess", "stats", "eval",
                      "synth", "preprocess", "stats",
                      "synth", "preprocess", "stats", "eval",
                      "synth", "preprocess", "stats",
                      "synth", "preprocess", "stats"),
            # 10 trials per class give 10 pairs per contrast: at 0.01 the
            # planted channels are missed on about 1 seed in 40.
            alpha_level=0.05,
        ),
        Workload(
            name="signal_stats",
            why="1000 Hz raw corpus of 64 trials through synth, preprocess and "
                "three-band stats: synthgen, dsp, stats and eegio dominate",
            trials_per_class=16, fs=1000.0, reduced=True, folds=2, epochs=1,
            lr=0.01,
            stats_bands=(("alpha", MOTION_VS_STATIC),
                         ("beta", DISPERSION_VS_AGGREGATION),
                         ("both", MOTION_VS_STATIC)),
            schedule=("synth", "preprocess", "train", "eval", "train", "eval",
                      "train", "eval", "stats", "train", "eval", "train", "eval",
                      "train", "eval", "stats"),
        ),
    )
}


def step_commands(w: Workload, seed: int) -> dict:
    """step -> list of argv lists for one pass of that step."""
    s = f"seed={seed}"
    stats = [["stats", "in=pre.ads3", f"out_prefix=stats_{band}", f"band={band}",
              *contrast, f"alpha_level={w.alpha_level:g}", s]
             for band, contrast in w.stats_bands]
    return {
        "synth": [["synth", "out=raw.ads3", f"trials_per_class={w.trials_per_class}",
                   f"effect_scale={EFFECT_SCALE}", f"fs={w.fs:g}", s]],
        "preprocess": [["preprocess", "in=raw.ads3", "out=pre.ads3", s]],
        "train": [["train", "in=pre.ads3", "out_dir=run", f"reduced={str(w.reduced).lower()}",
                   f"folds={w.folds}", f"epochs={w.epochs}", f"lr={w.lr:g}",
                   "batch_size=40", "jobs=1", s]],
        "eval": [["eval", "in=pre.ads3", "checkpoint=run/fold0.ckpt",
                  "out=eval_fold0.txt", s]],
        "stats": stats,
    }


def step_trials(w: Workload) -> dict:
    """Trials one pass of each step handles, as its rate counts them."""
    return {
        "synth": w.n_trials,
        "preprocess": w.n_trials,
        "train": w.train_trials,
        "eval": w.n_trials,
        "stats": w.n_trials * len(w.stats_bands),
    }
