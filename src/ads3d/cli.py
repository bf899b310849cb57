"""Command-line front end: synth -> preprocess -> train -> eval -> stats.

Configuration is a flat ``key = value`` file ('#' comments, UTF-8); any key
can be overridden on the command line as ``key=value``. The seed resolves
with precedence command line > ADS3D_SEED environment variable > config
file. Unknown keys are rejected. All commands are deterministic given their
inputs and write outputs atomically; the fully resolved configuration is
echoed next to every output. Logs go to stderr; stdout is reserved for
--print-config.

Exit status is 0 on success, 1 on any failure with a single machine
parseable line ``error: <code>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dsp, eegio, stats, synthgen, training
from .adsnet import FULL_CONFIG, REDUCED_CONFIG, AdsNet
from .montage import default_montage, load_montage, reduced_montage_4x4

_ENV_SEED = "ADS3D_SEED"


class CliError(Exception):
    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (type constructor, default, help)
_COMMON = {
    "seed": (int, 0, "master seed for all stochastic steps"),
}
_SCHEMAS = {
    "synth": {
        **_COMMON,
        "out": (str, None, "output epoch file (required)"),
        "trials_per_class": (int, 50, "trials per class"),
        "effect_scale": (float, 1.0, "multiplier on planted effect amplitudes"),
        "noise_amplitude": (float, 10.0, "background noise RMS, microvolts"),
        "line_amplitude": (float, 1.0, "60 Hz line component amplitude"),
        "fs": (float, 500.0, "sampling rate of the raw corpus"),
        "epoch_seconds": (float, 4.0, "epoch duration"),
    },
    "preprocess": {
        **_COMMON,
        "in": (str, None, "input epoch file (required)"),
        "out": (str, None, "output epoch file (required)"),
        "notch_hz": (float, 60.0, "line notch frequency (0 disables)"),
        "band_low": (float, 4.0, "bandpass low edge, Hz"),
        "band_high": (float, 40.0, "bandpass high edge, Hz"),
        "order": (int, 5, "Butterworth design order"),
        "target_fs": (float, 250.0, "rate after decimation"),
        "epoch_onset": (int, 0, "sample offset of the epoch window"),
        "epoch_length": (int, 1001, "epoch window length in samples"),
    },
    "train": {
        **_COMMON,
        "in": (str, None, "preprocessed epoch file (required)"),
        "montage": (str, "", "montage file (default: packaged 8x8 map); "
                             "not with reduced=true"),
        "out_dir": (str, None, "output directory (required)"),
        "folds": (int, 5, "cross-validation folds"),
        "epochs": (int, 200, "training epochs per fold"),
        "lr": (float, 1e-3, "AdamW learning rate"),
        "weight_decay": (float, 0.01, "decoupled weight decay"),
        "batch_size": (int, 40, "mini-batch size"),
        "reduced": (_parse_bool, False, "use the reduced model configuration"),
        "jobs": (int, 1, "1: folds one after another; 2 or more: two folds "
                         "at once on the lanes"),
    },
    "eval": {
        **_COMMON,
        "in": (str, None, "preprocessed epoch file (required)"),
        "checkpoint": (str, None, "model checkpoint (required)"),
        "montage": (str, "", "montage file (default: packaged 8x8 map); must "
                             "match the one the checkpoint was trained with"),
        "out": (str, None, "metrics output file (required)"),
    },
    "stats": {
        **_COMMON,
        "in": (str, None, "preprocessed epoch file (required)"),
        "montage": (str, "", "montage file (default: packaged 8x8 map)"),
        "out_prefix": (str, None, "output path prefix (required)"),
        "class_a": (str, None, "first class set, e.g. 'split+spread_out' (required)"),
        "class_b": (str, None, "second class set (required)"),
        "band": (str, "alpha", "alpha, beta, both, or 'lo-hi' in Hz"),
        "alpha_level": (float, 0.01, "corrected significance threshold"),
        "log_power": (_parse_bool, False, "test log band power"),
        "welch_window": (int, 0, "Welch segment length (0: one second)"),
    },
}


def _parse_config_file(path) -> dict:
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError("config", f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as err:
        raise CliError("io", f"cannot read config: {err}") from None
    return raw


def resolve_config(command: str, config_path, overrides) -> dict:
    schema = _SCHEMAS[command]
    raw = _parse_config_file(config_path) if config_path else {}
    if _ENV_SEED in os.environ:
        raw["seed"] = os.environ[_ENV_SEED]
    for item in overrides:
        if "=" not in item:
            raise CliError("config", f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    resolved = {}
    for key, value in raw.items():
        if key not in schema:
            raise CliError(
                "config", f"unknown key {key!r} for {command}; "
                f"known: {', '.join(sorted(schema))}"
            )
        ctor = schema[key][0]
        try:
            resolved[key] = ctor(value) if isinstance(value, str) else value
        except (ValueError, TypeError) as err:
            raise CliError("config", f"bad value for {key!r}: {err}") from None
    for key, (_, default, _) in schema.items():
        resolved.setdefault(key, default)
        if default is None and resolved[key] in (None, ""):
            raise CliError("config", f"{command} requires key {key!r}")
    return resolved


def config_text(config: dict) -> str:
    return "".join(f"{k} = {config[k]}\n" for k in sorted(config))


def _echo_config(config: dict, anchor_path, is_dir=False):
    target = (os.path.join(anchor_path, "run_config.txt") if is_dir
              else str(anchor_path) + ".config.txt")
    eegio.atomic_write(target, config_text(config))


def _log(msg: str):
    print(msg, file=sys.stderr)


def _load_montage(config):
    return load_montage(config["montage"]) if config["montage"] else default_montage()


def cmd_synth(config: dict) -> None:
    template = synthgen.default_paper_template(
        effect_scale=config["effect_scale"],
        n_trials_per_class=config["trials_per_class"],
        seed=config["seed"],
    )
    from dataclasses import replace
    template = replace(template, fs=config["fs"],
                       epoch_seconds=config["epoch_seconds"],
                       noise_amplitude_uv=config["noise_amplitude"],
                       line_amplitude_uv=config["line_amplitude"])
    epochs = synthgen.generate(template)
    eegio.write_epochset(epochs, config["out"])
    _echo_config(config, config["out"])
    _log(f"wrote {epochs.n_trials} trials to {config['out']}")


def cmd_preprocess(config: dict) -> None:
    epochs = eegio.read_epochset(config["in"])
    # float32 output, as EpochSet stores it: no float64 copy of the corpus
    data = np.empty(epochs.data.shape[:-1] + (config["epoch_length"],), dtype=np.float32)
    data, fs = dsp.preprocess_array(
        epochs.data, epochs.fs,
        notch_hz=config["notch_hz"],
        band=(config["band_low"], config["band_high"]),
        order=config["order"], target_fs=config["target_fs"],
        epoch_onset=config["epoch_onset"], epoch_length=config["epoch_length"],
        out=data,
    )
    out = eegio.EpochSet(data=data, labels=epochs.labels, fs=fs,
                         channel_names=epochs.channel_names)
    eegio.write_epochset(out, config["out"])
    _echo_config(config, config["out"])
    _log(f"preprocessed {out.n_trials} trials -> {config['out']} (fs={fs:g})")


def _model_montage(config, reduced: bool):
    if not reduced:
        return _load_montage(config)
    if config["montage"]:
        raise CliError("config", "montage= does not apply to a reduced model, "
                       "which always uses the packaged 4x4 map")
    return reduced_montage_4x4()


def _prepare_training_inputs(epochs, montage, reduced: bool, scale=None):
    """(data, labels, montage, scale); ads3dbench's check_batch_split calls it too."""
    if reduced:
        return training.prepare_reduced_inputs(epochs, scale=scale)
    data = training.align_to_montage(epochs, montage)
    data, scale = training.standardize(data, scale)
    return data, epochs.labels.astype(np.int64), montage, scale


def cmd_train(config: dict) -> None:
    hyper = training.Hyper(lr=config["lr"], weight_decay=config["weight_decay"],
                           epochs=config["epochs"], batch_size=config["batch_size"])
    epochs = eegio.read_epochset(config["in"])
    montage = _model_montage(config, config["reduced"])
    net_config = REDUCED_CONFIG if config["reduced"] else FULL_CONFIG
    data, labels, montage, scale = _prepare_training_inputs(
        epochs, montage, config["reduced"])
    result = training.cross_validate(net_config, data, labels, montage,
                                     k=config["folds"], hyper=hyper,
                                     seed=config["seed"], jobs=config["jobs"])
    os.makedirs(config["out_dir"], exist_ok=True)
    model = AdsNet(net_config, montage, seed=config["seed"])   # load_state sets every entry
    for report in result.reports:
        base = os.path.join(config["out_dir"], f"fold{report.fold}")
        eegio.atomic_write(base + ".log", report.log_text())
        model.load_state(report.best_state)
        ckpt = model.to_checkpoint({
            "fold": str(report.fold),
            "best_epoch": str(report.best_epoch),
            "best_eval_loss": repr(report.best_eval_loss),
            "best_eval_acc": repr(report.best_eval_acc),
            "input_scale": repr(scale),
            "model": "reduced" if config["reduced"] else "full",
            "montage": " ".join(montage.channel_names),
        })
        eegio.write_checkpoint(ckpt, base + ".ckpt")
    summary = [f"mean_accuracy {result.mean_accuracy:.6f}",
               f"std_accuracy {result.std_accuracy:.6f}"]
    summary += [f"fold{r.fold}_accuracy {r.best_eval_acc:.6f}"
                for r in result.reports]
    eegio.atomic_write(os.path.join(config["out_dir"], "summary.txt"),
                       "\n".join(summary) + "\n")
    _echo_config(config, config["out_dir"], is_dir=True)
    _log(f"cross-validation mean accuracy {result.mean_accuracy:.4f} "
         f"(std {result.std_accuracy:.4f})")


def cmd_eval(config: dict) -> None:
    epochs = eegio.read_epochset(config["in"])
    ckpt = eegio.read_checkpoint(config["checkpoint"])
    reduced = ckpt.metadata.get("model", "full") == "reduced"
    net_config = REDUCED_CONFIG if reduced else FULL_CONFIG
    montage = _model_montage(config, reduced)
    trained = ckpt.metadata.get("montage", "").split()   # absent in older checkpoints
    if trained and [n.lower() for n in trained] != [
            n.lower() for n in montage.channel_names]:
        raise CliError("config", "checkpoint was trained with another montage; "
                       "give eval the montage= that train had")
    scale = float(ckpt.metadata["input_scale"]) if "input_scale" in ckpt.metadata else None
    data, labels, montage, _ = _prepare_training_inputs(epochs, montage, reduced, scale)
    model = AdsNet(net_config, montage, seed=config["seed"])
    model.load_checkpoint(ckpt)
    loss, accuracy, confusion = training.evaluate(model, data, labels)
    lines = [f"loss {loss:.9g}", f"accuracy {accuracy:.6f}", "confusion"]
    lines += [" ".join(str(v) for v in row) for row in confusion]
    eegio.atomic_write(config["out"], "\n".join(lines) + "\n")
    _echo_config(config, config["out"])
    _log(f"accuracy {accuracy:.4f} over {len(labels)} trials")


def _band_from_config(config) -> stats.BandSpec:
    name = config["band"].strip().lower()
    if name in stats.BANDS:
        return stats.BANDS[name]
    if "-" in name:
        lo, hi = name.split("-", 1)
        return stats.BandSpec("custom", float(lo), float(hi))
    raise CliError("config", f"unknown band {name!r}; use alpha, beta, both or lo-hi")


def cmd_stats(config: dict) -> None:
    band = _band_from_config(config)
    epochs = eegio.read_epochset(config["in"])
    montage = _load_montage(config)
    win = config["welch_window"] or None
    powers = stats.trial_band_powers(epochs, band, win=win,
                                     log_power=config["log_power"])
    report = stats.contrast_topography(
        epochs, powers, config["class_a"], config["class_b"], band,
        alpha=config["alpha_level"])
    paths = stats.export_topomap(report, montage, config["out_prefix"])
    anova = stats.class_channel_anova(epochs, powers)
    anova_lines = [f"# two-way ANOVA, factors class x channel, band {band.name}",
                   f"# {stats.REPLICATE_NOTE}"]
    for key, label in (("a", "class"), ("b", "channel"), ("ab", "interaction")):
        anova_lines.append(
            f"{label} F {anova.f[key]:.9g} p {anova.p[key]:.9g} df {anova.df[key]}")
    eegio.atomic_write(config["out_prefix"] + "_anova.txt", "\n".join(anova_lines) + "\n")
    _echo_config(config, config["out_prefix"] + "_report.txt")
    _log(f"significant channels: {', '.join(report.significant_channels()) or 'none'}")
    _log("wrote " + ", ".join(sorted(paths.values())))


_COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
    "stats": cmd_stats,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ads3d",
        description="Visual-imagery EEG decoding pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        keys = "\n".join(
            f"  {k} (default {d!r}): {h}" for k, (_, d, h) in sorted(schema.items())
        )
        p = sub.add_parser(
            name, help=f"run the {name} step",
            formatter_class=argparse.RawDescriptionHelpFormatter,
            description=f"Accepted config keys:\n{keys}",
        )
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved config to stdout and exit")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = resolve_config(args.command, args.config, args.overrides)
        if args.print_config:
            sys.stdout.write(config_text(config))
            return 0
        _COMMANDS[args.command](config)
        return 0
    except CliError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 1
    except eegio.FormatError as err:
        print(f"error: format: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 1
    except KeyError as err:
        # str() of a KeyError quotes its message; print it as written.
        print(f"error: runtime: {err.args[0] if err.args else err}", file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError) as err:
        print(f"error: runtime: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
