import numpy as np
import pytest

from ads3d import synthgen
from ads3d.montage import CHANNEL_NAMES_64


def tiny_config(**kw):
    defaults = dict(n_trials_per_class=3, fs=100.0, epoch_seconds=1.0,
                    line_amplitude_uv=0.0, seed=1)
    defaults.update(kw)
    return synthgen.SynthConfig(**defaults)


def test_all_off_gives_zero_corpus():
    config = tiny_config(noise_amplitude_uv=0.0)
    es = synthgen.generate(config)
    assert not es.data.any()
    assert es.n_trials == 12


def test_same_seed_bit_identical_different_seed_differs():
    a = synthgen.generate(tiny_config(seed=9))
    b = synthgen.generate(tiny_config(seed=9))
    c = synthgen.generate(tiny_config(seed=10))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_labels_balanced_and_blocked():
    es = synthgen.generate(tiny_config())
    assert np.array_equal(np.bincount(es.labels), [3, 3, 3, 3])


def test_inclusive_endpoint_sample_count():
    es = synthgen.generate(tiny_config(fs=500.0, epoch_seconds=4.0))
    assert es.n_samples == 2001


def test_noise_rms_close_to_requested():
    config = tiny_config(n_trials_per_class=10, fs=250.0, epoch_seconds=2.0,
                         noise_amplitude_uv=7.5)
    es = synthgen.generate(config)
    assert abs(es.data.std() / 7.5 - 1.0) < 0.05


def test_vectorized_noise_matches_per_trial_reference():
    config = synthgen.default_paper_template(n_trials_per_class=2, seed=3)
    for trial in (0, 3, 7):
        ref = synthgen._noise_trial(config, trial)
        blk = synthgen._noise_block(config, np.array([trial]))[0]
        assert np.array_equal(ref, blk)


def test_bounded_amplitudes():
    config = synthgen.default_paper_template(n_trials_per_class=5, seed=4)
    es = synthgen.generate(config)
    assert np.all(np.isfinite(es.data))
    ceiling = 8 * config.noise_amplitude_uv + \
        sum(e.amplitude_uv for e in config.effects) + config.line_amplitude_uv
    assert np.abs(es.data).max() < ceiling


def test_planted_alpha_power_ratio():
    config = synthgen.default_paper_template(n_trials_per_class=25, seed=5)
    es = synthgen.generate(config)
    from ads3d import stats
    powers = stats.trial_band_powers(es, stats.ALPHA_BAND, win=500)
    o1 = list(es.channel_names).index("O1")
    split = powers[es.labels == 0, o1].mean()
    hovering = powers[es.labels == 3, o1].mean()
    # planted burst dominates the alpha band at default amplitudes
    assert split / hovering > 3.0


def test_default_template_structure():
    config = synthgen.default_paper_template()
    config.validate()
    assert synthgen.CLASS_NAMES == ("split", "spread_out", "fall_in", "hovering")
    assert config.n_trials_per_class == 50
    alpha_effects = [e for e in config.effects if abs(e.center_hz - 10.0) < 0.6]
    assert alpha_effects, "occipital alpha effect present"
    for eff in alpha_effects:
        assert "hovering" not in eff.classes
        assert set(eff.channels) <= {"O1", "Oz", "O2"}
    beta = [e for e in config.effects if e.center_hz == 20.0]
    assert beta and set(beta[0].classes) == {"split", "spread_out"}
    assert set(beta[0].channels) == {"Fp1", "Fp2"}


def test_effect_scale_zero_removes_effects():
    null = synthgen.default_paper_template(effect_scale=0.0)
    assert all(e.amplitude_uv == 0.0 for e in null.effects)
    null2 = synthgen.null_config(synthgen.default_paper_template())
    assert all(e.amplitude_uv == 0.0 for e in null2.effects)


def test_unknown_channel_rejected():
    effect = synthgen.PlantedEffect(("split",), ("NOPE",), 10.0, 1.0, 5.0)
    with pytest.raises(ValueError, match="NOPE"):
        tiny_config(effects=(effect,)).validate()


def test_center_beyond_nyquist_rejected():
    effect = synthgen.PlantedEffect(("split",), ("O1",), 60.0, 1.0, 5.0)
    with pytest.raises(ValueError, match="outside"):
        tiny_config(effects=(effect,)).validate()


def test_unknown_class_rejected():
    effect = synthgen.PlantedEffect(("flying",), ("O1",), 10.0, 1.0, 5.0)
    with pytest.raises(ValueError, match="flying"):
        tiny_config(effects=(effect,)).validate()


def test_channel_names_default_64():
    assert tiny_config().channel_names == CHANNEL_NAMES_64
    assert len(CHANNEL_NAMES_64) == 64


@pytest.mark.parametrize("cpus", [1, 2])
def test_trial_blocks_are_bit_identical(monkeypatch, cpus):
    # 12 trials of 4 x 101 values: the default budget holds them all in one
    # block; a 1-trial budget runs 1-trial blocks, two at a time with two CPUs.
    from ads3d import lanes
    config = tiny_config(channel_names=("a", "b", "c", "d"), line_amplitude_uv=1.0,
                         effects=(synthgen.PlantedEffect(("split",), ("b",), 10.0,
                                                         2.0, 5.0),))
    monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
    whole = synthgen.generate(config).data
    monkeypatch.setattr(synthgen, "CHUNK_VALUES", 4 * 101)
    assert len(lanes.plan(12, 4 * 101, synthgen.CHUNK_VALUES)) == 12
    assert np.array_equal(synthgen.generate(config).data, whole)
