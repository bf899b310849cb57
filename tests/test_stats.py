import numpy as np
import pytest
from scipy import stats as sps

from ads3d import eegio, stats, synthgen
from ads3d.montage import default_montage
from ads3d.rng import RngStream


def _contrast(epochs, class_a, class_b, band):
    powers = stats.trial_band_powers(epochs, band)
    return stats.contrast_topography(epochs, powers, class_a, class_b, band)


class TestWelch:
    def test_zero_signal(self):
        _, psd = stats.welch_psd(np.zeros(1000), fs=250.0)
        assert not psd.any()

    def test_tone_mass_concentrates(self):
        fs = 250.0
        t = np.arange(int(4 * fs)) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        freqs, psd = stats.welch_psd(x, fs)
        near = (freqs >= 9.0) & (freqs <= 11.0)
        assert psd[near].sum() / psd.sum() >= 0.95

    def test_white_noise_parseval(self):
        x = RngStream(0).normal(100_000)
        freqs, psd = stats.welch_psd(x, fs=250.0)
        assert abs(np.trapezoid(psd, freqs) / x.var() - 1.0) < 0.05

    def test_nonnegative_everywhere(self):
        x = RngStream(1).normal((4, 3, 2000))
        _, psd = stats.welch_psd(x, fs=250.0)
        assert psd.min() >= 0.0

    def test_window_longer_than_signal(self):
        with pytest.raises(ValueError, match="longer"):
            stats.welch_psd(np.zeros(100), fs=250.0)

    def test_matches_direct_periodogram_for_single_segment(self):
        # One full-length Hann segment: Welch reduces to a plain modified
        # periodogram, recomputed here from scratch as the oracle.
        fs = 250.0
        x = RngStream(2).normal(250)
        freqs, psd = stats.welch_psd(x, fs, win=250)
        from scipy.signal import get_window
        win = get_window("hann", 250)
        seg = (x - x.mean()) * win
        spec = np.abs(np.fft.rfft(seg)) ** 2 / (fs * (win ** 2).sum())
        spec[1:-1] *= 2.0
        assert np.allclose(psd, spec, rtol=1e-10, atol=1e-18)


@pytest.mark.parametrize("block_rows", [None, 5])
def test_band_powers_blocks_are_bit_identical(monkeypatch, block_rows):
    # 3 trials x 4 channels = 12 rows: 5-row blocks end short and split
    # trials; a 1-trial corpus is the per-trial reference.
    from scipy import signal
    from ads3d import dsp
    data = RngStream(20).normal((3, 4, 1001)).astype(np.float32)
    es = eegio.EpochSet(data=data, labels=np.array([0, 1, 3]), fs=250.0,
                        channel_names=("a", "b", "c", "d"))
    if block_rows:
        monkeypatch.setattr(dsp, "BLOCK_BYTES", block_rows * 8 * data.shape[-1])
    freqs, psd = stats.welch_psd(data, es.fs)
    ref_freqs, ref = signal.welch(data.astype(np.float64), fs=250.0, window="hann",
                                  nperseg=250, noverlap=125, detrend="constant",
                                  scaling="density", axis=-1)
    assert np.array_equal(freqs, ref_freqs) and np.array_equal(psd, ref)
    whole = stats.trial_band_powers(es, stats.BOTH_BAND)
    singles = [stats.trial_band_powers(
        eegio.EpochSet(data=data[i:i + 1], labels=es.labels[i:i + 1], fs=es.fs,
                       channel_names=es.channel_names), stats.BOTH_BAND)
        for i in range(3)]
    assert np.array_equal(whole, np.concatenate(singles))


class TestBandPower:
    def test_whole_band_close_to_variance(self):
        x = RngStream(3).normal(50_000)
        freqs, psd = stats.welch_psd(x, fs=250.0)
        band = stats.BandSpec("full", 1e-9, 125.0)
        assert abs(stats.band_power(psd, freqs, band) / x.var() - 1.0) < 0.05

    def test_disjoint_band_on_pure_tone(self):
        fs = 250.0
        t = np.arange(int(8 * fs)) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        freqs, psd = stats.welch_psd(x, fs)
        in_band = stats.band_power(psd, freqs, stats.ALPHA_BAND)
        out_band = stats.band_power(psd, freqs, stats.BETA_BAND)
        assert out_band < 1e-4 * in_band

    def test_additivity_on_shared_grid(self):
        freqs = np.arange(0.0, 125.1, 1.0)
        psd = RngStream(4).uniform(freqs.size)
        lo = stats.band_power(psd, freqs, stats.ALPHA_BAND)
        hi = stats.band_power(psd, freqs, stats.BETA_BAND)
        both = stats.band_power(psd, freqs, stats.BOTH_BAND)
        assert abs((lo + hi) - both) < 1e-9

    def test_band_with_too_few_samples(self):
        with pytest.raises(ValueError, match="fewer"):
            stats.band_power(np.ones(3), np.array([0.0, 50.0, 100.0]),
                             stats.ALPHA_BAND)


class TestPairedTTest:
    def test_symmetric_differences_give_zero_t(self):
        t, p, df = stats.paired_ttest([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert t == 0.0 and p == 1.0 and df == 2

    def test_closed_form_example(self):
        t, p, df = stats.paired_ttest([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert abs(t - 2.0 * np.sqrt(3.0)) < 1e-12
        assert abs(t - 3.4641) < 1e-4
        assert df == 2
        assert abs(p - 0.07418) < 1e-4

    def test_identical_samples_degenerate(self):
        with pytest.raises(stats.DegenerateContrastError):
            stats.paired_ttest([1.0, 2.0], [1.0, 2.0])

    def test_nonzero_constant_differences_degenerate(self):
        with pytest.raises(stats.DegenerateContrastError):
            stats.paired_ttest([2.0, 3.0], [1.0, 2.0])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="2 pairs"):
            stats.paired_ttest([1.0], [0.0])

    def test_matches_scipy(self):
        a = RngStream(5).normal(20) + 0.3
        b = RngStream(6).normal(20)
        t, p, df = stats.paired_ttest(a, b)
        ref = sps.ttest_rel(a, b)
        assert abs(t - ref.statistic) < 1e-10
        assert abs(p - ref.pvalue) < 1e-10
        assert df == 19

    def test_affine_invariance(self):
        a = RngStream(7).normal(15) + 1.0
        b = RngStream(8).normal(15)
        t0, p0, _ = stats.paired_ttest(a, b)
        t1, p1, _ = stats.paired_ttest(3.0 * a + 5.0, 3.0 * b + 5.0)
        assert abs(t0 - t1) < 1e-9 and abs(p0 - p1) < 1e-9

    def test_antisymmetric_in_arguments(self):
        a = RngStream(9).normal(12) + 0.5
        b = RngStream(10).normal(12)
        t_ab, _, _ = stats.paired_ttest(a, b)
        t_ba, _, _ = stats.paired_ttest(b, a)
        assert abs(t_ab + t_ba) < 1e-12


class TestBonferroni:
    def test_arithmetic(self):
        assert stats.bonferroni([0.0005], 64)[0] == pytest.approx(0.032)

    def test_clamped_at_one(self):
        assert stats.bonferroni([0.5], 64)[0] == 1.0

    def test_m_one_identity(self):
        p = np.array([0.01, 0.2, 0.9])
        assert np.array_equal(stats.bonferroni(p, 1), p)

    def test_monotone(self):
        p = RngStream(11).uniform(100)
        assert np.all(stats.bonferroni(p, 5) >= p)


def anova_ss_oracle(x):
    """Brute-force mean-decomposition of the sums of squares."""
    a, b, r = x.shape
    grand = x.mean()
    ss_a = sum((x[i].mean() - grand) ** 2 for i in range(a)) * b * r
    ss_b = sum((x[:, j].mean() - grand) ** 2 for j in range(b)) * a * r
    ss_ab = 0.0
    for i in range(a):
        for j in range(b):
            ss_ab += (x[i, j].mean() - x[i].mean() - x[:, j].mean() + grand) ** 2
    ss_ab *= r
    ss_e = sum((x[i, j, k] - x[i, j].mean()) ** 2
               for i in range(a) for j in range(b) for k in range(r))
    ss_t = ((x - grand) ** 2).sum()
    return ss_a, ss_b, ss_ab, ss_e, ss_t


class TestAnova:
    def test_identical_cells_all_zero(self):
        res = stats.two_way_anova(np.full((3, 4, 2), 5.0))
        assert res.ss["total"] == 0.0
        assert all(res.f[k] == 0.0 for k in ("a", "b", "ab"))

    def test_pure_class_offset_degenerate(self):
        x = np.zeros((2, 3, 2))
        x[1] += 1.0
        res = stats.two_way_anova(x)
        assert res.degenerate
        assert res.ss["b"] == 0.0 and res.ss["ab"] == 0.0
        assert np.isinf(res.f["a"]) and res.p["a"] == 0.0

    def test_hand_2x2x3_matches_bruteforce(self):
        x = np.array([[[3.0, 4.0, 5.0], [7.0, 6.0, 8.0]],
                      [[2.0, 3.0, 1.0], [9.0, 9.5, 10.0]]])
        res = stats.two_way_anova(x)
        ss_a, ss_b, ss_ab, ss_e, ss_t = anova_ss_oracle(x)
        assert res.ss["a"] == pytest.approx(ss_a, rel=1e-12)
        assert res.ss["b"] == pytest.approx(ss_b, rel=1e-12)
        assert res.ss["ab"] == pytest.approx(ss_ab, rel=1e-12)
        assert res.ss["error"] == pytest.approx(ss_e, rel=1e-12)
        assert res.ss["total"] == pytest.approx(ss_t, rel=1e-12)

    def test_ss_additivity(self):
        x = RngStream(12).normal((4, 6, 5))
        res = stats.two_way_anova(x)
        parts = res.ss["a"] + res.ss["b"] + res.ss["ab"] + res.ss["error"]
        assert abs(parts - res.ss["total"]) < 1e-9 * res.ss["total"]

    def test_p_values_match_scipy_f_tail(self):
        x = RngStream(13).normal((3, 4, 6)) + \
            np.arange(3).reshape(3, 1, 1) * 0.5
        res = stats.two_way_anova(x)
        for key in ("a", "b", "ab"):
            want = sps.f.sf(res.f[key], res.df[key], res.df["error"])
            assert abs(res.p[key] - want) < 1e-10

    def test_too_few_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            stats.two_way_anova(np.zeros((2, 2, 1)))

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError, match="balanced"):
            stats.two_way_anova(np.zeros((4, 4)))


class TestContrastTopography:
    def test_identical_classes_empty_mask(self):
        data = np.tile(RngStream(14).normal((1, 4, 300)), (8, 1, 1))
        es = eegio.EpochSet(data=data, labels=np.array([0, 0, 0, 0, 3, 3, 3, 3]),
                            fs=250.0, channel_names=("a", "b", "c", "d"))
        powers = stats.trial_band_powers(es, stats.ALPHA_BAND, win=250)
        report = stats.contrast_topography(es, powers, 0, 3, stats.ALPHA_BAND)
        assert not report.mask.any()
        assert np.all(np.isnan(report.t))

    def test_sign_convention_antisymmetry(self, small_preprocessed):
        a = _contrast(small_preprocessed, "split", "hovering", stats.ALPHA_BAND)
        b = _contrast(small_preprocessed, "hovering", "split", stats.ALPHA_BAND)
        finite = np.isfinite(a.t)
        assert np.allclose(a.t[finite], -b.t[finite], atol=1e-9)

    def test_recovers_planted_channels(self, small_preprocessed):
        report = _contrast(
            small_preprocessed, ("split", "spread_out", "fall_in"), "hovering",
            stats.ALPHA_BAND)
        assert {"O1", "Oz", "O2"} <= set(report.significant_channels())
        beta = _contrast(
            small_preprocessed, ("split", "spread_out"), "fall_in",
            stats.BETA_BAND)
        assert {"Fp1", "Fp2"} <= set(beta.significant_channels())

    def test_overlapping_class_sets_rejected(self, small_preprocessed):
        with pytest.raises(ValueError, match="overlap"):
            _contrast(small_preprocessed, ("split", "fall_in"), "fall_in",
                      stats.ALPHA_BAND)

    def test_unknown_class_name(self, small_preprocessed):
        with pytest.raises(ValueError, match="unknown class"):
            _contrast(small_preprocessed, "flying", "hovering", stats.ALPHA_BAND)

    def test_report_text_carries_replicate_note(self, small_preprocessed):
        report = _contrast(small_preprocessed, "split", "hovering",
                           stats.ALPHA_BAND)
        text = report.text()
        assert stats.REPLICATE_NOTE in text
        assert "split vs hovering" in text


class TestExportTopomap:
    def _report(self, small_preprocessed):
        return _contrast(
            small_preprocessed, ("split", "spread_out", "fall_in"), "hovering",
            stats.ALPHA_BAND)

    def test_csv_cells_follow_montage(self, small_preprocessed, tmp_path):
        report = self._report(small_preprocessed)
        montage = default_montage()
        paths = stats.export_topomap(report, montage, tmp_path / "alpha")
        rows = [line.split(",") for line in
                open(paths["t_csv"]).read().strip().splitlines()]
        assert len(rows) == 8 and all(len(r) == 8 for r in rows)
        r, c = divmod(montage.channel_names.index("Oz"), montage.side)
        i = report.channel_names.index("Oz")
        assert float(rows[r][c]) == float(f"{report.t[i]:.9g}")

    def test_csv_roundtrip_9_significant_digits(self, small_preprocessed, tmp_path):
        report = self._report(small_preprocessed)
        montage = default_montage()
        paths = stats.export_topomap(report, montage, tmp_path / "rt")
        parsed = np.array([[float(v) for v in line.split(",")] for line in
                           open(paths["t_csv"]).read().strip().splitlines()])
        for r in range(8):
            for c in range(8):
                name = montage.grid[r][c]
                i = report.channel_names.index(name)
                assert parsed[r, c] == float(f"{report.t[i]:.9g}")

    def test_all_zero_t_gives_uniform_gray(self, tmp_path):
        report = stats.StatsReport(
            class_a=(0,), class_b=(3,), band=stats.ALPHA_BAND, alpha=0.01,
            n_pairs=5, channel_names=default_montage().channel_names,
            t=np.zeros(64), p_raw=np.ones(64), p_corrected=np.ones(64),
            mask=np.zeros(64, bool), mean_power_a=np.zeros(64),
            mean_power_b=np.zeros(64))
        paths = stats.export_topomap(report, default_montage(), tmp_path / "gray")
        raw = open(paths["pgm"], "rb").read()
        assert raw.startswith(b"P5")
        assert raw[-64:] == bytes([128]) * 64

    def test_pgm_header_and_size(self, small_preprocessed, tmp_path):
        report = self._report(small_preprocessed)
        paths = stats.export_topomap(report, default_montage(), tmp_path / "p")
        raw = open(paths["pgm"], "rb").read()
        header, pixels = raw.rsplit(b"\n255\n", 1)
        assert header.startswith(b"P5")
        assert b"8 8" in header
        assert len(pixels) == 64


def test_class_channel_anova_flags_class_effect(small_preprocessed):
    powers = stats.trial_band_powers(small_preprocessed, stats.ALPHA_BAND)
    res = stats.class_channel_anova(small_preprocessed, powers)
    assert res.p["a"] < 0.05
    assert res.p["b"] < 0.05


@pytest.mark.slow
def test_false_positive_control_on_null_data():
    # Family-wise error across 64 channels at corrected alpha 0.01: over
    # 1000 null corpora the expected count of significant channels is 10;
    # accept up to the binomial 3-sigma upper bound.
    runs = 1000
    hits = 0
    for seed in range(runs):
        config = synthgen.SynthConfig(
            n_trials_per_class=15, fs=125.0, epoch_seconds=1.0,
            noise_amplitude_uv=8.0, line_amplitude_uv=0.0, seed=seed)
        es = synthgen.generate(config)
        powers = stats.trial_band_powers(es, stats.ALPHA_BAND, win=125)
        report = stats.contrast_topography(es, powers, 0, 3, stats.ALPHA_BAND)
        hits += int(report.mask.sum())
    expected = runs * 64 * (0.01 / 64)
    assert hits <= expected + 3 * np.sqrt(expected)
