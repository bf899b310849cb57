import numpy as np
import pytest

from ads3d import dsp


def butter_bandpass_magnitude(f, low, high, fs, order):
    """Analytic |H| of a bilinear-transform Butterworth band-pass.

    Independent oracle: prototype magnitude 1/sqrt(1 + W^(2N)) evaluated at
    the band-pass-transformed, frequency-warped variable
    W = (w^2 - wl*wh) / (w * (wh - wl)), w = tan(pi f / fs).
    """
    w = np.tan(np.pi * np.asarray(f, dtype=np.float64) / fs)
    wl = np.tan(np.pi * low / fs)
    wh = np.tan(np.pi * high / fs)
    with np.errstate(divide="ignore", invalid="ignore"):
        big_w = (w * w - wl * wh) / (w * (wh - wl))
        mag = 1.0 / np.sqrt(1.0 + big_w ** (2 * order))
    return np.where(w == 0.0, 0.0, mag)


def interior_rms_ratio(y, x, trim):
    sl = slice(trim, -trim)
    return np.sqrt(np.mean(y[sl] ** 2)) / np.sqrt(np.mean(x[sl] ** 2))


class TestDesign:
    def test_band_edges_at_half_power(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        mags = dsp.magnitude(c, [4.0, 40.0], 250.0)
        assert np.allclose(mags, 1.0 / np.sqrt(2.0), atol=1e-9)

    def test_dc_fully_rejected(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        assert dsp.magnitude(c, [0.0], 250.0)[0] < 1e-12

    def test_geometric_center_passes(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        assert dsp.magnitude(c, [np.sqrt(4.0 * 40.0)], 250.0)[0] >= 0.999

    def test_60hz_attenuation_at_probe_rate(self):
        # The analytic response puts 60 Hz at least 30 dB down for a design
        # rate of 200 Hz (warping pushes 60 Hz deep into the stop band).
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=200.0)
        assert dsp.magnitude(c, [60.0], 200.0)[0] <= 0.03

    def test_matches_analytic_oracle(self):
        for fs in (200.0, 250.0, 500.0):
            c = dsp.design_butter_bandpass(4.0, 40.0, fs=fs)
            freqs = np.linspace(0.5, fs / 2 - 1.0, 64)
            got = dsp.magnitude(c, freqs, fs)
            want = butter_bandpass_magnitude(freqs, 4.0, 40.0, fs, 5)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_five_sections_for_fifth_order(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        assert c.n_sections == 5

    def test_sections_stable(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        for b0, b1, b2, a1, a2 in c.sections:
            assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)

    def test_invalid_edges(self):
        for low, high, fs in [(0.0, 40.0, 250.0), (40.0, 4.0, 250.0),
                              (4.0, 130.0, 250.0)]:
            with pytest.raises(ValueError, match="band edges"):
                dsp.design_butter_bandpass(low, high, fs)

    def test_monotone_in_stopbands(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        lower = dsp.magnitude(c, np.linspace(0.1, 3.9, 40), 250.0)
        upper = dsp.magnitude(c, np.linspace(40.1, 124.0, 40), 250.0)
        assert np.all(np.diff(lower) > 0)
        assert np.all(np.diff(upper) < 0)


class TestFiltfilt:
    def test_constant_rejected(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        y = dsp.filtfilt(c, np.ones(1000))
        assert np.max(np.abs(y[100:-100])) < 1e-6

    def test_inband_tone_preserved(self):
        fs = 250.0
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=fs)
        t = np.arange(int(4 * fs)) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        ratio = interior_rms_ratio(dsp.filtfilt(c, x), x, 125)
        want = butter_bandpass_magnitude([10.0], 4.0, 40.0, fs, 5)[0] ** 2
        assert abs(ratio - want) < 0.01

    def test_60hz_tone_crushed_at_probe_rate(self):
        fs = 200.0
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=fs)
        t = np.arange(int(20 * fs)) / fs
        x = np.sin(2 * np.pi * 60.0 * t)
        ratio = interior_rms_ratio(dsp.filtfilt(c, x), x, int(5 * fs))
        assert ratio < 0.001

    def test_zero_phase_alignment(self):
        fs = 250.0
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=fs)
        t = np.arange(int(8 * fs)) / fs
        x = np.sin(2 * np.pi * 12.649 * t)
        y = dsp.filtfilt(c, x)
        sl = slice(250, -250)
        lags = np.arange(-5, 6)
        corr = [np.dot(y[sl], np.roll(x, lag)[sl]) for lag in lags]
        assert lags[np.argmax(corr)] == 0

    def test_linearity(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 800))
        lhs = dsp.filtfilt(c, 2.5 * x - 1.25 * y)
        rhs = 2.5 * dsp.filtfilt(c, x) - 1.25 * dsp.filtfilt(c, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))

    def test_time_reversal_symmetry(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        x = np.random.default_rng(1).standard_normal(700)
        lhs = dsp.filtfilt(c, x[::-1])
        rhs = dsp.filtfilt(c, x)[::-1]
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_impulse_response_decays(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        from scipy.signal import sosfilt
        x = np.zeros(10 * 250)
        x[0] = 1.0
        h = sosfilt(c.as_sos(), x)
        assert np.max(np.abs(h[-100:])) < 1e-12

    def test_too_short_input(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        with pytest.raises(ValueError, match="too short"):
            dsp.filtfilt(c, np.zeros(30))

    def test_preserves_length(self):
        c = dsp.design_butter_bandpass(4.0, 40.0, fs=250.0)
        assert dsp.filtfilt(c, np.zeros(501)).shape == (501,)


class TestNotch:
    def test_60hz_crushed(self):
        fs = 500.0
        t = np.arange(int(8 * fs)) / fs
        x = np.sin(2 * np.pi * 60.0 * t)
        ratio = interior_rms_ratio(dsp.notch60(x, fs), x, int(2 * fs))
        assert ratio < 0.032

    def test_10hz_untouched(self):
        fs = 500.0
        t = np.arange(int(8 * fs)) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        ratio = interior_rms_ratio(dsp.notch60(x, fs), x, int(2 * fs))
        assert ratio >= 0.9

    def test_zero_signal(self):
        assert np.array_equal(dsp.notch60(np.zeros(500), 500.0), np.zeros(500))

    def test_fs_too_low(self):
        with pytest.raises(ValueError, match="too low"):
            dsp.notch60(np.zeros(500), 100.0)


class TestDownsample:
    def test_definition(self):
        assert np.array_equal(dsp.downsample(np.array([1, 2, 3, 4, 5]), 2),
                              [1, 3, 5])

    def test_constant(self):
        assert np.array_equal(dsp.downsample(np.ones(10), 2), np.ones(5))

    def test_500_to_250(self):
        assert dsp.downsample(np.zeros(2000), 2).shape == (1000,)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            dsp.downsample(np.zeros(10), 0)


class TestExtractEpoch:
    def test_identity(self):
        x = np.arange(10.0)
        assert np.array_equal(dsp.extract_epoch(x, 0, 10), x)

    def test_1001_window(self):
        rec = np.zeros(1500)
        assert dsp.extract_epoch(rec, 100, 1001).shape == (1001,)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            dsp.extract_epoch(np.zeros(10), 5, 6)


def test_preprocess_chain_shapes():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((3, 4, 2001))
    out, fs = dsp.preprocess_array(raw, 500.0)
    assert out.shape == (3, 4, 1001)
    assert fs == 250.0


def _whole_array_chain(raw, fs):
    """The chain as one whole-array pass per step: the blocking oracle."""
    x = dsp.filtfilt(dsp.design_notch(60.0, fs), raw.astype(np.float64))
    x = dsp.filtfilt(dsp.design_butter_bandpass(4.0, 40.0, fs, 5), x)
    return dsp.extract_epoch(dsp.downsample(x, int(fs // 250)), 0, 1001)


@pytest.mark.parametrize("block_rows", [None, 3])
def test_preprocess_blocks_are_bit_identical(monkeypatch, block_rows):
    # 5 trials x 4 channels = 20 rows: a 3-row budget runs 1-row blocks, two
    # at a time with two CPUs, so trials straddle block boundaries; the
    # default budget runs one block on the calling thread.
    from ads3d import lanes
    raw = np.random.default_rng(5).standard_normal((5, 4, 2001)).astype(np.float32)
    if block_rows:
        monkeypatch.setattr(dsp, "BLOCK_BYTES", block_rows * 8 * raw.shape[-1])
    assert len(lanes.plan(20, 8 * raw.shape[-1], dsp.BLOCK_BYTES)) == (20 if block_rows else 1)
    for cpus in (1, 2):
        monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
        whole, fs = dsp.preprocess_array(raw, 500.0)
        assert fs == 250.0 and whole.dtype == np.float64
        assert np.array_equal(whole, _whole_array_chain(raw, 500.0))
        singles = [dsp.preprocess_array(raw[i:i + 1], 500.0)[0] for i in range(5)]
        assert np.array_equal(whole, np.concatenate(singles))
        assert np.array_equal(singles[0], _whole_array_chain(raw[:1], 500.0))
        out = np.empty((5, 4, 1001), dtype=np.float32)
        assert dsp.preprocess_array(raw, 500.0, out=out)[0] is out
        assert np.array_equal(out, whole.astype(np.float32))


def test_preprocess_rejects_a_wrong_out():
    raw = np.zeros((2, 3, 2001))
    for out in (np.empty((2, 3, 1000)), np.empty((3, 2, 1001)).transpose(1, 0, 2)):
        with pytest.raises(ValueError, match="out must be"):
            dsp.preprocess_array(raw, 500.0, out=out)
