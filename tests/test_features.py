import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import pick_f0
from speechstyle import (
    SUPPORTED_RATES,
    AudioClip,
    FrameConfig,
    _native,
    estimate_pitch,
    extract_features,
    stress_contour,
)
from speechstyle.errors import ClipTooShort
from speechstyle.features import (
    STRESS_FLOOR_DB,
    _ENERGY_FLOOR,
    _autocorrelate,
    _cepstra,
    _dct2_ortho,
    _frame_signal,
    _mel_filterbank,
    _next_pow2,
    _pitch_batch,
    _row_blocks,
    _window_sizes,
)

CFG = FrameConfig()


def _tone(freq, sr=16000, seconds=1.0, amp=0.8):
    t = np.arange(int(round(sr * seconds))) / sr
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), sr)


def test_frame_count_one_second_16k():
    bundle = extract_features(_tone(220.0), CFG)
    assert bundle.frame_count == 98  # floor((16000 - 400) / 160) + 1


def test_frame_count_formula_random_lengths():
    rng = np.random.default_rng(11)
    win, hop = 400, 160
    for _ in range(25):
        n = int(rng.integers(win, 5 * 16000))
        clip = AudioClip(rng.uniform(-0.5, 0.5, n), 16000)
        expected = (n - win) // hop + 1
        assert extract_features(clip, CFG).frame_count == expected


def test_single_window_clip_gives_one_frame():
    clip = AudioClip(np.random.default_rng(1).uniform(-0.5, 0.5, 400), 16000)
    assert extract_features(clip, CFG).frame_count == 1


def test_clip_shorter_than_window_rejected():
    with pytest.raises(ClipTooShort):
        extract_features(AudioClip(np.ones(399) * 0.1, 16000), CFG)


def test_streams_share_one_frame_grid():
    bundle = extract_features(_tone(150.0, seconds=0.73), CFG)
    assert bundle.spectral.shape == (bundle.frame_count, CFG.n_ceps)
    assert bundle.pitch.shape == (bundle.frame_count,)
    assert bundle.stress.shape == (bundle.frame_count,)


def test_stress_zero_frame_hits_floor():
    assert stress_contour(np.zeros((1, 400)))[0] == -120.0


def test_stress_full_scale_square_wave_is_zero_db():
    frame = np.ones((1, 400))
    frame[0, ::2] = -1.0
    assert stress_contour(frame)[0] == 0.0


def test_stress_tenth_amplitude_sine():
    n, sr, freq = 400, 16000, 200.0  # exactly 5 periods per frame
    frame = 0.1 * np.sin(2 * np.pi * freq * np.arange(n) / sr)
    value = stress_contour(frame[np.newaxis, :])[0]
    assert value == pytest.approx(10.0 * math.log10(0.005), abs=1e-9)


def test_stress_scaling_shifts_by_six_db():
    rng = np.random.default_rng(2)
    frames = rng.uniform(-0.8, 0.8, (5, 400))
    shift = stress_contour(frames) - stress_contour(0.5 * frames)
    assert np.allclose(shift, 10.0 * math.log10(4.0), atol=1e-9)


def _pitch_16k(frame):
    return estimate_pitch(frame, 16000, CFG)


@pytest.mark.parametrize(
    "call, array, message",
    [
        (stress_contour, np.zeros(400), r"frames must be 2-D .*\(400,\)"),
        (stress_contour, np.zeros((2, 3, 400)), r"frames must be 2-D .*\(2, 3, 400\)"),
        (stress_contour, np.zeros((3, 0)), r"at least one sample, got shape \(3, 0\)"),
        (_pitch_16k, np.zeros((2, 400)), r"frame must be 1-D .*\(2, 400\)"),
        (_pitch_16k, np.zeros(()), r"frame must be 1-D .*\(\)"),
    ],
)
def test_stress_and_pitch_reject_arrays_of_the_wrong_dimension(call, array, message):
    with pytest.raises(ValueError, match=message):
        call(array)


@pytest.mark.parametrize("freq", [100.0, 150.0, 220.0, 330.0, 440.0])
def test_pitch_pure_tones_within_two_percent(freq):
    bundle = extract_features(_tone(freq), CFG)
    voiced = bundle.pitch[~np.isnan(bundle.pitch)]
    assert voiced.size > 0
    assert np.all(np.abs(voiced - freq) <= 0.02 * freq)


def test_pitch_single_frame_call_matches_tone():
    frame = 0.6 * np.sin(2 * np.pi * 220.0 * np.arange(400) / 16000)
    f0 = estimate_pitch(frame, 16000, CFG)
    assert f0 is not None
    assert abs(f0 - 220.0) <= 0.02 * 220.0


def test_pitch_zero_frame_is_unvoiced():
    assert estimate_pitch(np.zeros(400), 16000, CFG) is None


def test_pitch_white_noise_is_unvoiced():
    rng = np.random.default_rng(17)
    frame = 0.3 * rng.standard_normal(400)
    # independent check that the normalized autocorrelation peak really
    # sits below the voicing threshold for this seed
    full = np.correlate(frame, frame, mode="full")[frame.size - 1 :]
    lag_min, lag_max = math.ceil(16000 / CFG.pitch_fmax), math.floor(16000 / CFG.pitch_fmin)
    peak = np.max(full[lag_min : lag_max + 1]) / full[0]
    assert peak < CFG.voicing_threshold
    assert estimate_pitch(frame, 16000, CFG) is None


def test_pitch_peak_between_one_quarter_and_the_threshold_is_unvoiced():
    # An impulse and an echo of height a at lag 100 (160 Hz): every other
    # lag is 0, so the normalised peak is a / (1 + a^2) = 0.275.
    frame = np.zeros(400)
    frame[0], frame[100] = 1.0, 0.3
    ac = np.correlate(frame, frame, mode="full")[frame.size - 1 :]
    assert 0.25 < np.max(ac[32:321]) / ac[0] < 0.3
    assert CFG.voicing_threshold == 0.3
    assert estimate_pitch(frame, 16000, CFG) is None
    assert estimate_pitch(frame, 16000, dataclasses.replace(CFG, voicing_threshold=0.25)) is not None


def test_pitch_short_frame_skips_out_of_range_lags():
    # 120 samples cannot hold a 50 Hz period at 16 kHz; a 400 Hz tone
    # still fits and must be found
    frame = 0.7 * np.sin(2 * np.pi * 400.0 * np.arange(120) / 16000)
    f0 = estimate_pitch(frame, 16000, CFG)
    assert f0 is not None
    assert abs(f0 - 400.0) <= 0.02 * 400.0


def _pitch_frame_by_frame(frames, sample_rate, cfg):
    """Per-frame parabolic peak refinement, one frame at a time in Python floats."""
    n = frames.shape[1]
    lag_min = max(math.ceil(sample_rate / cfg.pitch_fmax), 2)
    lag_max = min(math.floor(sample_rate / cfg.pitch_fmin), n - 2)
    band = (lag_min, lag_max, sample_rate, cfg.pitch_fmin, cfg.pitch_fmax, cfg.voicing_threshold)
    return np.array([pick_f0(row, *band) for row in _autocorrelate(frames)])


@pytest.mark.parametrize("sample_rate", [8000, 16000, 44100])
def test_pitch_batch_equals_frame_by_frame_refinement(sample_rate):
    rng = np.random.default_rng(sample_rate)
    win = int(round(CFG.window_ms * sample_rate / 1000.0))
    t = np.arange(win) / sample_rate
    frames = np.array(
        [
            rng.uniform(0.05, 0.9) * np.sin(2 * np.pi * rng.uniform(30.0, 700.0) * t + rng.uniform(0, 6))
            + rng.uniform(0.0, 0.4) * rng.standard_normal(win)
            for _ in range(200)
        ]
    )
    expected = _pitch_frame_by_frame(frames, sample_rate, CFG)
    got = _pitch_batch(frames, sample_rate, CFG)
    assert np.isnan(expected).any() and (~np.isnan(expected)).any()
    assert got.tobytes() == expected.tobytes()


def _overlapping_signal(rows, sample_rate):
    """A tone with jumping level and noise, exactly rows frames long at CFG's sizes."""
    rng = np.random.default_rng(rows + sample_rate)
    win, hop = _window_sizes(CFG, sample_rate)
    n = win + (rows - 1) * hop
    level = np.repeat(rng.uniform(0.0, 0.9, n // hop + 1), hop)[:n]
    tone = np.sin(2 * np.pi * rng.uniform(60.0, 400.0) * np.arange(n) / sample_rate)
    return level * tone + rng.uniform(0.0, 0.3) * rng.standard_normal(n)


def _overlapping_frames(rows, sample_rate):
    """rows frames of _overlapping_signal, cut as extract_features cuts them.

    Returns the sliding-window view the passes read and a contiguous copy.
    """
    win, hop = _window_sizes(CFG, sample_rate)
    view = _frame_signal(_overlapping_signal(rows, sample_rate), win, hop)
    assert view.shape == (rows, win)
    return view, np.ascontiguousarray(view)


@pytest.mark.parametrize("sample_rate", [8000, 16000, 44100])
@pytest.mark.parametrize("rows", [1, 7, 8, 9, 32, 33, 200])
def test_blocked_pitch_equals_one_shot_autocorrelation(rows, sample_rate):
    # Rows either side of a block edge: the blocked autocorrelation and
    # pitch track carry the bits of one FFT call over every row.
    view, frames = _overlapping_frames(rows, sample_rate)
    one_shot = _autocorrelate(frames)
    for block in _row_blocks(rows, _next_pow2(2 * frames.shape[1])):
        assert _autocorrelate(view[block]).tobytes() == one_shot[block].tobytes()
    expected = _pitch_frame_by_frame(frames, sample_rate, CFG)
    assert _pitch_batch(view, sample_rate, CFG).tobytes() == expected.tobytes()


@pytest.mark.parametrize("sample_rate", [8000, 16000, 44100])
@pytest.mark.parametrize("rows", [1, 7, 8, 9, 32, 33, 200])
def test_blocked_cepstra_and_stress_equal_one_shot_passes(rows, sample_rate):
    view, frames = _overlapping_frames(rows, sample_rate)
    n_fft = _next_pow2(frames.shape[1])
    spectrum = np.fft.rfft(frames * np.hamming(frames.shape[1]), n_fft, axis=1)
    power = spectrum.real**2
    power += spectrum.imag**2
    power /= n_fft
    energies = power @ _mel_filterbank(sample_rate, n_fft, CFG.n_filters).T
    cepstra = _dct2_ortho(np.log(np.maximum(energies, _ENERGY_FLOOR)))[:, : CFG.n_ceps]
    assert _cepstra(view, sample_rate, CFG).tobytes() == cepstra.tobytes()
    mean_square = np.mean(frames**2, axis=1)
    stress = 10.0 * np.log10(np.maximum(mean_square, 10.0 ** (STRESS_FLOOR_DB / 10.0)))
    assert stress_contour(view).tobytes() == stress.tobytes()


@pytest.mark.parametrize("sample_rate", [16000, 44100])
def test_cepstra_are_an_owned_contiguous_copy_of_the_leading_dct_columns(sample_rate):
    samples = np.random.default_rng(sample_rate).uniform(-0.5, 0.5, sample_rate // 2)
    clip = AudioClip(samples, sample_rate)
    spectral = extract_features(clip, CFG).spectral
    assert spectral.flags.c_contiguous and spectral.flags.owndata and spectral.base is None
    every_column = extract_features(clip, dataclasses.replace(CFG, n_ceps=CFG.n_filters)).spectral
    assert spectral.tobytes() == every_column[:, : CFG.n_ceps].tobytes()


def test_voiced_estimates_stay_in_configured_band():
    rng = np.random.default_rng(3)
    for _ in range(10):
        freq = float(rng.uniform(80, 450))
        bundle = extract_features(_tone(freq, seconds=0.3), CFG)
        voiced = bundle.pitch[~np.isnan(bundle.pitch)]
        assert np.all((voiced >= CFG.pitch_fmin) & (voiced <= CFG.pitch_fmax))


def test_amplitude_invariance_of_pitch_and_voicing():
    rng = np.random.default_rng(4)
    base = _tone(180.0, seconds=0.5)
    noisy = AudioClip(base.samples + 0.05 * rng.standard_normal(base.samples.size), 16000)
    a = extract_features(noisy, CFG)
    b = extract_features(AudioClip(noisy.samples * 0.5, 16000), CFG)
    assert np.array_equal(np.isnan(a.pitch), np.isnan(b.pitch))
    voiced = ~np.isnan(a.pitch)
    assert np.all(np.abs(a.pitch[voiced] - b.pitch[voiced]) <= 0.1)


def test_scaling_touches_only_cepstral_coefficient_zero():
    rng = np.random.default_rng(5)
    clip = AudioClip(rng.uniform(-0.6, 0.6, 8000), 16000)
    a = extract_features(clip, CFG)
    b = extract_features(AudioClip(clip.samples * 0.5, 16000), CFG)
    assert np.allclose(a.spectral[:, 1:], b.spectral[:, 1:], atol=1e-9)
    c0_shift = a.spectral[:, 0] - b.spectral[:, 0]
    assert np.all(c0_shift > 0)
    assert np.allclose(c0_shift, c0_shift[0], atol=1e-9)


def test_frame_config_validation():
    with pytest.raises(ValueError):
        FrameConfig(hop_ms=30.0)  # hop larger than window
    with pytest.raises(ValueError):
        FrameConfig(preemphasis=1.0)
    with pytest.raises(ValueError):
        FrameConfig(n_ceps=25)  # more cepstra than filters
    with pytest.raises(ValueError):
        FrameConfig(pitch_fmin=500.0, pitch_fmax=100.0)
    with pytest.raises(ValueError):
        FrameConfig(voicing_threshold=0.0)
    with pytest.raises(ValueError, match=r"n_ceps must be int, got 13\.0"):
        FrameConfig(n_ceps=13.0)
    with pytest.raises(ValueError, match="window_ms must be float, got True"):
        FrameConfig(window_ms=True)
    with pytest.raises(ValueError, match="hop_ms must be finite, got nan"):
        FrameConfig(hop_ms=float("nan"))
    with pytest.raises(ValueError, match="must be a JSON object"):
        FrameConfig.from_dict([("n_ceps", 10)])
    with pytest.raises(ValueError, match="unknown field 'zz'"):
        FrameConfig.from_dict({"zz": 1, "aa": 2, "n_ceps": 10})


def test_frame_config_dict_round_trip():
    cfg = FrameConfig(window_ms=20.0, n_ceps=10)
    assert FrameConfig.from_dict(cfg.to_dict()) == cfg


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(1, 300),
    st.sampled_from([1e-6, 1e-3, 1.0, 30.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_dct2_matches_scipy_bit_for_bit(n, rows, scale, seed):
    scipy_fft = pytest.importorskip("scipy.fft")
    x = np.random.default_rng(seed).normal(scale=scale, size=(rows, n))
    expected = scipy_fft.dct(x, type=2, axis=1, norm="ortho")
    got = _dct2_ortho(x)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.fixture
def numpy_only(monkeypatch):
    """Runs the code under test on numpy's FFTs, as where no kernel can be built."""
    def use_numpy():
        monkeypatch.setattr(_native, "_load_kernel", lambda: None)

    return use_numpy


def _tracks(bundle):
    return [getattr(bundle, track).tobytes() for track in ("spectral", "pitch", "stress")]


@pytest.fixture
def equal_on_each_build(kernel_builds, numpy_only, monkeypatch):
    """Checks extract_features on each kernel build against numpy, bit for bit.

    Takes the clips and a FrameConfig; returns numpy's bundles.
    """

    def check(clips, cfg=CFG):
        if not kernel_builds:
            pytest.skip("compiled kernels unavailable")
        got = {}
        for name, kernel in kernel_builds.items():
            monkeypatch.setattr(_native, "_load_kernel", lambda kernel=kernel: kernel)
            got[name] = [_tracks(extract_features(clip, cfg)) for clip in clips]
        numpy_only()
        expected = [extract_features(clip, cfg) for clip in clips]
        for name, tracks in got.items():
            assert tracks == [_tracks(bundle) for bundle in expected], name
        return expected

    return check


@pytest.mark.parametrize("sample_rate", SUPPORTED_RATES)
def test_kernel_cepstra_and_pitch_equal_numpy_on_sliding_frames(sample_rate, equal_on_each_build):
    clips = [AudioClip(_overlapping_signal(rows, sample_rate), sample_rate) for rows in (1, 2, 5, 40)]
    bundles = equal_on_each_build(clips)
    assert [bundle.frame_count for bundle in bundles] == [1, 2, 5, 40]
    assert all((~np.isnan(bundle.pitch)).any() for bundle in bundles)


@pytest.mark.parametrize("sample_rate", SUPPORTED_RATES)
def test_clips_at_the_edges_of_the_frame_count_equal_numpy(sample_rate, equal_on_each_build):
    # One window, one window plus hop - 1 samples (still one frame) and
    # one window plus hop (two frames).
    win, hop = _window_sizes(CFG, sample_rate)
    signal = _overlapping_signal(2, sample_rate)
    clips = [AudioClip(signal[:n], sample_rate) for n in (win, win + hop - 1, win + hop)]
    bundles = equal_on_each_build(clips)
    assert [bundle.frame_count for bundle in bundles] == [1, 1, 2]


def test_clips_without_preemphasis_equal_numpy(equal_on_each_build):
    cfg = dataclasses.replace(CFG, preemphasis=0.0)
    clips = [AudioClip(_overlapping_signal(12, rate), rate) for rate in (8000, 16000, 44100)]
    equal_on_each_build(clips, cfg)


def test_clips_with_an_empty_pitch_band_equal_numpy(equal_on_each_build):
    # 1 ms windows hold fewer lags than the 500 Hz ceiling needs: every f0 is NaN.
    cfg = dataclasses.replace(CFG, window_ms=1.0, hop_ms=0.5)
    clips = [AudioClip(_overlapping_signal(12, rate), rate) for rate in SUPPORTED_RATES]
    for bundle in equal_on_each_build(clips, cfg):
        assert bundle.frame_count > 1 and np.isnan(bundle.pitch).all()


def test_clips_whose_samples_are_views_equal_numpy(equal_on_each_build):
    signal = _overlapping_signal(30, 16000)
    read_only = signal.copy()
    read_only.flags.writeable = False
    # float64 samples one byte into a buffer: misaligned, and read-only.
    misaligned = np.frombuffer(b"\0" + signal.tobytes(), dtype=np.float64, offset=1)
    layouts = [signal[::2], signal[::-1], signal[3::3], read_only, misaligned]
    clips = [AudioClip(samples, 16000) for samples in layouts]
    assert [clip.samples.flags.c_contiguous for clip in clips] == [False] * 3 + [True] * 2
    assert not clips[-1].samples.flags.aligned
    equal_on_each_build(clips)


def test_extract_features_makes_one_kernel_call_per_clip(monkeypatch):
    kernel = _native._load_kernel()
    if kernel is None:
        pytest.skip("compiled kernels unavailable")
    calls = []

    class Recorder:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(kernel, name)

    monkeypatch.setattr(_native, "_load_kernel", Recorder)
    for rate in (16000, 44100):
        extract_features(AudioClip(_overlapping_signal(20, rate), rate), CFG)
    assert calls == ["speechstyle_features"] * 2


def test_pitch_of_a_strided_frame_equals_its_contiguous_copy():
    x = 0.6 * np.sin(2 * np.pi * 110.0 * np.arange(800) / 32000)
    x += 0.05 * np.random.default_rng(6).standard_normal(800)
    f0 = estimate_pitch(x[::2], 16000, CFG)
    assert f0 is not None
    assert f0 == estimate_pitch(np.ascontiguousarray(x[::2]), 16000, CFG)
    assert f0 == estimate_pitch(x[::2].tolist(), 16000, CFG)


@pytest.mark.parametrize("window_ms", [0.125, 0.25, 0.5])
def test_one_to_four_sample_windows_equal_numpy(window_ms, numpy_only):
    # At 8 kHz these windows are 1, 2 and 4 samples: FFTs of 1, 2 and 4 points.
    cfg = FrameConfig(window_ms=window_ms, hop_ms=window_ms)
    clip = AudioClip(np.random.default_rng(8).uniform(-0.5, 0.5, 64), 8000)
    kernel = extract_features(clip, cfg)
    numpy_only()
    expected = extract_features(clip, cfg)
    for track in ("spectral", "pitch", "stress"):
        assert getattr(kernel, track).tobytes() == getattr(expected, track).tobytes()


def test_kernel_pitch_equals_numpy_at_every_edge_of_the_peak_pick(numpy_only):
    # Ten-sample frames at 8 kHz search lags 2..5, and f0 is clamped
    # below 1.75 and above 5.25 lags. The autocorrelations of small
    # integers come out exact, so they tie and meet the edges exactly.
    sample_rate = 8000
    cfg = FrameConfig(pitch_fmin=sample_rate / 5.25, pitch_fmax=sample_rate / 1.75)
    special = [
        [0, 0, -2, -1, 0, 0, 0, -1, -2, -1],  # refined by exactly +1 lag
        [-1, -1, -1, -1, -1, 0, -1, 1, 1, 1],  # refined by exactly -1 lag
        [0] * 10,  # lag 0 is 0
        [1e-170] + [0] * 9,  # lag 0 underflows to 0
        [1, 2, np.nan, 0, 1, 2, 1, 0, 1, 2],
        [1, 2, np.inf, 0, 1, 2, 1, 0, 1, 2],
        [1, 2, -np.inf, 0, 1, 2, 1, 0, 1, 2],
    ]
    rng = np.random.default_rng(24)
    frames = np.vstack([special, rng.integers(-2, 3, size=(2000, 10))]).astype(float)
    # _pitch_batch's intermediate values, to show that each edge occurs.
    # The frames with inf or NaN samples make NaNs, which numpy warns of.
    with np.errstate(invalid="ignore", divide="ignore"):
        ac = _autocorrelate(frames)
        rows = np.arange(len(frames))
        band = ac[:, 2:6]
        peak_lag = np.argmax(band, axis=1) + 2
        peak = ac[rows, peak_lag]
        left, right = ac[rows, peak_lag - 1], ac[rows, peak_lag + 1]
        voiced = (ac[:, 0] > 0) & (peak / ac[:, 0] >= cfg.voicing_threshold)
        denom = left - 2.0 * peak + right
        offset = 0.5 * (left - right) / denom
    assert np.all(ac[2:4, 0] == 0.0) and np.all(np.isnan(peak[4:7]))
    assert np.any(voiced & ((band == peak[:, np.newaxis]).sum(axis=1) > 1))
    assert np.any(voiced & (denom >= 0.0))
    assert np.all(voiced[:2] & (denom[:2] < 0.0)) and list(offset[:2]) == [1.0, -1.0]

    kernel = _pitch_batch(frames, sample_rate, cfg)
    numpy_only()
    with np.errstate(invalid="ignore"):
        expected = _pitch_batch(frames, sample_rate, cfg)
    assert list(np.isnan(expected)) == list(~voiced)
    assert cfg.pitch_fmin in expected and cfg.pitch_fmax in expected
    assert kernel.tobytes() == expected.tobytes()


def test_kernel_pitch_voices_a_peak_exactly_at_the_threshold(numpy_only):
    frame = 0.6 * np.sin(2 * np.pi * 210.0 * np.arange(400) / 16000)
    frame += 0.3 * np.random.default_rng(25).standard_normal(400)
    ac = _autocorrelate(frame[np.newaxis, :])[0]
    ratio = float(np.max(ac[32:321]) / ac[0])
    thresholds = (ratio, float(np.nextafter(ratio, 1.0)))
    configs = [dataclasses.replace(CFG, voicing_threshold=t) for t in thresholds]
    kernel = [_pitch_batch(frame[np.newaxis, :], 16000, cfg) for cfg in configs]
    numpy_only()
    expected = [_pitch_batch(frame[np.newaxis, :], 16000, cfg) for cfg in configs]
    assert not np.isnan(expected[0][0]) and np.isnan(expected[1][0])
    assert [f.tobytes() for f in kernel] == [f.tobytes() for f in expected]


def test_kernel_stress_equals_numpy_in_every_layout(numpy_only):
    # numpy sums rows that lie along memory pairwise, and rows laid out
    # column by column from left to right; the kernel sums only the first.
    rng = np.random.default_rng(26)
    grid = rng.normal(size=(7, 301))
    layouts = [
        grid,
        grid[::-2, ::-3],
        _frame_signal(rng.normal(size=500), 300, 1),
        np.broadcast_to(rng.normal(size=(7, 1)), (7, 300)),
        rng.normal(size=(300, 7)).T,
        rng.normal(size=(300, 7)).T[:1],
    ]
    kernel = [stress_contour(frames) for frames in layouts]
    numpy_only()
    for frames, stress in zip(layouts, kernel):
        assert stress.tobytes() == stress_contour(frames).tobytes()
