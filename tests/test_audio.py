import numpy as np
import pytest
from scipy.io import wavfile

from speechstyle import AudioClip, read_wav, strip_silence, write_wav
from speechstyle.errors import UnsupportedRate


def test_rejects_unsupported_rate():
    with pytest.raises(UnsupportedRate):
        AudioClip(np.zeros(100), 11025)


def test_pcm16_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, 1600)
    path = tmp_path / "clip.wav"
    write_wav(path, AudioClip(samples, 16000))
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert back.samples.size == 1600
    assert np.max(np.abs(back.samples - samples)) < 1.0 / 32767


def test_float32_wav_is_read_and_clipped(tmp_path):
    path = tmp_path / "f32.wav"
    data = np.array([-1.5, -0.25, 0.0, 0.25, 1.5], dtype=np.float32)
    wavfile.write(path, 48000, data)
    clip = read_wav(path)
    assert clip.sample_rate == 48000
    assert np.array_equal(clip.samples, [-1.0, -0.25, 0.0, 0.25, 1.0])


def test_stereo_is_downmixed_by_averaging(tmp_path):
    path = tmp_path / "stereo.wav"
    left = np.full(100, 0.5, dtype=np.float32)
    right = np.full(100, -0.1, dtype=np.float32)
    wavfile.write(path, 22050, np.stack([left, right], axis=1))
    clip = read_wav(path)
    assert clip.samples.shape == (100,)
    assert np.allclose(clip.samples, 0.2)


def test_strip_silence_trims_only_edges():
    samples = np.zeros(1000)
    samples[300:700] = 0.5
    samples[450:460] = 0.0  # interior dip survives
    clip = strip_silence(AudioClip(samples, 16000))
    assert clip.samples.size == 400
    assert clip.samples[150] == 0.0


def test_strip_silence_threshold_is_minus_60db():
    quiet = np.full(100, 10 ** (-61 / 20.0))
    loud = np.full(100, 10 ** (-59 / 20.0))
    assert strip_silence(AudioClip(quiet, 16000)).samples.size == 0
    assert strip_silence(AudioClip(loud, 16000)).samples.size == 100


def test_all_silent_clip_becomes_empty():
    clip = strip_silence(AudioClip(np.zeros(500), 8000))
    assert clip.samples.size == 0


def test_non_finite_float_samples_are_rejected_with_path(tmp_path):
    path = tmp_path / "nan.wav"
    data = np.array([0.0, 0.25, np.nan, -0.25], dtype=np.float32)
    wavfile.write(path, 16000, data)
    with pytest.raises(ValueError, match="non-finite") as info:
        read_wav(path)
    assert str(path) in str(info.value)
