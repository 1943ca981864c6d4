import numpy as np
import pytest

from _helpers import fmt_chunk, riff_wav, write_float_wav
from speechstyle import AudioClip, read_wav, strip_silence, write_wav
from speechstyle.audio import SUPPORTED_RATES
from speechstyle.errors import UnsupportedRate

PCM, IEEE_FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE


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
    write_float_wav(path, 48000, data)
    clip = read_wav(path)
    assert clip.sample_rate == 48000
    assert np.array_equal(clip.samples, [-1.0, -0.25, 0.0, 0.25, 1.0])


def test_stereo_is_downmixed_by_averaging(tmp_path):
    path = tmp_path / "stereo.wav"
    left = np.full(100, 0.5, dtype=np.float32)
    right = np.full(100, -0.1, dtype=np.float32)
    write_float_wav(path, 22050, np.stack([left, right], axis=1))
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
    write_float_wav(path, 16000, data)
    with pytest.raises(ValueError, match="non-finite") as info:
        read_wav(path)
    assert str(path) in str(info.value)


def _parent_read(path):
    """The scipy-based decoding read_wav replaced: (rate, float64 samples)."""
    wavfile = pytest.importorskip("scipy.io.wavfile")
    rate, data = wavfile.read(str(path))
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples = samples / 32767.0
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return rate, np.clip(samples, -1.0, 1.0)


@pytest.mark.parametrize("rate", SUPPORTED_RATES)
@pytest.mark.parametrize("length", [0, 1, 1001])
def test_write_wav_bytes_equal_scipy(tmp_path, rate, length):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    samples = np.random.default_rng(length).uniform(-1.2, 1.2, length)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
    write_wav(ours, AudioClip(samples, rate))
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype(np.int16)
    wavfile.write(theirs, rate, pcm)
    assert ours.read_bytes() == theirs.read_bytes()


# name: (fmt chunk body, sample dtype, channels, chunks between fmt and data)
_LAYOUTS = {
    "pcm16-mono": (fmt_chunk(PCM, 1, 16000, 16), "<i2", 1, ()),
    "pcm16-stereo": (fmt_chunk(PCM, 2, 44100, 16), "<i2", 2, ()),
    "float32-mono": (fmt_chunk(IEEE_FLOAT, 1, 8000, 32), "<f4", 1, ()),
    "float32-stereo": (fmt_chunk(IEEE_FLOAT, 2, 48000, 32), "<f4", 2, ()),
    "float64-mono": (fmt_chunk(IEEE_FLOAT, 1, 22050, 64), "<f8", 1, ()),
    "extensible-pcm16": (fmt_chunk(EXTENSIBLE, 2, 16000, 16, sub_tag=PCM), "<i2", 2, ()),
    "extensible-float32": (fmt_chunk(EXTENSIBLE, 1, 16000, 32, sub_tag=IEEE_FLOAT), "<f4", 1, ()),
    # seven bytes, so a pad byte follows the chunk
    "odd-list-before-data": (fmt_chunk(PCM, 1, 16000, 16), "<i2", 1, ((b"LIST", b"INFOabc"),)),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_read_wav_equals_scipy_decoding(tmp_path, layout):
    fmt, dtype, channels, extra = _LAYOUTS[layout]
    rng = np.random.default_rng(len(layout))
    if dtype == "<i2":
        data = rng.integers(-32768, 32768, size=(301, channels)).astype(dtype)
    else:
        data = rng.uniform(-1.5, 1.5, size=(301, channels)).astype(dtype)
    path = tmp_path / f"{layout}.wav"
    path.write_bytes(riff_wav([(b"fmt ", fmt), *extra, (b"data", data.tobytes())]))
    rate, expected = _parent_read(path)
    clip = read_wav(path)
    assert clip.sample_rate == rate
    assert clip.samples.dtype == np.float64
    assert clip.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"ID3\x03 this is not a wave file", id="not-riff"),
        pytest.param(riff_wav([(b"fmt ", fmt_chunk(PCM, 1, 16000, 16))]), id="no-data-chunk"),
        pytest.param(riff_wav([(b"data", b"\x00\x00")]), id="data-before-fmt"),
        pytest.param(riff_wav([(b"fmt ", fmt_chunk(PCM, 1, 16000, 8)), (b"data", b"\x80" * 20)]), id="pcm8"),
        pytest.param(riff_wav([(b"fmt ", fmt_chunk(PCM, 1, 16000, 24)), (b"data", b"\x00" * 30)]), id="pcm24"),
        pytest.param(riff_wav([(b"fmt ", b"\x01\x00")]), id="short-fmt"),
    ],
)
def test_malformed_or_unsupported_wav_raises_value_error_with_path(tmp_path, content):
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        read_wav(path)
    assert str(path) in str(info.value)

