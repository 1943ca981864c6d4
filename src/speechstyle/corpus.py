"""Corpus manifests and the deterministic synthetic speech generator.

Synthetic utterances are built from a per-prompt canonical template: a
short run of harmonic syllables with formant-like spectral envelopes, a
prompt-specific pitch contour, and a prompt-specific stress pattern.
Each group deforms that template in its own seeded direction, with a
magnitude schedule that shrinks as the quality rank rises, so groups
are separated by where they sit relative to the template and not only
by how noisy they are. Speakers add a smaller individual deformation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SUPPORTED_RATES, AudioClip, write_wav
from .errors import ParseError, RankOutOfRange

MANIFEST_HEADER = ("path", "speaker", "prompt", "expert1", "expert2", "truth")

_ENVELOPE_FLOOR = 0.10
_FORMANT_BANDWIDTHS = np.array([110.0, 160.0, 220.0])


@dataclass(frozen=True)
class ManifestEntry:
    """One corpus row: an audio file with its labels."""

    path: Path
    speaker: str
    prompt: int
    expert1: int | None
    expert2: int | None
    truth: int | None


def _parse_rank(field: str, line: int, name: str) -> int | None:
    if field == "":
        return None
    try:
        value = int(field)
    except ValueError:
        raise ParseError(f"line {line}: {name} must be an integer or empty") from None
    if value < 0:
        raise RankOutOfRange(f"line {line}: {name} {value} is negative")
    return value


def load_manifest(
    path: str | Path,
    n_prompts: int | None = None,
    n_groups: int | None = None,
) -> list[ManifestEntry]:
    """Parse a corpus manifest CSV.

    The header must be exactly path,speaker,prompt,expert1,expert2,truth.
    Rank fields may be empty. Relative audio paths are resolved against
    the manifest's directory. When n_prompts or n_groups are given,
    out-of-range values raise RankOutOfRange with the offending line.
    Every ParseError and RankOutOfRange names the manifest path.
    """
    path = Path(path)
    try:
        return _read_manifest(path, n_prompts, n_groups)
    except (ParseError, RankOutOfRange) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _read_manifest(
    path: Path, n_prompts: int | None, n_groups: int | None
) -> list[ManifestEntry]:
    base = path.parent
    entries: list[ManifestEntry] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("line 1: manifest is empty") from None
        if tuple(header) != MANIFEST_HEADER:
            raise ParseError(
                f"line 1: header must be {','.join(MANIFEST_HEADER)}, got {','.join(header)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(MANIFEST_HEADER):
                raise ParseError(f"line {line}: expected {len(MANIFEST_HEADER)} fields")
            wav, speaker, prompt_field, e1, e2, truth = row
            if not wav:
                raise ParseError(f"line {line}: empty audio path")
            if not speaker:
                raise ParseError(f"line {line}: empty speaker id")
            try:
                prompt = int(prompt_field)
            except ValueError:
                raise ParseError(f"line {line}: prompt must be an integer") from None
            if prompt < 0:
                raise RankOutOfRange(f"line {line}: prompt {prompt} is negative")
            if n_prompts is not None and prompt >= n_prompts:
                raise RankOutOfRange(
                    f"line {line}: prompt {prompt} outside 0..{n_prompts - 1}"
                )
            ranks = [
                _parse_rank(e1, line, "expert1"),
                _parse_rank(e2, line, "expert2"),
                _parse_rank(truth, line, "truth"),
            ]
            if n_groups is not None:
                for name, value in zip(("expert1", "expert2", "truth"), ranks):
                    if value is not None and value >= n_groups:
                        raise RankOutOfRange(
                            f"line {line}: {name} {value} outside 0..{n_groups - 1}"
                        )
            wav_path = Path(wav)
            if not wav_path.is_absolute():
                wav_path = base / wav_path
            entries.append(
                ManifestEntry(
                    path=wav_path,
                    speaker=speaker,
                    prompt=prompt,
                    expert1=ranks[0],
                    expert2=ranks[1],
                    truth=ranks[2],
                )
            )
    return entries


def entry_group(entry: ManifestEntry) -> int | None:
    """Group rank used for reference building: truth, else expert1."""
    return entry.truth if entry.truth is not None else entry.expert1


def write_manifest(entries: list[ManifestEntry], path: str | Path) -> Path:
    """Write entries back out as a manifest CSV; empty ranks stay empty."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(MANIFEST_HEADER)
        for e in entries:
            writer.writerow(
                (
                    str(e.path),
                    e.speaker,
                    e.prompt,
                    "" if e.expert1 is None else e.expert1,
                    "" if e.expert2 is None else e.expert2,
                    "" if e.truth is None else e.truth,
                )
            )
    return path


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic corpus.

    The three jitter schedules hold one scale per group, rank 0 (worst)
    first; the defaults decrease strictly as quality rises.
    """

    groups: int = 5
    speakers_per_group: int = 6
    prompts: int = 4
    seed: int = 42
    sample_rate: int = 16000
    duration_ms: float = 700.0
    articulation_noise: tuple[float, ...] = ()
    pitch_shape_jitter: tuple[float, ...] = ()
    stress_jitter: tuple[float, ...] = ()
    label_noise: float = 0.0
    telephone_band: bool = False

    def __post_init__(self) -> None:
        if self.groups < 1 or self.speakers_per_group < 1 or self.prompts < 1:
            raise ValueError("groups, speakers_per_group, and prompts must be >= 1")
        if self.sample_rate not in SUPPORTED_RATES:
            raise ValueError(f"sample_rate must be one of {SUPPORTED_RATES}")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must lie in [0, 1]")
        for name in ("articulation_noise", "pitch_shape_jitter", "stress_jitter"):
            schedule = getattr(self, name)
            if not schedule:
                schedule = tuple(np.linspace(1.0, 0.12, self.groups))
                object.__setattr__(self, name, schedule)
            if len(schedule) != self.groups:
                raise ValueError(f"{name} needs exactly one entry per group")
            if any(x < 0 for x in schedule):
                raise ValueError(f"{name} entries must be nonnegative")


@dataclass(frozen=True)
class _Template:
    n_syllables: int
    base_f0: float
    node_offsets: np.ndarray
    formants: np.ndarray
    gains: np.ndarray
    amps: np.ndarray


def _prompt_template(cfg: SynthConfig, prompt: int) -> _Template:
    rng = np.random.default_rng([cfg.seed, 11, prompt])
    n_syl = 2 + prompt % 3
    base_f0 = float(rng.uniform(115.0, 175.0))
    node_offsets = rng.uniform(-3.5, 3.5, n_syl + 2)
    stressed = int(rng.integers(n_syl))
    formants = np.empty((n_syl, 3))
    gains = np.empty((n_syl, 3))
    amps = np.empty(n_syl)
    for s in range(n_syl):
        formants[s] = (
            rng.uniform(320.0, 820.0),
            rng.uniform(950.0, 1900.0),
            rng.uniform(2200.0, 3200.0),
        )
        gains[s] = (1.0, rng.uniform(0.5, 0.85), rng.uniform(0.25, 0.55))
        amps[s] = 1.0 if s == stressed else rng.uniform(0.4, 0.65)
    return _Template(n_syl, base_f0, node_offsets, formants, gains, amps)


def _eased_nodes(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Cosine-eased interpolation through equally spaced nodes."""
    count = len(nodes)
    pos = np.linspace(0.0, 1.0, count)
    idx = np.clip(np.searchsorted(pos, x, side="right") - 1, 0, count - 2)
    u = (x - pos[idx]) * (count - 1)
    ease = 0.5 * (1.0 - np.cos(np.pi * np.clip(u, 0.0, 1.0)))
    return nodes[idx] * (1.0 - ease) + nodes[idx + 1] * ease


def _syllable_bumps(x: np.ndarray, n_syl: int) -> np.ndarray:
    """(n_syl, len(x)) raised-cosine activation of each syllable span."""
    bumps = np.zeros((n_syl, x.size))
    for s in range(n_syl):
        start = (s + 0.06) / n_syl
        end = (s + 0.94) / n_syl
        inside = (x >= start) & (x <= end)
        u = (x[inside] - start) / (end - start)
        bumps[s, inside] = np.sin(np.pi * u) ** 2
    return bumps


def _render(
    cfg: SynthConfig,
    template: _Template,
    formant_shift: np.ndarray,
    gain_shift: np.ndarray,
    node_delta: np.ndarray,
    stress_shift: np.ndarray,
    tempo: float,
    noise_rms: float,
    noise_rng: np.random.Generator | None,
) -> np.ndarray:
    sr = cfg.sample_rate
    n = int(round(cfg.duration_ms / 1000.0 * tempo * sr))
    x01 = np.arange(n) / max(n - 1, 1)
    contour = _eased_nodes(x01, template.node_offsets + node_delta)
    f0 = template.base_f0 * 2.0 ** (contour / 12.0)
    phase = 2.0 * np.pi * np.cumsum(f0) / sr
    bumps = _syllable_bumps(x01, template.n_syllables)
    weights = bumps + 0.02
    weights /= weights.sum(axis=0)
    loudness = _ENVELOPE_FLOOR + (
        bumps * (template.amps * np.exp(stress_shift))[:, np.newaxis]
    ).sum(axis=0)
    formants = template.formants * 2.0 ** (formant_shift / 12.0)
    gains = template.gains * np.exp(gain_shift)
    n_harm = max(1, min(12, int(0.45 * sr / float(f0.max()))))
    signal = np.zeros(n)
    for h in range(1, n_harm + 1):
        freq = h * f0
        tilt = 0.15 / (1.0 + (freq / 1400.0) ** 2)
        amp = np.zeros(n)
        for s in range(template.n_syllables):
            shape = tilt + (
                gains[s][:, np.newaxis]
                * np.exp(
                    -0.5
                    * ((freq - formants[s][:, np.newaxis]) / _FORMANT_BANDWIDTHS[:, np.newaxis]) ** 2
                )
            ).sum(axis=0)
            amp += weights[s] * shape
        signal += amp * np.sin(h * phase)
    signal *= loudness
    if noise_rms > 0 and noise_rng is not None:
        signal = signal + noise_rms * noise_rng.standard_normal(n)
    if cfg.telephone_band:
        spectrum = np.fft.rfft(signal)
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        spectrum[(freqs < 300.0) | (freqs > 3400.0)] = 0.0
        signal = np.fft.irfft(spectrum, n)
    peak = float(np.max(np.abs(signal)))
    if peak > 0:
        signal = signal * (0.7 / peak)
    return signal


def render_clean_prompt(cfg: SynthConfig, prompt: int) -> AudioClip:
    """The undeformed canonical utterance of one prompt."""
    template = _prompt_template(cfg, prompt)
    n_nodes = template.node_offsets.size
    samples = _render(
        cfg,
        template,
        formant_shift=np.zeros((template.n_syllables, 3)),
        gain_shift=np.zeros((template.n_syllables, 3)),
        node_delta=np.zeros(n_nodes),
        stress_shift=np.zeros(template.n_syllables),
        tempo=1.0,
        noise_rms=0.0,
        noise_rng=None,
    )
    return AudioClip(samples, cfg.sample_rate)


def _render_utterance(
    cfg: SynthConfig, template: _Template, prompt: int, group: int, speaker_idx: int
) -> np.ndarray:
    n_syl = template.n_syllables
    n_nodes = template.node_offsets.size
    group_rng = np.random.default_rng([cfg.seed, 23, prompt, group])
    spk_rng = np.random.default_rng([cfg.seed, 37, prompt, group, speaker_idx])
    artic = cfg.articulation_noise[group]
    pitch = cfg.pitch_shape_jitter[group]
    stress = cfg.stress_jitter[group]
    formant_shift = 2.5 * artic * group_rng.standard_normal((n_syl, 3))
    gain_shift = 0.4 * artic * group_rng.standard_normal((n_syl, 3))
    node_delta = 2.0 * pitch * group_rng.standard_normal(n_nodes)
    stress_shift = 0.45 * stress * group_rng.standard_normal(n_syl)
    formant_shift = formant_shift + 0.875 * artic * spk_rng.standard_normal((n_syl, 3))
    gain_shift = gain_shift + 0.14 * artic * spk_rng.standard_normal((n_syl, 3))
    node_delta = node_delta + 0.7 * pitch * spk_rng.standard_normal(n_nodes)
    stress_shift = stress_shift + 0.16 * stress * spk_rng.standard_normal(n_syl)
    tempo = float(np.clip(1.0 + 0.05 * spk_rng.standard_normal(), 0.85, 1.15))
    noise_rng = np.random.default_rng([cfg.seed, 41, prompt, group, speaker_idx])
    return _render(
        cfg,
        template,
        formant_shift,
        gain_shift,
        node_delta,
        stress_shift,
        tempo,
        noise_rms=0.012 * artic,
        noise_rng=noise_rng,
    )


def _expert_labels(cfg: SynthConfig, group: int, speaker_idx: int) -> tuple[int, int]:
    rng = np.random.default_rng([cfg.seed, 53, group, speaker_idx])
    labels = []
    for _ in range(2):
        flip = rng.random()
        direction = rng.random()
        label = group
        if flip < cfg.label_noise:
            label = group + (1 if direction >= 0.5 else -1)
            label = min(max(label, 0), cfg.groups - 1)
        labels.append(label)
    return labels[0], labels[1]


def generate_synthetic_corpus(cfg: SynthConfig, out_dir: str | Path) -> Path:
    """Write WAVs plus manifest.csv into out_dir; returns the manifest path.

    Every byte depends only on cfg, so re-running with the same config
    reproduces all files exactly. Expert labels copy the ground truth,
    optionally perturbed per speaker at the configured label-noise rate.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    templates = [_prompt_template(cfg, w) for w in range(cfg.prompts)]
    rows: list[tuple[str, str, int, int, int, int]] = []
    for group in range(cfg.groups):
        for speaker_idx in range(cfg.speakers_per_group):
            speaker = f"g{group}s{speaker_idx:02d}"
            expert1, expert2 = _expert_labels(cfg, group, speaker_idx)
            for prompt in range(cfg.prompts):
                samples = _render_utterance(cfg, templates[prompt], prompt, group, speaker_idx)
                name = f"{speaker}_p{prompt:02d}.wav"
                write_wav(out / name, AudioClip(samples, cfg.sample_rate))
                rows.append((name, speaker, prompt, expert1, expert2, group))
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return manifest
