"""Reference-set construction: cell statistics and ideal selection."""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio import read_wav, strip_silence
from .classify import NormKind, scalarize
from .corpus import ManifestEntry, entry_group
from .errors import (
    EmptyCell,
    MissingCell,
    MissingLabel,
    ParseError,
    RateMismatch,
    SpeechStyleError,
)
from .features import FeatureBundle, FrameConfig, extract_features
from .metric import Triplet, compute_triplet

# Version 2 added sample_rate; version 1 models load with the rate unknown.
# Version 3 stores each feature track as base64 of its little-endian
# float64 bytes; versions 1 and 2 stored JSON number lists.
MODEL_VERSION = 3
# The key beside "shape" that holds a track's base64 bytes.
_ARRAY_DATA = "float64le"


@dataclass(frozen=True)
class CellUtterance:
    speaker: str
    bundle: FeatureBundle


@dataclass(frozen=True)
class CorpusIndex:
    """Extracted features of a labeled corpus, addressed by (prompt, group)."""

    prompts: int
    groups: tuple[str, ...]
    cells: dict[tuple[int, int], tuple[CellUtterance, ...]]
    config: FrameConfig

    def cell(self, prompt: int, group: int) -> tuple[CellUtterance, ...]:
        try:
            return self.cells[(prompt, group)]
        except KeyError:
            raise MissingCell(f"no utterances for prompt {prompt}, group {group}") from None


@dataclass(frozen=True)
class CellAverage:
    """Component-wise mean triplet of a cell plus its score spread."""

    mean: Triplet
    variation: float
    size: int


@dataclass(frozen=True)
class ReferenceCell:
    prompt: int
    group: int
    mean: Triplet
    variation: float
    ideals: tuple[CellUtterance, ...]


@dataclass(frozen=True)
class ReferenceSet:
    """Selected ideals for every (prompt, group) cell."""

    config: FrameConfig
    threshold: float
    groups: tuple[str, ...]
    cells: tuple[ReferenceCell, ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_prompts(self) -> int:
        return 1 + max(c.prompt for c in self.cells)

    @property
    def sample_rate(self) -> int | None:
        """Rate of the clips the ideals were extracted from; None if unknown."""
        return next((u.bundle.sample_rate for c in self.cells for u in c.ideals), None)

    @cached_property
    def _grid(self) -> dict[int, dict[int, ReferenceCell]]:
        """Cells by prompt, then group; the first of any duplicate wins."""
        grid: dict[int, dict[int, ReferenceCell]] = {}
        for c in self.cells:
            grid.setdefault(c.prompt, {}).setdefault(c.group, c)
        return grid

    def has_prompt(self, prompt: int) -> bool:
        return prompt in self._grid

    def cell(self, prompt: int, group: int) -> ReferenceCell:
        try:
            return self._grid[prompt][group]
        except KeyError:
            raise MissingCell(f"model has no cell for prompt {prompt}, group {group}") from None

    def ideals(self, prompt: int, group: int) -> tuple[tuple[str, FeatureBundle], ...]:
        return tuple((u.speaker, u.bundle) for u in self.cell(prompt, group).ideals)


def default_group_labels(n_groups: int) -> tuple[str, ...]:
    if n_groups == 5:
        return ("very_bad", "bad", "average", "good", "very_good")
    return tuple(f"group{g}" for g in range(n_groups))


def _pairwise_triplets(cell: Sequence[CellUtterance]) -> list[list[Triplet]]:
    """Full N x N triplet table; the diagonal is (0, 1, 1) by identity."""
    n = len(cell)
    table: list[list[Triplet | None]] = [[None] * n for _ in range(n)]
    identity = Triplet(0.0, 1.0, 1.0)
    for k in range(n):
        table[k][k] = identity
        for l in range(k + 1, n):
            t = compute_triplet(cell[k].bundle, cell[l].bundle)
            table[k][l] = t
            table[l][k] = t
    return table


def _cell_statistics(
    cell: Sequence[CellUtterance], norm: NormKind
) -> tuple[CellAverage, np.ndarray]:
    """A cell's average plus its N x N scalar matrix, zero on the diagonal.

    Both come from one pair table, so each unordered pair is scored once.
    """
    if not cell:
        raise EmptyCell("cannot average an empty cell")
    n = len(cell)
    pairs = _pairwise_triplets(cell)
    sum_id = sum_p = sum_ir = 0.0
    scalars = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            t = pairs[k][l]
            sum_id += t.id
            sum_p += t.p
            sum_ir += t.ir
            if k != l:
                scalars[k, l] = scalarize(t, norm)
    mean = Triplet(sum_id / (n * n), sum_p / (n * n), sum_ir / (n * n))
    off_diagonal = scalars[~np.eye(n, dtype=bool)]
    variation = float(np.std(off_diagonal)) if off_diagonal.size else 0.0
    return CellAverage(mean=mean, variation=variation, size=n), scalars


def compute_cell_average(
    cell: Sequence[CellUtterance], norm: NormKind = NormKind.L2
) -> CellAverage:
    """Average the triplet over all ordered pairs of cell utterances.

    Every ordered pair (k, l) enters the mean, including k = l, so the
    divisor is N squared and the diagonal pulls the mean toward the
    identity triplet. The variation is the standard deviation of the
    scalarized score over the off-diagonal ordered pairs, 0 for N = 1.
    """
    return _cell_statistics(cell, norm)[0]


def _medoid(indices: list[int], scalars: np.ndarray, cell: Sequence[CellUtterance]) -> int:
    """Index minimizing the summed score to the other listed utterances.

    Ties fall to the smallest speaker id.
    """
    best = None
    for k in indices:
        total = sum(scalars[k, l] for l in indices if l != k)
        key = (total, cell[k].speaker)
        if best is None or key < best[0]:
            best = (key, k)
    return best[1]


def _select_cell_ideals(
    cell: Sequence[CellUtterance], scalars: np.ndarray, variation: float, threshold: float
) -> tuple[int, ...]:
    everyone = list(range(len(cell)))
    if variation <= threshold:
        return (_medoid(everyone, scalars, cell),)
    chosen: list[int] = []
    uncovered = everyone
    while uncovered:
        pick = _medoid(uncovered, scalars, cell)
        chosen.append(pick)
        uncovered = [k for k in uncovered if scalars[k, pick] > threshold]
    return tuple(sorted(chosen))


def select_ideals(
    index: CorpusIndex,
    threshold: float,
    norm: NormKind = NormKind.L2,
) -> ReferenceSet:
    """Average every cell of an indexed corpus and choose its ideals.

    A cell whose variation stays within the threshold is summarized by
    its single medoid. A more scattered cell is covered greedily: the
    medoid of the still-uncovered utterances is added until everyone
    lies within the threshold of some chosen ideal, so in the worst
    case every utterance of the cell becomes an ideal.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    cells = []
    for (prompt, group) in sorted(index.cells):
        cell = index.cell(prompt, group)
        avg, scalars = _cell_statistics(cell, norm)
        picks = _select_cell_ideals(cell, scalars, avg.variation, threshold)
        cells.append(
            ReferenceCell(
                prompt=prompt,
                group=group,
                mean=avg.mean,
                variation=avg.variation,
                ideals=tuple(cell[k] for k in picks),
            )
        )
    return ReferenceSet(
        config=index.config,
        threshold=threshold,
        groups=index.groups,
        cells=tuple(cells),
    )


def ingest_clip(
    path: str | Path, cfg: FrameConfig, expected_rate: int | None = None
) -> FeatureBundle:
    """Read one WAV, trim edge silence, and extract features.

    The bundle carries the clip's sample rate. A rate different from
    expected_rate raises RateMismatch; corpora must be single-rate. Every
    package error raised here names the clip's path.
    """
    clip = read_wav(path)
    if expected_rate is not None and clip.sample_rate != expected_rate:
        raise RateMismatch(
            f"{path}: sample rate {clip.sample_rate} differs from corpus rate {expected_rate}"
        )
    try:
        return extract_features(strip_silence(clip), cfg)
    except SpeechStyleError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def ingest_manifest(
    entries: Sequence[ManifestEntry], cfg: FrameConfig
) -> dict[Path, FeatureBundle]:
    """Ingest every entry's clip in manifest order, keyed by path.

    The first clip's rate is the corpus rate; any other raises RateMismatch.
    """
    bundles: dict[Path, FeatureBundle] = {}
    rate: int | None = None
    for entry in entries:
        bundles[entry.path] = bundle = ingest_clip(entry.path, cfg, rate)
        rate = bundle.sample_rate
    return bundles


def build_corpus_index(
    entries: Sequence[ManifestEntry],
    cfg: FrameConfig,
    bundles: dict[Path, FeatureBundle] | None = None,
) -> CorpusIndex:
    """Extract features for labeled entries and group them into cells.

    Group ranks come from the truth column, falling back to expert1.
    Prompt and group counts are inferred from the largest indices seen;
    any hole in the (prompt, group) grid raises MissingCell. Every label
    is checked before any clip is read; bundles, when given, must hold
    every entry's path.
    """
    if not entries:
        raise MissingCell("manifest has no usable entries")
    labeled: list[tuple[ManifestEntry, int]] = []
    for entry in entries:
        group = entry_group(entry)
        if group is None:
            raise MissingLabel(f"{entry.path}: no truth or expert1 label")
        labeled.append((entry, group))
    if bundles is None:
        bundles = ingest_manifest(entries, cfg)
    n_prompts = 1 + max(e.prompt for e, _ in labeled)
    n_groups = 1 + max(g for _, g in labeled)
    cells: dict[tuple[int, int], list[CellUtterance]] = {}
    for entry, group in labeled:
        cells.setdefault((entry.prompt, group), []).append(
            CellUtterance(speaker=entry.speaker, bundle=bundles[entry.path])
        )
    missing = [
        (w, g)
        for w in range(n_prompts)
        for g in range(n_groups)
        if (w, g) not in cells
    ]
    if missing:
        raise MissingCell(
            "manifest is missing cells (prompt, group): "
            + ", ".join(str(c) for c in missing)
        )
    return CorpusIndex(
        prompts=n_prompts,
        groups=default_group_labels(n_groups),
        cells={key: tuple(val) for key, val in sorted(cells.items())},
        config=cfg,
    )


def build_reference_set(
    entries: Sequence[ManifestEntry],
    cfg: FrameConfig,
    threshold: float,
    norm: NormKind = NormKind.L2,
    bundles: dict[Path, FeatureBundle] | None = None,
) -> ReferenceSet:
    """End-to-end reference build from manifest entries.

    A negative threshold is rejected before any clip is read.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return select_ideals(build_corpus_index(entries, cfg, bundles), threshold, norm)


def _pitch_from_json(values: list) -> np.ndarray:
    return np.array([math.nan if v is None else float(v) for v in values], dtype=np.float64)


def _array_to_json(values: np.ndarray) -> dict:
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return {
        "shape": list(values.shape),
        _ARRAY_DATA: binascii.b2a_base64(data, newline=False).decode("ascii"),
    }


def _array_from_json(item: dict, name: str, ndim: int) -> np.ndarray:
    """Decode one version 3 track into an owned C-contiguous float64 array."""
    value = item[name]
    where = f"{name} of ideal {item['speaker']!r}"
    shape = value["shape"]
    if not (
        isinstance(shape, list)
        and len(shape) == ndim
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ParseError(f"{where}: shape {shape!r} is not {ndim} nonnegative integer(s)")
    try:
        data = binascii.a2b_base64(value[_ARRAY_DATA])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: data is not base64: {exc}") from exc
    if len(data) != 8 * math.prod(shape):
        raise ParseError(
            f"{where}: {len(data)} bytes of data, but shape {shape} needs {8 * math.prod(shape)}"
        )
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)


def _tracks_from_json(item: dict, version: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ideal's (spectral, pitch, stress) in the encoding of its version."""
    if version >= 3:
        return (
            _array_from_json(item, "spectral", 2),
            _array_from_json(item, "pitch", 1),
            _array_from_json(item, "stress", 1),
        )
    return (
        np.array(item["spectral"], dtype=np.float64),
        _pitch_from_json(item["pitch"]),
        np.array(item["stress"], dtype=np.float64),
    )


def reference_set_to_dict(refs: ReferenceSet) -> dict:
    """The model document; feature tracks are exact base64 float64 arrays."""
    return {
        "version": MODEL_VERSION,
        "sample_rate": refs.sample_rate,
        "frame_config": refs.config.to_dict(),
        "threshold": refs.threshold,
        "groups": list(refs.groups),
        "cells": [
            {
                "prompt": c.prompt,
                "group": c.group,
                "mean": list(c.mean.as_tuple()),
                "variation": c.variation,
                "ideals": [
                    {
                        "speaker": u.speaker,
                        "spectral": _array_to_json(u.bundle.spectral),
                        "pitch": _array_to_json(u.bundle.pitch),
                        "stress": _array_to_json(u.bundle.stress),
                    }
                    for u in c.ideals
                ],
            }
            for c in refs.cells
        ],
    }


def reference_set_from_dict(doc: dict) -> ReferenceSet:
    """Decode a model document of any version from 1 to MODEL_VERSION."""
    try:
        version = doc["version"]
        if version not in (1, 2, MODEL_VERSION):
            raise ParseError(f"unsupported model version {version}")
        rate = doc["sample_rate"] if version >= 2 else None
        if rate is not None:
            rate = int(rate)
        cfg = FrameConfig.from_dict(doc["frame_config"])
        cells = []
        for cell in doc["cells"]:
            mean = Triplet(*[float(x) for x in cell["mean"]])
            ideals = tuple(
                CellUtterance(
                    speaker=item["speaker"],
                    bundle=FeatureBundle(
                        *_tracks_from_json(item, version), config=cfg, sample_rate=rate
                    ),
                )
                for item in cell["ideals"]
            )
            cells.append(
                ReferenceCell(
                    prompt=int(cell["prompt"]),
                    group=int(cell["group"]),
                    mean=mean,
                    variation=float(cell["variation"]),
                    ideals=ideals,
                )
            )
        return ReferenceSet(
            config=cfg,
            threshold=float(doc["threshold"]),
            groups=tuple(doc["groups"]),
            cells=tuple(cells),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model file: {exc}") from exc


def save_reference_set(refs: ReferenceSet, path: str | Path) -> None:
    with open(path, "w") as handle:
        json.dump(reference_set_to_dict(refs), handle, indent=2)
        handle.write("\n")


def load_reference_set(path: str | Path) -> ReferenceSet:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return reference_set_from_dict(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
