"""Agreement statistics and the end-to-end evaluation protocol."""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import ClassificationResult, classify_manifest, classify_speaker
from .corpus import ManifestEntry, entry_group, load_manifest
from .errors import (
    CellTooSmall,
    MissingCell,
    MissingLabel,
    RankOutOfRange,
    SubjectMismatch,
    UnknownPrompt,
)
from .features import FrameConfig
from .metric import NormKind
from .reference import build_reference_set, check_threshold, label_grid


@dataclass(frozen=True)
class LabelVector:
    """Group ranks assigned to a set of subjects by one rater."""

    entries: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)


@dataclass(frozen=True)
class AgreementReport:
    """Exact and one-step agreement between two raters.

    confusion[i][j] counts subjects ranked i by the first rater and j
    by the second; the ranks are ordinal, so one-step agreement also
    accepts neighbors.
    """

    n: int
    total_pct: float
    one_step_pct: float
    confusion: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "total_pct": self.total_pct,
            "one_step_pct": self.one_step_pct,
            "confusion": [list(row) for row in self.confusion],
        }


def agreement(a: LabelVector, b: LabelVector, n_groups: int | None = None) -> AgreementReport:
    """Compare two label vectors over the same subjects.

    total_pct counts exact rank matches; one_step_pct additionally
    accepts ranks one step apart. Raises SubjectMismatch when the two
    vectors do not cover the same subject ids, and RankOutOfRange when
    a rank lies outside 0..n_groups - 1.
    """
    map_a = a.as_dict()
    map_b = b.as_dict()
    if set(map_a) != set(map_b):
        only_a = sorted(set(map_a) - set(map_b))
        only_b = sorted(set(map_b) - set(map_a))
        raise SubjectMismatch(
            f"label vectors cover different subjects (only in a: {only_a}, only in b: {only_b})"
        )
    if not map_a:
        raise SubjectMismatch("label vectors are empty")
    subjects = sorted(map_a)
    ranks = [(map_a[s], map_b[s]) for s in subjects]
    if n_groups is None:
        n_groups = 1 + max(max(ra, rb) for ra, rb in ranks)
    for subject in subjects:
        for rank in (map_a[subject], map_b[subject]):
            if not 0 <= rank < n_groups:
                raise RankOutOfRange(f"subject {subject}: rank {rank} is outside 0..{n_groups - 1}")
    confusion = np.zeros((n_groups, n_groups), dtype=int)
    exact = close = 0
    for ra, rb in ranks:
        confusion[ra, rb] += 1
        if ra == rb:
            exact += 1
        if abs(ra - rb) <= 1:
            close += 1
    n = len(ranks)
    return AgreementReport(
        n=n,
        total_pct=100.0 * exact / n,
        one_step_pct=100.0 * close / n,
        confusion=tuple(tuple(int(x) for x in row) for row in confusion),
    )


def split_corpus(
    entries: Sequence[ManifestEntry], seed: int
) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Deterministic stratified speaker split: two thirds reference, one third test.

    Speakers never straddle the split. Each group, in rank order, draws one
    random() per speaker, in sorted order, from one random.Random(seed), and
    sends its max(1, round(N/3)) smallest draws to the test side, ties to the
    smaller id; Python keeps random()'s sequence fixed across versions.
    Raises ValueError for a negative seed, and CellTooSmall when any
    (prompt, group) cell has fewer than three speakers.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    rng = random.Random(seed)
    groups: dict[int, set[str]] = {}
    cell_speakers: dict[tuple[int, int], set[str]] = {}
    for entry in entries:
        group = entry_group(entry)
        groups.setdefault(group, set()).add(entry.speaker)
        cell_speakers.setdefault((entry.prompt, group), set()).add(entry.speaker)
    small = sorted(key for key, spk in cell_speakers.items() if len(spk) < 3)
    if small:
        raise CellTooSmall(
            "cells (prompt, group) with fewer than 3 speakers: "
            + ", ".join(str(c) for c in small)
        )
    test_speakers: set[str] = set()
    for group in sorted(groups):
        draws = sorted((rng.random(), speaker) for speaker in sorted(groups[group]))
        n_test = max(1, round(len(draws) / 3))
        test_speakers.update(speaker for _, speaker in draws[:n_test])
    reference = [e for e in entries if e.speaker not in test_speakers]
    test = [e for e in entries if e.speaker in test_speakers]
    return reference, test


@dataclass(frozen=True)
class UtteranceOutcome:
    speaker: str
    prompt: int
    result: ClassificationResult


@dataclass(frozen=True)
class SystemEvaluation:
    """Everything the evaluation protocol produces in one run."""

    speaker_labels: LabelVector
    utterance_results: tuple[UtteranceOutcome, ...]
    vs_expert1: AgreementReport
    vs_expert2: AgreementReport
    expert1_vs_expert2: AgreementReport

    def reports(self) -> dict[str, AgreementReport]:
        return {
            "system_vs_expert1": self.vs_expert1,
            "system_vs_expert2": self.vs_expert2,
            "expert1_vs_expert2": self.expert1_vs_expert2,
        }


def _speaker_rank(
    entries: Sequence[ManifestEntry], which: str, manifest: str | Path, n_groups: int
) -> LabelVector:
    """Each speaker's rank in one expert column; every rank must lie in 0..n_groups - 1.

    Every error names the manifest and the column.
    """
    ranks: dict[str, int] = {}
    for entry in entries:
        value = getattr(entry, which)
        if value is None:
            raise MissingLabel(f"{manifest}: {which} of {entry.path} is empty")
        first = ranks.setdefault(entry.speaker, value)
        if first != value or value >= n_groups:
            where = f"{manifest}: {which} of speaker {entry.speaker}"
            if first != value:
                raise MissingLabel(f"{where}: ranks {first} and {value} conflict")
            raise RankOutOfRange(f"{where}: rank {value} is outside 0..{n_groups - 1}")
    return LabelVector(entries=tuple(sorted(ranks.items())))


def evaluate_system(
    manifest: str | Path,
    cfg: FrameConfig,
    threshold: float = 0.15,
    norm: NormKind = NormKind.L2,
    seed: int = 42,
) -> SystemEvaluation:
    """Run the full protocol on a doubly expert-labeled corpus.

    The corpus is split by speaker; build-refs is run on the two-thirds
    side and classify on the rest, whose clips are read after the
    reference side's. Utterances are aggregated per speaker by majority
    vote, and the speaker ranks are compared against both experts and
    between the experts themselves. The threshold, the reference side's
    cell grid and both expert columns, ranks included, are checked
    before any clip is read.
    """
    check_threshold(threshold)
    entries = load_manifest(manifest)
    try:
        ref_entries, test_entries = split_corpus(entries, seed)
        n_groups = label_grid(ref_entries)
    except (CellTooSmall, MissingCell) as exc:
        raise type(exc)(f"{manifest}: {exc}") from exc
    expert1 = _speaker_rank(test_entries, "expert1", manifest, n_groups)
    expert2 = _speaker_rank(test_entries, "expert2", manifest, n_groups)
    refs = build_reference_set(ref_entries, cfg, threshold, norm)
    try:
        results, by_speaker = classify_manifest(test_entries, refs, norm)
    except UnknownPrompt as exc:
        raise UnknownPrompt(f"{manifest}: {exc}") from exc
    outcomes = tuple(
        UtteranceOutcome(e.speaker, e.prompt, r) for e, r in zip(test_entries, results)
    )
    system_vector = LabelVector(
        entries=tuple((speaker, classify_speaker(rs)) for speaker, rs in by_speaker.items())
    )
    return SystemEvaluation(
        speaker_labels=system_vector,
        utterance_results=outcomes,
        vs_expert1=agreement(system_vector, expert1, n_groups),
        vs_expert2=agreement(system_vector, expert2, n_groups),
        expert1_vs_expert2=agreement(expert1, expert2, n_groups),
    )
