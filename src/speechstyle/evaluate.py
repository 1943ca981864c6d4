"""Agreement statistics and the end-to-end evaluation protocol."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import (
    ClassificationResult,
    NormKind,
    classify_manifest,
    classify_speaker,
)
from .corpus import ManifestEntry, entry_group, load_manifest
from .errors import CellTooSmall, MissingLabel, SubjectMismatch
from .features import FrameConfig
from .reference import ReferenceSet, build_reference_set, ingest_manifest


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
    vectors do not cover the same subject ids.
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

    Speakers never straddle the split. Each group sends floor(N/3) or
    ceil(N/3) of its N speakers to the test side, chosen by a seeded
    shuffle. Raises CellTooSmall when any (prompt, group) cell has
    fewer than three speakers.
    """
    groups: dict[int, list[str]] = {}
    cell_speakers: dict[tuple[int, int], set[str]] = {}
    for entry in entries:
        group = entry_group(entry)
        if group is None:
            raise MissingLabel(f"{entry.path}: no truth or expert1 label")
        groups.setdefault(group, [])
        if entry.speaker not in groups[group]:
            groups[group].append(entry.speaker)
        cell_speakers.setdefault((entry.prompt, group), set()).add(entry.speaker)
    small = sorted(key for key, spk in cell_speakers.items() if len(spk) < 3)
    if small:
        raise CellTooSmall(
            "cells (prompt, group) with fewer than 3 speakers: "
            + ", ".join(str(c) for c in small)
        )
    rng = np.random.default_rng(seed)
    test_speakers: set[str] = set()
    for group in sorted(groups):
        speakers = sorted(groups[group])
        order = rng.permutation(len(speakers))
        n_test = max(1, round(len(speakers) / 3))
        test_speakers.update(speakers[i] for i in order[:n_test])
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

    reference_set: ReferenceSet
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


def _speaker_rank(entries: Sequence[ManifestEntry], which: str) -> dict[str, int]:
    ranks: dict[str, int] = {}
    for entry in entries:
        value = getattr(entry, which)
        if value is None:
            raise MissingLabel(f"{entry.path}: missing {which} label")
        if ranks.setdefault(entry.speaker, value) != value:
            raise MissingLabel(
                f"speaker {entry.speaker} has conflicting {which} labels"
            )
    return ranks


def evaluate_system(
    manifest: str | Path,
    cfg: FrameConfig,
    threshold: float = 0.15,
    norm: NormKind = NormKind.L2,
    seed: int = 42,
) -> SystemEvaluation:
    """Run the full protocol on a doubly expert-labeled corpus.

    The corpus is split by speaker, references are built from the
    two-thirds side, every test utterance is classified, utterances are
    aggregated per speaker by majority vote, and the speaker ranks are
    compared against both experts and between the experts themselves.
    Both expert columns are checked before any clip is read.
    """
    entries = load_manifest(manifest)
    ref_entries, test_entries = split_corpus(entries, seed)
    expert1 = _speaker_rank(test_entries, "expert1")
    expert2 = _speaker_rank(test_entries, "expert2")
    bundles = ingest_manifest(entries, cfg)
    refs = build_reference_set(ref_entries, cfg, threshold, norm, bundles=bundles)
    ordered = sorted(test_entries, key=lambda e: (e.speaker, e.prompt))
    results, by_speaker = classify_manifest(ordered, bundles, refs, norm)
    outcomes = tuple(UtteranceOutcome(e.speaker, e.prompt, r) for e, r in zip(ordered, results))
    system_vector = LabelVector(
        entries=tuple((speaker, classify_speaker(rs)) for speaker, rs in by_speaker.items())
    )
    expert1_vector = LabelVector(entries=tuple(sorted(expert1.items())))
    expert2_vector = LabelVector(entries=tuple(sorted(expert2.items())))
    n_groups = refs.n_groups
    return SystemEvaluation(
        reference_set=refs,
        speaker_labels=system_vector,
        utterance_results=outcomes,
        vs_expert1=agreement(system_vector, expert1_vector, n_groups),
        vs_expert2=agreement(system_vector, expert2_vector, n_groups),
        expert1_vs_expert2=agreement(expert1_vector, expert2_vector, n_groups),
    )
