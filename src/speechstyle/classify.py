"""Per-group scoring, the dominance decision rule, and speaker aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import ManifestEntry
from .errors import EmptyCell, EmptyResults, UnknownPrompt
from .features import FeatureBundle
from .metric import NormKind, Triplet, compute_triplet, scalarize
from .reference import CellUtterance, ReferenceSet, ingest_manifest


@dataclass(frozen=True)
class GroupScore:
    """Best triplet of a test utterance against one group's ideals."""

    group: int
    triplet: Triplet
    scalar: float
    ideal_used: str


@dataclass(frozen=True)
class ClassificationResult:
    prompt: int
    scores: tuple[GroupScore, ...]
    chosen: int
    dominant: bool
    margin: float


def score_against_group(
    test: FeatureBundle,
    ideals: Sequence[CellUtterance],
    group: int,
    norm: NormKind = NormKind.L2,
) -> GroupScore:
    """Score a test utterance against every ideal of one group.

    Returns the triplet with the smallest scalarized score; ties go to
    the ideal with the smallest speaker id.
    """
    if not ideals:
        raise EmptyCell(f"group {group} has no ideals for this prompt")
    best: tuple[float, str, Triplet] | None = None
    for ideal in sorted(ideals, key=lambda u: u.speaker):
        t = compute_triplet(test, ideal.bundle)
        s = scalarize(t, norm)
        if best is None or s < best[0]:
            best = (s, ideal.speaker, t)
    return GroupScore(group=group, triplet=best[2], scalar=best[0], ideal_used=best[1])


def _dominates(t: Triplet, others: Sequence[Triplet]) -> bool:
    return all(t.id <= o.id and t.p >= o.p and t.ir >= o.ir for o in others)


def classify_utterance(
    test: FeatureBundle,
    prompt: int,
    refs: ReferenceSet,
    norm: NormKind = NormKind.L2,
) -> ClassificationResult:
    """Pick the group whose ideals a test utterance sits closest to.

    If exactly one group's best triplet is at least as good as every
    other group's in all three parts at once, that group wins and the
    result is marked dominant. Otherwise the smallest scalarized score
    decides, with ties going to the lower group rank.
    """
    if not 0 <= prompt < refs.n_prompts:
        raise UnknownPrompt(f"prompt {prompt} is not covered by the reference set")
    scores = tuple(
        score_against_group(test, refs.cell(prompt, g).ideals, g, norm)
        for g in range(refs.n_groups)
    )
    dominant_groups = [
        g
        for g, score in enumerate(scores)
        if _dominates(score.triplet, [s.triplet for s in scores if s.group != g])
    ]
    dominant = len(dominant_groups) == 1
    if dominant:
        chosen = dominant_groups[0]
    else:
        chosen = min(range(len(scores)), key=lambda g: (scores[g].scalar, g))
    others = [s.scalar for s in scores if s.group != chosen]
    margin = min(others) - scores[chosen].scalar if others else 0.0
    return ClassificationResult(
        prompt=prompt, scores=scores, chosen=chosen, dominant=dominant, margin=margin
    )


def classify_manifest(
    entries: Sequence[ManifestEntry], refs: ReferenceSet, norm: NormKind = NormKind.L2
) -> tuple[list[ClassificationResult], dict[str, list[ClassificationResult]]]:
    """Read and classify every entry's clip against refs, in input order.

    Every prompt is checked against refs before any clip is read; the
    clips are read by ingest_manifest at the model's frame config and
    sample rate. Returns the per-entry results in input order and each
    speaker's results, in input order, keyed in sorted speaker order.
    """
    for entry in entries:
        if not 0 <= entry.prompt < refs.n_prompts:
            raise UnknownPrompt(
                f"{entry.path}: prompt {entry.prompt} is not covered by the reference set,"
                f" which has {refs.n_prompts} prompt(s)"
            )
    bundles = ingest_manifest(entries, refs.config, refs.sample_rate)
    results = [classify_utterance(bundles[e.path], e.prompt, refs, norm) for e in entries]
    by_speaker: dict[str, list[ClassificationResult]] = {}
    for entry, result in zip(entries, results):
        by_speaker.setdefault(entry.speaker, []).append(result)
    return results, {speaker: by_speaker[speaker] for speaker in sorted(by_speaker)}


def mean_scalars(results: Sequence[ClassificationResult]) -> list[float]:
    """Each group's mean scalarized score over a speaker's utterances."""
    return [
        float(np.mean([r.scores[g].scalar for r in results]))
        for g in range(len(results[0].scores))
    ]


def classify_speaker(results: Sequence[ClassificationResult]) -> int:
    """Majority vote over a speaker's per-utterance decisions.

    Ties go to the tied group with the smallest mean scalarized score
    across the speaker's utterances, then to the lower rank.
    """
    if not results:
        raise EmptyResults("cannot aggregate zero utterance results")
    votes: dict[int, int] = {}
    for r in results:
        votes[r.chosen] = votes.get(r.chosen, 0) + 1
    top = max(votes.values())
    tied = [g for g, count in votes.items() if count == top]
    if len(tied) == 1:
        return tied[0]
    means = mean_scalars(results)
    return min(tied, key=lambda g: (means[g], g))
