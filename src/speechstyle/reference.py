"""Reference-set construction: cell statistics and ideal selection."""

from __future__ import annotations

import binascii
import dataclasses
import itertools
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Container, Iterator, Mapping, Sequence

import numpy as np

from .audio import SUPPORTED_RATES, read_wav, strip_silence
from .corpus import ManifestEntry, entry_group
from .errors import EmptyCell, MissingCell, ParseError, RateMismatch, SpeechStyleError
from .features import FeatureBundle, FrameConfig, extract_features
from .metric import NormKind, Triplet, compute_triplet, scalarize

# The only version read or written. Each feature track is stored as
# base64 of its little-endian float64 bytes.
MODEL_VERSION = 3
# The key beside "shape" that holds a track's base64 bytes.
_ARRAY_DATA = "float64le"


@dataclass(frozen=True)
class CellUtterance:
    speaker: str
    bundle: FeatureBundle


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


def _finite_real(x: object) -> bool:
    """Whether x is a finite real number other than a bool."""
    return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless threshold is a finite, nonnegative real number (not a bool)."""
    if not (_finite_real(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold!r}")


def _check_statistics(where: str, mean: object, variation: object) -> None:
    """Raise ValueError unless mean holds a valid Triplet's parts and variation is a spread.

    Each of the three parts and the variation must be a finite real
    number, not a bool; id and the variation are nonnegative, p and ir
    lie in [-1, 1].
    """
    if not (
        isinstance(mean, (list, tuple))
        and len(mean) == 3
        and all(map(_finite_real, mean))
        and mean[0] >= 0
        and all(-1 <= x <= 1 for x in mean[1:])
    ):
        raise ValueError(
            f"{where}: mean must be finite (id, p, ir) with id >= 0 and p, ir in [-1, 1],"
            f" got {mean!r}"
        )
    if not (_finite_real(variation) and variation >= 0):
        raise ValueError(f"{where}: variation must be finite and nonnegative, got {variation!r}")


@dataclass(frozen=True)
class ReferenceSet:
    """Selected ideals for every cell of a full (prompt, group) grid.

    Construction raises ValueError for a set that breaks a rule of
    __post_init__, and keeps the cells in (prompt, group) order, so cell
    (p, g) sits at position p * n_groups + g. Every ideal was extracted
    under config, all ideals share one sample rate, and every cell's
    mean and variation pass _check_statistics. Every ideal's spectral and
    stress values are finite, and its pitch is NaN or in
    [config.pitch_fmin, config.pitch_fmax].
    """

    config: FrameConfig
    threshold: float
    groups: tuple[str, ...]
    cells: tuple[ReferenceCell, ...]

    def __post_init__(self) -> None:
        check_threshold(self.threshold)
        groups = self.groups
        if not (isinstance(groups, (list, tuple)) and all(type(g) is str and g for g in groups)):
            raise ValueError(f"groups must be a list of non-empty strings, got {groups!r}")
        if not groups:
            raise ValueError("model has no groups")
        repeated = sorted({g for g in groups if groups.count(g) > 1})
        if repeated:
            raise ValueError(f"groups {repeated} are listed more than once")
        rates = set()
        # Extraction clamps f0 to this band and floors every log, so no other track can occur.
        low, high = self.config.pitch_fmin, self.config.pitch_fmax
        for c in self.cells:
            if type(c.prompt) is not int or type(c.group) is not int:
                raise ValueError(
                    f"cell prompt and group must be ints, got {c.prompt!r}, {c.group!r}"
                )
            where = f"cell (prompt {c.prompt}, group {c.group})"
            if c.prompt < 0 or c.group not in range(len(groups)):
                raise ValueError(f"{where} lies outside the model's {len(groups)} groups")
            if not isinstance(c.mean, Triplet):
                raise ValueError(f"{where}: mean must be a Triplet, got {c.mean!r}")
            _check_statistics(where, c.mean.as_tuple(), c.variation)
            if not c.ideals:
                raise ValueError(f"{where} has no ideals")
            for u in c.ideals:
                if type(u.speaker) is not str or not u.speaker:
                    raise ValueError(
                        f"{where}: ideal speaker must be a non-empty string, got {u.speaker!r}"
                    )
                if u.bundle.config != self.config:
                    raise ValueError(f"{where}: ideal {u.speaker!r} has another frame config")
                for name in ("spectral", "stress"):
                    if not np.isfinite(getattr(u.bundle, name)).all():
                        raise ValueError(
                            f"{where}: ideal {u.speaker!r} has non-finite {name} values"
                        )
                pitch = u.bundle.pitch
                # NaN, an unvoiced frame, fails both comparisons.
                if ((pitch < low) | (pitch > high)).any():
                    raise ValueError(
                        f"{where}: ideal {u.speaker!r} has pitch neither NaN"
                        f" nor in [{low}, {high}] Hz"
                    )
                rates.add(u.bundle.sample_rate)
        if len(rates) > 1:
            raise ValueError(f"ideals mix sample rates {sorted(rates)}")
        cells = tuple(sorted(self.cells, key=lambda c: (c.prompt, c.group)))
        keys = [(c.prompt, c.group) for c in cells]
        for key, after in zip(keys, keys[1:]):
            if key == after:
                raise ValueError(f"cell (prompt {key[0]}, group {key[1]}) is listed twice")
        # Prompt 0 is always covered, so a set without cells misses (0, g).
        n_prompts = 1 + (keys[-1][0] if keys else 0)
        missing = _grid_holes(set(keys), n_prompts, len(groups))
        if missing:
            raise ValueError(f"model is missing cells (prompt, group): {missing}")
        # A decoded model's list of groups and int threshold take the declared types.
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "cells", cells)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_prompts(self) -> int:
        return len(self.cells) // self.n_groups

    @property
    def sample_rate(self) -> int:
        """Rate of every ideal's clip; every cell has an ideal."""
        return self.cells[0].ideals[0].bundle.sample_rate

    def cell(self, prompt: int, group: int) -> ReferenceCell:
        if not (0 <= prompt < self.n_prompts and 0 <= group < self.n_groups):
            raise MissingCell(f"model has no cell for prompt {prompt}, group {group}")
        return self.cells[prompt * self.n_groups + group]


def default_group_labels(n_groups: int) -> tuple[str, ...]:
    if n_groups == 5:
        return ("very_bad", "bad", "average", "good", "very_good")
    return tuple(f"group{g}" for g in range(n_groups))


def _worker_count(items: int) -> int:
    """Threads for a map over items: one per usable CPU, at most one per item."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, items)


def _ordered_map(fn: Callable, items: Sequence) -> Iterator:
    """fn of each item, yielded in item order, computed on worker threads.

    Threads overlap only outside the interpreter lock, in the compiled
    kernels and numpy's larger array operations: on 2 CPUs, 200 clips of
    1.5 s at 16 kHz ingest in 0.25-0.27 s on one thread and 0.18-0.20 s on two
    (README, "Clip ingest"). The first exception in item order is raised;
    items not yet started are then skipped, as on close(), and every
    thread is joined before the generator ends. With one worker the items
    run in order on the calling thread.
    """
    workers = _worker_count(len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # Plain threads: concurrent.futures would import logging into every job.
    pending, done, changed = iter(range(len(items))), {}, threading.Condition()

    def work() -> None:
        while True:
            with changed:
                if (k := next(pending, None)) is None:
                    return
            try:
                result = fn(items[k]), None
            except BaseException as exc:
                result = None, exc
            with changed:
                done[k] = result
                changed.notify()

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    try:
        for k in range(len(items)):
            with changed:
                value, exc = changed.wait_for(lambda: done.pop(k, None))
            if exc is not None:
                raise exc
            yield value
    finally:
        with changed:
            list(pending)  # the items not yet started are skipped
        for thread in threads:
            thread.join()


def _cell_statistics(
    cells: Sequence[Sequence[CellUtterance]], norm: NormKind
) -> list[tuple[CellAverage, np.ndarray]]:
    """Each cell's average plus its N x N scalar matrix, zero on the diagonal, in cell order.

    Each unordered pair is scored and scalarized once, on one thread pool
    for all cells; an empty cell raises EmptyCell before any is scored.
    """
    if not all(cells):
        raise EmptyCell("cannot average an empty cell")
    pairs = [
        (cell[k].bundle, cell[l].bundle)
        for cell in cells
        for k, l in itertools.combinations(range(len(cell)), 2)
    ]
    scored = iter(list(_ordered_map(lambda pair: compute_triplet(*pair), pairs)))
    stats = []
    for cell in cells:
        n = len(cell)
        # Keyed (k, l) with k <= l; the diagonal is (0, 1, 1) by identity.
        upper = {(k, k): Triplet(0.0, 1.0, 1.0) for k in range(n)}
        scalars = np.zeros((n, n))
        for k, l in itertools.combinations(range(n), 2):
            upper[k, l] = next(scored)
            scalars[k, l] = scalars[l, k] = scalarize(upper[k, l], norm)
        # One ordered pair at a time, row by row: np.sum, math.fsum and 3.12's sum() round apart.
        sum_id = sum_p = sum_ir = 0.0
        for k, l in itertools.product(range(n), repeat=2):
            t = upper[min(k, l), max(k, l)]
            sum_id += t.id
            sum_p += t.p
            sum_ir += t.ir
        mean = Triplet(sum_id / (n * n), sum_p / (n * n), sum_ir / (n * n))
        variation = float(np.std(scalars[~np.eye(n, dtype=bool)])) if n > 1 else 0.0
        stats.append((CellAverage(mean=mean, variation=variation, size=n), scalars))
    return stats


def compute_cell_average(
    cell: Sequence[CellUtterance], norm: NormKind = NormKind.L2
) -> CellAverage:
    """Average the triplet over all ordered pairs of cell utterances.

    Every ordered pair (k, l) enters the mean, including k = l, so the
    divisor is N squared and the diagonal pulls the mean toward the
    identity triplet. The variation is the standard deviation of the
    scalarized score over the off-diagonal ordered pairs, 0 for N = 1.
    """
    return _cell_statistics([cell], norm)[0][0]


def _select_cell_ideals(
    cell: Sequence[CellUtterance], scalars: np.ndarray, variation: float, threshold: float
) -> tuple[int, ...]:
    """Indices of a cell's ideals, ascending: greedy medoids of the uncovered utterances.

    Ties fall to the smallest speaker id; a cell whose variation is
    within the threshold keeps only its first pick.
    """
    chosen: list[int] = []
    uncovered = list(range(len(cell)))
    while uncovered:
        pick = min(
            uncovered,
            key=lambda k: (sum(scalars[k, l] for l in uncovered if l != k), cell[k].speaker),
        )
        chosen.append(pick)
        if variation <= threshold:
            break
        uncovered = [k for k in uncovered if scalars[k, pick] > threshold]
    return tuple(sorted(chosen))


def select_ideals(
    cells: Mapping[tuple[int, int], Sequence[CellUtterance]],
    threshold: float,
    norm: NormKind = NormKind.L2,
) -> ReferenceSet:
    """Average every (prompt, group) cell and choose its ideals.

    A cell whose variation stays within the threshold is summarized by
    its single medoid. A more scattered cell is covered greedily: the
    medoid of the still-uncovered utterances is added until everyone
    lies within the threshold of some chosen ideal, so in the worst
    case every utterance of the cell becomes an ideal. The set takes
    the frame config of the utterances' bundles and names its groups
    with default_group_labels.
    """
    check_threshold(threshold)  # below zero, the cover never ends
    if not cells:
        raise MissingCell("no cells to select ideals from")
    keys = sorted(cells)
    utterances = [cells[key] for key in keys]
    chosen = []
    stats = _cell_statistics(utterances, norm)
    for (prompt, group), cell, (avg, scalars) in zip(keys, utterances, stats):
        picks = _select_cell_ideals(cell, scalars, avg.variation, threshold)
        chosen.append(
            ReferenceCell(
                prompt=prompt,
                group=group,
                mean=avg.mean,
                variation=avg.variation,
                ideals=tuple(cell[k] for k in picks),
            )
        )
    # _cell_statistics has raised EmptyCell for an empty cell, so every cell has a first utterance.
    return ReferenceSet(
        config=utterances[0][0].bundle.config,
        threshold=threshold,
        groups=default_group_labels(1 + max(g for _, g in keys)),
        cells=tuple(chosen),
    )


def ingest_clip(path: str | Path, cfg: FrameConfig) -> FeatureBundle:
    """Read one WAV, trim edge silence, and extract features.

    The bundle carries the clip's sample rate. Every package error
    raised here names the clip's path.
    """
    clip = read_wav(path)
    try:
        return extract_features(strip_silence(clip), cfg)
    except SpeechStyleError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def ingest_manifest(
    entries: Sequence[ManifestEntry], cfg: FrameConfig, rate: int | None = None
) -> dict[Path, FeatureBundle]:
    """Ingest every entry's clip, keyed by path, on a thread pool.

    Every clip must be sampled at rate, the corpus rate, which defaults
    to the first clip's; a clip at any other rate raises RateMismatch.
    Clips are ingested in parallel but taken in manifest order, so the
    error raised is the first in manifest order, as if the clips were
    read one by one.
    """
    bundles: dict[Path, FeatureBundle] = {}
    ingested = _ordered_map(lambda entry: ingest_clip(entry.path, cfg), entries)
    # strict: entries run out first, so the worker threads are joined right here.
    for entry, bundle in zip(entries, ingested, strict=True):
        if rate is None:
            rate = bundle.sample_rate
        if bundle.sample_rate != rate:
            ingested.close()  # skips the clips not yet started
            raise RateMismatch(
                f"{entry.path}: sample rate {bundle.sample_rate} differs from corpus rate {rate}"
            )
        # Copied on this thread, so that the long-lived tracks do not pin
        # memory in a worker thread's heap.
        bundles[entry.path] = dataclasses.replace(
            bundle,
            spectral=bundle.spectral.copy(),
            pitch=bundle.pitch.copy(),
            stress=bundle.stress.copy(),
        )
    return bundles


def _grid_holes(cells: Container[tuple[int, int]], n_prompts: int, n_groups: int) -> str:
    """The (prompt, group) pairs of the grid missing from cells, listed; empty if none."""
    return ", ".join(
        str((w, g)) for w in range(n_prompts) for g in range(n_groups) if (w, g) not in cells
    )


def label_grid(entries: Sequence[ManifestEntry]) -> int:
    """The group count of labeled entries; reads no clip.

    Group ranks come from entry_group, so every entry needs a truth or
    expert1 label. Prompt and group counts are inferred from the largest
    indices seen; any hole in the (prompt, group) grid raises MissingCell.
    """
    if not entries:
        raise MissingCell("manifest has no usable entries")
    cells = {(entry.prompt, entry_group(entry)) for entry in entries}
    n_prompts = 1 + max(w for w, _ in cells)
    n_groups = 1 + max(g for _, g in cells)
    missing = _grid_holes(cells, n_prompts, n_groups)
    if missing:
        raise MissingCell(f"manifest is missing cells (prompt, group): {missing}")
    return n_groups


def build_corpus_index(
    entries: Sequence[ManifestEntry], cfg: FrameConfig
) -> dict[tuple[int, int], tuple[CellUtterance, ...]]:
    """Ingest labeled entries and group them into (prompt, group) cells, in key order.

    The labels and the cell grid are checked by label_grid before any
    clip is read; the clips are read by ingest_manifest.
    """
    label_grid(entries)
    bundles = ingest_manifest(entries, cfg)
    cells: dict[tuple[int, int], list[CellUtterance]] = {}
    for entry in entries:
        cells.setdefault((entry.prompt, entry_group(entry)), []).append(
            CellUtterance(speaker=entry.speaker, bundle=bundles[entry.path])
        )
    return {key: tuple(val) for key, val in sorted(cells.items())}


def build_reference_set(
    entries: Sequence[ManifestEntry],
    cfg: FrameConfig,
    threshold: float,
    norm: NormKind = NormKind.L2,
) -> ReferenceSet:
    """End-to-end reference build from manifest entries.

    A threshold that fails check_threshold is rejected before any clip is read.
    """
    check_threshold(threshold)
    return select_ideals(build_corpus_index(entries, cfg), threshold, norm)


def _array_to_json(values: np.ndarray) -> dict:
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return {
        "shape": list(values.shape),
        _ARRAY_DATA: binascii.b2a_base64(data, newline=False).decode("ascii"),
    }


def _array_from_json(item: dict, name: str, ndim: int) -> np.ndarray:
    """Decode one track into an owned C-contiguous float64 array."""
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


def _ideal_from_json(item: dict, cfg: FrameConfig, rate: int) -> CellUtterance:
    """Decode one ideal; its spectral track must have cfg.n_ceps columns."""
    spectral = _array_from_json(item, "spectral", 2)
    if spectral.shape[1] != cfg.n_ceps:
        raise ParseError(
            f"spectral of ideal {item['speaker']!r}: {spectral.shape[1]} coefficients per frame,"
            f" but frame_config has n_ceps {cfg.n_ceps}"
        )
    bundle = FeatureBundle(
        spectral,
        _array_from_json(item, "pitch", 1),
        _array_from_json(item, "stress", 1),
        config=cfg,
        sample_rate=rate,
    )
    return CellUtterance(speaker=item["speaker"], bundle=bundle)


def _cell_from_json(cell: dict, cfg: FrameConfig, rate: int) -> ReferenceCell:
    """Decode one cell; its mean and variation must pass _check_statistics as stored."""
    prompt, group, mean, variation = cell["prompt"], cell["group"], cell["mean"], cell["variation"]
    _check_statistics(f"cell (prompt {prompt}, group {group})", mean, variation)
    return ReferenceCell(
        prompt=prompt,
        group=group,
        mean=Triplet(*mean),
        variation=variation,
        ideals=tuple(_ideal_from_json(item, cfg, rate) for item in cell["ideals"]),
    )


def _model_head(refs: ReferenceSet) -> dict:
    """Every key of the model document but the cells."""
    return {
        "version": MODEL_VERSION,
        "sample_rate": refs.sample_rate,
        "frame_config": refs.config.to_dict(),
        "threshold": refs.threshold,
        "groups": list(refs.groups),
    }


def _cell_to_dict(c: ReferenceCell) -> dict:
    return {
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


def reference_set_to_dict(refs: ReferenceSet) -> dict:
    """The model document; feature tracks are exact base64 float64 arrays."""
    return {**_model_head(refs), "cells": [_cell_to_dict(c) for c in refs.cells]}


def reference_set_from_dict(doc: dict) -> ReferenceSet:
    """Decode a model document of version MODEL_VERSION; ReferenceSet checks its rules."""
    try:
        version = doc["version"]
        if type(version) is not int or version != MODEL_VERSION:
            raise ParseError(f"unsupported model version {version!r}")
        rate = doc["sample_rate"]
        if type(rate) is not int or rate not in SUPPORTED_RATES:
            raise ParseError(f"sample_rate must be an int in {SUPPORTED_RATES}, got {rate!r}")
        cfg = FrameConfig.from_dict(doc["frame_config"])
        threshold, groups = doc["threshold"], doc["groups"]
        cells = tuple(_cell_from_json(cell, cfg, rate) for cell in doc["cells"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model file: {exc}") from exc
    try:
        return ReferenceSet(config=cfg, threshold=threshold, groups=groups, cells=cells)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def save_reference_set(refs: ReferenceSet, path: str | Path) -> None:
    """Write json.dumps(reference_set_to_dict(refs), indent=2) and a newline, one cell at a time.

    Only one cell's base64 tracks are held in memory at once.
    """
    # The cells are the document's last key; dumped empty, they split the head from the tail.
    head, tail = json.dumps({**_model_head(refs), "cells": []}, indent=2).rsplit("[]", 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head + "[")
        for k, cell in enumerate(refs.cells):
            # JSON strings hold no raw newline, so indenting every line nests the dump.
            text = json.dumps(_cell_to_dict(cell), indent=2).replace("\n", "\n    ")
            handle.write(("," if k else "") + "\n    " + text)
        handle.write("\n  ]" + tail + "\n")


def load_reference_set(path: str | Path) -> ReferenceSet:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return reference_set_from_dict(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
