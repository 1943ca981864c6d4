"""Tracing from outside the program: wrap each layer's public functions.

Every public function defined in a layer module is wrapped once, and the
wrapper is bound wherever the package holds the original, so names
imported with `from .metric import compute_triplet` are traced in the
importing module too. Spans stay in memory; the job writes them out
when it ends. Nothing here is imported by an untraced job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# The package's modules, each one layer.
LAYERS = ("audio", "features", "metric", "classify", "reference", "evaluate", "corpus", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _ideals(args, kwargs, refs):
    return {"ideals": sum(len(c.ideals) for c in refs.cells)}


# Work counts taken from a wrapped call's arguments and result.
INFO = {
    "audio.read_wav": lambda a, k, r: {"samples": int(r.samples.size)},
    "features.extract_features": lambda a, k, r: {
        "frames": r.frame_count,
        "voiced": int(np.count_nonzero(~np.isnan(r.pitch))),
    },
    "metric.dtw_align": lambda a, k, r: {
        "cells": len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b")),
        "path": len(r.pairs),
    },
    "classify.classify_utterance": lambda a, k, r: {"dominant": int(r.dominant)},
    "reference.build_reference_set": _ideals,
    "reference.load_reference_set": lambda a, k, r: {
        **_ideals(a, k, r),
        "bytes": os.path.getsize(_arg(a, k, 0, "path")),
    },
    "reference.save_reference_set": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path")),
    },
    "corpus.load_manifest": lambda a, k, r: {"entries": len(r)},
}


class Tracer:
    """Records one span per wrapped call: [run, name, parent, start, end, info]."""

    def __init__(self, run: int) -> None:
        self.run = run
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, run, info = self.spans, self._stack, self.run, INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [run, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of every layer at all of its bindings.

    Returns the span names wrapped.
    """
    modules = [importlib.import_module(f"speechstyle.{layer}") for layer in LAYERS]
    wrapped, names = {}, []
    for layer, mod in zip(LAYERS, modules):
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                names.append(f"{layer}.{attr}")
                wrapped[value] = tracer.wrap(names[-1], value)
    for mod in [importlib.import_module("speechstyle"), *modules]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    return names


def summarize(spans: list[list]) -> dict[str, float]:
    """Busy and self times per span name and per layer, plus work counts.

    A span's self time is its duration minus the time its children
    cover; calls are nested and single-threaded, so children never
    overlap and the self times of all spans add up to the root's.
    """
    covered = [0.0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(int)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for sid, (_, name, parent, start, end, info) in enumerate(spans):
        own = end - start - covered[sid]
        out[f"{name}.busy_s"] += end - start
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
        out[f"{name.split('.')[0]}.self_s"] += own
        for key, value in (info or {}).items():
            out[f"{name}.{key}"] += value

    def under_reference(sid: int) -> bool:
        while (sid := spans[sid][2]) >= 0:
            if spans[sid][1].startswith("reference."):
                return True
        return False

    out["reference.pairs"] = sum(
        1 for sid, s in enumerate(spans) if s[1] == "metric.compute_triplet" and under_reference(sid)
    )
    get = out.get
    out.update({
        "audio.clips": get("audio.read_wav.calls", 0),
        "audio.samples": get("audio.read_wav.samples", 0),
        "features.frames": get("features.extract_features.frames", 0),
        "features.voiced_frames": get("features.extract_features.voiced", 0),
        "metric.dp_cells": get("metric.dtw_align.cells", 0),
        "metric.path_pairs": get("metric.dtw_align.path", 0),
        "classify.decisions": get("classify.classify_utterance.calls", 0),
        "classify.dominant_decisions": get("classify.classify_utterance.dominant", 0),
        "reference.ideals": get("reference.build_reference_set.ideals", 0)
        + get("reference.load_reference_set.ideals", 0),
        "reference.model_bytes_written": get("reference.save_reference_set.bytes", 0),
        "reference.model_bytes_read": get("reference.load_reference_set.bytes", 0),
        "corpus.entries": get("corpus.load_manifest.entries", 0),
    })
    return dict(out)
