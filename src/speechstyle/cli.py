"""Command-line entry points: synth, build-refs, classify, evaluate, agreement.

Progress and errors go to standard error; data goes to files or stdout.
Exit codes: 0 on success, 1 on bad flags, 2 on data or processing errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .classify import classify_manifest, classify_speaker, mean_scalars
from .corpus import SynthConfig, generate_synthetic_corpus, load_labels, load_manifest
from .errors import MissingCell, ParseError, RateMismatch, SpeechStyleError, UnknownPrompt
from .evaluate import AgreementReport, LabelVector, agreement, evaluate_system
from .features import FrameConfig
from .metric import NormKind
from .reference import build_reference_set, load_reference_set, save_reference_set


class _UsageError(Exception):
    """A bad command line, with the usage of the parser that rejected it."""

    def __init__(self, message: str, usage: str) -> None:
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise _UsageError(message, self.format_usage())


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _frame_config(text: str | None) -> FrameConfig:
    """Read --frame-config: inline JSON if it opens with {, [ or ", else a JSON file path."""
    if not text:
        return FrameConfig()
    inline = text.lstrip()[:1] in ("{", "[", '"')
    source = "--frame-config" if inline else f"--frame-config {text}"
    try:
        doc = json.loads(text if inline else Path(text).read_text(encoding="utf-8"))
        return FrameConfig.from_dict(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


_SHARED_FLAGS = {
    "--seed": dict(type=_nonneg_int, default=42, help="RNG seed (default 42)"),
    "--norm": dict(
        choices=[n.value for n in NormKind], default="l2", help="scalarization norm (default l2)"
    ),
    "--threshold": dict(
        type=_nonneg_float, default=0.15, help="cell variation / cover threshold (default 0.15)"
    ),
    "--frame-config": dict(help="frame config as a JSON file path or an inline JSON object"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Give a subcommand the shared flags it reads, and no others."""
    for name in names:
        parser.add_argument(name, **_SHARED_FLAGS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="speechstyle", description="Speaking-style classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # Flags left out are absent from the namespace, so SynthConfig's defaults apply.
    p = sub.add_parser(
        "synth",
        help="generate a deterministic synthetic corpus",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--groups", type=int)
    p.add_argument("--speakers-per-group", type=int)
    p.add_argument("--prompts", type=int)
    p.add_argument("--sample-rate", type=int)
    p.add_argument("--duration-ms", type=float)
    p.add_argument("--label-noise", type=float)
    p.add_argument("--telephone-band", action="store_true")
    p.set_defaults(func=cmd_synth, parser=p)

    p = sub.add_parser("build-refs", help="build a reference model from a labeled manifest")
    _add_flags(p, "--norm", "--threshold", "--frame-config")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_build_refs, parser=p)

    p = sub.add_parser("classify", help="classify utterances against a model")
    _add_flags(p, "--norm")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    # Read by nothing; kept, hidden, only because perfbench's classify job passes it.
    p.add_argument("--threshold", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_classify, parser=p)

    p = sub.add_parser("evaluate", help="run the full split/classify/agree protocol")
    _add_flags(p, "--seed", "--norm", "--threshold", "--frame-config")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="report JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_evaluate, parser=p)

    p = sub.add_parser("agreement", help="compare two label files")
    p.add_argument("--a", required=True, help="first label CSV (subject,rank)")
    p.add_argument("--b", required=True, help="second label CSV (subject,rank)")
    p.set_defaults(func=cmd_agreement, parser=p)

    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    names = {field.name for field in dataclasses.fields(SynthConfig)}
    try:
        cfg = SynthConfig(**{k: v for k, v in vars(args).items() if k in names})
    except ValueError as exc:
        args.parser.error(str(exc))
    manifest = generate_synthetic_corpus(cfg, args.out)
    count = cfg.groups * cfg.speakers_per_group * cfg.prompts
    _log(f"wrote {count} wav files under {args.out}")
    print(manifest)
    return 0


def cmd_build_refs(args: argparse.Namespace) -> int:
    cfg = _frame_config(args.frame_config)
    entries = load_manifest(args.manifest)
    try:
        refs = build_reference_set(entries, cfg, args.threshold, NormKind(args.norm))
    except MissingCell as exc:
        raise MissingCell(f"{args.manifest}: {exc}") from exc
    save_reference_set(refs, args.out)
    for cell in refs.cells:
        print(f"prompt {cell.prompt} group {cell.group}: {len(cell.ideals)} ideal(s)")
    _log(f"model written to {args.out}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    if args.threshold is not None:
        _log("note: classify ignores --threshold; the model already holds the chosen ideals")
    refs = load_reference_set(args.model)
    entries = load_manifest(args.manifest)
    try:
        results, by_speaker = classify_manifest(entries, refs, NormKind(args.norm))
    except (UnknownPrompt, RateMismatch) as exc:
        raise type(exc)(f"{args.model}: {exc}") from exc
    header = ["speaker", "prompt", "chosen", "dominant"] + [
        f"scalar_{g}" for g in range(refs.n_groups)
    ]
    rows = [
        [
            entry.speaker,
            str(entry.prompt),
            str(result.chosen),
            "true" if result.dominant else "false",
            *(repr(s.scalar) for s in result.scores),
        ]
        for entry, result in zip(entries, results)
    ]
    for speaker, speaker_results in by_speaker.items():
        label = classify_speaker(speaker_results)
        means = [repr(m) for m in mean_scalars(speaker_results)]
        rows.append([speaker, "", str(label), "", *means])
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    _log(f"classified {len(entries)} utterances from {args.manifest}")
    return 0


def _format_report_table(reports: dict[str, AgreementReport]) -> str:
    titles = {
        "system_vs_expert1": "System-Expert1",
        "system_vs_expert2": "System-Expert2",
        "expert1_vs_expert2": "Expert1-Expert2",
    }
    names = [titles.get(key, key) for key in reports]
    width = max(len(n) for n in names) + 3
    lines = ["".ljust(18) + "".join(n.ljust(width) for n in names)]
    for row_name, attr in (("Total agreement", "total_pct"), ("1-step agreement", "one_step_pct")):
        cells = [f"{getattr(rep, attr):.1f} %".ljust(width) for rep in reports.values()]
        lines.append(row_name.ljust(18) + "".join(cells))
    return "\n".join(lines)


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _frame_config(args.frame_config)
    evaluation = evaluate_system(
        args.manifest, cfg, args.threshold, NormKind(args.norm), args.seed
    )
    reports = evaluation.reports()
    print(_format_report_table(reports))
    doc = {key: rep.to_dict() for key, rep in reports.items()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        _log(f"report written to {args.out}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


def cmd_agreement(args: argparse.Namespace) -> int:
    report = agreement(LabelVector(load_labels(args.a)), LabelVector(load_labels(args.b)))
    print(f"n                 {report.n}")
    print(f"Total agreement   {report.total_pct:.1f} %")
    print(f"1-step agreement  {report.one_step_pct:.1f} %")
    print("confusion:")
    for row in report.confusion:
        print("  " + " ".join(f"{x:4d}" for x in row))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # Stray flags are collected by the top-level parser; they are
        # reported with the usage of the subcommand they were given to.
        args, stray = parser.parse_known_args(argv)
        if stray:
            args.parser.error(f"unrecognized arguments: {' '.join(stray)}")
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.usage, end="", file=sys.stderr)
        return 1
    except (SpeechStyleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
