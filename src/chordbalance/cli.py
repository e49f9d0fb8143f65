"""Command line surface.

Subcommands: parse, validate, stats, evaluate, select, synth, run,
compare.  Exit codes: 0 on success, 1 for usage errors, 2 for data
errors (malformed labels, broken files, infeasible configs).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ._config import load_config
from .annotations import read_lab_file
from .chords import label_to_string, parse_chord_label
from .metrics import (
    TrackPair,
    _write_csv,
    compute_report,
    type_distribution,
    write_per_type_csv,
    write_report_json,
)
from .pipeline import (
    ExperimentConfig,
    PipelineError,
    compare_runs,
    load_reports,
    run_experiment,
    write_comparison_csvs,
)
from .selection import (
    SelectionConfig,
    read_pseudolabels_jsonl,
    select_balanced_subset,
    write_excerpts_json,
    write_selection_report_csv,
)
from .synth import generate_corpus, save_corpus, spec_from_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_DATA_ERRORS = (
    PipelineError,
    ValueError,
    KeyError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this tool
    # reserves 2 for data errors, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_parse(args) -> int:
    print(label_to_string(parse_chord_label(args.label)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    seq = read_lab_file(args.labfile)
    print(f"{args.labfile}: ok ({len(seq)} segments, span {seq.span:.3f} s)")
    return EXIT_OK


def _lab_sequences(directory: Path):
    paths = sorted(directory.glob("*.lab"))
    if not paths:
        raise ValueError(f"no .lab files under {directory}")
    return [read_lab_file(p) for p in paths]


def _cmd_stats(args) -> int:
    sequences = _lab_sequences(Path(args.corpus_dir))
    distribution = type_distribution(sequences)
    out = _out_dir(args) / "class_distribution.csv"
    _write_csv(out, ["class", "share"], [[cls, f"{share:.6f}"] for cls, share in distribution.items()])
    for cls, share in distribution.items():
        print(f"{cls}\t{share:.4f}")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    pred_dir, ref_dir = Path(args.pred), Path(args.ref)
    refs = {p.stem: p for p in sorted(ref_dir.glob("*.lab"))}
    if not refs:
        raise ValueError(f"no .lab files under {ref_dir}")
    pairs = []
    for stem, ref_path in refs.items():
        pred_path = pred_dir / f"{stem}.lab"
        if not pred_path.exists():
            raise ValueError(f"no prediction for track {stem!r} under {pred_dir}")
        pairs.append(TrackPair(read_lab_file(pred_path), read_lab_file(ref_path)))
    report = compute_report(pairs)
    out = _out_dir(args)
    write_report_json(out / "metrics.json", report)
    write_per_type_csv(out / "per_type.csv", report)
    print(report.to_json(), end="")
    return EXIT_OK


def _cmd_select(args) -> int:
    raw = json.loads(Path(args.config).read_text("utf-8"))
    config = load_config(SelectionConfig, raw, "selection config",
                         extra={"track_durations": dict[str, float]})
    durations = {tid: float(seconds) for tid, seconds in raw["track_durations"].items()}
    pseudolabels = read_pseudolabels_jsonl(args.pseudolabels)
    dataset, report = select_balanced_subset(pseudolabels, durations, config)
    out = _out_dir(args)
    write_excerpts_json(out / "excerpts.json", dataset)
    write_selection_report_csv(out / "selection_report.csv", report)
    for cls, sel in report.per_class.items():
        flag = " (shortfall)" if sel.shortfall else ""
        print(f"{cls}\tselected {sel.selected_duration:.1f} s of {sel.desired_duration:.1f} s"
              f" from {sel.seeds_used} seeds{flag}")
    print(f"total selected: {dataset.total_duration:.1f} s; wrote {out / 'excerpts.json'}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    raw = {} if args.spec is None else json.loads(Path(args.spec).read_text("utf-8"))
    spec = spec_from_dict(raw)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    corpus = generate_corpus(spec)
    out = _out_dir(args)
    save_corpus(out, corpus, spec)
    total = sum(track.duration for track, _ in corpus)
    print(f"wrote {len(corpus)} tracks ({total:.0f} s) to {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed, augment=replace(config.augment, seed=args.seed))
    out = _out_dir(args)
    reports = run_experiment(config, out)
    for r in reports:
        print(f"iteration {r.iteration}: wcsr {r.metrics.wcsr:.4f}  acqa {r.metrics.acqa:.4f}")
    best = max(reports, key=lambda r: r.metrics.acqa)
    print(f"best by acqa: iteration {best.iteration} ({best.metrics.acqa:.4f}); wrote {out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    named = [(Path(d).name, load_reports(d)) for d in args.run_dirs]
    table, curves = compare_runs(named)
    out = _out_dir(args)
    write_comparison_csvs(out, table, curves)
    for name, iteration, w, a in table:
        print(f"{name}\tbest iter {iteration}\twcsr {w:.4f}\tacqa {a:.4f}")
    print(f"wrote {out / 'comparison.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chordbalance",
                     description="Class-imbalance tools for chord recognition experiments.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed of any config in play")
    parser.add_argument("--output-dir", default=".", help="where command outputs land")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a chord label and print its canonical form")
    p.add_argument("label")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("validate", help="check a .lab file, reporting the first bad line")
    p.add_argument("labfile")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="chord class distribution of a .lab corpus directory")
    p.add_argument("corpus_dir")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("evaluate", help="score predictions against references (.lab dirs)")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("select", help="balanced excerpt selection from pseudolabels")
    p.add_argument("--pseudolabels", required=True, help="JSON-lines segment file")
    p.add_argument("--config", required=True, help="selection config JSON")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("synth", help="generate a synthetic chroma corpus")
    p.add_argument("--spec", default=None, help="corpus spec JSON (defaults built in)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run a self-training experiment from a config JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="compare finished run directories")
    p.add_argument("run_dirs", nargs="+")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
