"""Per-layer tracing of chordbalance from outside the package.

The tracer rebinds public functions in the namespace that calls them, so
nothing under ``src/`` changes.  Modules that import a function by name
(``from .student import predict_segments``) are rebound at that name in
the importing module; the few calls made through a module attribute
(``student.train``, ``student.frame_targets``, ``focal.sequence_loss``)
are rebound on the defining module.

Each wrapped call becomes a span ``(name, start, end, parent)`` kept in
memory and written out when the operation ends.  Calls made once per
chord label (``parse_chord_label``) would swamp the span list, so they
are aggregated as a call count and summed time instead.  Counters are
taken at the same boundaries, from the arguments and results of the
wrapped calls, so that ratios are measured where the work happens.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

# Number of model input columns: 12 chroma bins plus the bias column.
_INPUT_COLUMNS = 13


class Tracer:
    """Span recorder that installs itself by rebinding module attributes."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.aggregates: dict[str, list[float]] = {}  # name -> [calls, seconds]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Rebind ``module.attr`` so every call records a span ``name``.

        ``count(counts, args, kwargs, result)`` runs after the call,
        outside the span, to record work counters.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        self._rebind(module, attr, original, traced)

    def wrap_aggregate(self, module, attr: str, name: str) -> None:
        """Rebind ``module.attr`` to count calls and sum their time, spanless."""
        original = getattr(module, attr)
        totals = self.aggregates.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def aggregated(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += clock() - started

        self._rebind(module, attr, original, aggregated)

    def _rebind(self, module, attr, original, replacement) -> None:
        setattr(module, attr, replacement)
        self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Summed seconds and calls per span name, self time, and the counters.

        Self time is a span's duration minus the time its direct child
        spans cover; calls on one thread nest, so children never overlap.
        Summaries of several processes merge by adding them up.
        """
        inclusive: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float, self.counts)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            counts[f"{name}_calls"] += 1
            if parent >= 0:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            own[name] += (end - start) - covered
        for name, (calls, seconds) in self.aggregates.items():
            counts[f"{name}_calls"] += calls
            inclusive[name] += seconds
        return {"inclusive": dict(inclusive), "self": dict(own), "counts": counts}


def merge_summaries(summaries) -> dict:
    """Add up the summaries of the processes of one operation."""
    merged: dict[str, dict[str, float]] = {"inclusive": {}, "self": {}, "counts": {}}
    for summary in summaries:
        for part, values in summary.items():
            for name, value in values.items():
                merged[part][name] = merged[part].get(name, 0.0) + value
    return merged


def _count_train(counts, args, kwargs, result) -> None:
    corpus = args[0]
    frames = sum(len(track) for track, _ in corpus)
    classes = len(result.model.classes)
    epochs = len(result.train_losses)
    counts["student.epochs_run"] += epochs
    counts["student.train_frames"] += frames
    counts["cells"] += frames * classes * epochs
    # Two matmuls per epoch: logits (n x 13 @ 13 x C) and gradient (C x n @ n x 13).
    counts["flop"] += 2 * (2 * frames * _INPUT_COLUMNS * classes) * epochs


def _count_predict(counts, args, kwargs, result) -> None:
    counts["student.predict_frames"] += len(args[1])
    counts["student.segments_emitted"] += len(result.sequence.segments)


def _count_select(counts, args, kwargs, result) -> None:
    dataset, report = result
    counts["selection.seeds_consumed"] += len(dataset.events)
    counts["selection.shortfall_classes"] += sum(sel.shortfall for sel in report.per_class.values())
    counts["new_covered"] += sum(ev.new_covered for ev in dataset.events)
    counts["window_seconds"] += sum(ev.window.duration for ev in dataset.events)


def _count_load(counts, args, kwargs, result) -> None:
    corpus, _ = result
    directory = Path(args[0])
    counts["synth.tracks_loaded"] += len(corpus)
    size = os.path.getsize(directory / "manifest.json")
    for track, _ in corpus:
        size += os.path.getsize(directory / f"{track.track_id}.csv")
        size += os.path.getsize(directory / f"{track.track_id}.lab")
    counts["synth.bytes_read"] += size


def _count_read_lab(counts, args, kwargs, result) -> None:
    counts["annotations.segments_read"] += len(result.segments)


def _count_overlap(counts, args, kwargs, result) -> None:
    counts["overlap_segments"] += len(args[0].segments) + len(args[1].segments)


def _count_report(counts, args, kwargs, result) -> None:
    counts["metrics.pairs_scored"] += len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every chordbalance layer."""
    from chordbalance import annotations, cli, focal, metrics, pipeline, selection, student, synth

    tracer.wrap(student, "train", "student.train", _count_train)
    tracer.wrap(student, "frame_targets", "student.frame_targets")
    tracer.wrap(focal, "sequence_loss", "focal.sequence_loss")
    tracer.wrap(pipeline, "predict_segments", "student.predict", _count_predict)
    tracer.wrap(pipeline, "save_model", "student.save_model")
    tracer.wrap(pipeline, "load_corpus", "synth.load_corpus", _count_load)
    tracer.wrap(pipeline, "pitch_shift", "augment.pitch_shift")
    tracer.wrap(pipeline, "add_noise", "augment.add_noise")
    tracer.wrap(pipeline, "write_pseudolabels_jsonl", "selection.write_jsonl")
    tracer.wrap(cli, "read_pseudolabels_jsonl", "selection.read_jsonl")
    for caller in (pipeline, cli):
        tracer.wrap(caller, "select_balanced_subset", "selection.select", _count_select)
        tracer.wrap(caller, "compute_report", "metrics.compute_report", _count_report)
    for caller in (synth, cli):
        tracer.wrap(caller, "read_lab_file", "annotations.read_lab", _count_read_lab)
    tracer.wrap(metrics, "per_class_overlap", "annotations.per_class_overlap", _count_overlap)
    for caller in (student, annotations, selection):
        tracer.wrap_aggregate(caller, "parse_chord_label", "chords.parse")


BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text("utf-8"))
# Per-layer metrics reported by a traced run, name -> unit, as BENCHMARK.json declares them.
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# Counts that must repeat bit for bit on the same seed.  Most are read
# straight from the tracer's counters; ``layer_metrics`` derives the rest.
EXACT = (
    "student.train_calls", "student.epochs_run", "student.train_frames",
    "student.train_gflop_computed", "student.predict_frames", "student.segments_emitted",
    "focal.sequence_loss_calls", "focal.clamp_count", "synth.tracks_loaded", "synth.bytes_read",
    "selection.seeds_consumed", "selection.shortfall_classes", "selection.new_cover_ratio",
    "augment.excerpts", "annotations.segments_read", "chords.parse_calls", "metrics.pairs_scored",
    "pipeline.rounds",
)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer values of one traced operation from its (merged) summary."""
    inclusive, own, counts = summary["inclusive"], summary["self"], summary["counts"]
    # A time metric "<span>_s" is the summed duration of the spans named
    # <span>; self, set-up and overhead times are filled in separately.
    out = {metric: inclusive.get(metric[:-2], 0.0) for metric, unit in PER_LAYER.items() if unit == "s"}
    out.update({name: counts.get(name, 0.0) for name in EXACT})
    out["augment.excerpts"] = counts.get("augment.pitch_shift_calls", 0.0)
    out["chords.labels_per_s"] = _rate(out["chords.parse_calls"], out["chords.parse_s"])
    out["student.train_mcells_per_s"] = _rate(counts.get("cells", 0.0) / 1e6, out["student.train_s"])
    out["student.train_gflop_computed"] = counts.get("flop", 0.0) / 1e9
    out["student.predict_frames_per_s"] = _rate(out["student.predict_frames"], out["student.predict_s"])
    out["selection.seeds_per_s"] = _rate(out["selection.seeds_consumed"], out["selection.select_s"])
    windows = counts.get("window_seconds", 0.0)
    out["selection.new_cover_ratio"] = counts.get("new_covered", 0.0) / windows if windows > 0 else 0.0
    out["annotations.overlap_segments_per_s"] = _rate(
        counts.get("overlap_segments", 0.0), out["annotations.per_class_overlap_s"])
    out["pipeline.self_s"] = own.get("pipeline.run_experiment", 0.0)
    out["cli.self_s"] = own.get("cli.evaluate", 0.0) + own.get("cli.select", 0.0)
    return out
