"""Balanced pseudolabel excerpt selection for self-training.

Given segment-level pseudolabels with confidences, pick fixed-length
excerpts centred on rare-class segments so that every rare class gets
roughly the same amount of selected audio.  The per-class budget is

    desiredDuration = labeled_total / number of rare classes present

and for each rare class, candidate seed segments are consumed in
descending confidence order.  Each seed contributes a window of
``min_length`` seconds centred on it (clamped to the track); overlapping
windows merge and only newly covered time counts toward the budget, so
double-covered seconds are never credited twice.  A class whose
candidates run out before the budget is met is flagged as a shortfall.

Rarity here is a property of the pseudolabel pool: classes are processed
in ascending pool duration, rarest first, so the scarcest classes grab
uncontested time before the more common rare classes cover it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._config import write_csv, write_json
from .annotations import Interval, TimedLabelSequence, merge_intervals
from .chords import CHORD_CLASSES, ChordLabel, label_to_string, map_to_class, parse_chord_label
from .metrics import class_sort_key
from .student import PredictedSegments

__all__ = [
    "ClassSelection",
    "DEFAULT_RARE_CLASSES",
    "ExcerptDataset",
    "SelectionConfig",
    "SelectionEvent",
    "SelectionReport",
    "distribution_of_selection",
    "read_pseudolabels_jsonl",
    "select_balanced_subset",
    "write_excerpts_json",
    "write_pseudolabels_jsonl",
    "write_selection_report_csv",
]

# Everything except the dominant maj/min and the no-chord symbol.
DEFAULT_RARE_CLASSES = ("7", "min7", "maj7", "dim", "hdim7", "aug", "sus")


@dataclass(frozen=True)
class SelectionConfig:
    min_length: float
    labeled_total: float
    rare_classes: tuple[str, ...] = DEFAULT_RARE_CLASSES
    confidence_threshold: float = 0.0

    def __post_init__(self) -> None:
        if not (self.min_length > 0 and math.isfinite(self.min_length)):
            raise ValueError(f"min_length must be finite and positive, got {self.min_length}")
        if not (self.labeled_total >= 0 and math.isfinite(self.labeled_total)):
            raise ValueError(f"labeled_total must be finite and >= 0, got {self.labeled_total}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(f"confidence threshold {self.confidence_threshold} outside [0, 1]")
        if not self.rare_classes:
            raise ValueError("rare class set must not be empty")
        object.__setattr__(self, "rare_classes", tuple(self.rare_classes))
        for cls in self.rare_classes:
            if cls not in CHORD_CLASSES or cls in ("N", "X"):
                raise ValueError(f"invalid rare class {cls!r}")


@dataclass(frozen=True)
class ClassSelection:
    """Per-class selection outcome."""

    desired_duration: float
    selected_duration: float
    seeds_used: int
    shortfall: bool


@dataclass(frozen=True)
class SelectionEvent:
    """One consumed seed: which window it added and how much was new."""

    chord_class: str
    track_id: str
    seed: Interval
    window: Interval
    confidence: float
    new_covered: float


@dataclass
class SelectionReport:
    """Per-class outcomes in processing order (rarest pool class first)."""

    per_class: dict[str, ClassSelection]


@dataclass
class ExcerptDataset:
    """Selected excerpts per track plus the seed events that built them."""

    intervals: dict[str, tuple[Interval, ...]]
    events: tuple[SelectionEvent, ...] = ()

    @property
    def total_duration(self) -> float:
        return sum(iv.duration for ivs in self.intervals.values() for iv in ivs)


def _window(seed: Interval, min_length: float, track_length: float) -> Interval:
    """min_length window centred on the seed, clamped inside the track."""
    if track_length <= min_length:
        return Interval(0.0, track_length)
    start = 0.5 * (seed.start + seed.end) - 0.5 * min_length
    start = min(max(start, 0.0), track_length - min_length)
    # (track_length - min_length) + min_length can round one ulp past the end
    return Interval(start, min(start + min_length, track_length))


def _covered(intervals: Sequence[Interval], window: Interval) -> float:
    return sum(
        max(0.0, min(iv.end, window.end) - max(iv.start, window.start)) for iv in intervals
    )


def select_balanced_subset(
    pseudolabels: Sequence[PredictedSegments],
    track_durations: Mapping[str, float],
    config: SelectionConfig,
) -> tuple[ExcerptDataset, SelectionReport]:
    """Select a rare-class-balanced excerpt dataset from pseudolabels.

    Parameters
    ----------
    pseudolabels : predicted segment sequences with confidences
    track_durations : total duration in seconds per track id, each finite and positive
    config : SelectionConfig

    Returns
    -------
    (ExcerptDataset, SelectionReport)
        Disjoint merged excerpts per track, and per-class accounting.
        Empty pseudolabels yield an empty dataset with every configured
        rare class flagged as a shortfall.
    """
    for tid, seconds in track_durations.items():
        if not (math.isfinite(seconds) and seconds > 0):
            raise ValueError(f"track {tid!r}: duration must be finite and positive, got {seconds}")
    pool: dict[str, float] = {}
    candidates: dict[str, list[tuple[float, str, Interval]]] = {}
    rare = set(config.rare_classes)
    for ps in pseudolabels:
        tid = ps.sequence.track_id
        if tid not in track_durations:
            raise ValueError(f"no known duration for track {tid!r}")
        if ps.sequence.end > track_durations[tid]:
            raise ValueError(f"track {tid!r}: a segment ends at {ps.sequence.end} s, past its duration "
                             f"{track_durations[tid]} s")
        for (iv, lab), conf in zip(ps.sequence.segments, ps.confidences):
            cls = map_to_class(lab)
            pool[cls] = pool.get(cls, 0.0) + iv.duration
            if cls in rare and conf > config.confidence_threshold:
                candidates.setdefault(cls, []).append((conf, tid, iv))

    present = [cls for cls in config.rare_classes if pool.get(cls, 0.0) > 0]
    if not present:
        # Nothing to select from; report a full shortfall per configured class.
        desired = float(config.labeled_total) / len(config.rare_classes)
        report = SelectionReport({
            cls: ClassSelection(desired, 0.0, 0, bool(desired > 0)) for cls in config.rare_classes
        })
        return ExcerptDataset({}, ()), report

    desired = config.labeled_total / len(present)
    order = sorted(present, key=lambda cls: (pool[cls], cls))

    selected: dict[str, list[Interval]] = {}
    events: list[SelectionEvent] = []
    per_class: dict[str, ClassSelection] = {}
    for cls in order:
        # Confidence-ordered candidates; ties break on track id then start.
        ordered = sorted(candidates.get(cls, []), key=lambda c: (-c[0], c[1], c[2].start))
        got = 0.0
        seeds = 0
        for conf, tid, seed in ordered:
            if got >= desired:
                break
            window = _window(seed, config.min_length, track_durations[tid])
            have = selected.setdefault(tid, [])
            new = window.duration - _covered(have, window)
            selected[tid] = merge_intervals([*have, window])
            seeds += 1
            got += new
            events.append(SelectionEvent(cls, tid, seed, window, conf, new))
        per_class[cls] = ClassSelection(float(desired), float(got), seeds, bool(got < desired))

    dataset = ExcerptDataset(
        {tid: tuple(ivs) for tid, ivs in sorted(selected.items()) if ivs},
        tuple(events),
    )
    return dataset, SelectionReport(per_class)


def distribution_of_selection(
    dataset: ExcerptDataset,
    pseudolabels: Sequence[PredictedSegments],
) -> dict[str, float]:
    """Class share of pseudolabel time inside the selected excerpts."""
    if not dataset.intervals:
        raise ValueError("empty excerpt dataset")
    acc: dict[str, float] = {}
    for ps in pseudolabels:
        ivs = dataset.intervals.get(ps.sequence.track_id, ())
        for iv, lab in ps.sequence.segments:
            inside = _covered(ivs, iv)
            if inside > 0:
                cls = map_to_class(lab)
                acc[cls] = acc.get(cls, 0.0) + inside
    total = sum(acc.values())
    if total <= 0:
        raise ValueError("no pseudolabel time inside the selection")
    return {cls: acc[cls] / total for cls in sorted(acc, key=class_sort_key)}


def write_pseudolabels_jsonl(path: str | Path, pseudolabels: Iterable[PredictedSegments]) -> None:
    """One JSON object per line: track, start, end, label, confidence."""
    with open(path, "w", encoding="utf-8") as fh:
        for ps in pseudolabels:
            tid = ps.sequence.track_id
            for (iv, lab), conf in zip(ps.sequence.segments, ps.confidences):
                fh.write(json.dumps(
                    {
                        "track": tid,
                        "start": iv.start,
                        "end": iv.end,
                        "label": label_to_string(lab),
                        "confidence": conf,
                    },
                    sort_keys=True,
                ) + "\n")


_NUMBER = (int, float)  # json.loads gives exactly these types, so a bool is neither


def _type_error(rec: dict) -> ValueError:
    """The error naming the first field of a pseudolabel record, known to
    hold one, whose JSON type is wrong."""
    key = next((key for key in ("track", "label") if type(rec[key]) is not str), None)
    if key is not None:
        return ValueError(f"{key} {json.dumps(rec[key])} is not a string")
    key = next(key for key in ("start", "end", "confidence") if type(rec[key]) not in _NUMBER)
    return ValueError(f"{key} {json.dumps(rec[key])} is not a number")


def read_pseudolabels_jsonl(path: str | Path) -> list[PredictedSegments]:
    """Read pseudolabels back, one PredictedSegments per track; malformed
    or non-UTF-8 input raises ``ValueError`` naming the file.  ``track``
    and ``label`` must be JSON strings, ``start``, ``end`` and
    ``confidence`` JSON numbers."""
    grouped: dict[str, list[tuple[Interval, ChordLabel, float, int]]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    tid, label = rec["track"], rec["label"]
                    start, end, confidence = rec["start"], rec["end"], rec["confidence"]
                    if not (type(tid) is type(label) is str and type(start) in _NUMBER
                            and type(end) in _NUMBER and type(confidence) in _NUMBER):
                        raise _type_error(rec)
                    confidence = float(confidence)
                    if not 0.0 <= confidence <= 1.0:
                        raise ValueError(f"confidence {confidence} outside [0, 1]")
                    interval = Interval(float(start), float(end))
                    entry = (interval, parse_chord_label(label), confidence, lineno)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
                grouped.setdefault(tid, []).append(entry)
    except UnicodeDecodeError as exc:
        # decoding runs ahead of the lines in buffered chunks, so no line can be named
        raise ValueError(f"{path}: {exc}") from None
    out = []
    for tid, entries in grouped.items():
        entries.sort(key=lambda e: e[0].start)
        for (a, _, _, line_a), (b, _, _, line_b) in zip(entries, entries[1:]):
            if b.start < a.end:
                raise ValueError(f"{path}, lines {line_a} and {line_b}: overlapping segments of track "
                                 f"{tid!r}: [{a.start}, {a.end}) and [{b.start}, {b.end})")
        seq = TimedLabelSequence(tid, tuple((iv, lab) for iv, lab, _, _ in entries))
        out.append(PredictedSegments(seq, tuple(conf for _, _, conf, _ in entries)))
    return out


def write_excerpts_json(path: str | Path, dataset: ExcerptDataset) -> None:
    """Track to interval-list mapping as stable JSON."""
    payload = {
        "tracks": {
            tid: [[iv.start, iv.end] for iv in ivs]
            for tid, ivs in dataset.intervals.items()
        }
    }
    write_json(path, payload)


def write_selection_report_csv(path: str | Path, report: SelectionReport) -> None:
    rows = [
        [cls, f"{sel.desired_duration:.6f}", f"{sel.selected_duration:.6f}", sel.seeds_used,
         "true" if sel.shortfall else "false"]
        for cls, sel in report.per_class.items()
    ]
    write_csv(path, ["class", "desired_duration", "selected_duration", "seeds_used", "shortfall"], rows)
