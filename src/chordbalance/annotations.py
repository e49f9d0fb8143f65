"""Timed chord annotations: .lab I/O, interval algebra and overlap scoring.

A ``.lab`` file holds one segment per line as ``start end label`` with
times in seconds.  Segments are half-open intervals ``[start, end)``;
two segments may touch but never overlap.  All interval comparisons are
exact float comparisons, there is no epsilon anywhere in this module.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .chords import (
    ChordLabel,
    ChordParseError,
    label_to_string,
    map_to_class,
    parse_chord_label,
)

__all__ = [
    "Interval",
    "LabFormatError",
    "TimedLabelSequence",
    "merge_intervals",
    "per_class_overlap",
    "read_lab",
    "read_lab_file",
    "write_lab",
    "write_lab_file",
]


class LabFormatError(ValueError):
    """Malformed .lab content; the message names the 1-based line, after the file from read_lab_file."""


_INF = math.inf
_new_tuple = tuple.__new__


def _interval_error(start, end) -> ValueError:
    """Why ``(start, end)`` fails ``0 <= start < end < inf``."""
    if not (math.isfinite(start) and math.isfinite(end)):
        return ValueError(f"non-finite interval ({start}, {end})")
    if start < 0:
        return ValueError(f"negative interval start {start}")
    return ValueError(f"empty or inverted interval [{start}, {end})")


class Interval(namedtuple("Interval", ("start", "end"))):
    """Half-open time span [start, end) in seconds, end > start >= 0.

    An immutable tuple, so it equals, hashes, sorts and unpacks like
    ``(start, end)``.  Every way of building one validates: the
    constructor, ``_make``, ``_replace``, pickle and ``copy``.
    """

    __slots__ = ()

    def __new__(cls, start: float, end: float) -> Interval:
        if not 0.0 <= start < end < _INF:
            raise _interval_error(start, end)
        return _new_tuple(cls, (start, end))

    @classmethod
    def _make(cls, iterable) -> Interval:
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TimedLabelSequence:
    """Sorted, non-overlapping labelled segments of one track."""

    track_id: str
    segments: tuple[tuple[Interval, ChordLabel], ...] = ()

    def __post_init__(self) -> None:
        for (a, _), (b, _) in zip(self.segments, self.segments[1:]):
            if b.start < a.start:
                raise ValueError(f"segments of {self.track_id!r} are not sorted")
            if b.start < a.end:
                raise ValueError(
                    f"overlapping segments in {self.track_id!r}: "
                    f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                )

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def span(self) -> float:
        """Annotated span: segment durations plus interior gaps."""
        if not self.segments:
            return 0.0
        return self.segments[-1][0].end - self.segments[0][0].start

    @property
    def end(self) -> float:
        return self.segments[-1][0].end if self.segments else 0.0


def read_lab(text: str, track_id: str) -> TimedLabelSequence:
    """Parse .lab content into a validated sequence.

    Blank lines and ``#`` comments are skipped.  Errors (non-numeric
    times, end <= start, overlapping segments, unparseable labels) raise
    :class:`LabFormatError` naming the 1-based line number.
    """
    # (start, end, line, interval, label): line numbers are unique, so plain
    # tuple order sorts by time with file order breaking ties
    entries: list[tuple[float, float, int, Interval, ChordLabel]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(maxsplit=2)
        if len(fields) != 3:
            raise LabFormatError(f"line {lineno}: expected 'start end label', got {raw!r}")
        t0, t1 = fields[0], fields[1]
        try:
            start, end = float(t0), float(t1)
            # float() also reads digit separators and non-ASCII digits
            numeric = "_" not in t0 and "_" not in t1 and t0.isascii() and t1.isascii()
        except ValueError:
            numeric = False
        if not numeric:
            raise LabFormatError(f"line {lineno}: non-numeric time in {raw!r}")
        try:
            interval = Interval(start, end)
        except ValueError as exc:
            raise LabFormatError(f"line {lineno}: {exc}") from None
        try:
            label = parse_chord_label(fields[2])
        except ChordParseError as exc:
            raise LabFormatError(f"line {lineno}: {exc}") from None
        entries.append((start, end, lineno, interval, label))

    entries.sort()
    for (_, _, _, a, _), (_, _, lineno, b, _) in zip(entries, entries[1:]):
        if b.start < a.end:
            raise LabFormatError(
                f"line {lineno}: segment [{b.start:g}, {b.end:g}) overlaps [{a.start:g}, {a.end:g})"
            )
    return TimedLabelSequence(track_id, tuple((iv, lab) for _, _, _, iv, lab in entries))


def write_lab(sequence: TimedLabelSequence) -> str:
    """Render a sequence as .lab text with %.6f times."""
    lines = [
        f"{iv.start:.6f}\t{iv.end:.6f}\t{label_to_string(label)}"
        for iv, label in sequence.segments
    ]
    return "".join(line + "\n" for line in lines)


def read_lab_file(path: str | Path, track_id: str | None = None) -> TimedLabelSequence:
    """Read a .lab file; a malformed or non-UTF-8 file raises :class:`LabFormatError` naming it."""
    path = Path(path)
    try:
        return read_lab(path.read_text("utf-8"), track_id if track_id is not None else path.stem)
    except (LabFormatError, UnicodeDecodeError) as exc:
        raise LabFormatError(f"{path}: {exc}") from None


def write_lab_file(path: str | Path, sequence: TimedLabelSequence) -> None:
    Path(path).write_text(write_lab(sequence), "utf-8")


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Union a set of intervals into a minimal sorted disjoint list.

    Touching intervals coalesce: [0, 1) and [1, 2) merge into [0, 2).
    """
    merged: list[Interval] = []
    for iv in sorted(intervals):
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, iv.end)
        else:
            merged.append(iv)
    return merged


def per_class_overlap(pred: TimedLabelSequence, ref: TimedLabelSequence) -> dict[str, tuple[float, float]]:
    """Per reference class: (reference duration, correctly labelled duration).

    Scoring is restricted to time covered by the reference.  Reference
    segments mapping to X are out of vocabulary and excluded entirely;
    gaps in the predictions simply count as unmatched time.  Computed by
    an exact boundary sweep over both segment lists.
    """
    pred_spans = [(iv.start, iv.end, map_to_class(lab)) for iv, lab in pred.segments]
    totals: dict[str, float] = {}
    matched: dict[str, float] = {}
    i = 0
    for iv, lab in ref.segments:
        ref_cls = map_to_class(lab)
        if ref_cls == "X":
            continue
        totals[ref_cls] = totals.get(ref_cls, 0.0) + iv.duration
        while i < len(pred_spans) and pred_spans[i][1] <= iv.start:
            i += 1
        j = i
        while j < len(pred_spans) and pred_spans[j][0] < iv.end:
            ps, pe, pred_cls = pred_spans[j]
            if pred_cls == ref_cls:
                matched[ref_cls] = matched.get(ref_cls, 0.0) + (min(pe, iv.end) - max(ps, iv.start))
            j += 1
    return {cls: (totals[cls], matched.get(cls, 0.0)) for cls in totals}

