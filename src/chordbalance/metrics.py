"""Duration-weighted chord recognition scores.

The chord symbol recall of one track is the fraction of in-vocabulary
reference time whose predicted class matches the reference class:

    CSR_i = |matched time| / |reference time|

Corpus scores weight tracks by reference duration (WCSR), or restrict
the same ratio to the reference time of a single chord class (per-class
score).  The class-quality average is the unweighted mean of the
per-class scores over the classes present in the reference; it moves
when rare classes move, which corpus-level WCSR barely registers because
a couple of classes dominate annotated corpora.

Note on comparability: published corpus-average figures depend on which
class set enters the average.  Here the average always runs over exactly
the classes present in the reference, so averaging a per-class table by
hand reproduces reported values only when the class sets coincide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ._config import json_text, write_csv, write_json
from .annotations import TimedLabelSequence, per_class_overlap
from .chords import CHORD_CLASSES, map_to_class

__all__ = [
    "MetricsReport",
    "TrackPair",
    "class_sort_key",
    "compute_report",
    "type_distribution",
    "write_per_type_csv",
    "write_report_json",
]


def class_sort_key(cls: str) -> tuple[int, str]:
    """Canonical vocabulary order, unknown names last alphabetically."""
    try:
        return (CHORD_CLASSES.index(cls), cls)
    except ValueError:
        return (len(CHORD_CLASSES), cls)


@dataclass(frozen=True)
class TrackPair:
    """Prediction and reference for the same track."""

    pred: TimedLabelSequence
    ref: TimedLabelSequence

    def __post_init__(self) -> None:
        if self.pred.track_id != self.ref.track_id:
            raise ValueError(
                f"track mismatch: prediction {self.pred.track_id!r} vs reference {self.ref.track_id!r}"
            )


def type_distribution(sequences: Iterable[TimedLabelSequence]) -> dict[str, float]:
    """Share of in-vocabulary annotated time per chord class.

    X time is excluded; N counts like any class.  Shares sum to 1.
    """
    durations: dict[str, float] = {}
    for seq in sequences:
        for iv, lab in seq.segments:
            cls = map_to_class(lab)
            if cls == "X":
                continue
            durations[cls] = durations.get(cls, 0.0) + iv.duration
    total = sum(durations.values())
    if total <= 0:
        raise ValueError("no in-vocabulary annotated duration")
    return {
        cls: durations[cls] / total
        for cls in sorted(durations, key=class_sort_key)
    }


@dataclass
class MetricsReport:
    """Corpus evaluation summary: WCSR, class-quality average, per-class table."""

    wcsr: float
    acqa: float
    per_type: dict[str, float]
    distribution: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Stable serialization: sorted keys, fixed indentation."""
        return json_text(self.to_dict())

    def per_type_rows(self) -> list[tuple[str, float, float]]:
        """(class, reference share, per-class score) rows in canonical order."""
        classes = sorted(set(self.per_type) | set(self.distribution), key=class_sort_key)
        return [
            (cls, self.distribution.get(cls, 0.0), self.per_type.get(cls, 0.0))
            for cls in classes
        ]


def compute_report(pairs: Sequence[TrackPair]) -> MetricsReport:
    """Evaluate a corpus of track pairs into a single report: the one scorer.

    Reference and matched seconds are summed per class over the pairs in
    order.  WCSR is matched over reference seconds summed over all
    classes; a class's score is the same ratio within the class; the
    class-quality average is the unweighted mean of the scores of the
    classes with reference time, so absent classes do not drag it down
    as zeros.

    Raises
    ------
    ValueError
        If no reference time lies outside class X.
    """
    totals: dict[str, float] = {}
    matched: dict[str, float] = {}
    for pair in pairs:
        for cls, (total, match) in per_class_overlap(pair.pred, pair.ref).items():
            totals[cls] = totals.get(cls, 0.0) + total
            matched[cls] = matched.get(cls, 0.0) + match
    reference = sum(totals.values())
    if reference <= 0:
        raise ValueError("no scoreable reference duration in corpus")
    per_type = {cls: matched[cls] / totals[cls]
                for cls in sorted(totals, key=class_sort_key) if totals[cls] > 0}
    return MetricsReport(
        wcsr=sum(matched.values()) / reference,
        acqa=sum(per_type.values()) / len(per_type),
        per_type=per_type,
        distribution=type_distribution(pair.ref for pair in pairs),
    )


def write_report_json(path: str | Path, report: MetricsReport) -> None:
    write_json(path, report.to_dict())


def write_per_type_csv(path: str | Path, report: MetricsReport) -> None:
    """Per-class table: one row per class, reference share and score columns."""
    write_csv(path, ["class", "reference_share", "score"],
              [[cls, f"{share:.6f}", f"{score:.6f}"] for cls, share, score in report.per_type_rows()])

