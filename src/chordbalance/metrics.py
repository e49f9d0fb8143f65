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

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .annotations import TimedLabelSequence, per_class_overlap
from .chords import CHORD_CLASSES, map_to_class

__all__ = [
    "MetricsReport",
    "PerTypeLedger",
    "TrackPair",
    "acqa",
    "class_sort_key",
    "compute_report",
    "csr",
    "type_distribution",
    "wcsr",
    "wcsr_per_type",
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


@dataclass
class PerTypeLedger:
    """Reference and matched seconds accumulated per chord class."""

    totals: dict[str, float] = field(default_factory=dict)
    matched: dict[str, float] = field(default_factory=dict)

    def scores(self) -> dict[str, float]:
        """Per-class score for every class with reference time."""
        return {
            cls: self.matched.get(cls, 0.0) / dur
            for cls, dur in sorted(self.totals.items(), key=lambda kv: class_sort_key(kv[0]))
            if dur > 0
        }

    def recall(self) -> float:
        """Matched over reference seconds, summed over all classes."""
        total = sum(self.totals.values())
        if total <= 0:
            raise ValueError("no scoreable reference duration in corpus")
        return sum(self.matched.values()) / total


def wcsr_per_type(pairs: Iterable[TrackPair]) -> PerTypeLedger:
    """Accumulate the per-class ledger over a corpus of track pairs.

    Every corpus score reads this ledger; it is the one caller of
    :func:`per_class_overlap`.
    """
    ledger = PerTypeLedger()
    for pair in pairs:
        for cls, (total, match) in per_class_overlap(pair.pred, pair.ref).items():
            ledger.totals[cls] = ledger.totals.get(cls, 0.0) + total
            ledger.matched[cls] = ledger.matched.get(cls, 0.0) + match
    return ledger


def csr(pair: TrackPair) -> float:
    """Chord symbol recall of a single track, in [0, 1].

    Raises
    ------
    ValueError
        If the reference has no in-vocabulary duration.
    """
    ledger = wcsr_per_type([pair])
    try:
        return ledger.recall()
    except ValueError:
        raise ValueError(f"empty reference for track {pair.ref.track_id!r}") from None


def wcsr(pairs: Iterable[TrackPair]) -> float:
    """Reference-duration weighted CSR over a corpus of track pairs."""
    return wcsr_per_type(pairs).recall()


def acqa(ledger: PerTypeLedger) -> float:
    """Unweighted mean of per-class scores over classes present.

    Classes with zero reference duration stay out of the average rather
    than dragging it down as zeros.
    """
    scores = ledger.scores()
    if not scores:
        raise ValueError("no chord class has reference duration")
    return sum(scores.values()) / len(scores)


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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def per_type_rows(self) -> list[tuple[str, float, float]]:
        """(class, reference share, per-class score) rows in canonical order."""
        classes = sorted(set(self.per_type) | set(self.distribution), key=class_sort_key)
        return [
            (cls, self.distribution.get(cls, 0.0), self.per_type.get(cls, 0.0))
            for cls in classes
        ]


def compute_report(pairs: Sequence[TrackPair]) -> MetricsReport:
    """Evaluate a corpus of track pairs into a single report."""
    ledger = wcsr_per_type(pairs)
    return MetricsReport(
        wcsr=ledger.recall(),
        acqa=acqa(ledger),
        per_type=ledger.scores(),
        distribution=type_distribution(pair.ref for pair in pairs),
    )


def write_report_json(path: str | Path, report: MetricsReport) -> None:
    Path(path).write_text(report.to_json(), "utf-8")


def write_per_type_csv(path: str | Path, report: MetricsReport) -> None:
    """Per-class table: one row per class, reference share and score columns."""
    _write_csv(path, ["class", "reference_share", "score"],
               [[cls, f"{share:.6f}", f"{score:.6f}"] for cls, share, score in report.per_type_rows()])


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """The one CSV writer of the package: a header row, then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
