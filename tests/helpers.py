"""Shared builders for randomized test data.

Sequences are built on an integer grid of hundredths of a second, so
segment boundaries are exact floats that never sit within rounding
distance of the 10 ms oracle's sample midpoints.
"""

from __future__ import annotations

import numpy as np

from chordbalance.annotations import Interval, TimedLabelSequence, per_class_overlap
from chordbalance.chords import NO_CHORD, REPRESENTATIVE_QUALITY, UNKNOWN, ChordLabel, map_to_class
from chordbalance.metrics import class_sort_key
from chordbalance.student import PredictedSegments, frame_targets

SCOREABLE = ("maj", "min", "7", "min7", "maj7", "dim", "hdim7", "aug", "sus", "N")


def chord(root, quality="maj", bass=None):
    """Rooted chord label."""
    return ChordLabel("chord", root, quality, bass)


def build_sequence(track_id, segments):
    """Sequence of ``segments`` sorted by start (then end) time, and validated."""
    ordered = sorted(segments, key=lambda seg: (seg[0].start, seg[0].end))
    return TimedLabelSequence(track_id, tuple(ordered))


def random_label(rng, classes=SCOREABLE, x_prob=0.0):
    """Random label of a random class; optionally an X with probability x_prob."""
    if x_prob and rng.random() < x_prob:
        return UNKNOWN
    cls = classes[int(rng.integers(len(classes)))]
    if cls == "N":
        return NO_CHORD
    return chord(int(rng.integers(12)), REPRESENTATIVE_QUALITY[cls])


def grid_sequence(rng, track_id, length_s, classes=SCOREABLE, x_prob=0.0,
                  gap_prob=0.0, min_hundredths=20, max_hundredths=400):
    """Gapless (or sparsely gapped) random sequence covering length_s seconds.

    All times are integer hundredths divided by 100, so they are exact
    and stable under float arithmetic.
    """
    total = int(round(length_s * 100))
    segments = []
    pos = 0
    while pos < total:
        span = int(rng.integers(min_hundredths, max_hundredths + 1))
        end = min(pos + span, total)
        if not (gap_prob and rng.random() < gap_prob):
            segments.append((
                Interval(pos / 100.0, end / 100.0),
                random_label(rng, classes, x_prob),
            ))
        pos = end
    return TimedLabelSequence(track_id, tuple(segments))


def random_pair(rng, track_id, length_s):
    """(pred, ref) sequences over the same span; pred may have gaps."""
    ref = grid_sequence(rng, track_id, length_s, x_prob=0.05)
    pred = grid_sequence(rng, track_id, length_s, gap_prob=0.1)
    return pred, ref


def pseudo_pool(rng, n_tracks, length_s, classes=SCOREABLE):
    """Seeded pseudolabel pool: per track, gapless segments with confidences."""
    pool = []
    durations = {}
    for i in range(n_tracks):
        tid = f"pool-{i:03d}"
        seq = grid_sequence(rng, tid, length_s, classes=classes)
        confs = tuple(float(c) for c in rng.uniform(0.2, 1.0, len(seq.segments)))
        pool.append(PredictedSegments(seq, confs))
        durations[tid] = length_s
    return pool, durations


def matched_duration(pred, ref):
    """Seconds on which prediction and reference agree at class level."""
    return sum(m for _, m in per_class_overlap(pred, ref).values())


def reference_duration(ref):
    """In-vocabulary reference duration (X segments excluded, N counts)."""
    return sum(iv.duration for iv, lab in ref.segments if map_to_class(lab) != "X")


def targets(corpus):
    """The (track, frame targets) pairs that ``train`` takes, from (track, labels) pairs."""
    return [(track, frame_targets(track, labels)) for track, labels in corpus]


def frame_accuracy(model, corpus):
    """Fraction of frames whose raw argmax matches the aligned target."""
    hits = 0
    total = 0
    for track, labels in corpus:
        y = frame_targets(track, labels)
        pred = model.posteriors(track.frames).argmax(axis=1)
        hits += int((pred == y).sum())
        total += len(y)
    if total == 0:
        raise ValueError("no frames to score")
    return hits / total


def distribution_of_selection(dataset, pseudolabels):
    """Class share of pseudolabel time inside the selected excerpts."""
    if not dataset.intervals:
        raise ValueError("empty excerpt dataset")
    acc = {}
    for ps in pseudolabels:
        excerpts = dataset.intervals.get(ps.sequence.track_id, ())
        for iv, lab in ps.sequence.segments:
            inside = sum(max(0.0, min(ex.end, iv.end) - max(ex.start, iv.start)) for ex in excerpts)
            if inside > 0:
                cls = map_to_class(lab)
                acc[cls] = acc.get(cls, 0.0) + inside
    total = sum(acc.values())
    if total <= 0:
        raise ValueError("no pseudolabel time inside the selection")
    return {cls: acc[cls] / total for cls in sorted(acc, key=class_sort_key)}
