"""Independent reference implementations used to cross-check the library.

Nothing in this module may reuse the code paths it is meant to check:
the metric oracle samples time on a fixed 10 ms grid instead of sweeping
segment boundaries, and the gradient oracle uses central finite
differences instead of the analytic formula, and the template oracle
decodes a chroma frame by brute-force search over every rooted template.
Label-to-class reduction is shared with the library on purpose; the
duration arithmetic is what gets verified here.
"""

from __future__ import annotations

import numpy as np

from chordbalance.chords import CHORD_CLASSES, map_to_class
from chordbalance.student import N_CHROMA
from chordbalance.synth import CHORD_CLASS_INTERVALS, chord_template, no_chord_template

STEP = 0.01


def _spans(sequence, vocabulary):
    return [(iv.start, iv.end, map_to_class(lab, vocabulary)) for iv, lab in sequence.segments]


def sampled_per_class(pred, ref, vocabulary=CHORD_CLASSES, step=STEP):
    """Per-class (reference seconds, matched seconds) by midpoint sampling.

    Every 10 ms cell whose midpoint falls inside a reference segment
    contributes one step of reference time to that segment's class
    (X-class reference is skipped), and one step of matched time when
    the prediction at the same instant carries the same class.
    """
    if not ref.segments:
        return {}, {}
    pred_spans = _spans(pred, vocabulary)
    ref_spans = _spans(ref, vocabulary)
    end = ref.segments[-1][0].end
    totals: dict[str, float] = {}
    matched: dict[str, float] = {}
    pi = ri = 0
    for j in range(int(round(end / step))):
        t = (j + 0.5) * step
        while ri < len(ref_spans) and ref_spans[ri][1] <= t:
            ri += 1
        if ri >= len(ref_spans) or ref_spans[ri][0] > t:
            continue
        ref_cls = ref_spans[ri][2]
        if ref_cls == "X":
            continue
        totals[ref_cls] = totals.get(ref_cls, 0.0) + step
        while pi < len(pred_spans) and pred_spans[pi][1] <= t:
            pi += 1
        if pi < len(pred_spans) and pred_spans[pi][0] <= t and pred_spans[pi][2] == ref_cls:
            matched[ref_cls] = matched.get(ref_cls, 0.0) + step
    return totals, matched


def sampled_csr(pred, ref, vocabulary=CHORD_CLASSES, step=STEP):
    totals, matched = sampled_per_class(pred, ref, vocabulary, step)
    total = sum(totals.values())
    if total <= 0:
        raise ValueError("oracle: empty reference")
    return sum(matched.values()) / total


def sampled_matched(pred, ref, vocabulary=CHORD_CLASSES, step=STEP):
    _, matched = sampled_per_class(pred, ref, vocabulary, step)
    return sum(matched.values())


def sampled_corpus_scores(pairs, vocabulary=CHORD_CLASSES, step=STEP):
    """(wcsr, acqa, per-class score dict) for a corpus of (pred, ref) pairs."""
    totals: dict[str, float] = {}
    matched: dict[str, float] = {}
    for pred, ref in pairs:
        t, m = sampled_per_class(pred, ref, vocabulary, step)
        for cls, dur in t.items():
            totals[cls] = totals.get(cls, 0.0) + dur
        for cls, dur in m.items():
            matched[cls] = matched.get(cls, 0.0) + dur
    grand = sum(totals.values())
    if grand <= 0:
        raise ValueError("oracle: empty corpus")
    per_type = {cls: matched.get(cls, 0.0) / dur for cls, dur in totals.items() if dur > 0}
    wcsr = sum(matched.values()) / grand
    acqa = sum(per_type.values()) / len(per_type)
    return wcsr, acqa, per_type


def fd_gradient(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return grad


def nearest_template(frame):
    """(class, root) of the Euclidean-nearest template; root None for N."""
    frame = np.asarray(frame, dtype=float)
    best = ("N", None)
    best_dist = float(np.sum((frame - no_chord_template()) ** 2))
    for cls in CHORD_CLASS_INTERVALS:
        for root in range(N_CHROMA):
            dist = float(np.sum((frame - chord_template(cls, root)) ** 2))
            if dist < best_dist:
                best_dist = dist
                best = (cls, root)
    return best
