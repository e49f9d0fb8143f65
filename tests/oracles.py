"""Independent reference implementations used to cross-check the library.

Nothing in this module may reuse the code paths it is meant to check:
the metric oracle samples time on a fixed 10 ms grid instead of sweeping
segment boundaries, and the gradient oracle uses central finite
differences instead of the analytic formula, and the template oracle
decodes a chroma frame by brute-force search over every rooted template.
The frame-target oracle walks the frames one at a time instead of
slicing whole segments and finds each target by its label's name in
``MODEL_CLASSES``; the class-weight oracle parses every output's name;
and the trainer oracle takes each pass over the
whole batch at once in fresh arrays, on one thread, and sums the weight
step's block products ``grad[a:b].T @ x[a:b]`` in a plain loop.  The
corpus oracle draws each chord's class with ``Generator.choice`` and
renders each segment as a fresh tiled template plus a noise block, and
the corpus CSV oracle formats every value of a track with one ``%`` call.
Label-to-class reduction, the batch objective, the templates and the
per-track seed are shared with the library on purpose; the duration
arithmetic, the frame assignment, the training loop and the order of
the corpus draws are what gets verified here.
"""

from __future__ import annotations

import numpy as np

from chordbalance import focal
from chordbalance.annotations import Interval, TimedLabelSequence
from chordbalance.augment import derive_seed
from chordbalance.chords import (
    NO_CHORD,
    PITCH_NAMES,
    REPRESENTATIVE_QUALITY,
    ChordLabel,
    map_to_class,
    parse_chord_label,
)
from chordbalance.student import _BLOCK_ROWS, MODEL_CLASSES, N_CHROMA, FeatureTrack, init_model
from chordbalance.synth import CHORD_CLASS_INTERVALS, chord_template, no_chord_template

STEP = 0.01


def _spans(sequence):
    return [(iv.start, iv.end, map_to_class(lab)) for iv, lab in sequence.segments]


def sampled_per_class(pred, ref, step=STEP):
    """Per-class (reference seconds, matched seconds) by midpoint sampling.

    Every 10 ms cell whose midpoint falls inside a reference segment
    contributes one step of reference time to that segment's class
    (X-class reference is skipped), and one step of matched time when
    the prediction at the same instant carries the same class.
    """
    if not ref.segments:
        return {}, {}
    pred_spans = _spans(pred)
    ref_spans = _spans(ref)
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


def sampled_csr(pred, ref, step=STEP):
    totals, matched = sampled_per_class(pred, ref, step)
    total = sum(totals.values())
    if total <= 0:
        raise ValueError("oracle: empty reference")
    return sum(matched.values()) / total


def sampled_matched(pred, ref, step=STEP):
    _, matched = sampled_per_class(pred, ref, step)
    return sum(matched.values())


def sampled_corpus_scores(pairs, step=STEP):
    """(wcsr, acqa, per-class score dict) for a corpus of (pred, ref) pairs."""
    totals: dict[str, float] = {}
    matched: dict[str, float] = {}
    for pred, ref in pairs:
        t, m = sampled_per_class(pred, ref, step)
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


def generate_corpus(spec):
    """The corpus of ``spec``, one ``rng.choice`` and one tiled block per segment."""
    classes = sorted(spec.class_distribution)
    shares = np.asarray([spec.class_distribution[c] for c in classes])
    shares = shares / shares.sum()
    fps = spec.frame_rate
    corpus = []
    for i in range(spec.n_tracks):
        tid = f"{spec.track_prefix}-{i:04d}"
        rng = np.random.default_rng(derive_seed(spec.seed, tid))
        n_frames = max(1, round(rng.uniform(*spec.track_length_range) * fps))
        frames = np.empty((n_frames, N_CHROMA))
        segments = []
        pos = 0
        while pos < n_frames:
            cls = classes[int(rng.choice(len(classes), p=shares))]
            dur = max(1, round(rng.uniform(*spec.chord_duration_range) * fps))
            end = min(pos + dur, n_frames)
            root = int(rng.integers(N_CHROMA)) if cls != "N" else 0
            template = no_chord_template() if cls == "N" else chord_template(cls, root)
            block = np.tile(template, (end - pos, 1))
            if spec.noise_sigma > 0:
                block = block + rng.normal(0.0, spec.noise_sigma, block.shape)
            frames[pos:end] = block
            label = NO_CHORD if cls == "N" else ChordLabel("chord", root, REPRESENTATIVE_QUALITY[cls])
            segments.append((Interval(pos / fps, end / fps), label))
            pos = end
        corpus.append((FeatureTrack(tid, frames, fps), TimedLabelSequence(tid, tuple(segments))))
    return corpus


def csv_bytes(frames):
    """The bytes of ``np.savetxt(frames, fmt="%.9f", delimiter=",")``."""
    row = ",".join(["%.9f"] * frames.shape[1]) + "\n"
    return (row * len(frames) % tuple(frames.ravel().tolist())).encode("ascii")


def model_output(label):
    """Index in ``MODEL_CLASSES`` of the rooted class name of a label, else of N."""
    cls = map_to_class(label)
    if not label.is_chord or cls in ("N", "X"):
        return MODEL_CLASSES.index("N")
    return MODEL_CLASSES.index(f"{PITCH_NAMES[label.root]}:{REPRESENTATIVE_QUALITY[cls]}")


def frame_targets(track, labels):
    """Target output index per frame, assigning one frame midpoint at a time."""
    targets = np.full(len(track), MODEL_CLASSES.index("N"), dtype=int)
    segs = labels.segments
    si = 0
    for fi, t in enumerate(track.frame_times()):
        while si < len(segs) and segs[si][0].end <= t:
            si += 1
        if si < len(segs) and segs[si][0].start <= t:
            targets[fi] = model_output(segs[si][1])
    return targets


def class_weight_vector(weights):
    """Per-output loss weight, from the chord class of each parsed output name."""
    return np.asarray([weights.get(map_to_class(parse_chord_label(name)), 1.0) for name in MODEL_CLASSES])


def _softmax(z):
    """Softmax down axis 0 of (classes, frames) logits, returned as (frames, classes) rows."""
    shifted = z - z.max(axis=0)
    e = np.exp(shifted)
    return (e / e.sum(axis=0)).T


def train(corpus, params, validation=None, dtype=np.float64):
    """(weights, train losses, validation losses, final loss) of the allocating loop.

    Full-batch gradient descent with the same init, objective, early
    stopping and best-weight restore as ``student.train``.  Every pass
    runs in ``dtype``: inputs, frame weights and a copy of the weights
    are cast to it.  The weight step sums the gradient products of
    ``student._BLOCK_ROWS`` frames at a time in float64, in block order.
    """
    wvec = class_weight_vector(params.class_weights) if params.class_weights is not None else None
    gamma = params.gamma if params.loss == "focal" else 0.0

    def design(tracks):
        features = np.vstack([track.frames for track, _ in tracks])
        x = np.hstack([features, np.ones((features.shape[0], 1))]).astype(dtype)
        y = np.concatenate([frame_targets(track, labels) for track, labels in tracks])
        return x, y, wvec[y].astype(dtype) if wvec is not None else None

    def loss_and_grad(w, x, y, frame_w):
        return focal.loss_and_logit_grad(_softmax(w.astype(dtype) @ x.T), y, gamma, frame_w)

    def step(grad, x):
        total = np.zeros((len(MODEL_CLASSES), N_CHROMA + 1))
        for a in range(0, len(x), _BLOCK_ROWS):
            total += grad[a:a + _BLOCK_ROWS].T @ x[a:a + _BLOCK_ROWS]
        return total

    x, y, frame_w = design(corpus)
    n = x.shape[0]
    use_val = bool(validation) and params.patience is not None
    if use_val:
        vx, vy, vframe_w = design(validation)

    w = init_model(params).weights
    train_losses, val_losses = [], []
    best_val, best_w, stale = np.inf, None, 0
    for _ in range(params.epochs):
        loss, grad = loss_and_grad(w, x, y, frame_w)
        train_losses.append(loss)
        w = w - params.learning_rate * step(grad, x) / n
        if use_val:
            vloss = loss_and_grad(w, vx, vy, vframe_w)[0]
            val_losses.append(vloss)
            if vloss < best_val:
                best_val, best_w, stale = vloss, w.copy(), 0
            else:
                stale += 1
                if stale >= params.patience:
                    break
    if best_w is not None:
        w = best_w
    final_loss = loss_and_grad(w, x, y, frame_w)[0]
    return w, train_losses, val_losses if use_val else None, final_loss
