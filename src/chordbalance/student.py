"""Linear softmax chord-frame classifier used for self-training rounds.

The model is deliberately small: softmax regression over 12-dimensional
chroma frames with a bias term, trained by full-batch gradient descent.
That keeps every training run deterministic for a given seed and fast
enough to rerun many times, which is what the surrounding experiment
loop actually needs; the interesting behaviour lives in the data, not
the classifier.

Every frame pass runs in float32: training (logits, softmax, loss and
gradient of every frame) and posteriors, so pseudolabel confidences
too.  The weights stay float64, in memory and in saved models, and each
pass casts them once.  Loaded corpora hold float32 frames; a
:class:`FeatureTrack` keeps float32 or float64 frames as given.  Every
pass lays its logits out class-major, as (classes, frames), so each
softmax max and sum runs over the classes as whole vectors of frames.
A training pass cuts the frames into blocks, and one worker thread runs
all of a block's work, from its logits to its share of the weight
gradient, in one of the pass's block buffers, one per worker.

Prediction makes one frame decision, :func:`decide_frames`: the argmax
output of each frame, smoothed by a running median, and the posterior
of that output.  Its constant runs become segments, each with the mean
posterior over its frames as its confidence; :func:`predict_segments`
builds all of them, and a self-training round only those it reads.

The model's outputs are one fixed table, ``MODEL_CLASSES``: every
scoreable chord class at every root, rendered as a chord label ("C:maj"
... "B:hdim7"), then "N", because a linear model on raw chroma cannot be
root-invariant.  Mapping any output's label through the vocabulary
reduction recovers the plain chord class.  Training takes one output
per frame, and a pitch shift maps outputs by one table, ``_SHIFTED``.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

import numpy as np
# NumPy loads np.random, a dozen extension modules, on first use; load it
# with the package so that the first draw of a run does not pay for it.
import numpy.random

from . import focal
from ._config import JsonConfig, load_config, read_json, write_json
from .annotations import Interval, TimedLabelSequence
from .chords import (
    CHORD_CLASSES,
    PITCH_NAMES,
    REPRESENTATIVE_QUALITY,
    map_to_class,
    parse_chord_label,
    transpose,
)

__all__ = [
    "MODEL_CLASSES",
    "ClassifierModel",
    "FeatureTrack",
    "PredictedSegments",
    "TrainParams",
    "TrainResult",
    "decide_frames",
    "frame_runs",
    "frame_targets",
    "init_model",
    "load_model",
    "predict_segments",
    "run_segments",
    "save_model",
    "train",
]

N_CHROMA = 12
_INIT_SCALE = 0.01
# Frames per block of a training pass: a block of logits (109 x 2,048
# floats, 0.9 MiB) stays in L2 cache through its softmax, loss and gradient.
_BLOCK_ROWS = 2048
# Every per-frame array of a training or posterior pass; the master weights stay float64.
_PASS_DTYPE = np.float32


@dataclass
class FeatureTrack:
    """Chroma frames of one track at a fixed frame rate; float32 frames stay float32, others float64."""

    track_id: str
    frames: np.ndarray
    frame_rate: float = 10.0

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames)
        self.frames = frames if frames.dtype in (np.float32, np.float64) else frames.astype(float)
        if self.frames.ndim != 2 or self.frames.shape[1] != N_CHROMA:
            raise ValueError(f"frames must have shape (n, {N_CHROMA}), got {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise ValueError(f"non-finite feature values in track {self.track_id!r}")
        if not self.frame_rate > 0:
            raise ValueError(f"frame rate must be positive, got {self.frame_rate}")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def duration(self) -> float:
        return self.frames.shape[0] / self.frame_rate

    def frame_times(self) -> np.ndarray:
        """Frame midpoints in seconds."""
        return (np.arange(self.frames.shape[0]) + 0.5) / self.frame_rate


# The model outputs: every scoreable chord class at every root, then N
# (9 x 12 + 1 = 109), with the parsed label of each and the output index
# of each (chord class, root) pair, keyed in output order.
MODEL_CLASSES = tuple(
    f"{root}:{REPRESENTATIVE_QUALITY[cls]}"
    for cls in CHORD_CLASSES if cls not in ("N", "X")
    for root in PITCH_NAMES
) + ("N",)
_OUTPUT_LABELS = tuple(parse_chord_label(name) for name in MODEL_CLASSES)
_OUTPUT_OF = {(map_to_class(label), label.root): i for i, label in enumerate(_OUTPUT_LABELS)}
_N_OUTPUT = _OUTPUT_OF[("N", None)]


@dataclass
class TrainParams(JsonConfig):
    """Gradient descent settings; the seed fixes the weight init."""

    learning_rate: float = 1.0
    epochs: int = 200
    seed: int = 0
    loss: str = "cross_entropy"
    gamma: float = 2.0
    class_weights: dict[str, float] | None = None
    patience: int | None = None

    def __post_init__(self) -> None:
        if self.loss not in ("cross_entropy", "focal"):
            raise ValueError(f"unknown loss kind {self.loss!r}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        for cls, w in (self.class_weights or {}).items():
            if cls not in CHORD_CLASSES or cls == "X":
                raise ValueError(f"class weight for unknown class {cls!r}; "
                                 f"classes are {', '.join(c for c in CHORD_CLASSES if c != 'X')}")
            if not (w >= 0 and math.isfinite(w)):
                raise ValueError(f"class weight for {cls!r} must be finite and >= 0, got {w}")


@dataclass
class ClassifierModel:
    """Softmax regression weights, one row per output in ``MODEL_CLASSES``."""

    weights: np.ndarray  # (109, 13), bias in the last column
    params: TrainParams = field(default_factory=TrainParams)
    classes: ClassVar[tuple[str, ...]] = MODEL_CLASSES

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(MODEL_CLASSES), N_CHROMA + 1):
            raise ValueError(
                f"weights must have shape ({len(MODEL_CLASSES)}, {N_CHROMA + 1}), got {self.weights.shape}"
            )
        if not np.isfinite(self.weights).all():
            raise ValueError("non-finite model weights")

    def posteriors(self, frames: np.ndarray) -> np.ndarray:
        """(frames, classes) softmax rows of a float32 pass, a view of the class-major array."""
        w = self.weights.astype(_PASS_DTYPE)
        z = w[:, :N_CHROMA] @ np.asarray(frames, dtype=_PASS_DTYPE).T
        z += w[:, N_CHROMA:]
        return _class_softmax(z).T


@dataclass
class TrainResult:
    model: ClassifierModel
    final_loss: float
    epochs_run: int
    train_losses: list[float]
    val_losses: list[float] | None
    clamps: int  # probability-floor clamps over every pass of the call


@dataclass(frozen=True)
class PredictedSegments:
    """Constant-label segments with one confidence value per segment."""

    sequence: TimedLabelSequence
    confidences: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.confidences) != len(self.sequence.segments):
            raise ValueError("one confidence per segment required")
        for c in self.confidences:
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"confidence {c} outside [0, 1]")


def _class_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of class-major (classes, frames) logits, down each column, in place.

    The max and the sum run over the classes as whole rows of frames.
    """
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def _workers(blocks: int) -> int:
    """Threads for a pass: the CPUs this process may run on, at most one per block."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def _run_block(w, xT, y, weights, gamma, free, out, grad):
    """Clamp count of one block and, with ``grad``, its share of the weight gradient.

    The block borrows a buffer from the queue ``free`` for its
    (classes, frames) logits and returns it when done; the focal
    objective reads the logits' (frames, classes) view.
    """
    buf = free.get()
    try:
        z = buf[:len(MODEL_CLASSES) * xT.shape[1]].reshape(len(MODEL_CLASSES), xT.shape[1])
        clamps = focal.frame_losses(_class_softmax(np.matmul(w, xT, out=z)).T, y, gamma, weights, out, grad)
        return clamps, z @ xT.T if grad else None
    finally:
        free.put(buf)


def _blocked_pass(pool, w, xT, y, weights, gamma, free, losses, grad) -> tuple[float, int, np.ndarray | None]:
    """Mean focal loss of the frames of ``xT``, its clamp count and, with ``grad``, the weight gradient.

    The pass runs in the dtype of ``xT`` (features, frames), to which
    ``w`` is cast once.  Each block of frames runs wholly on a worker of
    ``pool``, in a buffer it borrows from ``free``, which holds one per
    worker.  The blocks' gradient shares are added in float64 in block
    order, so no byte depends on the worker count.
    """
    w = w.astype(xT.dtype)
    n = xT.shape[1]
    jobs = []
    for a in range(0, n, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, n)
        jobs.append(pool.submit(_run_block, w, xT[:, a:b], y[a:b], None if weights is None else weights[a:b],
                                gamma, free, losses[a:b], grad))
    clamps, shares = zip(*(job.result() for job in jobs))
    step = sum(shares, np.zeros(w.shape)) if grad else None
    return float(losses[:n].mean(dtype=np.float64)), sum(clamps), step


def init_model(params: TrainParams) -> ClassifierModel:
    """Seeded small-normal weight init; same seed, same weights, bitwise."""
    rng = np.random.default_rng(params.seed)
    return ClassifierModel(rng.normal(0.0, _INIT_SCALE, (len(MODEL_CLASSES), N_CHROMA + 1)), params)


def _model_class_of(label) -> int:
    """Model output index for a reference label; out of vocabulary folds to N."""
    return _OUTPUT_OF.get((map_to_class(label), label.root), _N_OUTPUT)


# _SHIFTED[k, i]: the output of output i's label transposed by k semitones.
_SHIFTED = np.array([[_model_class_of(transpose(label, k)) for label in _OUTPUT_LABELS] for k in range(12)])


def frame_targets(track: FeatureTrack, labels: TimedLabelSequence) -> np.ndarray:
    """Model output index per frame; uncovered frames fall to N.

    A frame belongs to the segment whose half-open span holds its
    midpoint; segments are sorted and disjoint, so each one covers a
    contiguous run of frames.
    """
    targets = np.full(len(track), _N_OUTPUT, dtype=int)
    times = track.frame_times()
    for iv, label in labels.segments:
        a, b = np.searchsorted(times, (iv.start, iv.end))
        targets[a:b] = _model_class_of(label)
    return targets


def _class_weight_vector(weights: dict[str, float] | None) -> np.ndarray | None:
    if weights is None:
        return None
    return np.asarray([weights.get(cls, 1.0) for cls, _root in _OUTPUT_OF], dtype=float)


def train(
    corpus: Sequence[tuple[FeatureTrack, np.ndarray]],
    params: TrainParams,
    validation: Sequence[tuple[FeatureTrack, np.ndarray]] | None = None,
) -> TrainResult:
    """Full-batch gradient descent on the mean per-frame loss.

    Each track comes with its targets, the ``MODEL_CLASSES`` index of
    each frame.  With ``params.patience`` set and a validation corpus
    given, training stops once the validation loss has not improved for
    that many epochs and the best-validation weights are restored.  Zero
    epochs return the freshly initialized model unchanged.  Each pass
    runs in float32; its weight step sums the blocks' float32 shares
    into float64.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    wvec = _class_weight_vector(params.class_weights)
    if wvec is not None:
        wvec = wvec.astype(_PASS_DTYPE)

    def design(tracks):
        """Inputs as (features, frames) with a bias row, targets and per-frame weights."""
        for track, targets in tracks:
            if len(targets) != len(track):
                raise ValueError(f"track {track.track_id!r} has {len(targets)} targets for {len(track)} frames")
        y = np.concatenate([targets for _, targets in tracks])
        if y.size and not 0 <= y.min() <= y.max() < len(MODEL_CLASSES):
            raise ValueError(f"targets must be output indices in [0, {len(MODEL_CLASSES)})")
        xT = np.ones((N_CHROMA + 1, len(y)), _PASS_DTYPE)
        np.concatenate([track.frames.T for track, _ in tracks], axis=1, out=xT[:N_CHROMA])
        return xT, y, wvec[y] if wvec is not None else None

    xT, y, frame_w = design(corpus)
    n = len(y)
    use_val = validation is not None and len(validation) > 0 and params.patience is not None
    if use_val:
        vxT, vy, vframe_w = design(validation)

    gamma = params.gamma if params.loss == "focal" else 0.0
    # Every pass shares one loss vector and one class-major block buffer
    # per worker: only the blocks the workers are running need one.
    rows = max(n, len(vy)) if use_val else n
    workers = _workers(-(-rows // _BLOCK_ROWS))
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(np.empty(len(MODEL_CLASSES) * min(rows, _BLOCK_ROWS), _PASS_DTYPE))
    losses = np.empty(rows, _PASS_DTYPE)

    w = init_model(params).weights
    train_losses: list[float] = []
    val_losses: list[float] = [] if use_val else None
    best_val = np.inf
    best_w = None
    best_epoch = 0
    stale = 0
    epochs_run = 0
    clamps = 0

    with ThreadPoolExecutor(workers) as pool:
        def mean_loss(w, xT, y, frame_w, grad=False):
            nonlocal clamps
            loss, count, step = _blocked_pass(pool, w, xT, y, frame_w, gamma, free, losses, grad)
            clamps += count
            return loss, step

        for epoch in range(params.epochs):
            loss, step = mean_loss(w, xT, y, frame_w, grad=True)
            train_losses.append(loss)
            w = w - params.learning_rate * step / n
            epochs_run = epoch + 1

            if use_val:
                vloss = mean_loss(w, vxT, vy, vframe_w)[0]
                val_losses.append(vloss)
                if vloss < best_val:
                    best_val = vloss
                    best_w = w.copy()
                    best_epoch = epochs_run
                    stale = 0
                else:
                    stale += 1
                    if stale >= params.patience:
                        break

        if use_val and best_w is not None:
            w = best_w
            epochs_run = best_epoch
        final_loss = mean_loss(w, xT, y, frame_w)[0]
    return TrainResult(ClassifierModel(w, params), final_loss, epochs_run, train_losses, val_losses, clamps)


def _running_median(idx: np.ndarray, window: int) -> np.ndarray:
    """Median of each ``window`` (odd) frames of ``idx`` centred on a frame.

    Past either end of the track the end frame repeats, as in
    ``scipy.ndimage.median_filter(idx, window, mode="nearest")``: the
    gather clips the window's frame indices to the track.
    """
    h = window // 2
    windows = idx.take(np.arange(len(idx))[:, None] + np.arange(-h, h + 1), mode="clip")
    windows.sort(axis=1)
    return windows[:, h]


def decide_frames(
    model: ClassifierModel,
    track: FeatureTrack,
    smoothing_window: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Model output index per frame and the posterior of that output.

    Per-frame argmax outputs, smoothed by an edge-padded running median
    over ``smoothing_window`` frames (odd, >= 1; 1 means no smoothing).
    The second array holds each frame's posterior of its smoothed output.
    """
    if len(track) == 0:
        raise ValueError(f"empty track {track.track_id!r}")
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ValueError(f"smoothing window must be odd and >= 1, got {smoothing_window}")
    probs = model.posteriors(track.frames)
    idx = np.argmax(probs, axis=1)
    if smoothing_window > 1:
        idx = _running_median(idx, smoothing_window)
    return idx, probs[np.arange(len(idx)), idx]


def frame_runs(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The constant runs of a frame array: their edges and the output of each.

    Run ``i`` spans frames ``edges[i]:edges[i + 1]``.
    """
    edges = np.concatenate(([0], np.flatnonzero(np.diff(outputs)) + 1, [len(outputs)]))
    return edges, outputs[edges[:-1]]


def run_segments(
    track_id: str,
    frame_rate: float,
    edges: np.ndarray,
    outputs: np.ndarray,
    emitted: np.ndarray,
    runs: Iterable[int],
    i0: int,
    i1: int,
) -> PredictedSegments:
    """The runs ``runs`` of :func:`frame_runs`, in order, as segments of frames ``i0:i1``.

    Each run is cut to those frames, with times from frame ``i0``, and
    keeps the whole run's confidence: the mean posterior of its output.
    """
    segments = []
    confidences = []
    for i in runs:
        a, b = int(edges[i]), int(edges[i + 1])
        segments.append((Interval(max(a, i0) / frame_rate - i0 / frame_rate,
                                  min(b, i1) / frame_rate - i0 / frame_rate), _OUTPUT_LABELS[outputs[i]]))
        confidences.append(min(max(float(emitted[a:b].sum()) / (b - a), 0.0), 1.0))
    return PredictedSegments(TimedLabelSequence(track_id, tuple(segments)), tuple(confidences))


def predict_segments(
    model: ClassifierModel,
    track: FeatureTrack,
    smoothing_window: int = 1,
) -> PredictedSegments:
    """Segment-level predictions for one track.

    The constant runs of :func:`decide_frames` become segments, each
    with the mean posterior of its output over its frames as its
    confidence.  The segments exactly tile [0, duration).
    """
    frame_outputs, emitted = decide_frames(model, track, smoothing_window)
    edges, outputs = frame_runs(frame_outputs)
    return run_segments(track.track_id, track.frame_rate, edges, outputs, emitted, range(len(outputs)),
                        0, len(track))


def save_model(model: ClassifierModel, path: str | Path) -> None:
    """JSON snapshot: class list, weights and training params."""
    payload = {
        "classes": list(MODEL_CLASSES),
        "weights": model.weights.tolist(),
        "params": model.params.to_dict(),
    }
    write_json(path, payload)


def load_model(path: str | Path) -> ClassifierModel:
    payload = read_json(path)
    if not isinstance(payload, dict) or not payload.keys() >= {"classes", "weights", "params"}:
        raise ValueError(f"{path}: a model file is a JSON object with classes, weights and params")
    if payload["classes"] != list(MODEL_CLASSES):
        raise ValueError(f"{path}: model classes are not the {len(MODEL_CLASSES)} outputs of MODEL_CLASSES")
    params = load_config(TrainParams, payload["params"], "model params", defaults={})
    return ClassifierModel(np.asarray(payload["weights"]), params)
