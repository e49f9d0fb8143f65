"""Linear softmax chord-frame classifier used for self-training rounds.

The model is deliberately small: softmax regression over 12-dimensional
chroma frames with a bias term, trained by full-batch gradient descent.
That keeps every training run deterministic for a given seed and fast
enough to rerun many times, which is what the surrounding experiment
loop actually needs; the interesting behaviour lives in the data, not
the classifier.

Training passes (logits, softmax, loss and gradient of every frame) run
in float32; the weights they update stay float64, and so do posteriors,
predictions and saved models.

The model's outputs are one fixed table, ``MODEL_CLASSES``: every
scoreable chord class at every root, rendered as a chord label ("C:maj"
... "B:hdim7"), then "N", because a linear model on raw chroma cannot be
root-invariant.  Mapping any output's label through the vocabulary
reduction recovers the plain chord class.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np
from scipy.ndimage import median_filter

from . import focal
from ._config import JsonConfig, load_config
from .annotations import Interval, TimedLabelSequence
from .chords import (
    CHORD_CLASSES,
    PITCH_NAMES,
    REPRESENTATIVE_QUALITY,
    map_to_class,
    parse_chord_label,
)

__all__ = [
    "MODEL_CLASSES",
    "ClassifierModel",
    "FeatureTrack",
    "PredictedSegments",
    "TrainParams",
    "TrainResult",
    "frame_targets",
    "init_model",
    "load_model",
    "predict_segments",
    "save_model",
    "train",
]

N_CHROMA = 12
_INIT_SCALE = 0.01
# Rows per block of a training pass: a block of logits (2,048 x 109
# floats, 0.9 MiB) stays in L2 cache through its softmax and loss.
_BLOCK_ROWS = 2048
# Every per-frame array of a training pass; the master weights stay float64.
_PASS_DTYPE = np.float32


@dataclass
class FeatureTrack:
    """Chroma frames of one track at a fixed frame rate."""

    track_id: str
    frames: np.ndarray
    frame_rate: float = 10.0

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=float)
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

    def logits(self, frames: np.ndarray) -> np.ndarray:
        x = np.asarray(frames, dtype=float)
        return x @ self.weights[:, :N_CHROMA].T + self.weights[:, N_CHROMA]

    def posteriors(self, frames: np.ndarray) -> np.ndarray:
        return _softmax(self.logits(frames))


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


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax computed in place: ``z`` is overwritten and returned."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _workers(blocks: int) -> int:
    """Threads for a pass: the CPUs this process may run on, at most one per block."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def _block_losses(z, y, gamma, weights, out, grad) -> int:
    return focal.frame_losses(_softmax(z), y, gamma, weights, out, grad)


def _blocked_pass(pool, w, x, y, weights, gamma, buf, losses, grad) -> tuple[float, int]:
    """Mean focal loss of the rows of ``x`` and its clamp count, in row blocks.

    The pass runs in the dtype of ``x``, to which ``w`` is cast once.
    This thread runs each block's product into ``buf`` and hands its
    softmax and per-frame losses to ``pool``, so BLAS runs here only,
    beside the workers.  Every row and the mean come out as in one
    unblocked pass; with ``grad``, ``buf`` then holds the logit gradient.
    """
    w = w.astype(x.dtype)
    jobs = []
    for a in range(0, len(x), _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, len(x))
        z = np.matmul(x[a:b], w.T, out=buf[a:b])
        jobs.append(pool.submit(_block_losses, z, y[a:b], gamma,
                                None if weights is None else weights[a:b], losses[a:b], grad))
    clamps = sum(job.result() for job in jobs)
    return float(losses[:len(x)].mean(dtype=np.float64)), clamps


def init_model(params: TrainParams) -> ClassifierModel:
    """Seeded small-normal weight init; same seed, same weights, bitwise."""
    rng = np.random.default_rng(params.seed)
    return ClassifierModel(rng.normal(0.0, _INIT_SCALE, (len(MODEL_CLASSES), N_CHROMA + 1)), params)


def _model_class_of(label) -> int:
    """Model output index for a reference label; out of vocabulary folds to N."""
    return _OUTPUT_OF.get((map_to_class(label), label.root), _N_OUTPUT)


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
    corpus: Sequence[tuple[FeatureTrack, TimedLabelSequence]],
    params: TrainParams,
    validation: Sequence[tuple[FeatureTrack, TimedLabelSequence]] | None = None,
) -> TrainResult:
    """Full-batch gradient descent on the mean per-frame loss.

    With ``params.patience`` set and a validation corpus given, training
    stops once the validation loss has not improved for that many epochs
    and the best-validation weights are restored.  Zero epochs return
    the freshly initialized model unchanged.  Each pass runs in float32
    and its weight step is widened to the float64 weights.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    wvec = _class_weight_vector(params.class_weights)
    if wvec is not None:
        wvec = wvec.astype(_PASS_DTYPE)

    def design(tracks):
        """Inputs with a bias column, targets and per-frame weights."""
        y = np.concatenate([frame_targets(track, labels) for track, labels in tracks])
        x = np.ones((len(y), N_CHROMA + 1), _PASS_DTYPE)
        np.concatenate([track.frames for track, _ in tracks], out=x[:, :N_CHROMA])
        return x, y, wvec[y] if wvec is not None else None

    x, y, frame_w = design(corpus)
    n = x.shape[0]
    use_val = validation is not None and len(validation) > 0 and params.patience is not None
    if use_val:
        vx, vy, vframe_w = design(validation)

    gamma = params.gamma if params.loss == "focal" else 0.0
    # Every pass shares one logit/gradient buffer and one loss vector.
    # x.T is laid out once: ``xT @ grad`` runs the step's product along its
    # long axis and is bit-equal to ``grad.T @ x`` at one BLAS thread.
    rows = max(n, len(vx)) if use_val else n
    buf, losses = np.empty((rows, len(MODEL_CLASSES)), _PASS_DTYPE), np.empty(rows, _PASS_DTYPE)
    xT = np.ascontiguousarray(x.T)

    w = init_model(params).weights
    train_losses: list[float] = []
    val_losses: list[float] = [] if use_val else None
    best_val = np.inf
    best_w = None
    best_epoch = 0
    stale = 0
    epochs_run = 0
    clamps = 0

    with ThreadPoolExecutor(_workers(-(-rows // _BLOCK_ROWS))) as pool:
        def mean_loss(w, x, y, frame_w, grad=False):
            nonlocal clamps
            loss, count = _blocked_pass(pool, w, x, y, frame_w, gamma, buf, losses, grad)
            clamps += count
            return loss

        for epoch in range(params.epochs):
            train_losses.append(mean_loss(w, x, y, frame_w, grad=True))
            step = (xT @ buf[:n]).T.astype(np.float64)
            w = w - params.learning_rate * step / n
            epochs_run = epoch + 1

            if use_val:
                vloss = mean_loss(w, vx, vy, vframe_w)
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
        final_loss = mean_loss(w, x, y, frame_w)
    focal._note_clamps(clamps)
    return TrainResult(ClassifierModel(w, params), final_loss, epochs_run, train_losses, val_losses, clamps)


def predict_segments(
    model: ClassifierModel,
    track: FeatureTrack,
    smoothing_window: int = 1,
) -> PredictedSegments:
    """Segment-level predictions for one track.

    Per-frame argmax labels, median-filtered over ``smoothing_window``
    frames (odd, >= 1; 1 means no smoothing), then constant runs become
    segments.  Segment confidence is the mean posterior of the emitted
    label over the segment's frames.  The segments exactly tile
    [0, duration).
    """
    if len(track) == 0:
        raise ValueError(f"empty track {track.track_id!r}")
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ValueError(f"smoothing window must be odd and >= 1, got {smoothing_window}")
    probs = model.posteriors(track.frames)
    idx = np.argmax(probs, axis=1)
    if smoothing_window > 1:
        idx = median_filter(idx, size=smoothing_window, mode="nearest")

    bounds = [0, *(int(b) for b in np.flatnonzero(np.diff(idx)) + 1), len(idx)]
    segments = []
    confidences = []
    rate = track.frame_rate
    for a, b in zip(bounds, bounds[1:]):
        cls = int(idx[a])
        segments.append((Interval(a / rate, b / rate), _OUTPUT_LABELS[cls]))
        confidences.append(float(np.clip(probs[a:b, cls].mean(), 0.0, 1.0)))
    sequence = TimedLabelSequence(track.track_id, tuple(segments))
    return PredictedSegments(sequence, tuple(confidences))


def save_model(model: ClassifierModel, path: str | Path) -> None:
    """JSON snapshot: class list, weights and training params."""
    payload = {
        "classes": list(MODEL_CLASSES),
        "weights": model.weights.tolist(),
        "params": model.params.to_dict(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", "utf-8")


def load_model(path: str | Path) -> ClassifierModel:
    payload = json.loads(Path(path).read_text("utf-8"))
    if not isinstance(payload, dict) or not payload.keys() >= {"classes", "weights", "params"}:
        raise ValueError(f"{path}: a model file is a JSON object with classes, weights and params")
    if payload["classes"] != list(MODEL_CLASSES):
        raise ValueError(f"{path}: model classes are not the {len(MODEL_CLASSES)} outputs of MODEL_CLASSES")
    params = load_config(TrainParams, payload["params"], "model params", defaults={})
    return ClassifierModel(np.asarray(payload["weights"]), params)
