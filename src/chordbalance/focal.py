"""Focal loss for per-frame chord class training.

For the probability ``p_t`` assigned to the true class, the focal loss
is ``(1 - p_t)^gamma * (-log p_t)``: the modulating factor shrinks the
contribution of already-confident frames, so gradient mass shifts toward
the hard (typically rare-class) frames.  Some write-ups print the
formula without the minus sign on the log; this module uses the standard
convention in which the loss is nonnegative and gamma = 0 degenerates to
plain cross-entropy.

:func:`frame_losses` is the training objective: per-frame loss and,
optionally, logit gradient of a block of rows, safe to run on several
blocks at once.  :func:`sequence_loss` applies it to validated
probabilities that come from outside and returns the mean loss.

True-class probabilities below a small floor are clamped before the log
and the clamp is counted, so silently broken inputs show as a count
instead of as NaN: :func:`frame_losses` returns it to its caller (the
trainer reports its own in ``TrainResult.clamps``), and
:func:`sequence_loss` adds it to :func:`clamp_count`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PROB_FLOOR",
    "clamp_count",
    "frame_losses",
    "reset_clamp_count",
    "sequence_loss",
]

PROB_FLOOR = 1e-12

_clamp_events = 0


def clamp_count() -> int:
    """Number of probability-floor clamps in :func:`sequence_loss` since the last reset."""
    return _clamp_events


def reset_clamp_count() -> None:
    global _clamp_events
    _clamp_events = 0


def frame_losses(probs: np.ndarray, y: np.ndarray, gamma: float,
                 weights: np.ndarray | None, out: np.ndarray, grad: bool = False) -> int:
    """Weighted focal loss of every frame and, with ``grad``, its logit gradient.

    ``probs`` (n_frames, n_classes) are softmax rows, not validated; ``y``
    the true class per frame; ``gamma`` >= 0, 0 being cross-entropy;
    ``weights`` an optional per-frame weight, usually the class weight of
    the frame's target.  ``out`` (n_frames,) receives ``w * FL(p_t)``.
    Every step runs in the dtype of ``probs``, float32 or float64, when
    ``weights`` and ``out`` share it.
    With ``grad``, each row of ``probs`` is overwritten with the gradient
    of its frame's weighted loss in the logits.  A frame clamped at the
    floor keeps, to about 1e-10, the gradient of its unclamped loss: its
    loss value is flat there, but its logits are still pulled toward the
    true class.

    Returns the number of clamped frames, for the caller to note: nothing
    global is touched, so disjoint row blocks can run on separate threads.
    """
    gamma = float(gamma)  # a NumPy float64 scalar would upcast float32 rows
    rows = np.arange(y.shape[0])
    p_raw = probs[rows, y]
    clamps = int(np.count_nonzero(p_raw < PROB_FLOOR))
    p_t = np.clip(p_raw, PROB_FLOOR, 1.0)
    modulation = (1.0 - p_t) ** gamma
    log_p = np.log(p_t)
    np.multiply(modulation, -log_p, out=out)
    if weights is not None:
        out *= weights
    if not grad:
        return clamps
    # With softmax p, d p_t / d z_j = p_t * (onehot_t[j] - p[j]), so the
    # logit gradient is (d FL / d p_t * p_t) * (onehot_t - p).
    if gamma == 0:
        # Cross-entropy: the factor is -1 everywhere (also at p_t = 1,
        # where the general form below is set to 0), so grad = p - onehot_t.
        probs[rows, y] -= 1.0
    else:
        u = 1.0 - p_t
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = gamma * p_t * u ** (gamma - 1.0) * log_p - modulation
        # The factor's limit for p_t -> 1 is 0 for every gamma > 0.
        factor = np.where(u > 0, factor, 0.0)
        probs *= -factor[:, None]
        probs[rows, y] = (1.0 - p_raw) * factor
    if weights is not None:
        probs *= weights[:, None]
    return clamps


def sequence_loss(frames: np.ndarray, targets: np.ndarray, gamma: float,
                  class_weight_vector: np.ndarray | None = None) -> float:
    """Class-weight-scaled mean focal loss over a frame sequence.

    Parameters
    ----------
    frames : array of shape (n_frames, n_classes)
        Per-frame probability rows, each summing to 1 within 1e-9.
    targets : int array of shape (n_frames,)
        True class index per frame.
    gamma : modulation exponent, >= 0
    class_weight_vector : optional per-class weight array
        Aligned with the probability columns.

    Returns
    -------
    float
        ``mean(w[target] * FL(p_t))`` with unit weights by default, so
        gamma = 0 and uniform weights give the mean cross-entropy.
    """
    global _clamp_events
    probs = np.asarray(frames, dtype=float)
    idx = np.asarray(targets)
    if probs.ndim != 2:
        raise ValueError(f"frames must be 2-D, got shape {probs.shape}")
    if idx.shape != (probs.shape[0],):
        raise ValueError(f"frame/target length mismatch: {probs.shape[0]} frames, {idx.shape} targets")
    if probs.shape[0] == 0:
        raise ValueError("empty frame sequence")
    if idx.min() < 0 or idx.max() >= probs.shape[1]:
        raise ValueError("target index out of range")
    sums = probs.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-9:
        worst = int(np.abs(sums - 1.0).argmax())
        raise ValueError(f"frame {worst} probabilities sum to {sums[worst]}, not 1")
    if probs[np.arange(probs.shape[0]), idx].max() > 1.0 + 1e-9:
        raise ValueError("true-class probability exceeds 1")

    weights = None if class_weight_vector is None else np.asarray(class_weight_vector, dtype=float)[idx]
    losses = np.empty(idx.shape[0])
    _clamp_events += frame_losses(probs, idx, gamma, weights, losses)
    return float(losses.mean())
