"""Focal loss for per-frame chord class training.

For the probability ``p_t`` assigned to the true class, the focal loss
is ``(1 - p_t)^gamma * (-log p_t)``: the modulating factor shrinks the
contribution of already-confident frames, so gradient mass shifts toward
the hard (typically rare-class) frames.  Some write-ups print the
formula without the minus sign on the log; this module uses the standard
convention in which the loss is nonnegative and gamma = 0 degenerates to
plain cross-entropy.

:func:`loss_and_logit_grad` is the training objective: mean loss and
logit gradient of a whole batch in one pass.  :func:`sequence_loss`
validates probabilities that come from outside and returns the same
mean loss.

True-class probabilities below a small floor are clamped before the log
and the clamp is counted, so silently broken inputs surface in
:func:`clamp_count` instead of as NaN.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PROB_FLOOR",
    "clamp_count",
    "loss_and_logit_grad",
    "reset_clamp_count",
    "sequence_loss",
]

PROB_FLOOR = 1e-12

_clamp_events = 0


def clamp_count() -> int:
    """Number of probability-floor clamps since the last reset."""
    return _clamp_events


def reset_clamp_count() -> None:
    global _clamp_events
    _clamp_events = 0


def _note_clamps(n: int) -> None:
    global _clamp_events
    _clamp_events += int(n)


def _frame_losses(probs: np.ndarray, y: np.ndarray, gamma: float):
    """Clamped ``p_t``, ``(1 - p_t)^gamma`` and the focal loss of every frame."""
    p_t = probs[np.arange(y.shape[0]), y]
    low = p_t < PROB_FLOOR
    if low.any():
        _note_clamps(low.sum())
    p_t = np.clip(p_t, PROB_FLOOR, 1.0)
    modulation = (1.0 - p_t) ** gamma
    return p_t, modulation, modulation * -np.log(p_t)


def loss_and_logit_grad(
    probs: np.ndarray,
    y: np.ndarray,
    gamma: float,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Weighted mean focal loss of a batch and its gradient in the logits.

    Parameters
    ----------
    probs : array of shape (n_frames, n_classes)
        Softmax probabilities of the logits; not validated.  Consumed:
        the gradient is written into this array, which is returned.
    y : int array of shape (n_frames,)
        True class index per frame.
    gamma : modulation exponent, >= 0; 0 is cross-entropy
    weights : optional array of shape (n_frames,)
        Per-frame weight, usually the class weight of the frame's target.

    Returns
    -------
    (float, ndarray of shape (n_frames, n_classes))
        ``mean(w * FL(p_t))`` and ``probs``, overwritten row by row with
        the gradient of each frame's weighted loss ``w * FL(p_t)`` with
        respect to its logits; the gradient of the mean is that array
        divided by ``n_frames``.
        A frame clamped at the floor keeps, to about 1e-10, the gradient
        of its unclamped loss: its loss value is flat there, but its
        logits are still pulled toward the true class.
    """
    p_t, modulation, losses = _frame_losses(probs, y, gamma)
    rows = np.arange(y.shape[0])
    # With softmax p, d p_t / d z_j = p_t * (onehot_t[j] - p[j]), so the
    # logit gradient is (d FL / d p_t * p_t) * (onehot_t - p).
    if gamma == 0:
        # Cross-entropy: the factor is -1 everywhere (also at p_t = 1,
        # where the general form below is set to 0), so grad = p - onehot_t.
        grad = probs
        grad[rows, y] -= 1.0
    else:
        u = 1.0 - p_t
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = gamma * p_t * u ** (gamma - 1.0) * np.log(p_t) - modulation
        # The factor's limit for p_t -> 1 is 0 for every gamma > 0.
        grad = np.negative(probs, out=probs)
        grad[rows, y] += 1.0
        grad *= np.where(u > 0, factor, 0.0)[:, None]
    if weights is not None:
        losses = losses * weights
        grad *= weights[:, None]
    return float(losses.mean()), grad


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

    losses = _frame_losses(probs, idx, gamma)[2]
    if class_weight_vector is not None:
        losses = losses * np.asarray(class_weight_vector, dtype=float)[idx]
    return float(losses.mean())
