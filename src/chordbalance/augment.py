"""Label-preserving augmentation for chroma tracks.

Two channels: pitch shifting (rotate the chroma axis and move each
frame's model output to its root plus the same semitones) and additive
Gaussian feature noise.  Both are deterministic for a given seed; when
many tracks are augmented in one run, each track gets its own RNG stream
from :func:`derive_seed`, so results do not depend on processing order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .student import _SHIFTED, FeatureTrack

__all__ = [
    "AugmentSpec",
    "add_noise",
    "derive_seed",
    "draw_semitones",
    "pitch_shift",
]


@dataclass(frozen=True)
class AugmentSpec:
    """Augmentation policy: shift range (0 excluded on draw), noise level."""

    semitone_range: tuple[int, int] = (-5, 6)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "semitone_range", tuple(self.semitone_range))
        lo, hi = self.semitone_range
        if lo > hi:
            raise ValueError(f"empty semitone range ({lo}, {hi})")
        if lo < -11 or hi > 11:
            raise ValueError(f"semitone range ({lo}, {hi}) outside [-11, 11]")
        if lo == hi == 0:
            raise ValueError(f"semitone range ({lo}, {hi}) has no nonzero values")
        if not (self.noise_sigma >= 0 and np.isfinite(self.noise_sigma)):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")


def derive_seed(seed: int, key: str) -> int:
    """Stable per-item seed: base seed mixed with a string key.

    Uses a real hash rather than ``hash()`` so the value survives across
    processes and interpreter runs.
    """
    digest = hashlib.blake2b(f"{seed}:{key}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def pitch_shift(
    track: FeatureTrack,
    outputs: np.ndarray,
    semitones: int,
) -> tuple[FeatureTrack, np.ndarray]:
    """Shift features and model outputs by the same number of semitones.

    The chroma axis rotates (energy at pitch class p moves to p + k) and
    every output moves to its class at root + k; N stays N.  Shifting by
    +12 is the identity, and shifting by -k undoes +k exactly since
    rotation and the output table are both lossless.
    """
    rotated = np.roll(track.frames, semitones, axis=1)
    return FeatureTrack(track.track_id, rotated, track.frame_rate), _SHIFTED[semitones % 12][outputs]


def add_noise(track: FeatureTrack, sigma: float, seed: int) -> FeatureTrack:
    """Add i.i.d. Gaussian noise to every feature value.

    Values are cut to [0, 1], the range of normalized chroma, after the
    noise is added, in float64, and the result has the track's dtype;
    sigma = 0 returns the identical features.
    """
    if not sigma >= 0:
        raise ValueError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return FeatureTrack(track.track_id, track.frames.copy(), track.frame_rate)
    rng = np.random.default_rng(seed)
    noisy = np.clip(track.frames + rng.normal(0.0, sigma, track.frames.shape), 0.0, 1.0)
    return FeatureTrack(track.track_id, noisy.astype(track.frames.dtype, copy=False), track.frame_rate)


def draw_semitones(rng: np.random.Generator, semitone_range: tuple[int, int]) -> int:
    """Uniform draw over the configured range, never 0."""
    lo, hi = semitone_range
    choices = [k for k in range(lo, hi + 1) if k != 0]
    return choices[int(rng.integers(len(choices)))]
