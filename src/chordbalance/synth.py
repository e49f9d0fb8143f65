"""Synthetic chroma corpus generator with a configurable chord-class mix.

Each chord class has a binary 12-bin template (chord tones at 1.0,
everything else 0.0) rooted at any pitch class; the no-chord symbol is a
uniform low-energy vector.  Tracks are filled with i.i.d. chord draws
from the configured class distribution, each rendered as template frames
plus Gaussian noise.  At sigma = 0 a nearest-template lookup recovers
the generated (class, root) pair exactly for every default-distribution
class; aug is the one class whose template is rotationally symmetric
(three roots share a pitch set), so it stays out of the default mix.

The default distribution mirrors the skew of real annotated corpora:
maj and min together hold almost 80 percent of the time, the rarest
class only 0.2 percent, and the remainder is no-chord.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._config import JsonConfig, load_config, read_json
from .annotations import Interval, TimedLabelSequence, read_lab_file, write_lab_file
from .augment import derive_seed
from .chords import CHORD_CLASSES, NO_CHORD, REPRESENTATIVE_QUALITY, ChordLabel
from .student import FeatureTrack, N_CHROMA

__all__ = [
    "CHORD_CLASS_INTERVALS",
    "CorpusSpec",
    "DEFAULT_CLASS_DISTRIBUTION",
    "chord_template",
    "generate_corpus",
    "load_corpus",
    "no_chord_template",
    "save_corpus",
    "spec_from_dict",
]

# Chord-tone offsets from the root per vocabulary class.
CHORD_CLASS_INTERVALS = {
    "maj": (0, 4, 7),
    "min": (0, 3, 7),
    "7": (0, 4, 7, 10),
    "min7": (0, 3, 7, 10),
    "maj7": (0, 4, 7, 11),
    "dim": (0, 3, 6),
    "hdim7": (0, 3, 6, 10),
    "aug": (0, 4, 8),
    "sus": (0, 5, 7),
}

_NO_CHORD_LEVEL = 0.1

DEFAULT_CLASS_DISTRIBUTION = {
    "maj": 0.63,
    "min": 0.161,
    "7": 0.069,
    "min7": 0.026,
    "maj7": 0.01,
    "dim": 0.004,
    "hdim7": 0.002,
    "N": 0.098,
}

MANIFEST_FORMAT = "chordbalance-corpus-v1"


def chord_template(chord_class: str, root: int) -> np.ndarray:
    """Binary chroma template for a rooted chord class."""
    if chord_class not in CHORD_CLASS_INTERVALS:
        raise ValueError(f"no template for class {chord_class!r}")
    template = np.zeros(N_CHROMA)
    for offset in CHORD_CLASS_INTERVALS[chord_class]:
        template[(root + offset) % N_CHROMA] = 1.0
    return template


def no_chord_template() -> np.ndarray:
    """Uniform low-energy vector standing in for untuned/silent audio."""
    return np.full(N_CHROMA, _NO_CHORD_LEVEL)


@dataclass(frozen=True)
class CorpusSpec(JsonConfig):
    """Generation settings; two specs with equal fields generate equal corpora."""

    n_tracks: int = 16
    track_length_range: tuple[float, float] = (60.0, 90.0)
    chord_duration_range: tuple[float, float] = (1.0, 4.0)
    class_distribution: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_DISTRIBUTION)
    )
    noise_sigma: float = 0.1
    frame_rate: float = 10.0
    seed: int = 0
    track_prefix: str = "synth"

    def __post_init__(self) -> None:
        object.__setattr__(self, "track_length_range", tuple(self.track_length_range))
        object.__setattr__(self, "chord_duration_range", tuple(self.chord_duration_range))
        object.__setattr__(self, "class_distribution", dict(self.class_distribution))
        if self.n_tracks < 1:
            raise ValueError(f"n_tracks must be >= 1, got {self.n_tracks}")
        if not (self.frame_rate > 0 and np.isfinite(self.frame_rate)):
            raise ValueError(f"frame rate must be finite and positive, got {self.frame_rate}")
        if not (self.noise_sigma >= 0 and np.isfinite(self.noise_sigma)):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        # prefix lands in file names, so keep it path-safe
        if not self.track_prefix or "/" in self.track_prefix or "\\" in self.track_prefix:
            raise ValueError(f"invalid track prefix {self.track_prefix!r}")
        for name, (lo, hi) in (
            ("track_length_range", self.track_length_range),
            ("chord_duration_range", self.chord_duration_range),
        ):
            if not (lo > 0 and hi >= lo and np.isfinite(hi)):
                raise ValueError(f"{name} must satisfy 0 < low <= high < inf, got ({lo}, {hi})")
        if self.chord_duration_range[0] > self.track_length_range[1]:
            raise ValueError("infeasible spec: shortest chord exceeds longest track")
        probs = self.class_distribution
        if not probs:
            raise ValueError("class distribution must not be empty")
        for cls, p in probs.items():
            if cls not in CHORD_CLASSES or cls == "X":
                raise ValueError(f"invalid distribution class {cls!r}")
            if not p >= 0:
                raise ValueError(f"negative share for class {cls!r}")
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class distribution sums to {total}, not 1")


def spec_from_dict(raw: Mapping) -> CorpusSpec:
    """Build a spec from parsed JSON, tolerating missing fields."""
    return load_config(CorpusSpec, raw, "corpus spec")


def generate_corpus(spec: CorpusSpec) -> list[tuple[FeatureTrack, TimedLabelSequence]]:
    """Generate the corpus described by ``spec``.

    Per-track generation is independent: every track draws from its own
    RNG stream derived from the corpus seed and the track id, so the
    same spec always renders the same corpus, frame for frame.  Chord
    boundaries land on frame edges, which means every frame is covered
    by exactly one label.
    """
    classes = sorted(spec.class_distribution)
    shares = np.asarray([spec.class_distribution[c] for c in classes])
    shares = shares / shares.sum()
    # The CDF that Generator.choice(len(classes), p=shares) draws one
    # class from, so that one uniform draw picks the same class.
    cdf = shares.cumsum()
    cdf /= cdf[-1]
    # template and label of each of the 109 (class, root) pairs a segment can take
    rendered = {
        (cls, root): (chord_template(cls, root), ChordLabel("chord", root, REPRESENTATIVE_QUALITY[cls]))
        for cls in CHORD_CLASS_INTERVALS for root in range(N_CHROMA)
    }
    rendered["N", 0] = (no_chord_template(), NO_CHORD)
    fps, sigma = spec.frame_rate, spec.noise_sigma
    corpus = []
    for i in range(spec.n_tracks):
        tid = f"{spec.track_prefix}-{i:04d}"
        rng = np.random.default_rng(derive_seed(spec.seed, tid))
        n_frames = max(1, round(rng.uniform(*spec.track_length_range) * fps))
        frames = np.empty((n_frames, N_CHROMA))
        segments = []
        pos = 0
        while pos < n_frames:
            cls = classes[cdf.searchsorted(rng.random(), side="right")]
            dur = max(1, round(rng.uniform(*spec.chord_duration_range) * fps))
            end = min(pos + dur, n_frames)
            root = int(rng.integers(N_CHROMA)) if cls != "N" else 0
            template, label = rendered[cls, root]
            if sigma > 0:
                np.add(template, rng.normal(0.0, sigma, (end - pos, N_CHROMA)), out=frames[pos:end])
            else:
                frames[pos:end] = template
            segments.append((Interval(pos / fps, end / fps), label))
            pos = end
        corpus.append((
            FeatureTrack(tid, frames, fps),
            TimedLabelSequence(tid, tuple(segments)),
        ))
    return corpus


def _check_track_ids(track_ids: Sequence, source: str | Path) -> None:
    """Raise ``ValueError`` unless every track id is a plain, unique file name."""
    for tid in track_ids:
        if not isinstance(tid, str) or tid in ("", ".", "..") or "/" in tid or "\\" in tid:
            raise ValueError(f"track id {tid!r} in {source} is not a plain file name")
    repeated = sorted(tid for tid, count in Counter(track_ids).items() if count > 1)
    if repeated:
        raise ValueError(f"repeated track ids in {source}: {repeated}")


# A CSV field as a packed 13-byte record: "-" or a 0 byte (dropped from the
# text), then three little-endian words: "d.dd", four more decimals, and the
# last three with "," or, from the second half of the tails, "\n".
_FIELD = np.dtype([("sign", "u1"), ("head", "<u4"), ("middle", "<u4"), ("tail", "<u4")])


@functools.cache
def _text_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only heads, quads and tails of ``_FIELD``, built on first use, not at import."""
    heads = b"".join(b"%d.%02d" % divmod(i, 100) for i in range(1000))
    quads = b"".join(b"%04d" % i for i in range(10_000))
    tails = b"".join(b"%03d" % i + sep for sep in (b",", b"\n") for i in range(1000))
    return tuple(np.frombuffer(text, "<u4") for text in (heads, quads, tails))


# Below 1e10, |x| * 1e9 is within 1.2e-6 of its exact value, so rint rounds
# it as %.9f does unless it lies that close to a half.
_HALF_TOL = 1.2e-6


def _csv_bytes(frames: np.ndarray) -> bytes:
    """The bytes ``np.savetxt(fmt="%.9f", delimiter=",")`` writes for ``frames``."""
    magnitude = np.abs(frames)
    if not magnitude.max(initial=0.0) < 9.999999999:
        # only here can a value print with more than one whole digit
        row = ",".join(["%.9f"] * frames.shape[1]) + "\n"
        return (row * len(frames) % tuple(frames.ravel().tolist())).encode("ascii")
    scaled = magnitude * 1e9
    units = np.rint(scaled)
    for i in np.flatnonzero(np.abs(scaled - units) >= 0.5 - _HALF_TOL):
        units.flat[i] = int(("%.9f" % magnitude.flat[i]).replace(".", ""))
    high = np.floor(units / 1e7)  # exact, units being whole numbers below 1e10
    middle, tail = np.divmod((units - high * 1e7).astype(np.int32), 1000)
    tail[:, -1] += 1000
    heads, quads, tails = _text_words()
    fields = np.empty(frames.shape, _FIELD)
    fields["sign"] = np.where(np.signbit(frames), ord("-"), 0)
    fields["head"] = heads[high.astype(np.intp)]
    fields["middle"] = quads[middle]
    fields["tail"] = tails[tail]
    return fields.tobytes().translate(None, b"\0")


def save_corpus(
    directory: str | Path,
    corpus: Sequence[tuple[FeatureTrack, TimedLabelSequence]],
    spec: CorpusSpec | None = None,
) -> None:
    """Persist a corpus: manifest.json, per-track features CSV and .lab.

    Each CSV holds the bytes of ``np.savetxt(fmt="%.9f", delimiter=",")``,
    built with array ops; a track with a value of 10 or more in magnitude
    is formatted with ``%`` instead.

    The manifest holds one frame rate and track ids name files inside
    ``directory``, so a corpus with mixed frame rates, or a track id that
    is not a plain, unique file name, raises ``ValueError`` before
    anything is written.
    """
    directory = Path(directory)
    _check_track_ids([track.track_id for track, _ in corpus], f"the corpus for {directory}")
    rates = sorted({track.frame_rate for track, _ in corpus})
    if len(rates) > 1:
        raise ValueError(f"the corpus for {directory} mixes frame rates {rates}")
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": MANIFEST_FORMAT,
        "frame_rate": corpus[0][0].frame_rate if corpus else None,
        "tracks": [track.track_id for track, _ in corpus],
        "spec": spec.to_dict() if spec is not None else None,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", "utf-8"
    )
    for track, labels in corpus:
        (directory / f"{track.track_id}.csv").write_bytes(_csv_bytes(track.frames))
        write_lab_file(directory / f"{track.track_id}.lab", labels)


def load_corpus(directory: str | Path) -> tuple[list[tuple[FeatureTrack, TimedLabelSequence]], dict]:
    """Load a corpus directory written by :func:`save_corpus`.

    Track ids name files inside ``directory``, so each must be a plain,
    unique file name, as :func:`save_corpus` requires.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"not a corpus directory (no manifest.json): {directory}")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path} is not a JSON object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unsupported corpus format {manifest.get('format')!r} in {directory}")
    tracks, fps = manifest.get("tracks"), manifest.get("frame_rate")
    if not isinstance(tracks, list):
        raise ValueError(f"{manifest_path} has no 'tracks' list")
    if tracks and not (type(fps) in (int, float) and 0 < fps < math.inf):
        raise ValueError(f"{manifest_path} has frame_rate {fps!r}, not a finite positive number")
    _check_track_ids(tracks, manifest_path)
    corpus = []
    for tid in tracks:
        csv_path = directory / f"{tid}.csv"
        try:
            track = FeatureTrack(tid, np.loadtxt(csv_path, delimiter=",", ndmin=2), fps)
        except ValueError as exc:
            raise ValueError(f"{csv_path}: {exc}") from None
        corpus.append((track, read_lab_file(directory / f"{tid}.lab", track_id=tid)))
    return corpus, manifest
