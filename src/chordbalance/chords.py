"""Chord label model: parsing, transposition and vocabulary-class mapping.

Labels follow the plain-text syntax used by ``.lab`` annotation files:
``<root>:<quality>[/<bass>]`` plus the special symbols ``N`` (no chord)
and ``X`` (unknown, or out of vocabulary).  Roots are the letters A to G
with any number of ``#``/``b`` modifiers and collapse enharmonically
onto pitch classes 0 to 11 with C = 0, so ``C#`` and ``Db`` are the same
chord.  A bare root such as ``C`` means ``C:maj``.

Evaluation works on one fixed, closed vocabulary of chord classes,
``CHORD_CLASSES``.  Every quality reduces to one class through a
plain-text table shipped with the package (``data/quality_classes.txt``);
qualities without a table row fall back to ``X``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Final

__all__ = [
    "CHORD_CLASSES",
    "ChordLabel",
    "ChordParseError",
    "NO_CHORD",
    "PITCH_NAMES",
    "QUALITY_CLASS_TABLE",
    "REPRESENTATIVE_QUALITY",
    "UNKNOWN",
    "label_to_string",
    "map_to_class",
    "parse_chord_label",
    "pitch_class",
    "transpose",
]

# Canonical (sharp) spelling per pitch class, C = 0.
PITCH_NAMES: Final = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

_NATURAL_OFFSETS: Final = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Evaluation vocabulary.  N is scoreable like any chord class; X is the
# out-of-vocabulary catch-all and never counts as reference time.
CHORD_CLASSES: Final = ("maj", "min", "7", "min7", "maj7", "dim", "hdim7", "aug", "sus", "N", "X")

# One parseable quality per chord class, used wherever a class has to be
# rendered as a concrete label ("sus" is a class, not a Harte quality).
REPRESENTATIVE_QUALITY: Final = {
    "maj": "maj",
    "min": "min",
    "7": "7",
    "min7": "min7",
    "maj7": "maj7",
    "dim": "dim",
    "hdim7": "hdim7",
    "aug": "aug",
    "sus": "sus4",
}

_ROOT_RE = re.compile(r"^([A-G])([#b]*)")
_DEGREE_RE = re.compile(r"\*?[#b]{0,2}(?:1[0-3]|[1-9])$")
_BASS_RE = re.compile(r"[#b]{0,2}(?:1[0-3]|[1-9])$")

# Distinct label strings whose parse is kept; a corpus evaluation reads
# about 7k distinct strings, so this bound leaves headroom.
_PARSE_CACHE_SIZE: Final = 2**14


class ChordParseError(ValueError):
    """Raised when a chord label string does not follow the grammar."""


def _load_quality_table() -> dict[str, str]:
    text = resources.files("chordbalance").joinpath("data/quality_classes.txt").read_text("utf-8")
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"quality_classes.txt line {lineno}: expected 'quality class'")
        quality, cls = fields
        if cls not in CHORD_CLASSES:
            raise ValueError(f"quality_classes.txt line {lineno}: unknown class {cls!r}")
        table[quality] = cls
    return table


QUALITY_CLASS_TABLE: Final = _load_quality_table()

# Closed quality set accepted by the parser.  The last few are valid
# syntax with no vocabulary class, so they reduce to X.
QUALITIES: Final = frozenset(QUALITY_CLASS_TABLE) | {"aug7", "5", "1"}


@dataclass(frozen=True)
class ChordLabel:
    """A parsed chord label: a rooted chord, no-chord or unknown.

    ``kind`` is one of ``"chord"``, ``"no_chord"`` or ``"unknown"``.
    For chords, ``root`` is a pitch class in [0, 11], ``quality`` comes
    from the closed quality set and ``bass`` is an optional scale-degree
    string kept verbatim (it never affects class mapping).
    """

    kind: str
    root: int | None = None
    quality: str | None = None
    bass: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("chord", "no_chord", "unknown"):
            raise ValueError(f"invalid label kind {self.kind!r}")
        if self.kind == "chord":
            if not isinstance(self.root, int) or not 0 <= self.root < 12:
                raise ValueError(f"chord root must be a pitch class in [0, 11], got {self.root!r}")
            if self.quality not in QUALITIES:
                raise ValueError(f"unknown chord quality {self.quality!r}")
        elif self.root is not None or self.quality is not None or self.bass is not None:
            raise ValueError(f"{self.kind} labels carry no root, quality or bass")

    @property
    def is_chord(self) -> bool:
        return self.kind == "chord"

    def __str__(self) -> str:
        return label_to_string(self)


NO_CHORD: Final = ChordLabel("no_chord")
UNKNOWN: Final = ChordLabel("unknown")


def pitch_class(name: str) -> int:
    """Map a root name such as ``"G#"`` or ``"Db"`` to its pitch class.

    Examples
    --------
    >>> pitch_class("C"), pitch_class("C#"), pitch_class("Db")
    (0, 1, 1)
    """
    m = _ROOT_RE.match(name)
    if m is None or m.end() != len(name):
        raise ChordParseError(f"invalid root {name!r}")
    natural, accidentals = m.groups()
    offset = accidentals.count("#") - accidentals.count("b")
    return (_NATURAL_OFFSETS[natural] + offset) % 12


def _check_degrees(degrees: str, text: str) -> None:
    # Degree lists are validated for syntax and then discarded; degree
    # arithmetic is out of scope, the quality alone decides the class.
    if not degrees.strip():
        raise ChordParseError(f"empty degree list in {text!r}")
    for token in degrees.split(","):
        if not _DEGREE_RE.fullmatch(token.strip()):
            raise ChordParseError(f"invalid degree {token.strip()!r} in {text!r}")


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_chord_label(text: str) -> ChordLabel:
    """Parse a chord label string.

    Results are interned per distinct string in a bounded cache, so
    equal strings give the same immutable :class:`ChordLabel` object.
    Errors are not cached: a malformed string raises on every call, with
    the same message.  No result depends on the cache; it shows only in
    object identity and memory.

    Parameters
    ----------
    text : str
        Label such as ``"N"``, ``"C"``, ``"C:maj"``, ``"G#:min7/b3"`` or
        ``"Db:maj7(9)"``.

    Returns
    -------
    ChordLabel

    Raises
    ------
    ChordParseError
        For malformed roots, unknown qualities or dangling separators.
        The message names the offending span.

    Examples
    --------
    >>> parse_chord_label("G#:min7/b3")
    ChordLabel(kind='chord', root=8, quality='min7', bass='b3')
    >>> parse_chord_label("N") is NO_CHORD
    True
    """
    s = text.strip()
    if not s:
        raise ChordParseError("empty chord label")
    if s == "N":
        return NO_CHORD
    if s == "X":
        return UNKNOWN

    body, bass = s, None
    if "/" in s:
        body, bass = s.rsplit("/", 1)
        if not _BASS_RE.fullmatch(bass):
            raise ChordParseError(f"invalid bass {bass!r} in {text!r}")

    m = _ROOT_RE.match(body)
    if m is None:
        raise ChordParseError(f"invalid root in {text!r}")
    root = pitch_class(m.group(0))

    rest = body[m.end():]
    if rest == "":
        quality = "maj"
    elif rest.startswith(":"):
        quality = rest[1:]
        if "(" in quality:
            quality, _, degrees = quality.partition("(")
            if not degrees.endswith(")"):
                raise ChordParseError(f"unclosed degree list in {text!r}")
            _check_degrees(degrees[:-1], text)
        if not quality:
            raise ChordParseError(f"missing quality after ':' in {text!r}")
        if quality not in QUALITIES:
            raise ChordParseError(f"unknown quality {quality!r} in {text!r}")
    else:
        raise ChordParseError(f"expected ':' before {rest!r} in {text!r}")

    return ChordLabel("chord", root, quality, bass)


def label_to_string(label: ChordLabel) -> str:
    """Serialize a label to its canonical form.

    Canonical form is ``<ROOT>:<quality>[/<bass>]`` with a sharp-spelled
    root, or the bare symbols ``N`` / ``X``.  Parsing a canonical string
    returns an equal label, so serialization is a fixed point.
    """
    if label.kind == "no_chord":
        return "N"
    if label.kind == "unknown":
        return "X"
    s = f"{PITCH_NAMES[label.root]}:{label.quality}"
    if label.bass is not None:
        s += f"/{label.bass}"
    return s


def transpose(label: ChordLabel, semitones: int) -> ChordLabel:
    """Transpose a chord root by ``semitones`` (mod 12).

    ``N`` and ``X`` are unchanged; the bass degree is root-relative and
    therefore also unchanged.
    """
    if not label.is_chord:
        return label
    return ChordLabel("chord", (label.root + semitones) % 12, label.quality, label.bass)


def map_to_class(label: ChordLabel) -> str:
    """Reduce a label to its class in ``CHORD_CLASSES``.

    The bass is ignored.  Qualities with no reduction-table row map to
    ``X``.
    """
    if label.kind == "no_chord":
        return "N"
    if label.kind == "unknown":
        return "X"
    return QUALITY_CLASS_TABLE.get(label.quality, "X")
