"""Chord label parsing, serialization, transposition and class mapping."""

from itertools import product

import numpy as np
import pytest

from chordbalance import chords
from chordbalance.chords import (
    CHORD_CLASSES,
    NO_CHORD,
    QUALITIES,
    QUALITY_CLASS_TABLE,
    UNKNOWN,
    ChordLabel,
    ChordParseError,
    label_to_string,
    map_to_class,
    parse_chord_label,
    pitch_class,
    transpose,
)

from helpers import chord


def test_parse_no_chord():
    assert parse_chord_label("N") is NO_CHORD
    assert parse_chord_label("X") is UNKNOWN


def test_parse_plain_major():
    label = parse_chord_label("C:maj")
    assert label == ChordLabel("chord", 0, "maj")
    assert label.bass is None


def test_parse_with_bass():
    label = parse_chord_label("G#:min7/b3")
    assert label.root == 8
    assert label.quality == "min7"
    assert label.bass == "b3"


def test_bare_root_means_major():
    assert parse_chord_label("C") == ChordLabel("chord", 0, "maj")
    assert parse_chord_label("F#") == ChordLabel("chord", 6, "maj")


def test_enharmonic_roots_collapse():
    assert parse_chord_label("Db:maj").root == parse_chord_label("C#:maj").root == 1
    assert pitch_class("Cb") == 11
    assert pitch_class("B#") == 0


def test_degree_list_validated_and_discarded():
    assert parse_chord_label("Db:maj7(9)") == ChordLabel("chord", 1, "maj7")
    with pytest.raises(ChordParseError):
        parse_chord_label("C:maj(")
    with pytest.raises(ChordParseError):
        parse_chord_label("C:maj()")
    with pytest.raises(ChordParseError):
        parse_chord_label("C:maj(zz)")


@pytest.mark.parametrize("bad", ["H:maj", "", "C:", "C:majj", "C:maj/xx", "c:maj", "C/maj"])
def test_parse_errors(bad):
    with pytest.raises(ChordParseError):
        parse_chord_label(bad)


def test_parse_error_names_offending_span():
    with pytest.raises(ChordParseError, match="wat"):
        parse_chord_label("C:wat")


def test_equal_strings_give_the_same_label():
    assert parse_chord_label("G#:min7/b3") is parse_chord_label("".join(["G#:", "min7/b3"]))


def test_errors_are_not_cached():
    messages = []
    for _ in range(2):
        with pytest.raises(ChordParseError) as info:
            parse_chord_label("C:wat")
        messages.append(str(info.value))
    assert messages == ["unknown quality 'wat' in 'C:wat'"] * 2


def test_cache_bound_is_the_module_constant():
    assert parse_chord_label.cache_parameters()["maxsize"] == chords._PARSE_CACHE_SIZE


def test_more_distinct_labels_than_the_cache_holds():
    # every accidental string of up to 11 marks on every letter: 7 * 4095 labels
    texts = [
        (f"{letter}{''.join(marks)}:min7", letter, marks)
        for n in range(12) for marks in product("#b", repeat=n) for letter in "ABCDEFG"
    ]
    assert len(texts) > chords._PARSE_CACHE_SIZE
    for _ in range(2):  # the second pass parses labels the first pass evicted
        for text, letter, marks in texts:
            root = (pitch_class(letter) + marks.count("#") - marks.count("b")) % 12
            assert parse_chord_label(text) == ChordLabel("chord", root, "min7")


def test_map_identity_and_sentinels():
    assert map_to_class(parse_chord_label("C:maj")) == "maj"
    assert map_to_class(NO_CHORD) == "N"
    assert map_to_class(UNKNOWN) == "X"


def test_map_reduces_extensions():
    assert map_to_class(parse_chord_label("C:maj9")) == "maj7"
    assert map_to_class(parse_chord_label("C:min9")) == "min7"
    assert map_to_class(parse_chord_label("C:9")) == "7"
    assert map_to_class(parse_chord_label("C:dim7")) == "dim"
    assert map_to_class(parse_chord_label("C:sus2")) == "sus"


def test_map_unmapped_quality_falls_to_x():
    # aug7 parses but has no reduction row
    assert "aug7" not in QUALITY_CLASS_TABLE
    assert map_to_class(parse_chord_label("C:aug7")) == "X"


def test_map_ignores_bass():
    assert map_to_class(parse_chord_label("G#:min7/b3")) == "min7"


def test_map_total_over_accepted_grammar():
    # every parseable quality at every root lands in exactly one class
    for quality in sorted(QUALITIES):
        for root in range(12):
            cls = map_to_class(chord(root, quality))
            assert cls in CHORD_CLASSES


def test_transpose_examples():
    assert transpose(parse_chord_label("C:maj"), 2) == parse_chord_label("D:maj")
    assert transpose(NO_CHORD, 5) is NO_CHORD
    assert transpose(parse_chord_label("B:min"), 1) == parse_chord_label("C:min")


def test_transpose_keeps_quality_and_bass():
    shifted = transpose(parse_chord_label("G#:min7/b3"), 3)
    assert shifted.quality == "min7"
    assert shifted.bass == "b3"
    assert shifted.root == 11


def test_transpose_round_trip_and_period():
    rng = np.random.default_rng(7)
    for _ in range(200):
        label = chord(int(rng.integers(12)), "min7", "5")
        k = int(rng.integers(-11, 12))
        assert transpose(transpose(label, k), -k) == label
        assert transpose(label, 12) == label


def test_serialization_round_trip():
    for text in ["N", "X", "C:maj", "G#:min7/b3", "A#:sus4", "E:hdim7/b7"]:
        label = parse_chord_label(text)
        assert parse_chord_label(label_to_string(label)) == label
        # canonical text is a fixed point of parse-then-serialize
        assert label_to_string(parse_chord_label(label_to_string(label))) == label_to_string(label)


def test_serialization_uses_sharp_spelling():
    assert label_to_string(parse_chord_label("Db:maj")) == "C#:maj"


def test_chord_label_validation():
    with pytest.raises(ValueError):
        ChordLabel("chord", 12, "maj")
    with pytest.raises(ValueError):
        ChordLabel("chord", 0, "nope")
    with pytest.raises(ValueError):
        ChordLabel("no_chord", root=0)
    with pytest.raises(ValueError):
        ChordLabel("banana")
