"""Interval algebra, .lab round trips and exact overlap accounting."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordbalance.annotations import (
    Interval,
    LabFormatError,
    TimedLabelSequence,
    merge_intervals,
    per_class_overlap,
    read_lab,
    read_lab_file,
    write_lab,
    write_lab_file,
)
from chordbalance.chords import NO_CHORD, UNKNOWN, parse_chord_label

from helpers import (
    SCOREABLE,
    build_sequence,
    chord,
    grid_sequence,
    matched_duration,
    random_pair,
    reference_duration,
)
from oracles import sampled_matched


def seq(track_id, *triples):
    return build_sequence(
        track_id, [(Interval(a, b), parse_chord_label(text)) for a, b, text in triples]
    )


class TestInterval:
    def test_duration_and_overlap(self):
        iv = Interval(2.0, 3.5)
        assert iv.duration == 1.5

    @pytest.mark.parametrize("start,end", [(1.0, 1.0), (2.0, 1.0), (-0.5, 1.0), (0.0, float("inf"))])
    def test_rejects_degenerate(self, start, end):
        with pytest.raises(ValueError):
            Interval(start, end)


class TestTimedLabelSequence:
    def test_build_sorts(self):
        s = build_sequence(
            "t", [(Interval(1.0, 2.0), NO_CHORD), (Interval(0.0, 1.0), chord(0))]
        )
        assert [iv.start for iv, _ in s.segments] == [0.0, 1.0]

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            seq("t", (0.0, 2.0, "C:maj"), (1.0, 3.0, "D:min"))

    def test_span_end_covered(self):
        s = seq("t", (1.0, 2.0, "C:maj"), (3.0, 5.0, "N"))
        assert s.span == 4.0  # includes the interior gap
        assert s.end == 5.0
        assert len(s) == 2
        empty = TimedLabelSequence("t")
        assert empty.span == 0.0 and empty.end == 0.0


class TestReadLab:
    def test_single_line(self):
        s = read_lab("0.0 1.5 C:maj\n", "t")
        assert len(s) == 1
        iv, label = s.segments[0]
        assert (iv.start, iv.end) == (0.0, 1.5)
        assert label == chord(0)

    def test_empty_input(self):
        assert len(read_lab("", "t")) == 0

    def test_comments_blanks_and_tabs(self):
        text = "# header\n\n0\t1\tC:maj\n  1.0   2.0   G#:min7/b3\n"
        s = read_lab(text, "t")
        assert len(s) == 2
        assert s.segments[1][1].bass == "b3"

    def test_overlap_reported_with_line(self):
        with pytest.raises(LabFormatError, match="line 2"):
            read_lab("0 2 C:maj\n1 3 D:min\n", "t")

    @pytest.mark.parametrize(
        "text,where",
        [
            ("0 x C:maj\n", "line 1"),
            ("2 1 C:maj\n", "line 1"),
            ("0 1 H:maj\n", "line 1"),
            ("0 1\n", "line 1"),
            ("0 1 N\n3 2 N\n", "line 2"),
        ],
    )
    def test_errors_name_line(self, text, where):
        with pytest.raises(LabFormatError, match=where):
            read_lab(text, "t")

    def test_write_format(self):
        s = seq("t", (0.0, 1.5, "Db:maj"))
        assert write_lab(s) == "0.000000\t1.500000\tC#:maj\n"

    def test_read_write_read_fixed_point(self):
        rng = np.random.default_rng(42)
        for i in range(25):
            original = grid_sequence(rng, f"t{i}", 40.0, gap_prob=0.2, x_prob=0.05)
            text = write_lab(original)
            again = read_lab(text, original.track_id)
            assert again == original
            assert write_lab(again) == text

    def test_file_round_trip_uses_stem(self, tmp_path):
        s = seq("song-01", (0.0, 2.0, "A:min"), (2.0, 4.0, "N"))
        path = tmp_path / "song-01.lab"
        write_lab_file(path, s)
        assert read_lab_file(path) == s
        assert read_lab_file(path, track_id="other").track_id == "other"

    def test_repeated_label_text_gives_the_same_label(self, tmp_path):
        text = "0 1 A:min7/b3\n1 2 A:min7/b3\n"
        first, second = (label for _, label in read_lab(text, "t").segments)
        assert first is second
        for name in ("a.lab", "b.lab"):
            (tmp_path / name).write_text(text, "utf-8")
        a, b = (read_lab_file(tmp_path / name) for name in ("a.lab", "b.lab"))
        assert a.segments[0][1] is b.segments[1][1]

    @pytest.mark.parametrize("content,where", [(b"0 1 C:maj\n1 x D:min\n", "line 2: "),
                                               (b"0 1 C:maj\n1 2 \xff\n", "'utf-8' codec")],
                             ids=["bad-line", "not-utf8"])
    def test_file_errors_name_the_file(self, tmp_path, content, where):
        path = tmp_path / "song-01.lab"
        path.write_bytes(content)
        with pytest.raises(LabFormatError, match=f"^{re.escape(f'{path}: {where}')}"):
            read_lab_file(path)


class TestMergeIntervals:
    def test_examples(self):
        assert merge_intervals([Interval(0, 2), Interval(1, 3)]) == [Interval(0, 3)]
        assert merge_intervals([Interval(0, 1), Interval(2, 3)]) == [Interval(0, 1), Interval(2, 3)]
        assert merge_intervals([Interval(0, 1), Interval(1, 2)]) == [Interval(0, 2)]
        assert merge_intervals([]) == []

    def test_idempotent_and_order_independent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            raw = []
            for _ in range(rng.integers(1, 12)):
                a = float(rng.uniform(0, 50))
                raw.append(Interval(a, a + float(rng.uniform(0.1, 10))))
            merged = merge_intervals(raw)
            assert merge_intervals(merged) == merged
            shuffled = list(raw)
            rng.shuffle(shuffled)
            assert merge_intervals(shuffled) == merged
            # disjoint, sorted, same total point set mass >= any input interval
            for a, b in zip(merged, merged[1:]):
                assert a.end < b.start
            assert sum(iv.duration for iv in merged) <= sum(iv.duration for iv in raw) + 1e-9


# Endpoints on a coarse grid, so that intervals often touch and nest, or anywhere.
_ENDPOINT = st.one_of(st.integers(0, 20).map(float), st.floats(0.0, 20.0))


@st.composite
def _intervals(draw):
    a, b = sorted(draw(st.lists(_ENDPOINT, min_size=2, max_size=2, unique=True)))
    return Interval(a, b)


class TestMergeIntervalsProperties:
    @settings(max_examples=150, deadline=None)
    @given(raw=st.lists(_intervals(), max_size=12))
    def test_union_is_minimal_sorted_and_disjoint(self, raw):
        merged = merge_intervals(raw)
        # sorted, disjoint and non-touching
        for a, b in zip(merged, merged[1:]):
            assert a.end < b.start
        assert merge_intervals(merged) == merged
        # every input lies inside one output
        for iv in raw:
            assert sum(out.start <= iv.start and iv.end <= out.end for out in merged) == 1
        # no endpoint is invented
        assert {out.start for out in merged} <= {iv.start for iv in raw}
        assert {out.end for out in merged} <= {iv.end for iv in raw}


def random_free_sequence(rng, track_id, length_s):
    # boundaries off the 10 ms grid on purpose, to exercise the sampling bound
    segments = []
    t = float(rng.uniform(0.0, 1.0))
    while t < length_s - 0.5:
        end = min(length_s, t + float(rng.uniform(0.3, 6.0)))
        cls = SCOREABLE[int(rng.integers(len(SCOREABLE)))]
        if cls == "N":
            label = NO_CHORD
        else:
            label = chord(int(rng.integers(12)), {"sus": "sus4"}.get(cls, cls))
        segments.append((Interval(t, end), label))
        t = end + (float(rng.uniform(0.0, 0.8)) if rng.random() < 0.3 else 0.0)
    return build_sequence(track_id, segments)


class TestMatchedDuration:
    def test_identity_gives_full_reference(self):
        s = seq("t", (0.0, 1.0, "C:maj"), (1.0, 3.0, "D:min"), (3.0, 4.0, "N"))
        assert matched_duration(s, s) == reference_duration(s) == 4.0

    def test_label_disjoint_gives_zero(self):
        pred = seq("t", (0.0, 4.0, "C:maj"))
        ref = seq("t", (0.0, 4.0, "D:min"))
        assert matched_duration(pred, ref) == 0.0

    def test_split_reference(self):
        pred = seq("t", (0.0, 2.0, "C:maj"))
        ref = seq("t", (0.0, 1.0, "C:maj"), (1.0, 2.0, "D:min"))
        assert matched_duration(pred, ref) == 1.0

    def test_reference_x_excluded(self):
        pred = seq("t", (0.0, 3.0, "C:maj"))
        ref = seq("t", (0.0, 1.0, "C:maj"), (1.0, 2.0, "X"), (2.0, 3.0, "C:maj"))
        assert reference_duration(ref) == 2.0
        assert matched_duration(pred, ref) == 2.0
        assert "X" not in per_class_overlap(pred, ref)

    def test_prediction_gap_counts_unmatched(self):
        pred = seq("t", (0.0, 1.0, "C:maj"))
        ref = seq("t", (0.0, 2.0, "C:maj"))
        assert matched_duration(pred, ref) == 1.0

    def test_class_level_match(self):
        # same class through the reduction table still matches
        pred = seq("t", (0.0, 2.0, "C:maj9"))
        ref = seq("t", (0.0, 2.0, "G:maj7"))
        assert matched_duration(pred, ref) == 2.0

    def test_per_class_breakdown(self):
        pred = seq("t", (0.0, 2.0, "C:maj"), (2.0, 5.0, "A:min"))
        ref = seq("t", (0.0, 1.0, "C:maj"), (1.0, 4.0, "A:min"), (4.0, 5.0, "N"))
        table = per_class_overlap(pred, ref)
        assert table == {"maj": (1.0, 1.0), "min": (3.0, 2.0), "N": (1.0, 0.0)}

    def test_bounded_by_reference(self):
        rng = np.random.default_rng(11)
        for i in range(40):
            pred, ref = random_pair(rng, f"t{i}", 30.0)
            m = matched_duration(pred, ref)
            assert 0.0 <= m <= reference_duration(ref) + 1e-12

    def test_agrees_with_sampling_oracle(self):
        # exact sweep vs 10 ms midpoint sampling, within 0.02 s per boundary
        rng = np.random.default_rng(19)
        for i in range(30):
            pred = random_free_sequence(rng, f"t{i}", 45.0)
            ref = random_free_sequence(rng, f"t{i}", 45.0)
            exact = matched_duration(pred, ref)
            approx = sampled_matched(pred, ref)
            boundaries = 2 * (len(pred) + len(ref))
            assert abs(exact - approx) <= 0.02 * boundaries

    def test_unknown_predictions_never_match(self):
        pred = seq("t", (0.0, 2.0, "X"))
        ref = seq("t", (0.0, 2.0, "C:maj"))
        assert matched_duration(pred, ref) == 0.0
