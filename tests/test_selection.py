"""Rare-class excerpt selection: budgets, windows, merging, accounting."""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordbalance.annotations import Interval
from chordbalance.chords import map_to_class, parse_chord_label
from chordbalance.metrics import type_distribution
from chordbalance.selection import (
    DEFAULT_RARE_CLASSES,
    ExcerptDataset,
    SelectionConfig,
    SelectionReport,
    distribution_of_selection,
    read_pseudolabels_jsonl,
    select_balanced_subset,
    write_excerpts_json,
    write_pseudolabels_jsonl,
    write_selection_report_csv,
)
from chordbalance.student import PredictedSegments

from helpers import build_sequence, pseudo_pool

RARE = DEFAULT_RARE_CLASSES

# maj/min-heavy class mix used for the distribution-shift properties
SKEWED = ("maj",) * 10 + ("min",) * 4 + ("N",) * 2 + ("7", "min7", "maj7", "dim", "hdim7")


def labelled(track_id, triples, confidences):
    seq = build_sequence(
        track_id, [(Interval(a, b), parse_chord_label(text)) for a, b, text in triples]
    )
    return PredictedSegments(seq, tuple(confidences))


class TestDesiredDuration:
    @staticmethod
    def desired(labeled_total, texts):
        """The set of per-class budgets reported for one pool track of 1 s segments."""
        pool = [labelled("t", [(float(i), i + 1.0, text) for i, text in enumerate(texts)], [0.9] * len(texts))]
        config = SelectionConfig(min_length=8.0, labeled_total=labeled_total)
        _, report = select_balanced_subset(pool, {"t": 60.0}, config)
        return {sel.desired_duration for sel in report.per_class.values()}

    def test_arithmetic(self):
        # the labeled time splits evenly over the rare classes present in the pool
        assert self.desired(3600.0, ["C:7", "C:min7", "C:maj7", "C:dim", "C:hdim7", "C:aug"]) == {600.0}
        assert self.desired(3600.0, ["C:dim", "C:maj"]) == {3600.0}
        assert self.desired(0.0, ["C:7", "C:min7", "C:dim", "C:hdim7"]) == {0.0}


class TestConfig:
    def test_defaults(self):
        config = SelectionConfig(min_length=8.0, labeled_total=100.0)
        assert config.rare_classes == RARE
        assert config.confidence_threshold == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_length": 0.0, "labeled_total": 1.0},
            {"min_length": 8.0, "labeled_total": -1.0},
            {"min_length": float("inf"), "labeled_total": 1.0},
            {"min_length": float("nan"), "labeled_total": 1.0},
            {"min_length": 8.0, "labeled_total": float("inf")},
            {"min_length": 8.0, "labeled_total": float("nan")},
            {"min_length": 8.0, "labeled_total": 1.0, "confidence_threshold": 1.5},
            {"min_length": 8.0, "labeled_total": 1.0, "rare_classes": ()},
            {"min_length": 8.0, "labeled_total": 1.0, "rare_classes": ("N",)},
            {"min_length": 8.0, "labeled_total": 1.0, "rare_classes": ("banana",)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConfig(**kwargs)


class TestWindows:
    def test_centered_window(self):
        pool = [labelled("t", [(10.0, 10.4, "C:hdim7")], [0.9])]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        dataset, report = select_balanced_subset(pool, {"t": 60.0}, config)
        (iv,) = dataset.intervals["t"]
        assert iv.start == pytest.approx(6.2, abs=1e-9)
        assert iv.end == pytest.approx(14.2, abs=1e-9)
        sel = report.per_class["hdim7"]
        assert sel.selected_duration == pytest.approx(8.0, abs=1e-9)
        assert sel.seeds_used == 1
        assert not sel.shortfall

    def test_start_clamp(self):
        pool = [labelled("t", [(0.5, 1.0, "C:dim")], [0.9])]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        dataset, _ = select_balanced_subset(pool, {"t": 60.0}, config)
        assert dataset.intervals["t"] == (Interval(0.0, 8.0),)

    def test_end_clamp(self):
        pool = [labelled("t", [(59.0, 59.5, "C:dim")], [0.9])]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        dataset, _ = select_balanced_subset(pool, {"t": 60.0}, config)
        assert dataset.intervals["t"] == (Interval(52.0, 60.0),)

    def test_end_clamp_does_not_round_past_the_track(self):
        # (26.55 - 10.17) + 10.17 rounds to 26.550000000000004
        pool = [labelled("t", [(26.3, 26.4, "C:dim")], [0.9])]
        config = SelectionConfig(min_length=10.17, labeled_total=8.0)
        dataset, _ = select_balanced_subset(pool, {"t": 26.55}, config)
        (iv,) = dataset.intervals["t"]
        assert iv.end == 26.55

    def test_short_track_whole(self):
        pool = [labelled("t", [(1.0, 1.5, "C:dim")], [0.9])]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        dataset, report = select_balanced_subset(pool, {"t": 5.0}, config)
        assert dataset.intervals["t"] == (Interval(0.0, 5.0),)
        assert report.per_class["dim"].shortfall  # 5 < 8 desired

    def test_two_seeds_merge_and_credit_new_time_only(self):
        pool = [
            labelled(
                "t",
                [(9.5, 10.5, "C:maj7"), (11.5, 12.5, "G:maj7")],
                [0.9, 0.8],
            )
        ]
        config = SelectionConfig(min_length=8.0, labeled_total=10.0)
        dataset, report = select_balanced_subset(pool, {"t": 60.0}, config)
        assert dataset.intervals["t"] == (Interval(6.0, 16.0),)
        sel = report.per_class["maj7"]
        assert sel.selected_duration == 10.0  # 8 new + 2 new, not 16
        assert sel.seeds_used == 2
        assert not sel.shortfall
        assert dataset.total_duration == 10.0


class TestSelectionFlow:
    def test_empty_pool_is_all_shortfall(self):
        config = SelectionConfig(min_length=8.0, labeled_total=70.0)
        dataset, report = select_balanced_subset([], {}, config)
        assert dataset.intervals == {}
        assert dataset.total_duration == 0.0
        assert set(report.per_class) == set(RARE)
        for sel in report.per_class.values():
            assert sel.shortfall
            assert sel.desired_duration == 10.0  # split over all configured classes
            assert sel.selected_duration == 0.0

    def test_budget_met_stops_consuming(self):
        pool = [
            labelled(
                "t",
                [(10.0, 11.0, "C:dim"), (30.0, 31.0, "D:dim"), (50.0, 51.0, "E:dim")],
                [0.9, 0.8, 0.7],
            )
        ]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        _, report = select_balanced_subset(pool, {"t": 60.0}, config)
        assert report.per_class["dim"].seeds_used == 1

    def test_confidence_threshold_is_strict(self):
        pool = [
            labelled("t", [(10.0, 11.0, "C:dim"), (30.0, 31.0, "D:dim")], [0.5, 0.8])
        ]
        config = SelectionConfig(min_length=8.0, labeled_total=16.0, confidence_threshold=0.5)
        dataset, report = select_balanced_subset(pool, {"t": 60.0}, config)
        # the 0.5-confidence seed does not clear a 0.5 threshold
        assert report.per_class["dim"].seeds_used == 1
        assert dataset.intervals["t"] == (Interval(26.5, 34.5),)
        assert report.per_class["dim"].shortfall

    def test_tie_break_on_track_then_start(self):
        pool = [
            labelled("b", [(20.0, 21.0, "C:dim")], [0.8]),
            labelled("a", [(40.0, 41.0, "C:dim"), (10.0, 11.0, "D:dim")], [0.8, 0.8]),
        ]
        config = SelectionConfig(min_length=4.0, labeled_total=100.0)
        dataset, _ = select_balanced_subset(pool, {"a": 60.0, "b": 60.0}, config)
        order = [(ev.track_id, ev.seed.start) for ev in dataset.events]
        assert order == [("a", 10.0), ("a", 40.0), ("b", 20.0)]

    def test_rarest_class_processed_first(self):
        pool = [
            labelled(
                "t",
                [
                    (0.0, 10.0, "C:7"),      # common rare class
                    (20.0, 21.0, "C:dim"),   # scarce rare class
                ],
                [0.9, 0.9],
            )
        ]
        config = SelectionConfig(min_length=8.0, labeled_total=16.0)
        _, report = select_balanced_subset(pool, {"t": 60.0}, config)
        assert list(report.per_class) == ["dim", "7"]

    def test_unknown_track_duration_raises(self):
        pool = [labelled("t", [(0.0, 1.0, "C:dim")], [0.9])]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        with pytest.raises(ValueError, match="duration"):
            select_balanced_subset(pool, {}, config)

    def test_segment_past_track_end_raises(self):
        # a dim segment after the track's end would credit dim time to an excerpt that holds none
        pool = [labelled("t", [(10.0, 12.0, "C:dim")], [0.9])]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        with pytest.raises(ValueError, match=r"^track 't': a segment ends at 12.0 s, past its duration 5.0 s$"):
            select_balanced_subset(pool, {"t": 5.0}, config)
        dataset, _ = select_balanced_subset(pool, {"t": 12.0}, config)
        assert dataset.intervals == {"t": (Interval(4.0, 12.0),)}

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_duration_not_finite_and_positive_raises(self, seconds):
        # a NaN or infinite length never clamps a window: a 1 s track would give an 8 s excerpt
        pool = [labelled("t", [(0.0, 1.0, "C:dim")], [0.9])]
        config = SelectionConfig(min_length=8.0, labeled_total=8.0)
        with pytest.raises(ValueError, match=r"^track 't': duration must be finite and positive, got "):
            select_balanced_subset(pool, {"t": seconds}, config)
        # a listed track without pseudolabels is checked too
        with pytest.raises(ValueError, match=r"^track 'u': duration must be finite and positive"):
            select_balanced_subset(pool, {"t": 1.0, "u": seconds}, config)


class TestInvariants:
    def make_pool(self, seed):
        rng = np.random.default_rng(seed)
        return pseudo_pool(rng, 10, 60.0, classes=SKEWED)

    def select(self, pool, durations):
        config = SelectionConfig(min_length=8.0, labeled_total=120.0)
        return select_balanced_subset(pool, durations, config), config

    def test_prefix_consumption(self):
        pool, durations = self.make_pool(63)
        (dataset, _), config = self.select(pool, durations)
        candidates = {}
        for ps in pool:
            tid = ps.sequence.track_id
            for (iv, lab), conf in zip(ps.sequence.segments, ps.confidences):
                cls = map_to_class(lab)
                if cls in config.rare_classes and conf > config.confidence_threshold:
                    candidates.setdefault(cls, []).append((conf, tid, iv))
        for cls, entries in candidates.items():
            entries.sort(key=lambda c: (-c[0], c[1], c[2].start))
            consumed = [
                (ev.confidence, ev.track_id, ev.seed) for ev in dataset.events if ev.chord_class == cls
            ]
            assert consumed == entries[: len(consumed)]

    def test_excerpts_disjoint_and_long_enough(self):
        pool, durations = self.make_pool(64)
        (dataset, _), config = self.select(pool, durations)
        for tid, intervals in dataset.intervals.items():
            for a, b in zip(intervals, intervals[1:]):
                assert a.end < b.start
            for iv in intervals:
                assert (
                    iv.duration >= config.min_length - 1e-9
                    or iv.duration == pytest.approx(durations[tid], abs=1e-9)
                )
                assert 0.0 <= iv.start and iv.end <= durations[tid] + 1e-9

    def test_selected_durations_sum_to_total(self):
        for seed in (63, 64, 65):
            pool, durations = self.make_pool(seed)
            (dataset, report), _ = self.select(pool, durations)
            credited = sum(sel.selected_duration for sel in report.per_class.values())
            assert credited == pytest.approx(dataset.total_duration, abs=1e-9)
            new_sum = sum(ev.new_covered for ev in dataset.events)
            assert new_sum == pytest.approx(dataset.total_duration, abs=1e-9)

    def test_rare_share_strictly_increases(self):
        pool, durations = self.make_pool(63)
        (dataset, _), _ = self.select(pool, durations)
        pool_dist = type_distribution([ps.sequence for ps in pool])
        sel_dist = distribution_of_selection(dataset, pool)
        pool_rare = sum(pool_dist.get(cls, 0.0) for cls in RARE)
        sel_rare = sum(sel_dist.get(cls, 0.0) for cls in RARE)
        assert sel_rare > pool_rare
        # the dominant classes stay dominant even after rebalancing
        assert max(sel_dist, key=sel_dist.get) in ("maj", "min")

    def test_deterministic(self):
        pool, durations = self.make_pool(66)
        (a_data, a_report), _ = self.select(pool, durations)
        (b_data, b_report), _ = self.select(pool, durations)
        assert a_data.intervals == b_data.intervals
        assert a_data.events == b_data.events
        assert a_report.per_class == b_report.per_class


# One label per class, rare ones included, plus an unmapped quality.
_POOL_LABELS = ("C:maj", "A:min", "G:7", "D:min7", "F:maj7", "B:dim", "E:hdim7", "C:aug", "D:sus4",
                "N", "X", "C:aug7")


@st.composite
def _pseudolabel_pool(draw):
    """Pseudolabels of 1-4 tracks: sorted disjoint segments, some gaps, any confidence."""
    pool, durations = [], {}
    for i in range(draw(st.integers(1, 4))):
        tid = f"t{i}"
        duration = draw(st.floats(0.5, 60.0))
        points = sorted(draw(st.lists(st.floats(0.0, duration), min_size=2, max_size=16, unique=True)))
        triples = [(a, b, draw(st.sampled_from(_POOL_LABELS)))
                   for a, b in zip(points, points[1:]) if draw(st.booleans())]
        confidences = draw(st.lists(st.floats(0.0, 1.0), min_size=len(triples), max_size=len(triples)))
        pool.append(labelled(tid, triples, confidences))
        durations[tid] = duration
    return pool, durations


class TestSelectionProperties:
    @settings(max_examples=120, deadline=None)
    @given(generated=_pseudolabel_pool(), min_length=st.floats(0.5, 20.0),
           labeled_total=st.floats(0.0, 200.0), threshold=st.sampled_from([0.0, 0.5]))
    def test_excerpts_disjoint_inside_and_credited_once(self, generated, min_length, labeled_total,
                                                        threshold):
        pool, durations = generated
        config = SelectionConfig(min_length=min_length, labeled_total=labeled_total,
                                 confidence_threshold=threshold)
        dataset, report = select_balanced_subset(pool, durations, config)
        for tid, excerpts in dataset.intervals.items():
            duration = durations[tid]
            assert 0.0 <= excerpts[0].start and excerpts[-1].end <= duration
            for a, b in zip(excerpts, excerpts[1:]):
                assert a.end < b.start
            for iv in excerpts:
                assert iv.duration >= min_length - 1e-9 or iv == Interval(0.0, duration)
        # each selected second is credited to exactly one class, once
        credited = sum(sel.selected_duration for sel in report.per_class.values())
        assert credited == pytest.approx(dataset.total_duration, abs=1e-9)


class TestDistribution:
    def test_single_class_selection(self):
        pool = [labelled("t", [(0.0, 10.0, "C:maj")], [0.9])]
        dataset = ExcerptDataset({"t": (Interval(0.0, 8.0),)})
        assert distribution_of_selection(dataset, pool) == {"maj": 1.0}

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            distribution_of_selection(ExcerptDataset({}), [])


class TestRoundTrips:
    def test_pseudolabels_jsonl(self, tmp_path):
        rng = np.random.default_rng(70)
        pool, _ = pseudo_pool(rng, 4, 30.0)
        path = tmp_path / "pseudo.jsonl"
        write_pseudolabels_jsonl(path, pool)
        loaded = read_pseudolabels_jsonl(path)
        assert {ps.sequence.track_id: ps for ps in loaded} == {
            ps.sequence.track_id: ps for ps in pool
        }

    def test_pseudolabels_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"track": "t", "start": 0.0}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_pseudolabels_jsonl(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"track": 7, "start": "0.5", "end": True, "confidence": "1"}, "track 7 is not a string"),
            ({"start": "0.5"}, 'start "0.5" is not a number'),
            ({"end": True}, "end true is not a number"),
            ({"confidence": "1"}, 'confidence "1" is not a number'),
            ({"confidence": True}, "confidence true is not a number"),
            ({"label": None}, "label null is not a string"),
            ({"end": 10**400}, "int too large to convert to float"),
        ],
        ids=["all", "string-start", "bool-end", "string-confidence", "bool-confidence", "null-label",
             "huge-end"],
    )
    def test_pseudolabels_jsonl_requires_json_types(self, tmp_path, edit, message):
        path = tmp_path / "bad.jsonl"
        record = {"track": "t", "start": 0.0, "end": 1.0, "label": "C:maj", "confidence": 0.5}
        path.write_text(json.dumps({**record, **edit}) + "\n", "utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line 1: {message}')}$"):
            read_pseudolabels_jsonl(path)

    def test_pseudolabels_jsonl_reads_whole_numbers_as_floats(self, tmp_path):
        path = tmp_path / "pseudo.jsonl"
        path.write_text('{"track": "t", "start": 0, "end": 2, "label": "C:maj", "confidence": 1}\n', "utf-8")
        (ps,) = read_pseudolabels_jsonl(path)
        ((interval, _),) = ps.sequence.segments
        assert (interval.start, interval.end, ps.confidences) == (0.0, 2.0, (1.0,))
        assert type(interval.start) is float and type(ps.confidences[0]) is float

    def test_pseudolabels_jsonl_repeated_label_gives_the_same_label(self, tmp_path):
        path = tmp_path / "pseudo.jsonl"
        records = [{"track": "t", "start": 0.0, "end": 1.0, "label": "E:hdim7", "confidence": 0.5},
                   {"track": "u", "start": 1.0, "end": 2.0, "label": "E:hdim7", "confidence": 0.7}]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records), "utf-8")
        first, second = (ps.sequence.segments[0][1] for ps in read_pseudolabels_jsonl(path))
        assert first is second

    def test_excerpts_json(self, tmp_path):
        dataset = ExcerptDataset({"a": (Interval(0.0, 8.0), Interval(10.0, 18.0))})
        path = tmp_path / "excerpts.json"
        write_excerpts_json(path, dataset)
        assert json.loads(path.read_text("utf-8")) == {"tracks": {"a": [[0.0, 8.0], [10.0, 18.0]]}}

    def test_report_csv(self, tmp_path):
        from chordbalance.selection import ClassSelection

        report = SelectionReport(
            {"dim": ClassSelection(10.0, 8.0, 2, True), "7": ClassSelection(10.0, 10.0, 1, False)}
        )
        path = tmp_path / "report.csv"
        write_selection_report_csv(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "desired_duration", "selected_duration", "seeds_used", "shortfall"]
        assert rows[1] == ["dim", "10.000000", "8.000000", "2", "true"]
        assert rows[2] == ["7", "10.000000", "10.000000", "1", "false"]
