"""Corpus scores of the one scorer: recall ratios, per-class scores, class-quality average."""

import csv
import hashlib
import json

import numpy as np
import pytest

from chordbalance.annotations import Interval, TimedLabelSequence, per_class_overlap
from chordbalance.chords import parse_chord_label
from chordbalance.metrics import (
    MetricsReport,
    TrackPair,
    class_sort_key,
    compute_report,
    type_distribution,
    write_per_type_csv,
    write_report_json,
)

from helpers import build_sequence, random_pair
from oracles import sampled_corpus_scores, sampled_csr


def seq(track_id, *triples):
    return build_sequence(
        track_id, [(Interval(a, b), parse_chord_label(text)) for a, b, text in triples]
    )


def pair(pred, ref):
    return TrackPair(pred, ref)


# Per-class scores of the published baseline system on its seven
# evaluation qualities; their mean rounds to 0.274.  Each is a whole
# number of thousandths, so a 1000 s track scores it exactly.
BASELINE_PER_TYPE = {
    "maj": 0.616,
    "min": 0.693,
    "7": 0.31,
    "min7": 0.149,
    "maj7": 0.015,
    "dim": 0.118,
    "hdim7": 0.02,
}


class TestTrackPair:
    def test_rejects_mismatched_ids(self):
        with pytest.raises(ValueError, match="track mismatch"):
            TrackPair(seq("a", (0, 1, "C:maj")), seq("b", (0, 1, "C:maj")))


class TestCsr:
    """The WCSR of a one-track corpus is that track's chord symbol recall."""

    def test_identity(self):
        s = seq("t", (0, 2, "C:maj"), (2, 3, "N"))
        assert compute_report([pair(s, s)]).wcsr == 1.0

    def test_disjoint(self):
        p = seq("t", (0, 4, "N"))
        r = seq("t", (0, 4, "C:maj"))
        assert compute_report([pair(p, r)]).wcsr == 0.0

    def test_partial_overlap(self):
        p = seq("t", (0, 2, "C:maj"), (2, 4, "C:maj"))
        r = seq("t", (0, 3, "C:maj"), (3, 4, "A:min"))
        assert compute_report([pair(p, r)]).wcsr == 0.75
        assert sampled_csr(p, r) == pytest.approx(0.75, abs=1e-9)

    def test_empty_reference_raises(self):
        p = seq("t", (0, 2, "C:maj"))
        r = seq("t", (0, 2, "X"))
        with pytest.raises(ValueError, match="no scoreable reference duration"):
            compute_report([pair(p, r)])

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for i in range(30):
            p, r = random_pair(rng, f"t{i}", 25.0)
            assert 0.0 <= compute_report([pair(p, r)]).wcsr <= 1.0


class TestWcsr:
    def test_single_track_equals_csr(self):
        # matched over reference seconds of the track's own overlap table, bit for bit
        rng = np.random.default_rng(8)
        p, r = random_pair(rng, "t", 30.0)
        overlap = per_class_overlap(p, r).values()
        csr = sum(m for _, m in overlap) / sum(t for t, _ in overlap)
        assert compute_report([pair(p, r)]).wcsr == csr

    def test_symmetric_mean(self):
        right = pair(seq("a", (0, 10, "C:maj")), seq("a", (0, 10, "C:maj")))
        wrong = pair(seq("b", (0, 10, "N")), seq("b", (0, 10, "C:maj")))
        assert compute_report([right, wrong]).wcsr == 0.5

    def test_duration_weighting(self):
        # T = {10, 30} at CSR {1.0, 0.5}: (10*1 + 30*0.5) / 40
        full = pair(seq("a", (0, 10, "D:min")), seq("a", (0, 10, "D:min")))
        half = pair(
            seq("b", (0, 15, "C:maj"), (15, 30, "N")),
            seq("b", (0, 30, "C:maj")),
        )
        assert compute_report([full, half]).wcsr == 0.625

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="no scoreable reference duration"):
            compute_report([])

    def test_invariant_under_track_split(self):
        rng = np.random.default_rng(13)
        for i in range(20):
            p, r = random_pair(rng, f"t{i}", 30.0)
            cut = float(rng.uniform(5.0, 25.0))
            pl, pr = _split(p, cut, "left", "right")
            rl, rr = _split(r, cut, "left", "right")
            whole = compute_report([pair(p, r)]).wcsr
            parts = compute_report([pair(pl, rl), pair(pr, rr)]).wcsr
            assert parts == pytest.approx(whole, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        pairs = [pair(*random_pair(rng, f"t{i}", 20.0)) for i in range(8)]
        forward = compute_report(pairs)
        backward = compute_report(list(reversed(pairs)))
        assert backward.wcsr == pytest.approx(forward.wcsr, rel=1e-12)
        assert backward.acqa == pytest.approx(forward.acqa, rel=1e-12)
        for cls, score in forward.per_type.items():
            assert backward.per_type[cls] == pytest.approx(score, rel=1e-12)


def _split(s, t, left_id, right_id):
    left, right = [], []
    for iv, lab in s.segments:
        if iv.end <= t:
            left.append((iv, lab))
        elif iv.start >= t:
            right.append((iv, lab))
        else:
            left.append((Interval(iv.start, t), lab))
            right.append((Interval(t, iv.end), lab))
    return TimedLabelSequence(left_id, tuple(left)), TimedLabelSequence(right_id, tuple(right))


class TestPerType:
    def test_single_class_identity(self):
        s = seq("t", (0, 5, "C:maj"))
        assert compute_report([pair(s, s)]).per_type == {"maj": 1.0}

    def test_two_class_split(self):
        p = seq("t", (0, 4, "C:maj"))
        r = seq("t", (0, 3, "C:maj"), (3, 4, "B:hdim7"))
        assert compute_report([pair(p, r)]).per_type == {"maj": 1.0, "hdim7": 0.0}

    def test_matches_oracle_per_class(self):
        rng = np.random.default_rng(31)
        pairs = [pair(*random_pair(rng, f"t{i}", 40.0)) for i in range(6)]
        scores = compute_report(pairs).per_type
        _, _, oracle = sampled_corpus_scores((p.pred, p.ref) for p in pairs)
        assert set(scores) == set(oracle)
        for cls, score in scores.items():
            assert score == pytest.approx(oracle[cls], abs=1e-9)


class TestAcqa:
    def test_constant_mean(self):
        s = seq("t", (0, 3, "C:maj"), (3, 5, "N"))
        assert compute_report([pair(s, s)]).acqa == 1.0

    def test_two_class_mean(self):
        p = seq("t", (0, 4, "C:maj"))
        r = seq("t", (0, 3, "C:maj"), (3, 4, "B:hdim7"))
        assert compute_report([pair(p, r)]).acqa == 0.5

    def test_published_baseline_row(self):
        # one 1000 s track per class, right for the class's score in thousandths, N after
        pairs = []
        for cls, score in BASELINE_PER_TYPE.items():
            right = round(score * 1000)
            ref = seq(cls, (0, 1000, f"C:{cls}"))
            pred = seq(cls, (0, right, f"C:{cls}"), (right, 1000, "N"))
            pairs.append(pair(pred, ref))
        report = compute_report(pairs)
        assert report.per_type == BASELINE_PER_TYPE
        assert report.acqa == pytest.approx(sum(BASELINE_PER_TYPE.values()) / 7, abs=1e-12)
        assert round(report.acqa, 3) == 0.274

    def test_empty_ledger_raises(self):
        # no class has reference time: the average has nothing to run over
        p = seq("t", (0, 3, "C:maj"))
        r = seq("t", (0, 1, "X"), (1, 3, "X"))
        with pytest.raises(ValueError, match="no scoreable reference duration"):
            compute_report([pair(p, r)])

    def test_equals_mean_of_per_type_exactly(self):
        rng = np.random.default_rng(41)
        for i in range(20):
            pairs = [pair(*random_pair(rng, f"t{i}-{j}", 20.0)) for j in range(4)]
            report = compute_report(pairs)
            scores = report.per_type
            assert abs(report.acqa - sum(scores.values()) / len(scores)) <= 1e-12

    def test_equals_wcsr_when_scores_uniform(self):
        # every class half right: per-class scores all 0.5, so both metrics agree
        classes = ["maj", "min", "7", "min7", "maj7", "dim", "hdim7", "aug", "sus", "N"]
        quality = {"sus": "sus4", "N": "N"}
        preds, refs = [], []
        for k, cls in enumerate(classes):
            q = quality.get(cls, cls)
            other = quality.get(classes[(k + 1) % len(classes)], classes[(k + 1) % len(classes)])
            text = q if q == "N" else f"C:{q}"
            wrong = other if other == "N" else f"D:{other}"
            refs.append((2.0 * k, 2.0 * k + 2.0, text))
            preds.append((2.0 * k, 2.0 * k + 1.0, text))
            preds.append((2.0 * k + 1.0, 2.0 * k + 2.0, wrong))
        p = seq("t", *preds)
        r = seq("t", *refs)
        report = compute_report([pair(p, r)])
        assert set(report.per_type.values()) == {0.5}
        assert report.acqa == report.wcsr == 0.5


class TestTypeDistribution:
    def test_single_class(self):
        assert type_distribution([seq("t", (0, 5, "A:min"))]) == {"min": 1.0}

    def test_published_training_shares(self):
        # tenths of a second so each share is an exact decimal of the total
        shares = [
            ("maj", 630), ("min", 161), ("7", 69), ("min7", 26),
            ("maj7", 10), ("dim", 4), ("hdim7", 2), ("N", 98),
        ]
        pos = 0
        triples = []
        for cls, tenths in shares:
            text = "N" if cls == "N" else f"C:{'sus4' if cls == 'sus' else cls}"
            triples.append((pos / 10.0, (pos + tenths) / 10.0, text))
            pos += tenths
        dist = type_distribution([seq("t", *triples)])
        assert dist["maj"] == pytest.approx(0.63, abs=1e-9)
        assert dist["min"] == pytest.approx(0.161, abs=1e-9)
        assert dist["7"] == pytest.approx(0.069, abs=1e-9)
        assert dist["min7"] == pytest.approx(0.026, abs=1e-9)
        assert dist["maj7"] == pytest.approx(0.01, abs=1e-9)
        assert dist["dim"] == pytest.approx(0.004, abs=1e-9)
        assert dist["hdim7"] == pytest.approx(0.002, abs=1e-9)
        # the two biggest classes carry almost four fifths of the corpus
        assert dist["maj"] + dist["min"] == pytest.approx(0.791, abs=1e-9)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_x_excluded_and_zero_total_raises(self):
        dist = type_distribution([seq("t", (0, 1, "C:maj"), (1, 3, "X"))])
        assert dist == {"maj": 1.0}
        with pytest.raises(ValueError):
            type_distribution([seq("t", (0, 3, "X"))])


class TestReport:
    def test_compute_report_consistency(self):
        # WCSR and every class score are ratios of per-class seconds summed in pair order
        rng = np.random.default_rng(47)
        pairs = [pair(*random_pair(rng, f"t{i}", 25.0)) for i in range(200)]
        report = compute_report(pairs)
        totals, matched = {}, {}
        for p in pairs:
            for cls, (total, match) in per_class_overlap(p.pred, p.ref).items():
                totals[cls] = totals.get(cls, 0.0) + total
                matched[cls] = matched.get(cls, 0.0) + match
        assert report.wcsr == sum(matched.values()) / sum(totals.values())
        assert report.per_type == {cls: matched[cls] / totals[cls] for cls in totals}
        assert list(report.per_type) == sorted(report.per_type, key=class_sort_key)
        assert report.acqa == sum(report.per_type.values()) / len(report.per_type)
        assert sum(report.distribution.values()) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= report.wcsr <= 1.0 and 0.0 <= report.acqa <= 1.0

    def test_json_bytes_pinned(self):
        # a reordering of the sums moves the last bits of a score, and with them reports.json
        rng = np.random.default_rng(47)
        pairs = [pair(*random_pair(rng, f"t{i}", 25.0)) for i in range(200)]
        digest = hashlib.sha256(compute_report(pairs).to_json().encode()).hexdigest()
        assert digest == "a5cef4d593d429509e1ed9c7e7963b2c866674e4e33560ccf9c1899215be51b1"

    def test_json_stable_and_complete(self, tmp_path):
        report = MetricsReport(
            wcsr=0.5, acqa=0.25, per_type={"maj": 0.5}, distribution={"maj": 1.0}
        )
        assert report.to_json() == report.to_json()
        payload = json.loads(report.to_json())
        assert set(payload) == {"wcsr", "acqa", "per_type", "distribution"}
        out = tmp_path / "report.json"
        write_report_json(out, report)
        assert out.read_text() == report.to_json()

    def test_per_type_csv(self, tmp_path):
        report = MetricsReport(
            wcsr=0.8,
            acqa=0.6,
            per_type={"min": 0.4, "maj": 0.8},
            distribution={"maj": 0.75, "min": 0.25},
        )
        out = tmp_path / "per_type.csv"
        write_per_type_csv(out, report)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "reference_share", "score"]
        assert rows[1] == ["maj", "0.750000", "0.800000"]
        assert rows[2] == ["min", "0.250000", "0.400000"]

    def test_class_sort_key_orders_vocabulary_first(self):
        names = ["zz", "N", "min", "maj", "7"]
        assert sorted(names, key=class_sort_key) == ["maj", "min", "7", "N", "zz"]
