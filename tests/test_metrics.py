"""Corpus scores: recall ratios, per-class ledger, class-quality average."""

import csv
import json

import numpy as np
import pytest

from chordbalance.annotations import Interval, TimedLabelSequence
from chordbalance.chords import parse_chord_label
from chordbalance.metrics import (
    MetricsReport,
    PerTypeLedger,
    TrackPair,
    acqa,
    class_sort_key,
    compute_report,
    csr,
    type_distribution,
    wcsr,
    wcsr_per_type,
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
# evaluation qualities; their mean rounds to 0.274.
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
    def test_identity(self):
        s = seq("t", (0, 2, "C:maj"), (2, 3, "N"))
        assert csr(pair(s, s)) == 1.0

    def test_disjoint(self):
        p = seq("t", (0, 4, "N"))
        r = seq("t", (0, 4, "C:maj"))
        assert csr(pair(p, r)) == 0.0

    def test_partial_overlap(self):
        p = seq("t", (0, 2, "C:maj"), (2, 4, "C:maj"))
        r = seq("t", (0, 3, "C:maj"), (3, 4, "A:min"))
        assert csr(pair(p, r)) == 0.75
        assert sampled_csr(p, r) == pytest.approx(0.75, abs=1e-9)

    def test_empty_reference_raises(self):
        p = seq("t", (0, 2, "C:maj"))
        r = seq("t", (0, 2, "X"))
        with pytest.raises(ValueError, match="empty reference"):
            csr(pair(p, r))

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for i in range(30):
            p, r = random_pair(rng, f"t{i}", 25.0)
            assert 0.0 <= csr(pair(p, r)) <= 1.0


class TestWcsr:
    def test_single_track_equals_csr(self):
        rng = np.random.default_rng(8)
        p, r = random_pair(rng, "t", 30.0)
        assert wcsr([pair(p, r)]) == csr(pair(p, r))

    def test_symmetric_mean(self):
        right = pair(seq("a", (0, 10, "C:maj")), seq("a", (0, 10, "C:maj")))
        wrong = pair(seq("b", (0, 10, "N")), seq("b", (0, 10, "C:maj")))
        assert wcsr([right, wrong]) == 0.5

    def test_duration_weighting(self):
        # T = {10, 30} at CSR {1.0, 0.5}: (10*1 + 30*0.5) / 40
        full = pair(seq("a", (0, 10, "D:min")), seq("a", (0, 10, "D:min")))
        half = pair(
            seq("b", (0, 15, "C:maj"), (15, 30, "N")),
            seq("b", (0, 30, "C:maj")),
        )
        assert wcsr([full, half]) == 0.625

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            wcsr([])

    def test_invariant_under_track_split(self):
        rng = np.random.default_rng(13)
        for i in range(20):
            p, r = random_pair(rng, f"t{i}", 30.0)
            cut = float(rng.uniform(5.0, 25.0))
            pl, pr = _split(p, cut, "left", "right")
            rl, rr = _split(r, cut, "left", "right")
            whole = wcsr([pair(p, r)])
            parts = wcsr([pair(pl, rl), pair(pr, rr)])
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
        assert wcsr_per_type([pair(s, s)]).scores() == {"maj": 1.0}

    def test_two_class_split(self):
        p = seq("t", (0, 4, "C:maj"))
        r = seq("t", (0, 3, "C:maj"), (3, 4, "B:hdim7"))
        assert wcsr_per_type([pair(p, r)]).scores() == {"maj": 1.0, "hdim7": 0.0}

    def test_matches_oracle_per_class(self):
        rng = np.random.default_rng(31)
        pairs = [pair(*random_pair(rng, f"t{i}", 40.0)) for i in range(6)]
        scores = wcsr_per_type(pairs).scores()
        _, _, oracle = sampled_corpus_scores((p.pred, p.ref) for p in pairs)
        assert set(scores) == set(oracle)
        for cls, score in scores.items():
            assert score == pytest.approx(oracle[cls], abs=1e-9)


class TestAcqa:
    def test_constant_mean(self):
        ledger = PerTypeLedger(
            totals={"maj": 3.0, "N": 2.0}, matched={"maj": 3.0, "N": 2.0}
        )
        assert acqa(ledger) == 1.0

    def test_two_class_mean(self):
        ledger = PerTypeLedger(
            totals={"maj": 3.0, "hdim7": 1.0}, matched={"maj": 3.0, "hdim7": 0.0}
        )
        assert acqa(ledger) == 0.5

    def test_published_baseline_row(self):
        ledger = PerTypeLedger(
            totals={cls: 1.0 for cls in BASELINE_PER_TYPE},
            matched=dict(BASELINE_PER_TYPE),
        )
        value = acqa(ledger)
        assert value == pytest.approx(sum(BASELINE_PER_TYPE.values()) / 7, abs=1e-12)
        assert round(value, 3) == 0.274

    def test_empty_ledger_raises(self):
        with pytest.raises(ValueError):
            acqa(PerTypeLedger())

    def test_equals_mean_of_per_type_exactly(self):
        rng = np.random.default_rng(41)
        for i in range(20):
            pairs = [pair(*random_pair(rng, f"t{i}-{j}", 20.0)) for j in range(4)]
            ledger = wcsr_per_type(pairs)
            scores = ledger.scores()
            assert abs(acqa(ledger) - sum(scores.values()) / len(scores)) <= 1e-12

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
        ledger = wcsr_per_type([pair(p, r)])
        assert set(ledger.scores().values()) == {0.5}
        assert acqa(ledger) == wcsr([pair(p, r)]) == 0.5


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
        # every entry point reads the same ledger, so they agree bit for bit
        rng = np.random.default_rng(47)
        pairs = [pair(*random_pair(rng, f"t{i}", 25.0)) for i in range(200)]
        report = compute_report(pairs)
        assert wcsr(pairs) == report.wcsr
        assert acqa(wcsr_per_type(pairs)) == report.acqa
        assert sum(report.distribution.values()) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= report.wcsr <= 1.0 and 0.0 <= report.acqa <= 1.0

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
