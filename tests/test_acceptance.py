"""Acceptance gate: one test per headline guarantee, one printed verdict each.

Each test prints a single "[name] PASS/FAIL" line with the measured
margins, then asserts.  Tolerances and runtime budgets are part of the
contract, so they are asserted too.
"""

import json
import time

import numpy as np
import pytest

from chordbalance import cli
from chordbalance.annotations import Interval, TimedLabelSequence, read_lab_file, write_lab_file
from chordbalance.augment import AugmentSpec, pitch_shift
from chordbalance.chords import label_to_string, map_to_class, parse_chord_label
from chordbalance.focal import loss_and_logit_grad
from chordbalance.metrics import TrackPair, compute_report, csr, type_distribution
from chordbalance.pipeline import ExperimentConfig, run_experiment
from chordbalance.selection import (
    SelectionConfig,
    distribution_of_selection,
    select_balanced_subset,
)
from chordbalance.student import PredictedSegments
from chordbalance.synth import CorpusSpec, generate_corpus, save_corpus

from helpers import grid_sequence, pseudo_pool, random_label, random_pair
from oracles import csv_bytes, fd_gradient, sampled_corpus_scores, sampled_csr

# published per-type recall row for a supervised reference system; its
# unweighted mean is the expected class-quality average
PUBLISHED_PER_TYPE = {
    "maj": 0.616, "min": 0.693, "7": 0.31, "min7": 0.149,
    "maj7": 0.015, "dim": 0.118, "hdim7": 0.02,
}

# maj/min-heavy mix for the selection invariant pools
SKEWED = ("maj",) * 10 + ("min",) * 4 + ("N",) * 2 + ("7", "min7", "maj7", "dim", "hdim7")

# Frozen end-to-end experiment: class shares follow the published
# training distribution (the CorpusSpec default), three self-training
# rounds on a pool whose rarest classes sit below one percent.
LABELED_SPEC = CorpusSpec(n_tracks=32, track_length_range=(60.0, 90.0),
                          noise_sigma=0.12, seed=11, track_prefix="lab")
POOL_SPEC = CorpusSpec(n_tracks=144, track_length_range=(60.0, 90.0),
                       noise_sigma=0.12, seed=87, track_prefix="pool")
TEST_SPEC = CorpusSpec(n_tracks=32, track_length_range=(60.0, 90.0),
                       noise_sigma=0.12, seed=103, track_prefix="eval")


def announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")


def labelled(track_id, triples, confidences):
    seq = TimedLabelSequence.build(
        track_id, [(Interval(a, b), parse_chord_label(text)) for a, b, text in triples]
    )
    return PredictedSegments(seq, tuple(confidences))


def test_exact_scoring_matches_sampled_oracle(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    pairs = []
    for i in range(100):
        length = float(rng.integers(100, 141))
        pred, ref = random_pair(rng, f"pair-{i:03d}", length)
        pairs.append(TrackPair(pred, ref))
    worst = 0.0
    for pair in pairs:
        worst = max(worst, abs(csr(pair) - sampled_csr(pair.pred, pair.ref)))
    report = compute_report(pairs)
    oracle_wcsr, oracle_acqa, oracle_per_type = sampled_corpus_scores(
        [(p.pred, p.ref) for p in pairs]
    )
    worst = max(worst, abs(report.wcsr - oracle_wcsr), abs(report.acqa - oracle_acqa))
    assert set(report.per_type) == set(oracle_per_type)
    for cls, score in report.per_type.items():
        worst = max(worst, abs(score - oracle_per_type[cls]))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 10.0
    announce(capsys, "metric-oracle", ok,
             f"(100 pairs, max deviation {worst:.2e}, {elapsed:.1f}s)")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_quality_average_is_unweighted_mean(capsys):
    rng = np.random.default_rng(55)
    fixtures = [
        [TrackPair(*random_pair(rng, f"t-{i}", 120.0)) for i in range(n)]
        for n in (1, 5, 20)
    ]
    worst = 0.0
    for pairs in fixtures:
        report = compute_report(pairs)
        mean = sum(report.per_type.values()) / len(report.per_type)
        worst = max(worst, abs(report.acqa - mean))
    published_mean = sum(PUBLISHED_PER_TYPE.values()) / len(PUBLISHED_PER_TYPE)
    rounded = round(published_mean, 3)
    ok = worst <= 1e-12 and rounded == 0.274
    announce(capsys, "quality-average", ok,
             f"(max |acqa - mean| {worst:.1e}; published row mean {published_mean:.6f})")
    assert worst <= 1e-12
    assert rounded == 0.274


def test_focal_matches_cross_entropy_and_finite_differences(capsys):
    # Both checks run the batch objective the trainer uses, one frame at a time.
    started = time.perf_counter()
    ce_worst = 0.0
    for p in np.geomspace(1e-6, 1.0, 500):
        loss, grad = loss_and_logit_grad(np.array([[p, 1.0 - p]]), np.array([0]), 0.0)
        ce_grad = np.array([p - 1.0, 1.0 - p])
        ce_worst = max(ce_worst, abs(loss - (-np.log(p))), float(np.abs(grad[0] - ce_grad).max()))
    rng = np.random.default_rng(404)
    fd_worst = 0.0
    for gamma in (0.0, 1.0, 2.0, 5.0):
        for _ in range(250):
            n = int(rng.integers(5, 13))
            logits = rng.normal(0.0, 1.0, n)
            target = np.array([int(rng.integers(n))])

            def probs_of(z):
                shifted = z - z.max()
                p = np.exp(shifted)
                p /= p.sum()
                return p[None, :]

            def loss_of(z):
                return loss_and_logit_grad(probs_of(z), target, gamma)[0]

            analytic = loss_and_logit_grad(probs_of(logits), target, gamma)[1][0]
            numeric = fd_gradient(loss_of, logits)
            scale = max(float(np.linalg.norm(analytic)), 1e-6)
            fd_worst = max(fd_worst, float(np.linalg.norm(analytic - numeric)) / scale)
    elapsed = time.perf_counter() - started
    ok = ce_worst <= 1e-12 and fd_worst < 1e-5 and elapsed < 5.0
    announce(capsys, "focal-loss", ok,
             f"(gamma=0 vs CE {ce_worst:.1e}; 1000-case FD rel err {fd_worst:.1e}, {elapsed:.1f}s)")
    assert ce_worst <= 1e-12
    assert fd_worst < 1e-5
    assert elapsed < 5.0


def test_selection_invariant_suite(capsys):
    started = time.perf_counter()
    config = SelectionConfig(min_length=8.0, labeled_total=120.0)
    shares = None
    for seed in (63, 64, 65):
        pool, durations = pseudo_pool(np.random.default_rng(seed), 10, 60.0, classes=SKEWED)
        dataset, report = select_balanced_subset(pool, durations, config)

        # confidence-ordered prefix consumption per class
        candidates = {}
        for ps in pool:
            tid = ps.sequence.track_id
            for (iv, lab), conf in zip(ps.sequence.segments, ps.confidences):
                cls = map_to_class(lab)
                if cls in config.rare_classes and conf > config.confidence_threshold:
                    candidates.setdefault(cls, []).append((conf, tid, iv))
        for cls, entries in candidates.items():
            entries.sort(key=lambda c: (-c[0], c[1], c[2].start))
            consumed = [(ev.confidence, ev.track_id, ev.seed)
                        for ev in dataset.events if ev.chord_class == cls]
            assert consumed == entries[: len(consumed)]

        # disjoint excerpts, each at least min_length or the whole track
        for tid, intervals in dataset.intervals.items():
            for a, b in zip(intervals, intervals[1:]):
                assert a.end < b.start
            for iv in intervals:
                assert (iv.duration >= config.min_length - 1e-9
                        or iv.duration == pytest.approx(durations[tid], abs=1e-9))
                assert 0.0 <= iv.start and iv.end <= durations[tid] + 1e-9

        # per-class credited durations sum to the selected total
        assert report.total_selected == pytest.approx(dataset.total_duration, abs=1e-9)

        # rare share strictly above its pool share
        pool_dist = type_distribution([ps.sequence for ps in pool])
        sel_dist = distribution_of_selection(dataset, pool)
        pool_rare = sum(pool_dist.get(cls, 0.0) for cls in config.rare_classes)
        sel_rare = sum(sel_dist.get(cls, 0.0) for cls in config.rare_classes)
        assert sel_rare > pool_rare
        if seed == 63:
            shares = (pool_rare, sel_rare)

        # deterministic across runs
        rerun_dataset, rerun_report = select_balanced_subset(pool, durations, config)
        assert rerun_dataset.intervals == dataset.intervals
        assert rerun_dataset.events == dataset.events
        assert rerun_report.per_class == report.per_class
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    announce(capsys, "selection-invariants", ok,
             f"(3 pools; rare share {shares[0]:.3f} -> {shares[1]:.3f}, {elapsed:.1f}s)")
    assert elapsed < 5.0


def test_selection_micro_instances(capsys):
    config = SelectionConfig(min_length=8.0, labeled_total=8.0)

    # short seed centered inside a long track
    pool = [labelled("t", [(10.0, 10.4, "C:hdim7")], [0.9])]
    dataset, report = select_balanced_subset(pool, {"t": 60.0}, config)
    (iv,) = dataset.intervals["t"]
    assert iv.start == pytest.approx(6.2, abs=1e-9)
    assert iv.end == pytest.approx(14.2, abs=1e-9)
    assert report.per_class["hdim7"].selected_duration == pytest.approx(8.0, abs=1e-9)

    # seed near the start clamps the window to the track head
    pool = [labelled("t", [(0.5, 1.0, "C:dim")], [0.9])]
    dataset, _ = select_balanced_subset(pool, {"t": 60.0}, config)
    assert dataset.intervals["t"] == (Interval(0.0, 8.0),)

    # overlapping windows merge and only newly covered time is credited
    pool = [labelled("t", [(9.5, 10.5, "C:maj7"), (11.5, 12.5, "G:maj7")], [0.9, 0.8])]
    merge_config = SelectionConfig(min_length=8.0, labeled_total=10.0)
    dataset, report = select_balanced_subset(pool, {"t": 60.0}, merge_config)
    assert dataset.intervals["t"] == (Interval(6.0, 16.0),)
    assert report.per_class["maj7"].selected_duration == 10.0
    assert report.per_class["maj7"].seeds_used == 2

    announce(capsys, "selection-micro", True,
             "(3/3 hand-traced windows exact: center, clamp, merge credit 10 not 16)")


def test_self_training_lifts_rare_class_accuracy(capsys, tmp_path):
    started = time.perf_counter()
    dirs = {}
    pool_dist = None
    for name, spec in (("labeled", LABELED_SPEC), ("pool", POOL_SPEC), ("test", TEST_SPEC)):
        corpus = generate_corpus(spec)
        save_corpus(tmp_path / name, corpus, spec)
        dirs[name] = str(tmp_path / name)
        if name == "pool":
            pool_dist = type_distribution([labels for _, labels in corpus])
    config = ExperimentConfig(
        labeled_dir=dirs["labeled"],
        unlabeled_dir=dirs["pool"],
        test_dir=dirs["test"],
        name="noisy-student",
        iterations=3,
        seed=5,
        loss="focal",
        gamma=2.0,
        learning_rate=5.0,
        epochs=600,
        patience=None,
        smoothing_window=5,
        min_length=8.0,
        augment=AugmentSpec((-5, 6), 0.05, 5),
    )
    reports = run_experiment(config, tmp_path / "run")
    baseline = reports[0].metrics
    best = max(reports[1:], key=lambda r: r.metrics.acqa).metrics

    sub_percent = sorted(
        cls for cls, share in pool_dist.items()
        if share < 0.01 and cls in baseline.per_type
    )
    assert sub_percent, "pool should realize classes below one percent"
    improved = {
        cls: (baseline.per_type[cls],
              max(r.metrics.per_type.get(cls, 0.0) for r in reports[1:]))
        for cls in sub_percent
    }
    improved = {cls: pair for cls, pair in improved.items() if pair[1] > pair[0]}
    elapsed = time.perf_counter() - started
    gains = ", ".join(f"{cls} {a:.3f}->{b:.3f}" for cls, (a, b) in improved.items())
    ok = best.acqa > baseline.acqa and bool(improved) and elapsed < 300.0
    announce(capsys, "self-training", ok,
             f"(acqa {baseline.acqa:.3f} -> {best.acqa:.3f}; sub-1% gains: {gains}; {elapsed:.0f}s)")
    assert best.acqa > baseline.acqa
    assert improved
    assert elapsed < 300.0


def test_frozen_corpus_csvs_match_percent_format(capsys, tmp_path):
    tracks = 0
    for spec in (LABELED_SPEC, POOL_SPEC, TEST_SPEC):
        corpus = generate_corpus(spec)
        save_corpus(tmp_path / spec.track_prefix, corpus, spec)
        for track, _ in corpus:
            written = (tmp_path / spec.track_prefix / f"{track.track_id}.csv").read_bytes()
            assert written == csv_bytes(track.frames), track.track_id
            tracks += 1
    announce(capsys, "corpus-csv", True,
             f"({tracks} tracks of the frozen corpora equal their %.9f formatting)")


def test_experiment_reruns_are_byte_identical(capsys, tmp_path):
    for name, seed, prefix in (("labeled", 201, "lab"), ("pool", 202, "pool"), ("test", 203, "eval")):
        spec = CorpusSpec(n_tracks=4 if name != "test" else 2,
                          track_length_range=(15.0, 20.0),
                          noise_sigma=0.1, seed=seed, track_prefix=prefix)
        save_corpus(tmp_path / name, generate_corpus(spec), spec)
    config = ExperimentConfig(
        labeled_dir=str(tmp_path / "labeled"),
        unlabeled_dir=str(tmp_path / "pool"),
        test_dir=str(tmp_path / "test"),
        name="twice",
        iterations=1,
        seed=9,
        learning_rate=5.0,
        epochs=30,
        patience=None,
        smoothing_window=5,
        min_length=5.0,
        augment=AugmentSpec((-2, 3), 0.05, 9),
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli.main(["--output-dir", str(out), "run", "--config", str(config_path)])
        assert code == cli.EXIT_OK
        blobs.append((out / "reports.json").read_bytes())
    ok = blobs[0] == blobs[1]
    announce(capsys, "determinism", ok,
             f"(reports.json identical across reruns, {len(blobs[0])} bytes)")
    assert ok


def test_round_trips_are_exact(capsys, tmp_path):
    rng = np.random.default_rng(77)

    # annotation files survive read -> write unchanged
    for i in range(25):
        seq = grid_sequence(rng, f"rt-{i:02d}", 90.0, gap_prob=0.1)
        path = tmp_path / f"rt-{i:02d}.lab"
        write_lab_file(path, seq)
        text = path.read_bytes()
        write_lab_file(path, read_lab_file(path))
        assert path.read_bytes() == text

    # canonical label strings are parse/serialize fixed points
    labels = ["G#:min7/b3", "Ab:maj", "Db", "C:maj(4)/5", "N", "X"]
    labels += [label_to_string(random_label(rng, x_prob=0.05)) for _ in range(300)]
    for text in labels:
        once = label_to_string(parse_chord_label(text))
        assert label_to_string(parse_chord_label(once)) == once

    # pitch shifting by k then -k restores features and labels exactly
    spec = CorpusSpec(n_tracks=1, track_length_range=(20.0, 25.0),
                      noise_sigma=0.2, seed=5, track_prefix="rt")
    ((track, labels_seq),) = generate_corpus(spec)
    for k in range(-11, 12):
        shifted_track, shifted_labels = pitch_shift(track, labels_seq, k)
        back_track, back_labels = pitch_shift(shifted_track, shifted_labels, -k)
        assert np.array_equal(back_track.frames, track.frames)
        assert back_labels == labels_seq

    announce(capsys, "round-trips", True,
             "(25 annotation files, 306 labels, 23 pitch shifts all fixed points)")
