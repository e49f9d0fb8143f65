"""Toy softmax classifier: training determinism, smoothing, serialization."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from chordbalance import focal, student
from chordbalance.chords import CHORD_CLASSES, PITCH_NAMES, map_to_class, parse_chord_label, transpose
from chordbalance.annotations import Interval, TimedLabelSequence
from chordbalance.student import (
    MODEL_CLASSES,
    ClassifierModel,
    FeatureTrack,
    PredictedSegments,
    TrainParams,
    frame_targets,
    init_model,
    load_model,
    predict_segments,
    save_model,
    train,
)
from chordbalance.synth import CorpusSpec, generate_corpus

import oracles
from helpers import build_sequence, frame_accuracy, targets


def clean_corpus(n_tracks=6, seed=3):
    spec = CorpusSpec(
        n_tracks=n_tracks,
        track_length_range=(40.0, 60.0),
        noise_sigma=0.0,
        seed=seed,
        track_prefix="clean",
    )
    return generate_corpus(spec)


# Labels for frame-target properties: in and out of the model classes, N and X.
TARGET_LABELS = ("C:maj", "D:min", "B:hdim7", "D:maj6", "G:aug", "N", "X")


def noisy_corpus(n_tracks=6, seed=9, sigma=0.3):
    spec = CorpusSpec(
        n_tracks=n_tracks,
        track_length_range=(25.0, 40.0),
        noise_sigma=sigma,
        seed=seed,
        track_prefix="noisy",
    )
    return generate_corpus(spec)


class TestFeatureTrack:
    def test_duration_and_frame_times(self):
        track = FeatureTrack("t", np.zeros((10, 12)), frame_rate=10.0)
        assert len(track) == 10
        assert track.duration == 1.0
        np.testing.assert_allclose(track.frame_times(), np.arange(10) / 10 + 0.05)

    @pytest.mark.parametrize(
        "frames,rate",
        [
            (np.zeros((4, 11)), 10.0),
            (np.zeros(12), 10.0),
            (np.full((2, 12), np.nan), 10.0),
            (np.zeros((2, 12)), 0.0),
        ],
    )
    def test_validation(self, frames, rate):
        with pytest.raises(ValueError):
            FeatureTrack("t", frames, frame_rate=rate)

    @pytest.mark.parametrize("given,kept", [(np.float32, np.float32), (np.float64, np.float64),
                                            (np.int64, np.float64), (np.float16, np.float64)])
    def test_keeps_float32_and_float64_frames(self, given, kept):
        frames = np.arange(24).reshape(2, 12).astype(given)
        track = FeatureTrack("t", frames)
        assert track.frames.dtype == kept
        assert (track.frames is frames) == (given is kept)
        np.testing.assert_array_equal(track.frames, np.arange(24).reshape(2, 12))
        assert FeatureTrack("t", frames.tolist()).frames.dtype == np.float64


class TestModelClasses:
    def test_default_list(self):
        assert len(MODEL_CLASSES) == 109  # 9 chord classes at 12 roots, plus N
        assert MODEL_CLASSES[:2] == ("C:maj", "C#:maj") and MODEL_CLASSES[12] == "C:min"
        assert MODEL_CLASSES[-2:] == ("B:sus4", "N")
        assert len(set(MODEL_CLASSES)) == 109
        for name in MODEL_CLASSES:
            label = parse_chord_label(name)
            assert map_to_class(label) in CHORD_CLASSES

    def test_output_labels_map_back(self):
        for i, name in enumerate(MODEL_CLASSES):
            label = student._OUTPUT_LABELS[i]
            assert label == parse_chord_label(name) and str(label) == name
            assert student._model_class_of(label) == i

    def test_shift_table(self):
        shifted = student._SHIFTED
        assert shifted.shape == (12, len(MODEL_CLASSES))
        n = MODEL_CLASSES.index("N")
        for k in range(12):
            for i, label in enumerate(student._OUTPUT_LABELS):
                assert shifted[k][i] == student._model_class_of(transpose(label, k))
                if i != n:
                    root, quality = MODEL_CLASSES[i].split(":")
                    root = PITCH_NAMES[(PITCH_NAMES.index(root) + k) % 12]
                    assert MODEL_CLASSES[shifted[k][i]] == f"{root}:{quality}"
            assert shifted[k][n] == n
            np.testing.assert_array_equal(shifted[-k % 12][shifted[k]], np.arange(len(MODEL_CLASSES)))


class TestClassifierModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ClassifierModel(np.zeros((109, 12)))
        with pytest.raises(ValueError, match="shape"):
            ClassifierModel(np.zeros((2, 13)))
        with pytest.raises(ValueError, match="finite"):
            ClassifierModel(np.full((109, 13), np.inf))

    def test_classes_are_the_table(self):
        assert ClassifierModel(np.zeros((109, 13))).classes is MODEL_CLASSES

    def test_posteriors_are_distributions(self):
        model = init_model(TrainParams(seed=4))
        probs = model.posteriors(np.random.default_rng(0).normal(0, 1, (20, 12)))
        assert probs.shape == (20, 109) and probs.dtype == np.float32
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs > 0).all()


class TestFrameTargets:
    def test_alignment_and_gap_fill(self):
        track = FeatureTrack("t", np.zeros((10, 12)), frame_rate=10.0)
        labels = build_sequence(
            "t", [(Interval(0.0, 0.5), parse_chord_label("C:maj"))]
        )
        np.testing.assert_array_equal(frame_targets(track, labels), [0, 0, 0, 0, 0, 108, 108, 108, 108, 108])

    def test_unknown_reference_folds_to_n(self):
        track = FeatureTrack("t", np.zeros((4, 12)), frame_rate=10.0)
        # X, N, and chords whose quality has no vocabulary class
        for text in ("X", "N", "C:aug7", "G:5"):
            labels = build_sequence(
                "t", [(Interval(0.0, 0.4), parse_chord_label(text))]
            )
            np.testing.assert_array_equal(frame_targets(track, labels), [108] * 4)

    def test_root_specific_targets(self):
        track = FeatureTrack("t", np.zeros((4, 12)), frame_rate=10.0)
        labels = build_sequence(
            "t", [(Interval(0.0, 0.4), parse_chord_label("D:maj6"))]
        )
        # maj6 reduces to the maj class at root D
        np.testing.assert_array_equal(frame_targets(track, labels), [MODEL_CLASSES.index("D:maj")] * 4)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_frame_loop(self, data):
        rate = data.draw(st.sampled_from([10.0, 4.0, 7.3]))
        n = data.draw(st.integers(1, 30))
        frame = st.integers(0, n + 4)
        # Boundaries on frame midpoints (exactly, and one ulp either side),
        # on frame edges, and anywhere up to past the track end.
        point = st.one_of(
            frame.map(lambda k: (k + 0.5) / rate),
            frame.map(lambda k: float(np.nextafter((k + 0.5) / rate, np.inf))),
            frame.map(lambda k: float(np.nextafter((k + 0.5) / rate, -np.inf))),
            frame.map(lambda k: k / rate),
            st.floats(0.0, (n + 4) / rate),
        )
        points = sorted(data.draw(st.lists(point, min_size=2, max_size=24, unique=True)))
        # Each gap between consecutive points is a segment or left uncovered.
        segments = [
            (Interval(a, b), parse_chord_label(data.draw(st.sampled_from(TARGET_LABELS))))
            for a, b in zip(points, points[1:])
            if data.draw(st.booleans())
        ]
        track = FeatureTrack("t", np.zeros((n, 12)), frame_rate=rate)
        labels = TimedLabelSequence("t", tuple(segments))
        np.testing.assert_array_equal(frame_targets(track, labels), oracles.frame_targets(track, labels))


class TestTrain:
    def test_noiseless_corpus_trains_to_high_accuracy(self):
        corpus = clean_corpus()
        result = train(targets(corpus), TrainParams(learning_rate=5.0, epochs=200, seed=0))
        assert frame_accuracy(result.model, corpus) >= 0.99
        assert result.epochs_run == 200
        assert len(result.train_losses) == 200
        assert result.val_losses is None

    def test_zero_epochs_returns_init(self):
        corpus = clean_corpus(n_tracks=2)
        params = TrainParams(epochs=0, seed=7)
        result = train(targets(corpus), params)
        np.testing.assert_array_equal(result.model.weights, init_model(params).weights)
        assert result.epochs_run == 0

    def test_same_seed_is_bit_identical(self):
        corpus = clean_corpus(n_tracks=3)
        params = TrainParams(learning_rate=2.0, epochs=40, seed=21)
        a = train(targets(corpus), params)
        b = train(targets(corpus), params)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.train_losses == b.train_losses

    def test_focal_gamma_zero_matches_cross_entropy(self):
        corpus = noisy_corpus(n_tracks=3)
        ce = train(targets(corpus), TrainParams(learning_rate=2.0, epochs=30, seed=5, loss="cross_entropy"))
        fl = train(targets(corpus), TrainParams(learning_rate=2.0, epochs=30, seed=5, loss="focal", gamma=0.0))
        np.testing.assert_array_equal(ce.model.weights, fl.model.weights)
        assert ce.train_losses == fl.train_losses

    def test_training_reduces_loss(self):
        corpus = noisy_corpus(n_tracks=4)
        params = TrainParams(learning_rate=2.0, epochs=60, seed=2, loss="focal", gamma=2.0)
        result = train(targets(corpus), params)
        assert result.final_loss < result.train_losses[0]

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            train([], TrainParams())

    def test_rejects_targets_that_do_not_fit_the_frames(self):
        corpus = targets(clean_corpus(n_tracks=2))
        (track, y), other = corpus
        message = f"track {track.track_id!r} has {len(y) - 1} targets for {len(y)} frames"
        with pytest.raises(ValueError, match=message):
            train([(track, y[:-1]), other], TrainParams(epochs=1))
        for bad in (len(MODEL_CLASSES), -1):
            with pytest.raises(ValueError, match=r"output indices in \[0, 109\)"):
                train([(track, np.where(np.arange(len(y)) == 3, bad, y)), other], TrainParams(epochs=1))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TrainParams(loss="hinge")
        with pytest.raises(ValueError):
            TrainParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainParams(learning_rate=float("inf"))
        with pytest.raises(ValueError):
            TrainParams(learning_rate=float("nan"))
        with pytest.raises(ValueError):
            TrainParams(epochs=-1)
        with pytest.raises(ValueError):
            TrainParams(patience=0)


class TestMatchesAllocatingLoop:
    """The blocked, buffer-reusing float32 trainer against the loop that allocates every epoch."""

    @pytest.fixture(scope="class")
    def corpora(self):
        corpus = noisy_corpus(n_tracks=14, sigma=0.5)
        val = noisy_corpus(n_tracks=15, seed=10, sigma=0.5)
        n = sum(len(track) for track, _ in corpus)
        # three row blocks or more, the last one ragged, and a validation
        # set longer than the training set
        assert n > 2 * student._BLOCK_ROWS and n % student._BLOCK_ROWS
        assert sum(len(track) for track, _ in val) > n
        return targets(corpus), targets(val)

    @pytest.mark.parametrize(
        "params,with_val",
        [
            (TrainParams(learning_rate=2.0, epochs=30, seed=5, loss="focal", gamma=2.0), False),
            (TrainParams(learning_rate=2.0, epochs=30, seed=6,
                         class_weights={"hdim7": 8.0, "dim": 4.0, "maj": 0.5}), False),
            (TrainParams(learning_rate=60.0, epochs=300, seed=1, patience=5), True),
        ],
        ids=["focal", "weighted-ce", "patience"],
    )
    def test_weights_and_losses(self, corpora, params, with_val):
        corpus, val = corpora
        val = val if with_val else None
        result = train(corpus, params, validation=val)
        weights, train_losses, val_losses, final_loss, _ = oracles.train(
            corpus, params, validation=val, dtype=np.float32)
        assert result.model.weights.dtype == np.float64
        np.testing.assert_array_equal(result.model.weights, weights)
        assert result.train_losses == train_losses
        assert result.final_loss == final_loss
        if with_val:
            assert len(result.val_losses) < params.epochs  # patience fired
            assert result.val_losses == val_losses

    # A saturating step drives true-class probabilities under the floor.
    CLAMPING = TrainParams(learning_rate=1e5, epochs=4, seed=2, loss="focal", patience=10)

    def test_clamp_count_matches(self, corpora):
        corpus, val = corpora
        result = train(corpus, self.CLAMPING, validation=val)
        assert result.clamps > 0
        assert result.clamps == oracles.train(corpus, self.CLAMPING, validation=val, dtype=np.float32)[4]

    def test_clamps_leave_focal_counter_alone(self, corpora):
        # the trainer reports its clamps in its result and writes no module state
        corpus, val = corpora
        before = focal.clamp_count()
        result = train(corpus, self.CLAMPING, validation=val)
        assert result.clamps > 0
        assert focal.clamp_count() == before

    def test_float32_drift_from_float64_oracle(self, corpora):
        """Float32 passes stay close to training run wholly in float64.

        Measured drift on this corpus: weights 2.4e-7 of the largest
        weight, final loss 5e-9 relative; the bounds leave room for the
        rounding of other BLAS kernels.
        """
        corpus, _ = corpora
        params = TrainParams(learning_rate=5.0, epochs=200, seed=5, loss="focal", gamma=2.0)
        result = train(corpus, params)
        weights, _, _, final_loss, _ = oracles.train(corpus, params)
        scale = np.abs(weights).max()
        assert np.abs(result.model.weights - weights).max() <= 1e-5 * scale
        frames = np.vstack([track.frames for track, _ in corpus])
        wide = ClassifierModel(weights, params)
        np.testing.assert_array_equal(result.model.posteriors(frames).argmax(axis=1),
                                      wide.posteriors(frames).argmax(axis=1))
        assert result.final_loss == pytest.approx(final_loss, rel=1e-4)


_ONE_CPU_TRAIN = """
import os, sys
import numpy as np  # BLAS starts with the parent's thread count
sys.path[:0] = sys.argv[1:3]
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from chordbalance.student import TrainParams, _workers, train
from helpers import targets
from test_student import noisy_corpus
assert _workers(10) == 1
params = TrainParams(learning_rate=2.0, epochs=20, seed=5, loss="focal")
sys.stdout.write(train(targets(noisy_corpus(n_tracks=14, sigma=0.5)), params).model.weights.tobytes().hex())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="os.sched_setaffinity is not available")
def test_weights_do_not_depend_on_worker_count():
    """A child limited to one CPU runs every block on one worker and gets the same bytes."""
    tests_dir = Path(__file__).parent
    src_dir = Path(student.__file__).parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_TRAIN, str(src_dir), str(tests_dir)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    params = TrainParams(learning_rate=2.0, epochs=20, seed=5, loss="focal")
    weights = train(targets(noisy_corpus(n_tracks=14, sigma=0.5)), params).model.weights
    assert child.stdout == weights.tobytes().hex()


def test_borrowed_buffers_under_contention(monkeypatch):
    """A worker per block (9 blocks), switching threads every microsecond: the bytes stay the same."""
    corpus = noisy_corpus(n_tracks=50, seed=11)
    params = TrainParams(learning_rate=2.0, epochs=3, seed=5, loss="focal")
    expected = train(targets(corpus), params).model.weights
    monkeypatch.setattr(student, "_workers", lambda blocks: blocks)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: results.append(train(targets(corpus), params)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    np.testing.assert_array_equal(results[0].model.weights, expected)


def _traced_peak_of_one_epoch(corpus):
    """Peak bytes traced while training one epoch; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        train(corpus, TrainParams(epochs=1, seed=0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_scratch_grows_by_workers_not_blocks():
    """Peak memory rises with the frames only by the per-frame design arrays.

    Those need about 70 B per frame; a block buffer for every block of
    the corpus would add another 436 B.  Each extra worker adds one
    buffer, whatever the corpus size.
    """
    small = targets(noisy_corpus(n_tracks=25, seed=11))
    large = targets(noisy_corpus(n_tracks=100, seed=11))
    frames = [sum(len(track) for track, _ in corpus) for corpus in (small, large)]
    blocks = [-(-n // student._BLOCK_ROWS) for n in frames]
    assert blocks[0] >= 4 and blocks[1] >= 16
    _traced_peak_of_one_epoch(small)  # first-call allocations stay out of the comparison
    rise = _traced_peak_of_one_epoch(large) - _traced_peak_of_one_epoch(small)
    extra_workers = student._workers(blocks[1]) - student._workers(blocks[0])
    buffer_bytes = len(MODEL_CLASSES) * student._BLOCK_ROWS * np.dtype(np.float32).itemsize
    assert rise - extra_workers * buffer_bytes < 200 * (frames[1] - frames[0])


class TestEarlyStopping:
    def test_requires_both_validation_and_patience(self):
        corpus = noisy_corpus(n_tracks=3)
        val = noisy_corpus(n_tracks=2, seed=10)
        no_patience = train(targets(corpus), TrainParams(epochs=10, seed=1), validation=targets(val))
        assert no_patience.val_losses is None
        no_val = train(targets(corpus), TrainParams(epochs=10, seed=1, patience=3))
        assert no_val.val_losses is None

    def test_stops_and_restores_best_weights(self):
        corpus = noisy_corpus(n_tracks=2, sigma=0.5)
        val = noisy_corpus(n_tracks=2, seed=10, sigma=0.5)
        params = TrainParams(learning_rate=60.0, epochs=300, seed=1, patience=5)
        result = train(targets(corpus), params, validation=targets(val))
        assert result.val_losses is not None
        assert result.epochs_run <= params.epochs
        best = int(np.argmin(result.val_losses)) + 1
        assert result.epochs_run == best
        if len(result.val_losses) < params.epochs:  # patience actually fired
            assert len(result.val_losses) == best + params.patience
        assert min(result.val_losses) == result.val_losses[result.epochs_run - 1]


class TestPredictSegments:
    def arrow_model(self):
        # logits pick the chroma bin each of the rows of C:maj, D:min and N
        # points at; every other row stays at zero
        weights = np.zeros((109, 13))
        for name, chroma_bin in (("C:maj", 0), ("D:min", 2), ("N", 5)):
            weights[MODEL_CLASSES.index(name), chroma_bin] = 4.0
        return ClassifierModel(weights)

    def frames_for(self, indices):
        bins = {0: 0, 1: 2, 2: 5}
        frames = np.zeros((len(indices), 12))
        for i, cls in enumerate(indices):
            frames[i, bins[cls]] = 1.0
        return FeatureTrack("t", frames, frame_rate=10.0)

    def test_constant_track_single_segment(self):
        track = self.frames_for([0] * 8)
        pred = predict_segments(self.arrow_model(), track)
        assert len(pred.sequence.segments) == 1
        iv, label = pred.sequence.segments[0]
        assert (iv.start, iv.end) == (0.0, 0.8)
        assert label == parse_chord_label("C:maj")

    def test_window_one_is_raw_argmax_runs(self):
        track = self.frames_for([0, 0, 0, 1, 0, 0, 0, 0, 1, 1])
        pred = predict_segments(self.arrow_model(), track, smoothing_window=1)
        labels = [str(lab) for _, lab in pred.sequence.segments]
        assert labels == ["C:maj", "D:min", "C:maj", "D:min"]

    def test_window_five_removes_isolated_flip(self):
        # hand trace: median of [0,0,0,1,0,0,0,0,1,1] over 5 frames
        # with edge replication gives [0]*8 + [1,1]
        track = self.frames_for([0, 0, 0, 1, 0, 0, 0, 0, 1, 1])
        pred = predict_segments(self.arrow_model(), track, smoothing_window=5)
        segs = pred.sequence.segments
        assert len(segs) == 2
        assert (segs[0][0].start, segs[0][0].end) == (0.0, 0.8)
        assert str(segs[0][1]) == "C:maj"
        assert (segs[1][0].start, segs[1][0].end) == (0.8, 1.0)
        assert str(segs[1][1]) == "D:min"

    def test_output_tiles_track_exactly(self):
        corpus = noisy_corpus(n_tracks=4)
        model = train(targets(corpus[:2]), TrainParams(learning_rate=2.0, epochs=30, seed=3)).model
        for track, _ in corpus:
            for window in (1, 5):
                pred = predict_segments(model, track, smoothing_window=window)
                segs = pred.sequence.segments
                assert segs[0][0].start == 0.0
                assert segs[-1][0].end == pytest.approx(track.duration, abs=1e-12)
                for (a, _), (b, _) in zip(segs, segs[1:]):
                    assert b.start == a.end

    def test_confidence_bounds(self):
        corpus = noisy_corpus(n_tracks=3)
        model = train(targets(corpus[:2]), TrainParams(learning_rate=2.0, epochs=30, seed=3)).model
        floor = 1.0 / len(model.classes)
        for track, _ in corpus:
            raw = predict_segments(model, track, smoothing_window=1)
            # without smoothing every frame's argmax posterior beats chance
            assert all(floor - 1e-12 <= c <= 1.0 for c in raw.confidences)
            smoothed = predict_segments(model, track, smoothing_window=5)
            assert all(0.0 <= c <= 1.0 for c in smoothed.confidences)

    def test_smoothing_never_beats_raw_segment_count(self):
        corpus = noisy_corpus(n_tracks=5)
        model = train(targets(corpus[:3]), TrainParams(learning_rate=2.0, epochs=50, seed=9)).model
        for track, _ in corpus:
            base = len(predict_segments(model, track, 1).sequence.segments)
            for window in (3, 5, 7, 9):
                assert len(predict_segments(model, track, window).sequence.segments) <= base

    @pytest.mark.parametrize("window", [1, 5])
    def test_matches_per_frame_reference(self, window):
        """Segments, labels and confidences against posteriors taken one frame at a time."""
        rng = np.random.default_rng(12)
        model = ClassifierModel(rng.normal(0.0, 1.0, (109, 13)))
        runs = rng.permutation(np.arange(1, 41))  # one run of every length from 1 to 40 frames
        frames = np.vstack([rng.uniform(0.0, 1.0, 12) + rng.normal(0.0, 0.01, (length, 12)) for length in runs])
        track = FeatureTrack("t", frames, frame_rate=10.0)

        # the reference runs in float32, as posteriors do
        weights = model.weights.astype(np.float32)
        rows = []
        for frame in frames.astype(np.float32):
            z = weights[:, :12] @ frame + weights[:, 12]
            e = np.exp(z - z.max())
            rows.append(e / e.sum())
        probs = np.array(rows)
        idx = median_filter(probs.argmax(axis=1), size=window, mode="nearest")
        bounds = [0, *(i for i in range(1, len(idx)) if idx[i] != idx[i - 1]), len(idx)]
        spans = list(zip(bounds, bounds[1:]))
        assert min(b - a for a, b in spans) == 1 and max(b - a for a, b in spans) >= 40

        posteriors = model.posteriors(frames)
        assert posteriors.shape == (len(frames), 109) and posteriors.dtype == np.float32
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0, rtol=0, atol=1e-6)
        pred = predict_segments(model, track, smoothing_window=window)
        assert [(iv.start, iv.end, str(label)) for iv, label in pred.sequence.segments] == [
            (a / 10.0, b / 10.0, MODEL_CLASSES[idx[a]]) for a, b in spans]
        expected = [probs[a:b, idx[a]].mean(dtype=np.float64) for a, b in spans]
        np.testing.assert_allclose(pred.confidences, expected, rtol=0, atol=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 500), half=st.integers(0, 50), top=st.sampled_from([1, 3, 108]),
           seed=st.integers(0, 2**32 - 1))
    def test_running_median_matches_scipy(self, n, half, top, seed):
        """The smoothing against scipy's edge-repeating median filter, windows longer than the track too."""
        idx = np.random.default_rng(seed).integers(0, top + 1, n).astype(np.intp)
        window = 2 * half + 1
        smoothed = student._running_median(idx, window)
        expected = median_filter(idx, size=window, mode="nearest")
        assert smoothed.dtype == expected.dtype
        np.testing.assert_array_equal(smoothed, expected)

    def test_input_validation(self):
        model = self.arrow_model()
        with pytest.raises(ValueError):
            predict_segments(model, FeatureTrack("t", np.zeros((0, 12))))
        track = self.frames_for([0, 1])
        for window in (0, 2, -3):
            with pytest.raises(ValueError):
                predict_segments(model, track, smoothing_window=window)


class TestPredictedSegments:
    def test_validation(self):
        seq = build_sequence("t", [(Interval(0, 1), parse_chord_label("C:maj"))])
        with pytest.raises(ValueError):
            PredictedSegments(seq, (0.5, 0.6))
        with pytest.raises(ValueError):
            PredictedSegments(seq, (1.5,))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        corpus = clean_corpus(n_tracks=2)
        params = TrainParams(learning_rate=2.0, epochs=25, seed=6, loss="focal", gamma=1.0, patience=None)
        trained = train(targets(corpus), params).model
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.classes == trained.classes
        np.testing.assert_array_equal(loaded.weights, trained.weights)
        assert loaded.params.to_dict() == trained.params.to_dict()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda params: params.update(pateince=3), r"unknown model params fields: \['pateince'\]"),
            (lambda params: params.pop("patience"), r"model params lacks required fields: \['patience'\]"),
            (lambda params: params.update(epochs="25"), "model params field 'epochs' must be int"),
        ],
        ids=["unknown", "missing", "wrong-type"],
    )
    def test_load_rejects_malformed_params(self, tmp_path, edit, message):
        model = init_model(TrainParams(seed=4))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        edit(payload["params"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda classes: classes.reverse(), lambda classes: classes.pop(0), lambda classes: classes.pop()],
        ids=["reordered", "shortened", "no-N"],
    )
    def test_load_rejects_other_class_lists(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(init_model(TrainParams(seed=4)), path)
        payload = json.loads(path.read_text())
        edit(payload["classes"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="model classes"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda payload: {key: value for key, value in payload.items() if key != "weights"},
         lambda payload: [payload]],
        ids=["no-weights", "list"],
    )
    def test_load_rejects_malformed_files(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(init_model(TrainParams(seed=4)), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match="a model file is a JSON object with classes, weights and params") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_loaded_model_predicts_identically(self, tmp_path):
        corpus = noisy_corpus(n_tracks=2)
        trained = train(targets(corpus), TrainParams(learning_rate=2.0, epochs=20, seed=8)).model
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        track = corpus[0][0]
        a = predict_segments(trained, track, 5)
        b = predict_segments(loaded, track, 5)
        assert a.sequence == b.sequence
        assert a.confidences == b.confidences
