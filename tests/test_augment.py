"""Feature-space augmentation: chroma rotation, Gaussian noise, seeding."""

import numpy as np
import pytest

from chordbalance.annotations import Interval, TimedLabelSequence
from chordbalance.augment import (
    AugmentSpec,
    add_noise,
    derive_seed,
    draw_semitones,
    pitch_shift,
)
from chordbalance.chords import parse_chord_label
from chordbalance.student import FeatureTrack
from chordbalance.synth import chord_template


def make_track(rng, n=40):
    return FeatureTrack("t", rng.uniform(0.0, 1.0, (n, 12)), frame_rate=10.0)


def make_labels():
    return TimedLabelSequence.build(
        "t",
        [
            (Interval(0.0, 2.0), parse_chord_label("C:maj")),
            (Interval(2.0, 3.0), parse_chord_label("N")),
            (Interval(3.0, 4.0), parse_chord_label("G#:min7/b3")),
        ],
    )


class TestAugmentSpec:
    def test_defaults(self):
        spec = AugmentSpec()
        assert spec.semitone_range == (-5, 6)
        assert spec.noise_sigma == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"semitone_range": (3, 1)},
            {"semitone_range": (-12, 0)},
            {"semitone_range": (0, 12)},
            {"noise_sigma": -0.1},
            {"noise_sigma": float("inf")},
            {"noise_sigma": float("nan")},
            {"semitone_range": (0, 0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AugmentSpec(**kwargs)


class TestPitchShift:
    def test_shift_zero_is_identity(self):
        rng = np.random.default_rng(1)
        track, labels = make_track(rng), make_labels()
        out_track, out_labels = pitch_shift(track, labels, 0)
        np.testing.assert_array_equal(out_track.frames, track.frames)
        assert out_labels == labels

    def test_shift_twelve_is_identity(self):
        rng = np.random.default_rng(2)
        track, labels = make_track(rng), make_labels()
        out_track, out_labels = pitch_shift(track, labels, 12)
        np.testing.assert_array_equal(out_track.frames, track.frames)
        assert out_labels == labels

    def test_template_moves_to_shifted_root(self):
        frames = np.tile(chord_template("maj", 0), (5, 1))
        track = FeatureTrack("t", frames)
        labels = TimedLabelSequence.build(
            "t", [(Interval(0.0, 0.5), parse_chord_label("C:maj"))]
        )
        out_track, out_labels = pitch_shift(track, labels, 2)
        np.testing.assert_array_equal(out_track.frames[0], chord_template("maj", 2))
        assert str(out_labels.segments[0][1]) == "D:maj"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        track, labels = make_track(rng), make_labels()
        for k in range(-11, 12):
            t2, l2 = pitch_shift(*pitch_shift(track, labels, k), -k)
            np.testing.assert_array_equal(t2.frames, track.frames)
            assert l2 == labels

    def test_timing_untouched(self):
        rng = np.random.default_rng(4)
        track, labels = make_track(rng), make_labels()
        _, shifted = pitch_shift(track, labels, 7)
        assert [iv for iv, _ in shifted.segments] == [iv for iv, _ in labels.segments]
        roots = [lab.root for _, lab in shifted.segments if lab.is_chord]
        assert roots == [(0 + 7) % 12, (8 + 7) % 12]


class TestAddNoise:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(5)
        track = make_track(rng)
        out = add_noise(track, 0.0, seed=1)
        np.testing.assert_array_equal(out.frames, track.frames)
        assert out.frames is not track.frames

    def test_same_seed_identical(self):
        rng = np.random.default_rng(6)
        track = make_track(rng)
        a = add_noise(track, 0.2, seed=9)
        b = add_noise(track, 0.2, seed=9)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_distinct_seeds_differ(self):
        # frames far from 0 and 1, so the clamp never makes two draws equal
        rng = np.random.default_rng(7)
        track = FeatureTrack("t", rng.uniform(0.4, 0.6, (40, 12)))
        a = add_noise(track, 0.05, seed=1)
        b = add_noise(track, 0.05, seed=2)
        assert (a.frames != b.frames).all()

    def test_noise_level(self):
        # frames far from 0 and 1, so the clamp cuts no value
        rng = np.random.default_rng(8)
        track = FeatureTrack("t", rng.uniform(0.45, 0.55, (900, 12)))
        noisy = add_noise(track, 0.1, seed=3)
        assert 0.0 < noisy.frames.min() and noisy.frames.max() < 1.0
        std = float((noisy.frames - track.frames).std())
        assert 0.09 <= std <= 0.11

    def test_clamp_bounds(self):
        rng = np.random.default_rng(9)
        track = make_track(rng)
        noisy = add_noise(track, 1.5, seed=4)
        assert noisy.frames.min() >= 0.0
        assert noisy.frames.max() <= 1.0

    def test_rejects_negative_sigma(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            add_noise(make_track(rng), -0.5, seed=0)


class TestSeeding:
    def test_derive_seed_stable(self):
        # frozen hash outputs: these must never change across versions
        assert derive_seed(0, "x") == 11287871529720146943
        assert derive_seed(0, "x") == derive_seed(0, "x")

    def test_derive_seed_separates_keys_and_seeds(self):
        seeds = {derive_seed(s, k) for s in range(5) for k in ("a", "b", "split")}
        assert len(seeds) == 15
        assert all(0 <= s < 2**64 for s in seeds)

    def test_draw_semitones_never_zero(self):
        rng = np.random.default_rng(11)
        draws = {draw_semitones(rng, (-2, 2)) for _ in range(500)}
        assert draws == {-2, -1, 1, 2}

    def test_draw_semitones_respects_range(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = draw_semitones(rng, (-5, 6))
            assert -5 <= k <= 6 and k != 0
