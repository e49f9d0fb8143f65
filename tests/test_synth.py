"""Synthetic corpus generator: templates, determinism, persistence."""

import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordbalance.chords import map_to_class
from chordbalance.metrics import type_distribution
from chordbalance.student import FeatureTrack
from chordbalance.synth import (
    _csv_bytes,
    _csv_frames,
    _read_frames,
    CHORD_CLASS_INTERVALS,
    CorpusSpec,
    DEFAULT_CLASS_DISTRIBUTION,
    MANIFEST_FORMAT,
    chord_template,
    generate_corpus,
    load_corpus,
    no_chord_template,
    save_corpus,
    spec_from_dict,
)

import oracles
from oracles import nearest_template

ALL_BUT_AUG = {
    "maj": 0.15, "min": 0.15, "7": 0.1, "min7": 0.1, "maj7": 0.1,
    "dim": 0.1, "hdim7": 0.1, "sus": 0.1, "N": 0.1,
}


class TestTemplates:
    def test_interval_table(self):
        assert CHORD_CLASS_INTERVALS["maj"] == (0, 4, 7)
        assert CHORD_CLASS_INTERVALS["min"] == (0, 3, 7)
        assert CHORD_CLASS_INTERVALS["hdim7"] == (0, 3, 6, 10)
        for cls, offsets in CHORD_CLASS_INTERVALS.items():
            assert 3 <= len(offsets) <= 4

    def test_rooted_template(self):
        t = chord_template("maj", 0)
        np.testing.assert_array_equal(np.flatnonzero(t), [0, 4, 7])
        t = chord_template("min7", 5)
        np.testing.assert_array_equal(np.flatnonzero(t), [0, 3, 5, 8])  # {5, 8, 0, 3}

    def test_no_chord_template(self):
        np.testing.assert_array_equal(no_chord_template(), np.full(12, 0.1))

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError):
            chord_template("N", 0)

    def test_nearest_template_identity(self):
        assert nearest_template(no_chord_template()) == ("N", None)
        for cls in CHORD_CLASS_INTERVALS:
            if cls == "aug":
                continue  # rotationally symmetric, three roots share a template
            for root in (0, 5, 11):
                assert nearest_template(chord_template(cls, root)) == (cls, root)


class TestCorpusSpec:
    def test_defaults(self):
        spec = CorpusSpec()
        assert spec.n_tracks == 16
        assert spec.track_length_range == (60.0, 90.0)
        assert spec.chord_duration_range == (1.0, 4.0)
        assert spec.noise_sigma == 0.1
        assert spec.frame_rate == 10.0
        assert spec.track_prefix == "synth"
        assert spec.class_distribution == DEFAULT_CLASS_DISTRIBUTION

    def test_default_distribution_shares(self):
        dist = DEFAULT_CLASS_DISTRIBUTION
        assert dist["maj"] == 0.63
        assert dist["min"] == 0.161
        assert dist["7"] == 0.069
        assert dist["min7"] == 0.026
        assert dist["maj7"] == 0.01
        assert dist["dim"] == 0.004
        assert dist["hdim7"] == 0.002
        assert dist["N"] == 0.098
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert dist["maj"] + dist["min"] == pytest.approx(0.791, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_tracks": 0},
            {"frame_rate": 0.0},
            {"frame_rate": float("inf")},
            {"noise_sigma": -0.1},
            {"noise_sigma": float("inf")},
            {"track_length_range": (0.0, 60.0)},
            {"track_length_range": (60.0, float("inf"))},
            {"chord_duration_range": (1.0, float("nan"))},
            {"chord_duration_range": (4.0, 1.0)},
            {"track_length_range": (60.0, 90.0), "chord_duration_range": (100.0, 120.0)},
            {"class_distribution": {"maj": 0.5}},
            {"class_distribution": {"maj": 0.5, "banana": 0.5}},
            {"class_distribution": {"maj": 1.5, "min": -0.5}},
            {"class_distribution": {}},
            {"track_prefix": ""},
            {"track_prefix": "a/b"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CorpusSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = CorpusSpec(n_tracks=3, seed=9, track_prefix="pool", noise_sigma=0.05)
        assert spec_from_dict(spec.to_dict()) == spec

    def test_dict_defaults_and_unknown_fields(self):
        assert spec_from_dict({"n_tracks": 2}) == CorpusSpec(n_tracks=2)
        with pytest.raises(ValueError, match="unknown"):
            spec_from_dict({"n_tracks": 2, "wat": 1})


class TestGenerate:
    def test_single_class_distribution(self):
        spec = CorpusSpec(
            n_tracks=2,
            track_length_range=(20.0, 25.0),
            class_distribution={"maj": 1.0},
            seed=1,
        )
        for _, labels in generate_corpus(spec):
            assert all(map_to_class(lab) == "maj" for _, lab in labels.segments)

    def test_same_seed_bit_identical(self):
        spec = CorpusSpec(n_tracks=3, track_length_range=(20.0, 30.0), seed=5)
        a = generate_corpus(spec)
        b = generate_corpus(spec)
        for (ta, la), (tb, lb) in zip(a, b):
            np.testing.assert_array_equal(ta.frames, tb.frames)
            assert la == lb

    def test_tracks_independent_of_corpus_size(self):
        small = generate_corpus(CorpusSpec(n_tracks=2, track_length_range=(20.0, 25.0), seed=5))
        large = generate_corpus(CorpusSpec(n_tracks=4, track_length_range=(20.0, 25.0), seed=5))
        for (ts, ls), (tl, ll) in zip(small, large):
            np.testing.assert_array_equal(ts.frames, tl.frames)
            assert ls == ll

    def test_track_prefix_in_ids(self):
        corpus = generate_corpus(
            CorpusSpec(n_tracks=2, track_length_range=(20.0, 22.0), seed=0, track_prefix="pool")
        )
        assert [t.track_id for t, _ in corpus] == ["pool-0000", "pool-0001"]

    def test_labels_tile_every_frame(self):
        spec = CorpusSpec(n_tracks=3, track_length_range=(20.0, 30.0), seed=7)
        for track, labels in generate_corpus(spec):
            segs = labels.segments
            assert segs[0][0].start == 0.0
            assert segs[-1][0].end == pytest.approx(track.duration, abs=1e-12)
            for (a, _), (b, _) in zip(segs, segs[1:]):
                assert b.start == a.end
            # every frame midpoint sits inside exactly one segment
            covered = sum(
                ((iv.start <= t) and (t < iv.end))
                for t in track.frame_times()
                for iv, _ in segs
            )
            assert covered == len(track)

    def test_noiseless_frames_recover_ground_truth(self):
        spec = CorpusSpec(
            n_tracks=2,
            track_length_range=(15.0, 20.0),
            class_distribution=ALL_BUT_AUG,
            noise_sigma=0.0,
            seed=11,
        )
        for track, labels in generate_corpus(spec):
            si = 0
            segs = labels.segments
            for j, t in enumerate(track.frame_times()):
                while segs[si][0].end <= t:
                    si += 1
                label = segs[si][1]
                expected = ("N", None) if not label.is_chord else (map_to_class(label), label.root)
                assert nearest_template(track.frames[j]) == expected

    @pytest.mark.parametrize(
        "spec",
        [
            CorpusSpec(),
            CorpusSpec(n_tracks=4, class_distribution=ALL_BUT_AUG, noise_sigma=0.0, seed=3),
            CorpusSpec(n_tracks=3, class_distribution={"min7": 1.0}, seed=2),
            # zero shares first, inside and last in sorted class order
            CorpusSpec(n_tracks=4, seed=9,
                       class_distribution={"7": 0.0, "N": 0.3, "maj": 0.5, "min": 0.0, "sus": 0.2}),
            CorpusSpec(n_tracks=3, frame_rate=21.5, seed=4),
            CorpusSpec(n_tracks=4, track_length_range=(30.0, 60.0), chord_duration_range=(0.5, 2.0),
                       noise_sigma=0.2, seed=300),
        ],
        ids=["default", "sigma-0", "one-class", "zero-shares", "21.5-fps", "short-chords"],
    )
    def test_matches_per_segment_oracle(self, spec):
        corpus = generate_corpus(spec)
        expected = oracles.generate_corpus(spec)
        assert len(corpus) == len(expected) == spec.n_tracks
        for (track, labels), (want_track, want_labels) in zip(corpus, expected):
            assert track.track_id == want_track.track_id
            assert track.frame_rate == want_track.frame_rate
            assert track.frames.shape == want_track.frames.shape
            assert track.frames.tobytes() == want_track.frames.tobytes()
            assert labels == want_labels

    def test_distribution_converges_on_long_corpus(self):
        # about two hours of generated audio at the published shares
        spec = CorpusSpec(n_tracks=96, noise_sigma=0.0, seed=17)
        corpus = generate_corpus(spec)
        total_s = sum(t.duration for t, _ in corpus)
        assert total_s >= 7000
        dist = type_distribution([labels for _, labels in corpus])
        for cls, share in DEFAULT_CLASS_DISTRIBUTION.items():
            assert abs(dist.get(cls, 0.0) - share) <= 0.02


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        spec = CorpusSpec(n_tracks=2, track_length_range=(12.0, 15.0), seed=3, track_prefix="rt")
        corpus = generate_corpus(spec)
        save_corpus(tmp_path / "corpus", corpus, spec)
        loaded, manifest = load_corpus(tmp_path / "corpus")
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["tracks"] == ["rt-0000", "rt-0001"]
        assert manifest["spec"] == spec.to_dict()
        for (t0, l0), (t1, l1) in zip(corpus, loaded):
            assert t1.track_id == t0.track_id
            assert t1.frame_rate == t0.frame_rate
            # CSV keeps 9 decimals, float32 frames a relative 6e-8
            np.testing.assert_allclose(t1.frames, t0.frames, rtol=1e-7, atol=1e-9)
            assert l1 == l0

    def test_load_rounds_each_value_read_to_float32(self, tmp_path):
        """Frames equal ``np.loadtxt(...).astype(np.float32)`` bit for bit, in both readers' layouts."""
        spec = CorpusSpec(n_tracks=3, track_length_range=(5.0, 8.0), noise_sigma=0.5, seed=4, track_prefix="f")
        save_corpus(tmp_path, generate_corpus(spec), spec)
        crlf = tmp_path / "f-0002.csv"
        crlf.write_bytes(crlf.read_bytes().replace(b"\n", b"\r\n"))
        assert _csv_frames(crlf.read_bytes()) is None
        loaded = load_corpus(tmp_path)[0]
        for track, _ in loaded:
            want = np.loadtxt(tmp_path / f"{track.track_id}.csv", delimiter=",", ndmin=2).astype(np.float32)
            assert track.frames.dtype == np.float32
            assert track.frames.shape == want.shape and track.frames.tobytes() == want.tobytes()

    def test_save_writes_float32_values(self, tmp_path):
        """A loaded corpus saves the %.9f text of its float32 values, widened exactly."""
        spec = CorpusSpec(n_tracks=2, track_length_range=(5.0, 8.0), noise_sigma=0.5, seed=4)
        save_corpus(tmp_path / "a", generate_corpus(spec), spec)
        loaded = load_corpus(tmp_path / "a")[0]
        save_corpus(tmp_path / "b", loaded, spec)
        for track, _ in loaded:
            written = (tmp_path / "b" / f"{track.track_id}.csv").read_bytes()
            assert written == oracles.csv_bytes(track.frames.astype(np.float64))

    def test_loaded_frames_take_four_bytes_a_value(self, tmp_path):
        """A loaded corpus keeps 48 B of frames per frame: one float32 copy, no float64 one."""
        def frames_and_retained_bytes(n_tracks):
            spec = CorpusSpec(n_tracks=n_tracks, track_length_range=(20.0, 30.0), seed=5,
                              track_prefix=f"m{n_tracks}")
            save_corpus(tmp_path / spec.track_prefix, generate_corpus(spec), spec)
            tracemalloc.start()
            try:
                corpus = load_corpus(tmp_path / spec.track_prefix)[0]
                # numpy reports its data buffers to tracemalloc in a domain of their own
                snapshot = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            finally:
                tracemalloc.stop()
            dtypes = {track.frames.dtype for track, _ in corpus}
            return sum(len(track) for track, _ in corpus), sum(s.size for s in snapshot.statistics("filename")), dtypes

        frames_and_retained_bytes(1)  # first-call allocations stay out of the comparison
        small, large = frames_and_retained_bytes(4), frames_and_retained_bytes(16)
        assert (large[1] - small[1]) / (large[0] - small[0]) == pytest.approx(12 * 4, abs=2)
        assert small[2] == large[2] == {np.dtype(np.float32)}

    def test_csv_bytes_equal_savetxt(self, tmp_path):
        spec = CorpusSpec(n_tracks=2, track_length_range=(5.0, 8.0), noise_sigma=0.5, seed=4)
        corpus = generate_corpus(spec)
        # signed zeros, values that round to zero either side, and rounding at the 9th decimal
        edge = np.tile([-0.0, 0.0, 4e-10, -4e-10, 5e-10, 1.0000000005, -2.5e-9, 123456.789,
                        -1e-9, 0.1, 1 / 3, 2.0], (3, 1))
        corpus.append((FeatureTrack("edge", edge), corpus[0][1]))
        corpus.append((FeatureTrack("one-frame", edge[:1]), corpus[0][1]))
        save_corpus(tmp_path / "corpus", corpus, spec)
        for track, _ in corpus:
            np.savetxt(tmp_path / "want.csv", track.frames, fmt="%.9f", delimiter=",")
            written = (tmp_path / "corpus" / f"{track.track_id}.csv").read_bytes()
            assert written == (tmp_path / "want.csv").read_bytes()
            assert written.count(b"\n") == len(track) and b"\r" not in written

    # magnitudes that print as one whole digit, with the edges of rounding
    # at the ninth decimal; the signs come from a separate draw
    _ONE_DIGIT = st.one_of(
        st.floats(0.0, 10.0),
        st.integers(0, 10**10).map(lambda k: (k + 0.5) / 1e9),  # halves, as near as binary gets
        st.sampled_from([0.0, 1e-12, 5e-10, 1 / 1024, 0.99999999949, 0.9999999995,
                         0.99999999951, 9.999999998, 9.9999999985, 9.999999999]),
        st.floats(0.0, 2.3e-308),  # subnormals
    )
    # magnitudes that print as 10.000000000 or with more whole digits
    _MANY_DIGITS = st.one_of(
        st.sampled_from([9.9999999994, 9.9999999995, 9.9999999996, 10.0, 1e300]),
        st.floats(0.0, allow_infinity=False),
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_csv_bytes_match_percent_format(self, data):
        magnitudes = self._ONE_DIGIT
        if data.draw(st.booleans()):
            # one value of 10 or more anywhere formats the whole track by %
            magnitudes = st.one_of(magnitudes, self._MANY_DIGITS)
        signed = st.builds(lambda v, negative: -v if negative else v, magnitudes, st.booleans())
        values = np.array(data.draw(st.lists(signed, min_size=1, max_size=30)))
        # 1-50 rows of those values, drawn cheaply in place of 12-600 hypothesis draws
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        frames = values[rng.integers(len(values), size=(data.draw(st.integers(1, 50)), 12))]
        assert _csv_bytes(frames) == oracles.csv_bytes(frames)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_csv_frames_read_as_loadtxt(self, data):
        # the values of test_csv_bytes_match_percent_format; halves, signed
        # zeros, -1e-12 and values that print as 10.000000000 among them
        magnitudes = st.one_of(self._ONE_DIGIT, st.sampled_from([9.9999999994, 9.9999999995, 9.9999999996]))
        signed = st.builds(lambda v, negative: -v if negative else v, magnitudes, st.booleans())
        values = np.array(data.draw(st.lists(signed, min_size=1, max_size=30)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        frames = values[rng.integers(len(values), size=(data.draw(st.integers(1, 50)), 12))]
        text = _csv_bytes(frames)
        want = np.loadtxt(io.BytesIO(text), delimiter=",", ndmin=2)
        got = _csv_frames(text)
        if np.abs(want).max() >= 10.0:
            assert got is None  # a field with two whole digits is another layout
        else:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    _ROWS = b"0.100000000,-0.000000000" + b",0.500000000" * 9 + b",-1.250000000\n"
    _ROWS += _ROWS.replace(b"0.1", b"9.9")

    @pytest.mark.parametrize(
        "text",
        [
            _ROWS.replace(b"\n", b"\r\n"),
            _ROWS[:-1],
            _ROWS.replace(b",-1.250000000", b""),
            _ROWS.replace(b"\n", b",0.500000000\n"),
            _ROWS.replace(b"\n", b",", 1),
            _ROWS.replace(b"\n", b",0.5\n").replace(b",0.500000000,", b",", 1),
            b"+" + _ROWS,
            _ROWS.replace(b",-1.25", b",--1.25"),
            _ROWS.replace(b",-1.25", b",-+1.25"),
            _ROWS.replace(b"0.1000", b"-0.1000", 1).replace(b",-0.000", b",0-.000"),
            _ROWS.replace(b"0.100000000", b"0.1-00000000", 1),
            _ROWS + b"-",
            _ROWS.replace(b"0.100000000", b"0.1000000000"),
            _ROWS.replace(b"9.900000000", b"19.900000000"),
            _ROWS.replace(b"0.500000000", b"0.5000000x0", 1),
            _ROWS.replace(b"0.500000000", b"0 500000000", 1),
            _ROWS.replace(b",", b";", 1),
            b"",
        ],
        ids=["crlf", "no-final-newline", "11-columns", "13-columns", "24-columns", "short-field-same-width",
             "plus", "two-minus", "minus-plus", "minus-before-point", "minus-between-digits", "trailing-minus",
             "10-decimals", "two-whole-digits", "letter", "space", "semicolon", "empty"],
    )
    def test_other_layouts_load_as_loadtxt(self, tmp_path, text):
        assert _csv_frames(text) is None
        path = tmp_path / "t.csv"
        path.write_bytes(text)

        def outcome(read):
            try:
                frames = read()
            except Exception as exc:  # noqa: BLE001 - the exception itself is compared
                return type(exc), str(exc)
            return frames.shape, frames.dtype, frames.tobytes()

        assert outcome(lambda: _read_frames(path)) == outcome(
            lambda: np.loadtxt(path, delimiter=",", ndmin=2))

    def test_layout_rows_read_as_loadtxt(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(self._ROWS)
        got = _csv_frames(self._ROWS)
        assert got is not None
        assert got.tobytes() == np.loadtxt(path, delimiter=",", ndmin=2).tobytes()
        assert np.signbit(got[0, 1]) and got[0, 1] == 0.0

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: [c[0], (FeatureTrack("../x", c[1][0].frames), c[1][1])],
             "track id '../x' in the corpus for .* is not a plain file name"),
            (lambda c: [c[0], (FeatureTrack("rt-0000", c[1][0].frames), c[1][1])],
             r"repeated track ids in the corpus for .*: \['rt-0000'\]"),
            (lambda c: [c[0], (FeatureTrack("rt-0001", c[1][0].frames, 20.0), c[1][1])],
             r"the corpus for .* mixes frame rates \[10.0, 20.0\]"),
        ],
        ids=["parent-dir", "repeated", "mixed-rates"],
    )
    def test_save_rejects_corpus_load_would_reject(self, tmp_path, edit, message):
        spec = CorpusSpec(n_tracks=2, track_length_range=(12.0, 15.0), seed=3, track_prefix="rt")
        target = tmp_path / "out" / "corpus"
        with pytest.raises(ValueError, match=message):
            save_corpus(target, edit(generate_corpus(spec)), spec)
        assert list(tmp_path.iterdir()) == []

    def test_load_rejects_non_corpus(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_corpus(tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="format"):
            load_corpus(tmp_path)

    @staticmethod
    def _with_tracks(directory, tracks):
        spec = CorpusSpec(n_tracks=2, track_length_range=(12.0, 15.0), seed=3, track_prefix="rt")
        save_corpus(directory, generate_corpus(spec), spec)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["tracks"] = tracks
        (directory / "manifest.json").write_text(json.dumps(manifest))

    @pytest.mark.parametrize("tid", ["", ".", "..", "../rt-0000", "sub/rt-0000", "sub\\rt-0000", 7])
    def test_load_rejects_track_id_that_is_not_a_file_name(self, tmp_path, tid):
        self._with_tracks(tmp_path, ["rt-0000", tid])
        with pytest.raises(ValueError, match="not a plain file name"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: [m], "is not a JSON object"),
            (lambda m: {k: v for k, v in m.items() if k != "tracks"}, "has no 'tracks' list"),
            (lambda m: {**m, "tracks": "rt-0000"}, "has no 'tracks' list"),
            (lambda m: {k: v for k, v in m.items() if k != "frame_rate"}, "has frame_rate None"),
            (lambda m: {**m, "frame_rate": "10"}, "has frame_rate '10'"),
            (lambda m: {**m, "frame_rate": 0}, "has frame_rate 0"),
        ],
        ids=["list", "no-tracks", "string-tracks", "no-frame-rate", "string-frame-rate", "zero-frame-rate"],
    )
    def test_load_rejects_malformed_manifest(self, tmp_path, edit, message):
        self._with_tracks(tmp_path, ["rt-0000", "rt-0001"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(f"{path} {message}")):
            load_corpus(tmp_path)

    def test_load_names_bad_feature_csv(self, tmp_path):
        self._with_tracks(tmp_path, ["rt-0000", "rt-0001"])
        path = tmp_path / "rt-0001.csv"
        path.write_text("0.5,0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: frames must have shape")):
            load_corpus(tmp_path)
        path.write_text("0.5,x\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("value", ["1e39", "-1e39", "3.5e38"])
    def test_load_rejects_values_beyond_float32(self, tmp_path, value):
        # no RuntimeWarning either: pytest turns warnings into errors
        self._with_tracks(tmp_path, ["rt-0000", "rt-0001"])
        path = tmp_path / "rt-0001.csv"
        path.write_text(",".join(["0.5"] * 11 + [value]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: a value lies beyond float32's range")):
            load_corpus(tmp_path)
        path.write_text(",".join(["0.5"] * 11 + ["-3.4e38"]) + "\n")
        assert load_corpus(tmp_path)[0][1][0].frames[0, -1] == np.float32(-3.4e38)

    def test_load_rejects_repeated_track_ids(self, tmp_path):
        self._with_tracks(tmp_path, ["rt-0000", "rt-0001", "rt-0000"])
        with pytest.raises(ValueError, match=r"repeated track ids .*\['rt-0000'\]"):
            load_corpus(tmp_path)
