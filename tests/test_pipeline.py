"""Self-training driver: artifacts, determinism, guards, comparisons."""

import csv
import json
import re

import numpy as np
import pytest

from chordbalance import pipeline, student
from chordbalance.annotations import Interval
from chordbalance.augment import AugmentSpec
from chordbalance.pipeline import (
    ExperimentConfig,
    compare_runs,
    load_reports,
    run_experiment,
    write_comparison_csvs,
)
from chordbalance.selection import ExcerptDataset, SelectionConfig, read_pseudolabels_jsonl
from chordbalance.student import MODEL_CLASSES, N_CHROMA, ClassifierModel
from chordbalance.synth import CorpusSpec, generate_corpus, load_corpus, save_corpus

import oracles


def small_spec(n_tracks, seed, prefix):
    return CorpusSpec(
        n_tracks=n_tracks,
        track_length_range=(20.0, 30.0),
        noise_sigma=0.1,
        seed=seed,
        track_prefix=prefix,
    )


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    dirs = {}
    for name, spec in (
        ("labeled", small_spec(5, 41, "lab")),
        ("unlabeled", small_spec(6, 42, "pool")),
        ("unlabeled_alt", small_spec(6, 52, "pool2")),
        ("test", small_spec(3, 43, "eval")),
    ):
        path = root / name
        save_corpus(path, generate_corpus(spec), spec)
        dirs[name] = str(path)
    return dirs


def make_config(corpora, **overrides):
    kwargs = dict(
        labeled_dir=corpora["labeled"],
        unlabeled_dir=corpora["unlabeled"],
        test_dir=corpora["test"],
        name="unit",
        iterations=2,
        seed=13,
        loss="focal",
        gamma=2.0,
        learning_rate=5.0,
        epochs=80,
        patience=10,
        smoothing_window=5,
        min_length=6.0,
        augment=AugmentSpec((-5, 6), 0.05, 13),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def finished_run(corpora, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = make_config(corpora)
    reports = run_experiment(config, out)
    return config, out, reports


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"iterations": -1},
            {"split_fraction": 0.0},
            {"split_fraction": 1.0},
            {"smoothing_window": 4},
            {"loss": "hinge"},
            {"min_length": 0.0},
            {"learning_rate": 0.0},
            {"gamma": -1.0},
            {"gamma": float("nan")},
            {"gamma": float("inf")},
            {"class_weights": {"hdim7": -8.0}},
            {"class_weights": {"dim": float("inf")}},
            {"class_weights": {"maj": float("nan")}},
            {"class_weights": {"hdim": 8.0, "Dim": 6.0}},
            {"class_weights": {"hdim7 ": 8.0}},
            {"class_weights": {"X": 3.0}},
            {"class_weights": {"C:maj": 2.0}},
        ],
    )
    def test_validation(self, corpora, overrides):
        with pytest.raises(ValueError):
            make_config(corpora, **overrides)

    @pytest.mark.parametrize(
        "augment,message",
        [
            ({"noise": 0.2}, r"unknown augment fields: \['noise'\]"),
            ({"noise_sigma": 0.2, "sede": 3}, r"unknown augment fields: \['sede'\]"),
            ([1, 2], "augment must be a mapping"),
            ({"semitone_range": 5},
             r"augment field 'semitone_range' must be tuple\[int, int\], got 5"),
            ({"semitone_range": [-5, 6, 7]}, "augment field 'semitone_range' must be"),
            ({"noise_sigma": "x"}, "augment field 'noise_sigma' must be float, got 'x'"),
            ({"seed": "abc"}, "augment field 'seed' must be int, got 'abc'"),
        ],
    )
    def test_rejects_bad_augment(self, corpora, augment, message):
        with pytest.raises(ValueError, match=message):
            make_config(corpora, seed=7, augment=augment)

    def test_json_round_trip(self, corpora, tmp_path):
        config = make_config(corpora, rare_classes=("dim", "hdim7"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()), "utf-8")
        assert ExperimentConfig.from_json(path) == config

    def test_from_json_rejects_unknown_fields(self, corpora, tmp_path):
        raw = make_config(corpora).to_dict()
        raw["wat"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), "utf-8")
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"epochs": "2"}, "experiment config field 'epochs' must be int, got '2'"),
            ({"iterations": 1.5}, "experiment config field 'iterations' must be int, got 1.5"),
            ({"seed": "abc"}, "experiment config field 'seed' must be int, got 'abc'"),
            ({"seed": True}, "experiment config field 'seed' must be int, got True"),
            ({"class_weights": {"dim": "8"}},
             "experiment config field 'class_weights' must be dict[str, float] | None"),
            ({"rare_classes": "dim"}, "experiment config field 'rare_classes' must be tuple[str, ...]"),
            ({"patience": 2.5}, "experiment config field 'patience' must be int | None, got 2.5"),
            ({"augment": {"noise_sigma": "x"}}, "augment field 'noise_sigma' must be float, got 'x'"),
        ],
        ids=["epochs", "iterations", "seed-str", "seed-bool", "class_weights", "rare_classes",
             "patience", "augment"],
    )
    def test_from_json_rejects_wrong_types(self, corpora, tmp_path, overrides, message):
        raw = {**make_config(corpora).to_dict(), **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), "utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(path)

    def test_augment_seed_falls_back_to_run_seed(self, corpora, tmp_path):
        raw = make_config(corpora).to_dict()
        raw["augment"] = {"semitone_range": [-2, 2], "noise_sigma": 0.1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), "utf-8")
        config = ExperimentConfig.from_json(path)
        assert config.augment == AugmentSpec((-2, 2), 0.1, raw["seed"])

    def test_missing_and_empty_augment_load_the_same_spec(self, corpora, tmp_path):
        raw = make_config(corpora, seed=7).to_dict()
        specs = []
        for form in ("missing", "empty"):
            if form == "missing":
                del raw["augment"]
            else:
                raw["augment"] = {}
            path = tmp_path / f"{form}.json"
            path.write_text(json.dumps(raw), "utf-8")
            specs.append(ExperimentConfig.from_json(path).augment)
        assert specs[0] == specs[1] == AugmentSpec((-5, 6), 0.05, 7)


class TestRun:
    def test_report_series_shape(self, finished_run):
        _, _, reports = finished_run
        assert len(reports) == 3  # baseline + 2 self-training rounds
        assert [r.iteration for r in reports] == [0, 1, 2]
        assert reports[0].selection is None
        for r in reports[1:]:
            assert r.selection is not None
        for r in reports:
            assert 0.0 <= r.metrics.wcsr <= 1.0
            assert 0.0 <= r.metrics.acqa <= 1.0
            assert r.wall_seconds > 0

    def test_zero_iterations_is_baseline_only(self, corpora, tmp_path):
        config = make_config(corpora, iterations=0, epochs=10)
        reports = run_experiment(config, tmp_path)
        assert len(reports) == 1
        assert reports[0].iteration == 0
        assert reports[0].selection is None

    def test_artifacts_written(self, finished_run):
        _, out, reports = finished_run
        for name in ("reports.json", "curves.csv", "summary.csv", "timings.csv", "run_manifest.json"):
            assert (out / name).exists()
        for k in range(3):
            assert (out / "models" / f"iter_{k}.json").exists()
        for k in (1, 2):
            assert (out / f"selection_{k}.jsonl").exists()

    def test_reports_json_matches_series(self, finished_run):
        _, out, reports = finished_run
        on_disk = load_reports(out)
        assert on_disk == [r.to_dict() for r in reports]

    def test_report_dict_has_no_wall_clock(self, finished_run):
        _, _, reports = finished_run
        for r in reports:
            assert set(r.to_dict()) == {"iteration", "metrics", "selection", "model"}

    def test_curves_and_summary(self, finished_run):
        config, out, reports = finished_run
        with open(out / "curves.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "wcsr", "acqa"]
        assert len(rows) == 1 + len(reports)
        for row, r in zip(rows[1:], reports):
            assert row == [str(r.iteration), f"{r.metrics.wcsr:.6f}", f"{r.metrics.acqa:.6f}"]
        best = max(reports, key=lambda r: r.metrics.acqa)
        with open(out / "summary.csv", newline="") as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == ["name", "best_iteration", "wcsr", "acqa"]
        assert srows[1] == [
            config.name, str(best.iteration),
            f"{best.metrics.wcsr:.6f}", f"{best.metrics.acqa:.6f}",
        ]

    def test_manifest_records_fixed_split(self, finished_run, corpora):
        config, out, _ = finished_run
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"] == config.to_dict()
        train = manifest["train_tracks"]
        val = manifest["validation_tracks"]
        assert len(train) == 4 and len(val) == 1  # round(0.8 * 5) / remainder
        labeled_ids = {f"lab-{i:04d}" for i in range(5)}
        assert set(train) | set(val) == labeled_ids
        assert set(train) & set(val) == set()

    def test_selection_jsonl_contents(self, finished_run):
        _, out, _ = finished_run
        pseudo = read_pseudolabels_jsonl(out / "selection_1.jsonl")
        assert pseudo
        for ps in pseudo:
            tid = ps.sequence.track_id
            assert "@" in tid and tid.startswith("pool-")
            assert ps.sequence.segments[0][0].start == 0.0
            assert all(0.0 <= c <= 1.0 for c in ps.confidences)

    def test_selection_segments_tile_each_excerpt(self, finished_run, corpora):
        _, out, _ = finished_run
        pool = {track.track_id: track for track, _ in load_corpus(corpora["unlabeled"])[0]}
        checked = 0
        for k in (1, 2):
            for ps in read_pseudolabels_jsonl(out / f"selection_{k}.jsonl"):
                tid, frames = ps.sequence.track_id.split("@")
                i0, i1 = (int(i) for i in frames.split("-"))
                fps = pool[tid].frame_rate
                ivs = [iv for iv, _ in ps.sequence.segments]
                assert ivs[0].start == 0.0
                assert all(a.end == b.start for a, b in zip(ivs, ivs[1:]))
                assert ivs[-1].end == min(i1, len(pool[tid])) / fps - i0 / fps
                checked += 1
        assert checked

    def test_byte_identical_rerun(self, finished_run, tmp_path):
        config, out, _ = finished_run
        run_experiment(config, tmp_path)
        assert (tmp_path / "reports.json").read_bytes() == (out / "reports.json").read_bytes()
        for k in range(3):
            assert (
                (tmp_path / "models" / f"iter_{k}.json").read_bytes()
                == (out / "models" / f"iter_{k}.json").read_bytes()
            )

    def test_baseline_ignores_pool_contents(self, finished_run, corpora, tmp_path):
        config, _, reports = finished_run
        alt = make_config(corpora, unlabeled_dir=corpora["unlabeled_alt"], iterations=0, epochs=config.epochs)
        alt_reports = run_experiment(alt, tmp_path)
        assert alt_reports[0].metrics.to_dict() == reports[0].metrics.to_dict()


class TestPoolRound:
    """A round's frame pass selects and cuts what segments of the whole pool would."""

    @staticmethod
    def pool(seed):
        # short chords, and tracks both shorter and longer than an excerpt
        spec = CorpusSpec(n_tracks=6, track_length_range=(2.0, 9.0), chord_duration_range=(0.3, 1.5),
                          noise_sigma=0.3, seed=seed, track_prefix="pool")
        return {track.track_id: track for track, _ in generate_corpus(spec)}

    @staticmethod
    def same_excerpts(got, want):
        """Excerpt features and frame targets against the oracle's cut, transposed segments."""
        assert [(t.track_id, t.frame_rate, t.frames.tobytes(), y.tolist()) for t, y in got[0]] == \
            [(t.track_id, t.frame_rate, t.frames.tobytes(), oracles.frame_targets(t, labels).tolist())
             for t, labels in want[0]]
        assert got[1] == want[1]

    def round_of_both(self, k, model, pool, window, selection, augment):
        runs, dataset, report = pipeline._select_from_pool(model, pool, window, selection)
        got = pipeline._augmented_excerpts(k, augment, pool, runs, dataset)
        want = oracles.pool_round(k, model, pool, window, selection, augment)
        assert dataset == want[0]
        assert report == want[1]
        self.same_excerpts(got, want[2:])
        return runs, dataset

    def test_matches_segments_of_the_whole_pool(self):
        selection = SelectionConfig(min_length=3.0, labeled_total=40.0)
        augment = AugmentSpec((-5, 6), 0.1, 3)
        cuts_inside_runs = ends_at_track_end = 0
        for seed in (1, 2, 3):
            pool = self.pool(seed)
            model = ClassifierModel(np.random.default_rng(seed).normal(0.0, 2.0, (len(MODEL_CLASSES), N_CHROMA + 1)))
            for window in (1, 3, 5):
                runs, dataset = self.round_of_both(seed, model, pool, window, selection, augment)
                assert dataset.events
                for tid, excerpts in dataset.intervals.items():
                    edges = runs[tid].edges.tolist()
                    fps = pool[tid].frame_rate
                    for excerpt in excerpts:
                        i0, i1 = round(excerpt.start * fps), round(excerpt.end * fps)
                        cuts_inside_runs += (i0 not in edges) + (i1 not in edges)
                        ends_at_track_end += i1 == len(pool[tid])
        assert cuts_inside_runs and ends_at_track_end

    def test_cuts_at_every_frame_offset(self):
        # every excerpt i0:i1 of each track, i1 at the track end included
        augment = AugmentSpec((-5, 6), 0.1, 3)
        pool = {tid: track for tid, track in self.pool(5).items() if len(track) <= 40}
        assert len(pool) >= 2
        model = ClassifierModel(np.random.default_rng(5).normal(0.0, 2.0, (len(MODEL_CLASSES), N_CHROMA + 1)))
        runs, pseudo = {}, {}
        for tid, track in pool.items():
            outputs, emitted = student.decide_frames(model, track, 3)
            runs[tid] = pipeline._Runs(*student.frame_runs(outputs), emitted)
            pseudo[tid] = student.predict_segments(model, track, 3)
        dataset = ExcerptDataset({tid: tuple(Interval(i0 / track.frame_rate, i1 / track.frame_rate)
                                             for i0 in range(len(track))
                                             for i1 in range(i0 + 1, len(track) + 1))
                                  for tid, track in pool.items()})
        got = pipeline._augmented_excerpts(2, augment, pool, runs, dataset)
        assert len(got[0]) == sum(n * (n + 1) // 2 for n in map(len, pool.values()))
        self.same_excerpts(got, oracles.cut_excerpts(2, augment, pool, pseudo, dataset))

    def test_teacher_without_rare_outputs_selects_nothing(self):
        weights = np.zeros((len(MODEL_CLASSES), N_CHROMA + 1))
        weights[MODEL_CLASSES.index("C:maj"), -1] = 10.0
        selection = SelectionConfig(min_length=3.0, labeled_total=40.0)
        _, dataset = self.round_of_both(1, ClassifierModel(weights), self.pool(4), 3, selection,
                                        AugmentSpec((-5, 6), 0.1, 3))
        assert dataset.intervals == {} and dataset.events == ()


class TestGuards:
    def test_test_pool_overlap_rejected(self, corpora, tmp_path):
        config = make_config(corpora, unlabeled_dir=corpora["test"])
        message = "unlabeled corpus shares tracks with the test corpus"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            run_experiment(config, tmp_path)

    def test_missing_corpus_leaves_no_models(self, corpora, tmp_path):
        missing = tmp_path / "nope"
        config = make_config(corpora, labeled_dir=str(missing))
        message = f"not a corpus directory (no manifest.json): {missing}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out" / "models").exists()

    def test_empty_labeled_corpus_rejected(self, corpora, tmp_path):
        save_corpus(tmp_path / "empty", [])
        config = make_config(corpora, labeled_dir=str(tmp_path / "empty"))
        with pytest.raises(ValueError, match="labeled corpus .*empty has no tracks"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out" / "models").exists()


class TestCompare:
    def series(self, *acqas):
        return [
            {"iteration": i, "metrics": {"wcsr": 0.5 + i / 100, "acqa": a}}
            for i, a in enumerate(acqas)
        ]

    def test_single_series(self):
        table, curves = compare_runs([("base", self.series(0.3, 0.5, 0.4))])
        assert table == [("base", 1, 0.51, 0.5)]
        assert len(curves) == 3

    def test_identical_series_identical_rows(self):
        s = self.series(0.3, 0.4)
        table, _ = compare_runs([("a", s), ("b", s)])
        assert table[0][1:] == table[1][1:]

    def test_errors(self):
        with pytest.raises(ValueError):
            compare_runs([])
        with pytest.raises(ValueError, match="no iteration"):
            compare_runs([("empty", [])])

    def test_csv_output(self, tmp_path):
        table, curves = compare_runs(
            [("a", self.series(0.3, 0.6)), ("b", self.series(0.2))]
        )
        write_comparison_csvs(tmp_path, table, curves)
        with open(tmp_path / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "best_iteration", "wcsr", "acqa"]
        assert [r[0] for r in rows[1:]] == ["a", "b"]
        with open(tmp_path / "curves.csv", newline="") as fh:
            crows = list(csv.reader(fh))
        assert crows[0] == ["name", "iteration", "wcsr", "acqa"]
        assert len(crows) == 1 + 3

    def test_load_reports_missing(self, tmp_path):
        with pytest.raises(ValueError, match="reports.json"):
            load_reports(tmp_path)

    @pytest.mark.parametrize(
        "reports,where",
        [
            ({"a": 1}, "expected a non-empty list"),
            ([], "expected a non-empty list"),
            ([{"iteration": 0, "metrics": {"wcsr": 0.5, "acqa": 0.4}}, {"iteration": 1}], "report 1"),
            ([{"iteration": "0", "metrics": {"wcsr": 0.5, "acqa": 0.4}}], "report 0"),
            ([{"iteration": 0, "metrics": {"wcsr": 0.5, "acqa": None}}], "report 0"),
            ([7], "report 0"),
        ],
        ids=["object", "empty", "no-metrics", "string-iteration", "null-acqa", "number"],
    )
    def test_load_reports_rejects_malformed(self, tmp_path, reports, where):
        path = tmp_path / "reports.json"
        path.write_text(json.dumps(reports))
        with pytest.raises(ValueError, match=re.escape(f"{path}") + ".*" + where):
            load_reports(tmp_path)
