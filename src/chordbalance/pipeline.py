"""Self-training experiment driver.

One run: train a baseline on the labeled split, then repeat for a fixed
number of iterations: pseudo-label the full unlabeled pool with the
current teacher, select a rare-class-balanced excerpt dataset, augment
the excerpts (pitch shift plus optional feature noise), and train a
fresh student on labeled-plus-selected data.  Every iteration including
the baseline is evaluated on the held-out test corpus.

The labeled corpus is split into train/validation exactly once per run
(validation drives early stopping) and the split is recorded in the run
manifest.  Given the same config and seed, a run is fully deterministic:
reports.json comes out byte-identical.  Wall-clock timings are therefore
kept out of reports.json and written to a separate timings.csv.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import student
from ._config import JsonConfig, load_config
from .annotations import Interval, TimedLabelSequence
from .augment import AugmentSpec, add_noise, derive_seed, draw_semitones, pitch_shift
from .metrics import MetricsReport, TrackPair, _write_csv, compute_report
from .selection import (
    DEFAULT_RARE_CLASSES,
    ExcerptDataset,
    SelectionConfig,
    SelectionReport,
    select_balanced_subset,
    write_pseudolabels_jsonl,
)
from .student import FeatureTrack, TrainParams, predict_segments, save_model
from .synth import load_corpus

__all__ = [
    "ExperimentConfig",
    "IterationReport",
    "PipelineError",
    "compare_runs",
    "load_reports",
    "run_experiment",
    "write_comparison_csvs",
]


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names stage and iteration."""


@dataclass
class ExperimentConfig(JsonConfig):
    """Single source of truth for one experiment run."""

    labeled_dir: str
    unlabeled_dir: str
    test_dir: str
    name: str = "experiment"
    iterations: int = 3
    split_fraction: float = 0.8
    seed: int = 0
    loss: str = "cross_entropy"
    gamma: float = 2.0
    class_weights: dict[str, float] | None = None
    learning_rate: float = 1.0
    epochs: int = 200
    patience: int | None = 25
    smoothing_window: int = 5
    min_length: float = 8.0
    confidence_threshold: float = 0.0
    rare_classes: tuple[str, ...] = DEFAULT_RARE_CLASSES
    # An AugmentSpec or a mapping of its fields.  The one default for a
    # missing field: shifts in [-5, 6], noise 0.05 and the run seed.
    augment: AugmentSpec | Mapping | None = None

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split fraction must be in (0, 1), got {self.split_fraction}")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError(f"smoothing window must be odd and >= 1, got {self.smoothing_window}")
        self.rare_classes = tuple(self.rare_classes)
        if not isinstance(self.augment, AugmentSpec):
            raw = {} if self.augment is None else self.augment
            self.augment = load_config(AugmentSpec, raw, "augment",
                                       {"semitone_range": (-5, 6), "noise_sigma": 0.05, "seed": self.seed})
        # Built once from the shared field names; a round replaces only
        # its seed and the labeled total.  Not fields, so equality and
        # the echo see only the config itself.
        self._train_params = self._part(TrainParams)
        self._selection = self._part(SelectionConfig, labeled_total=0.0)

    def _part(self, cls, **fixed):
        return cls(**{name: getattr(self, name) for name in cls.__dataclass_fields__
                      if name in self.__dataclass_fields__}, **fixed)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return load_config(cls, json.loads(Path(path).read_text("utf-8")), "experiment config")


@dataclass
class IterationReport:
    """Evaluation (and, after the baseline, selection) of one iteration."""

    iteration: int
    metrics: MetricsReport
    selection: SelectionReport | None
    model_path: str
    wall_seconds: float

    def to_dict(self) -> dict:
        selection = None
        if self.selection is not None:
            selection = {cls: asdict(sel) for cls, sel in self.selection.per_class.items()}
        # wall_seconds stays out on purpose: reports must be reproducible
        # byte for byte across reruns of the same config.
        return {
            "iteration": self.iteration,
            "metrics": self.metrics.to_dict(),
            "selection": selection,
            "model": self.model_path,
        }


def _stage(stage: str, iteration: int, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage {stage!r} failed at iteration {iteration}: {exc}") from exc


def _load_corpora(config: ExperimentConfig):
    """The labeled, unlabeled and test corpora, checked against each other."""
    labeled = load_corpus(config.labeled_dir)[0]
    unlabeled = load_corpus(config.unlabeled_dir)[0]
    test = load_corpus(config.test_dir)[0]
    test_ids = {track.track_id for track, _ in test}
    for name, corpus in (("unlabeled", unlabeled), ("labeled", labeled)):
        leaked = sorted(test_ids & {track.track_id for track, _ in corpus})
        if leaked:
            raise ValueError(f"{name} corpus shares tracks with the test corpus: {leaked}")
    rates = {name: corpus[0][0].frame_rate
             for name, corpus in (("labeled", labeled), ("unlabeled", unlabeled), ("test", test)) if corpus}
    if len(set(rates.values())) > 1:
        raise ValueError(f"corpora differ in frame rate: {rates}")
    return labeled, unlabeled, test


def _pseudolabel(model, pool, smoothing_window: int) -> dict[str, student.PredictedSegments]:
    return {tid: predict_segments(model, track, smoothing_window) for tid, track in pool.items()}


def _augmented_excerpts(
    k: int,
    augment: AugmentSpec,
    pool: Mapping[str, FeatureTrack],
    pseudo: Mapping[str, student.PredictedSegments],
    dataset: ExcerptDataset,
) -> tuple[list[tuple[FeatureTrack, TimedLabelSequence]], list[student.PredictedSegments]]:
    """Cut each selected excerpt with its pseudolabels, then pitch-shift and noise it.

    An excerpt spans frames ``i0:i1`` of its pool track, is named
    ``tid@i0-i1``, and its segment times start at 0.
    """
    corpus = []
    pseudolabels = []
    for tid, excerpts in dataset.intervals.items():
        track = pool[tid]
        predicted = pseudo[tid]
        fps = track.frame_rate
        for excerpt in excerpts:
            i0 = int(round(excerpt.start * fps))
            i1 = int(round(excerpt.end * fps))
            eid = f"{tid}@{i0}-{i1}"
            t0 = i0 / fps
            t1 = min(i1, len(track)) / fps
            segments = []
            confidences = []
            for (iv, lab), conf in zip(predicted.sequence.segments, predicted.confidences):
                lo = max(iv.start, t0)
                hi = min(iv.end, t1)
                if hi > lo:
                    segments.append((Interval(lo - t0, hi - t0), lab))
                    confidences.append(conf)
            key = f"iter{k}:{eid}"
            shift_rng = np.random.default_rng(derive_seed(augment.seed, f"shift:{key}"))
            aug_track, aug_labels = pitch_shift(FeatureTrack(eid, track.frames[i0:i1], fps),
                                                TimedLabelSequence(eid, tuple(segments)),
                                                draw_semitones(shift_rng, augment.semitone_range))
            if augment.noise_sigma > 0:
                aug_track = add_noise(aug_track, augment.noise_sigma,
                                      derive_seed(augment.seed, f"noise:{key}"))
            corpus.append((aug_track, aug_labels))
            pseudolabels.append(student.PredictedSegments(aug_labels, tuple(confidences)))
    return corpus, pseudolabels


def _evaluate(model, test, smoothing_window: int) -> MetricsReport:
    pairs = [TrackPair(predict_segments(model, track, smoothing_window).sequence, ref) for track, ref in test]
    return compute_report(pairs)


def run_experiment(config: ExperimentConfig, output_dir: str | Path) -> list[IterationReport]:
    """Execute one experiment and write its artifacts to ``output_dir``.

    Outputs: reports.json (deterministic), curves.csv, summary.csv,
    models/iter_<k>.json, selection_<k>.jsonl with the augmented
    excerpts' pseudolabels, run_manifest.json with the config echo and
    the train/validation split, timings.csv.
    """
    out = Path(output_dir)
    (out / "models").mkdir(parents=True, exist_ok=True)

    labeled, unlabeled, test = _stage("load-corpora", 0, _load_corpora, config)

    # One split per run; every iteration trains against the same validation set.
    split_rng = np.random.default_rng(derive_seed(config.seed, "split"))
    order = split_rng.permutation(len(labeled))
    n_train = max(1, int(round(config.split_fraction * len(labeled))))
    train_split = [labeled[i] for i in order[:n_train]]
    val_split = [labeled[i] for i in order[n_train:]]
    selection = replace(config._selection,
                        labeled_total=sum(track.duration for track, _ in train_split))

    pool = {track.track_id: track for track, _ in unlabeled}
    pool_durations = {tid: track.duration for tid, track in pool.items()}

    reports: list[IterationReport] = []
    model = None
    for k in range(config.iterations + 1):
        started = time.perf_counter()
        selection_report = None
        corpus = list(train_split)
        if k > 0:
            pseudo = _stage("pseudolabel", k, _pseudolabel, model, pool, config.smoothing_window)
            dataset, selection_report = _stage("select", k, select_balanced_subset,
                                               list(pseudo.values()), pool_durations, selection)
            excerpts, excerpt_pseudo = _stage("augment", k, _augmented_excerpts,
                                              k, config.augment, pool, pseudo, dataset)
            write_pseudolabels_jsonl(out / f"selection_{k}.jsonl", excerpt_pseudo)
            corpus += excerpts

        params = replace(config._train_params, seed=derive_seed(config.seed, f"train-{k}"))
        model = _stage("train", k, student.train, corpus, params, val_split or None).model
        model_path = f"models/iter_{k}.json"
        save_model(model, out / model_path)

        metrics = _stage("evaluate", k, _evaluate, model, test, config.smoothing_window)
        reports.append(IterationReport(
            iteration=k,
            metrics=metrics,
            selection=selection_report,
            model_path=model_path,
            wall_seconds=time.perf_counter() - started,
        ))

    _write_run_outputs(out, config, reports, train_split, val_split)
    return reports


def _write_run_outputs(
    out: Path,
    config: ExperimentConfig,
    reports: Sequence[IterationReport],
    train_split,
    val_split,
) -> None:
    (out / "reports.json").write_text(
        json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n", "utf-8"
    )
    best = max(reports, key=lambda r: r.metrics.acqa)
    _write_csv(out / "curves.csv", ["iteration", "wcsr", "acqa"],
               [[r.iteration, f"{r.metrics.wcsr:.6f}", f"{r.metrics.acqa:.6f}"] for r in reports])
    _write_csv(out / "summary.csv", ["name", "best_iteration", "wcsr", "acqa"],
               [[config.name, best.iteration, f"{best.metrics.wcsr:.6f}", f"{best.metrics.acqa:.6f}"]])
    _write_csv(out / "timings.csv", ["iteration", "wall_seconds"],
               [[r.iteration, f"{r.wall_seconds:.3f}"] for r in reports])
    manifest = {
        "config": config.to_dict(),
        "train_tracks": sorted(track.track_id for track, _ in train_split),
        "validation_tracks": sorted(track.track_id for track, _ in val_split),
    }
    (out / "run_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", "utf-8"
    )


def load_reports(run_dir: str | Path) -> list[dict]:
    """Read a run's reports.json back as plain dictionaries."""
    path = Path(run_dir) / "reports.json"
    if not path.exists():
        raise ValueError(f"no reports.json under {run_dir}")
    return json.loads(path.read_text("utf-8"))


def compare_runs(
    named_series: Sequence[tuple[str, Sequence[dict]]],
) -> tuple[list[tuple[str, int, float, float]], list[tuple[str, int, float, float]]]:
    """Headline table and per-iteration curves across runs.

    For each run the headline row picks the iteration with the best
    class-quality average.  Returns (table_rows, curve_rows), both as
    (name, iteration, wcsr, acqa) tuples.
    """
    if not named_series:
        raise ValueError("no runs to compare")
    table = []
    curves = []
    for name, series in named_series:
        if not series:
            raise ValueError(f"run {name!r} has no iteration reports")
        best = max(series, key=lambda r: r["metrics"]["acqa"])
        table.append((name, best["iteration"],
                      best["metrics"]["wcsr"], best["metrics"]["acqa"]))
        for r in series:
            curves.append((name, r["iteration"], r["metrics"]["wcsr"], r["metrics"]["acqa"]))
    return table, curves


def write_comparison_csvs(
    output_dir: str | Path,
    table: Sequence[tuple[str, int, float, float]],
    curves: Sequence[tuple[str, int, float, float]],
) -> None:
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for filename, first, rows in (("comparison.csv", "best_iteration", table),
                                  ("curves.csv", "iteration", curves)):
        _write_csv(output_dir / filename, ["name", first, "wcsr", "acqa"],
                   [[name, iteration, f"{w:.6f}", f"{a:.6f}"] for name, iteration, w, a in rows])
