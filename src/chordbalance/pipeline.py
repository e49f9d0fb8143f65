"""Self-training experiment driver.

One run: train a baseline on the labeled split, then repeat for a fixed
number of iterations: pseudo-label the full unlabeled pool with the
current teacher, select a rare-class-balanced excerpt dataset, augment
the excerpts (pitch shift plus optional feature noise), and train a
fresh student on labeled-plus-selected data.  Every iteration including
the baseline is evaluated on the held-out test corpus.

The pool's pseudolabels stay frames from teacher to student: the
teacher's output runs and each frame's posterior of its output.  An
excerpt is a frame slice, trained on its frames' shifted outputs.
Segments are built only where they are read: the rare-class runs that
selection takes seeds from, and the runs inside each selected excerpt.
A round's pool state ends before its student trains.

The labeled corpus is split into train/validation exactly once per run
(validation drives early stopping) and the split is recorded in the run
manifest.  Given the same config and seed, a run is fully deterministic:
reports.json comes out byte-identical.  Wall-clock timings are therefore
kept out of reports.json and written to a separate timings.csv.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import student
from ._config import JsonConfig, load_config, read_json, write_csv, write_json
from .augment import AugmentSpec, add_noise, derive_seed, draw_semitones, pitch_shift
from .chords import map_to_class
from .metrics import MetricsReport, TrackPair, compute_report
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
    "compare_runs",
    "load_reports",
    "run_experiment",
    "write_comparison_csvs",
]


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
        return load_config(cls, read_json(path), "experiment config")


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


def _load_corpora(config: ExperimentConfig):
    """The labeled and test corpora and the pool's tracks by id, checked against each other
    and for what training and scoring need.

    The pool's ``.lab`` labels are read with it but not kept: the pool is unlabeled.
    """
    labeled = load_corpus(config.labeled_dir)[0]
    unlabeled = load_corpus(config.unlabeled_dir)[0]
    test = load_corpus(config.test_dir)[0]
    if not labeled:
        raise ValueError(f"labeled corpus {config.labeled_dir} has no tracks")
    if all(map_to_class(lab) == "X" for _, ref in test for _, lab in ref.segments):
        raise ValueError(f"test corpus {config.test_dir} has no reference time outside class X")
    test_ids = {track.track_id for track, _ in test}
    for name, corpus in (("unlabeled", unlabeled), ("labeled", labeled)):
        leaked = sorted(test_ids & {track.track_id for track, _ in corpus})
        if leaked:
            raise ValueError(f"{name} corpus shares tracks with the test corpus: {leaked}")
    rates = {name: corpus[0][0].frame_rate
             for name, corpus in (("labeled", labeled), ("unlabeled", unlabeled), ("test", test)) if corpus}
    if len(set(rates.values())) > 1:
        raise ValueError(f"corpora differ in frame rate: {rates}")
    return labeled, {track.track_id: track for track, _ in unlabeled}, test


class _Runs(NamedTuple):
    """One pool track's pseudolabels as frames: the teacher's output runs."""

    edges: np.ndarray    # run i spans frames edges[i]:edges[i + 1]
    outputs: np.ndarray  # model output of each run
    emitted: np.ndarray  # per frame, the posterior of its run's output


def _select_from_pool(
    model: student.ClassifierModel,
    pool: Mapping[str, FeatureTrack],
    window: int,
    selection: SelectionConfig,
) -> tuple[dict[str, _Runs], ExcerptDataset, SelectionReport]:
    """Pseudolabel every pool track as frames, then select excerpts from its rare-class runs.

    Selection reads pool time and takes seeds only for the rare classes,
    so each track hands it only its rare-class runs, in order, as
    segments; the selection is the one that all of its segments give.
    """
    rare = np.array([map_to_class(label) in selection.rare_classes for label in student._OUTPUT_LABELS])
    runs = {}
    seeds = []
    for tid, track in pool.items():
        frame_outputs, emitted = student.decide_frames(model, track, window)
        edges, outputs = student.frame_runs(frame_outputs)
        runs[tid] = _Runs(edges, outputs, emitted)
        seeds.append(student.run_segments(tid, track.frame_rate, edges, outputs, emitted,
                                          np.flatnonzero(rare[outputs]).tolist(), 0, len(track)))
    durations = {tid: track.duration for tid, track in pool.items()}
    return runs, *select_balanced_subset(seeds, durations, selection)


def _augmented_excerpts(
    k: int,
    augment: AugmentSpec,
    pool: Mapping[str, FeatureTrack],
    runs: Mapping[str, _Runs],
    dataset: ExcerptDataset,
) -> tuple[list[tuple[FeatureTrack, np.ndarray]], list[student.PredictedSegments]]:
    """Cut each selected excerpt with its frame pseudolabels, then pitch-shift and noise it.

    An excerpt spans frames ``i0:i1`` of its pool track and is named
    ``tid@i0-i1``.  Its targets are the shifted output of each frame,
    and its pseudolabels the runs it overlaps, cut to it as segments.
    """
    corpus = []
    pseudolabels = []
    for tid, excerpts in dataset.intervals.items():
        track = pool[tid]
        edges, outputs, emitted = runs[tid]
        fps = track.frame_rate
        for excerpt in excerpts:
            i0 = int(round(excerpt.start * fps))
            i1 = int(round(excerpt.end * fps))
            eid = f"{tid}@{i0}-{i1}"
            first = int(np.searchsorted(edges[1:], i0, side="right"))  # the first run to end after frame i0
            last = int(np.searchsorted(edges[:-1], i1))  # the first run to start at or after frame i1
            key = f"iter{k}:{eid}"
            shift_rng = np.random.default_rng(derive_seed(augment.seed, f"shift:{key}"))
            aug_track, shifted = pitch_shift(FeatureTrack(eid, track.frames[i0:i1], fps), outputs[first:last],
                                             draw_semitones(shift_rng, augment.semitone_range))
            if augment.noise_sigma > 0:
                aug_track = add_noise(aug_track, augment.noise_sigma,
                                      derive_seed(augment.seed, f"noise:{key}"))
            corpus.append((aug_track, np.repeat(shifted, np.diff(np.clip(edges[first:last + 1], i0, i1)))))
            pseudolabels.append(student.run_segments(eid, fps, edges[first:last + 1], shifted, emitted,
                                                     range(last - first), i0, i1))
    return corpus, pseudolabels


def _pool_round(
    k: int,
    model: student.ClassifierModel,
    pool: Mapping[str, FeatureTrack],
    config: ExperimentConfig,
    selection: SelectionConfig,
    out: Path,
) -> tuple[list[tuple[FeatureTrack, np.ndarray]], SelectionReport]:
    """Round ``k``'s augmented excerpts of the pool, with their targets, and its selection report.

    Writes ``selection_<k>.jsonl``.  The round's frame pseudolabels and
    selection end with this call, before the student trains.
    """
    runs, dataset, report = _select_from_pool(model, pool, config.smoothing_window, selection)
    excerpts, pseudolabels = _augmented_excerpts(k, config.augment, pool, runs, dataset)
    write_pseudolabels_jsonl(out / f"selection_{k}.jsonl", pseudolabels)
    return excerpts, report


def run_experiment(config: ExperimentConfig, output_dir: str | Path) -> list[IterationReport]:
    """Execute one experiment and write its artifacts to ``output_dir``.

    Outputs: reports.json (deterministic), curves.csv, summary.csv,
    models/iter_<k>.json, selection_<k>.jsonl with the augmented
    excerpts' pseudolabels, run_manifest.json with the config echo and
    the train/validation split, timings.csv.
    """
    labeled, pool, test = _load_corpora(config)
    out = Path(output_dir)
    (out / "models").mkdir(parents=True, exist_ok=True)

    # One split per run; every iteration trains against the same validation set.
    split_rng = np.random.default_rng(derive_seed(config.seed, "split"))
    order = split_rng.permutation(len(labeled))
    n_train = max(1, int(round(config.split_fraction * len(labeled))))
    targets = [(track, student.frame_targets(track, labels)) for track, labels in labeled]
    train_split = [targets[i] for i in order[:n_train]]
    val_split = [targets[i] for i in order[n_train:]]
    selection = replace(config._selection,
                        labeled_total=sum(track.duration for track, _ in train_split))
    window = config.smoothing_window

    reports: list[IterationReport] = []
    model = None
    for k in range(config.iterations + 1):
        started = time.perf_counter()
        selection_report = None
        corpus = list(train_split)
        if k > 0:
            excerpts, selection_report = _pool_round(k, model, pool, config, selection, out)
            corpus += excerpts

        params = replace(config._train_params, seed=derive_seed(config.seed, f"train-{k}"))
        model = student.train(corpus, params, val_split or None).model
        model_path = f"models/iter_{k}.json"
        save_model(model, out / model_path)

        reports.append(IterationReport(
            iteration=k,
            metrics=compute_report([TrackPair(predict_segments(model, track, window).sequence, ref)
                                    for track, ref in test]),
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
    series = [r.to_dict() for r in reports]
    write_json(out / "reports.json", series)
    table, curves = compare_runs([(config.name, series)])
    write_csv(out / "curves.csv", ["iteration", "wcsr", "acqa"],
              [[iteration, f"{w:.6f}", f"{a:.6f}"] for _, iteration, w, a in curves])
    write_csv(out / "summary.csv", ["name", "best_iteration", "wcsr", "acqa"],
              [[name, iteration, f"{w:.6f}", f"{a:.6f}"] for name, iteration, w, a in table])
    write_csv(out / "timings.csv", ["iteration", "wall_seconds"],
              [[r.iteration, f"{r.wall_seconds:.3f}"] for r in reports])
    write_json(out / "run_manifest.json", {
        "config": config.to_dict(),
        "train_tracks": sorted(track.track_id for track, _ in train_split),
        "validation_tracks": sorted(track.track_id for track, _ in val_split),
    })


def load_reports(run_dir: str | Path) -> list[dict]:
    """Read a run's reports.json back as plain dictionaries, checking the fields compare reads."""
    path = Path(run_dir) / "reports.json"
    if not path.exists():
        raise ValueError(f"no reports.json under {run_dir}")
    reports = read_json(path)
    if not isinstance(reports, list) or not reports:
        raise ValueError(f"{path}: expected a non-empty list of iteration reports")
    for i, report in enumerate(reports):
        metrics = report.get("metrics") if isinstance(report, dict) else None
        if not (isinstance(metrics, dict) and type(report.get("iteration")) is int
                and all(type(metrics.get(name)) in (int, float) for name in ("wcsr", "acqa"))):
            raise ValueError(f"{path}, report {i}: expected an integer 'iteration' and "
                             "numeric 'metrics.wcsr' and 'metrics.acqa'")
    return reports


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
        write_csv(output_dir / filename, ["name", first, "wcsr", "acqa"],
                  [[name, iteration, f"{w:.6f}", f"{a:.6f}"] for name, iteration, w, a in rows])
