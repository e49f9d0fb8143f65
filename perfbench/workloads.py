"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload hands the program only files: corpora, ``.lab``
directories, a pseudolabel dump and a JSON config.  The seed draws only
inputs that leave the amount of work nearly unchanged, so that runs with
different seeds differ by noise, not by input size: ``labtools`` draws
all its files from the seed, ``selftrain`` keeps its corpora, split and
weight init fixed and draws the augmentation from the seed, and
``pool_heavy`` takes nothing from the seed (see below).  One
*operation* is the unit that is timed: a whole ``run_experiment`` for
the experiment workloads, and the CLI ``evaluate`` followed by the CLI
``select`` for ``labtools``.

Why each workload exists:

- ``selftrain`` runs the frozen acceptance experiment's corpora (32
  labeled, 144 pool and 32 test tracks) with focal loss and 3 rounds,
  so ``student.train`` and ``focal`` do nearly all the work.  Training
  is shortened to fit two experiments into one run; the higher
  learning rate keeps the lift over the baseline that the acceptance
  gate requires clear of zero on every seed tried.
- ``pool_heavy`` has a small labeled set and a large noisy pool of short
  chords, trained briefly with cross-entropy, class weights and
  validation early stopping, so pseudolabeling, label parsing, corpus
  loading, selection and augmentation carry about half the time, and
  the trainer runs its non-focal branch.  Its inputs are fixed: with
  12 labeled tracks its rare-class scores swing, and a seeded
  augmentation or a seeded test corpus moved ``acqa_best`` by about 8%
  between seeds, which would force a bound on ``acqa_best`` too loose
  to catch a change of results.
- ``labtools`` scores and selects from ``.lab`` and JSONL files written
  with rich label syntax (extensions, inversions, ``X``) and trains no
  model, so a trainer change must read as no change there.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chordbalance.synth import CorpusSpec, generate_corpus, save_corpus

WORKLOADS = ("selftrain", "pool_heavy", "labtools")

# Corpus shape of the frozen acceptance experiment (tests/test_acceptance.py).
_ACCEPTANCE = dict(track_length_range=(60.0, 90.0), noise_sigma=0.12)


def sub_seed(seed: int, key: str) -> int:
    """Stable 32-bit seed for one input of one workload."""
    digest = hashlib.blake2b(f"{seed}:{key}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Inputs:
    """Files one workload's operations read, plus what the checks expect."""

    root: Path
    config: Path | None = None
    expected: dict = field(default_factory=dict)
    setup_layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """Checked result of one operation."""

    fingerprint: str
    acqa_best: float
    wcsr_best: float
    errors: list[str]
    lift: float | None = None  # best iteration's acqa minus the baseline's


# ---------------------------------------------------------------- experiments

def _experiment_specs(name: str, seed: int) -> tuple[dict[str, CorpusSpec], dict]:
    """Corpus specs and config of an experiment workload."""
    if name == "selftrain":
        # The acceptance test's corpora and experiment seed.
        specs = {
            "labeled": CorpusSpec(n_tracks=32, seed=11, track_prefix="lab", **_ACCEPTANCE),
            "pool": CorpusSpec(n_tracks=144, seed=87, track_prefix="pool", **_ACCEPTANCE),
            "test": CorpusSpec(n_tracks=32, seed=103, track_prefix="eval", **_ACCEPTANCE),
        }
        config = dict(seed=5, iterations=3, loss="focal", gamma=2.0, learning_rate=20.0, epochs=40,
                      patience=None, smoothing_window=5, min_length=8.0,
                      augment={"semitone_range": [-5, 6], "noise_sigma": 0.05,
                               "seed": sub_seed(seed, "augment")})
    else:
        specs = {
            "labeled": CorpusSpec(n_tracks=12, seed=12, track_prefix="lab", **_ACCEPTANCE),
            "pool": CorpusSpec(n_tracks=300, track_length_range=(30.0, 60.0),
                               chord_duration_range=(0.5, 2.0), noise_sigma=0.2,
                               seed=300, track_prefix="pool"),
            "test": CorpusSpec(n_tracks=48, seed=16, track_prefix="eval", **_ACCEPTANCE),
        }
        config = dict(seed=7, iterations=2, loss="cross_entropy", learning_rate=20.0, epochs=15,
                      patience=3, smoothing_window=3, min_length=4.0,
                      class_weights={"7": 2.0, "min7": 3.0, "maj7": 4.0, "dim": 6.0, "hdim7": 8.0},
                      augment={"semitone_range": [-5, 6], "noise_sigma": 0.1, "seed": 17})
    return specs, config


def setup_experiment(name: str, seed: int, root: Path) -> Inputs:
    specs, config = _experiment_specs(name, seed)
    generate_s = save_s = 0.0
    for corpus_name, spec in specs.items():
        started = time.perf_counter()
        corpus = generate_corpus(spec)
        generated = time.perf_counter()
        save_corpus(root / corpus_name, corpus, spec)
        generate_s += generated - started
        save_s += time.perf_counter() - generated
    config.update(name=name, labeled_dir=str(root / "labeled"), unlabeled_dir=str(root / "pool"),
                  test_dir=str(root / "test"))
    path = root / "config.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=2), "utf-8")
    return Inputs(root, path, {"iterations": config["iterations"]},
                  {"synth.generate_s": generate_s, "synth.save_s": save_s})


def check_experiment(name: str, inputs: Inputs, out: Path) -> Outcome:
    """Reports are complete and in range, and every round wrote its selection.

    On ``selftrain`` the best iteration must also be a self-training
    round, as the acceptance gate requires.
    """
    errors = []
    out = out / "run"
    reports = json.loads((out / "reports.json").read_text("utf-8"))
    if len(reports) != inputs.expected["iterations"] + 1:
        errors.append(f"{len(reports)} iteration reports, expected {inputs.expected['iterations'] + 1}")
    for r in reports:
        m = r["metrics"]
        if not (0.0 <= m["wcsr"] <= 1.0 and 0.0 <= m["acqa"] <= 1.0):
            errors.append(f"iteration {r['iteration']}: score outside [0, 1]")
        if r["iteration"] > 0 and not (out / f"selection_{r['iteration']}.jsonl").is_file():
            errors.append(f"selection_{r['iteration']}.jsonl missing")
    best = max(reports, key=lambda r: r["metrics"]["acqa"])
    if name == "selftrain" and best["iteration"] == 0:
        errors.append(f"self-training did not lift acqa over the baseline "
                      f"({reports[0]['metrics']['acqa']:.4f})")
    return Outcome(sha256(out / "reports.json"), best["metrics"]["acqa"], best["metrics"]["wcsr"],
                   errors, best["metrics"]["acqa"] - reports[0]["metrics"]["acqa"])


# ------------------------------------------------------------------- labtools

_LAB_TRACKS = 1000
_LAB_LENGTH = (8000, 12000)  # hundredths of a second
_LAB_SEGMENT = (50, 400)
_MIN_LENGTH = 8.0

# Scoreable classes with a skew like annotated corpora, plus out-of-vocabulary labels.
_REF_SHARES = {"maj": 0.55, "min": 0.16, "7": 0.07, "min7": 0.03, "maj7": 0.015, "dim": 0.006,
               "hdim7": 0.004, "aug": 0.003, "sus": 0.012, "N": 0.1, "X": 0.05}
_SCOREABLE = ("maj", "min", "7", "min7", "maj7", "dim", "hdim7", "aug", "sus", "N")
_QUALITIES = {
    "maj": ("maj", "maj6", ""), "min": ("min", "min6"), "7": ("7", "9", "11", "13"),
    "min7": ("min7", "min9", "minmaj7"), "maj7": ("maj7", "maj9", "maj13"),
    "dim": ("dim", "dim7"), "hdim7": ("hdim7",), "aug": ("aug",), "sus": ("sus4", "sus2"),
}
_OUT_OF_VOCABULARY = ("X", "aug7", "5", "1")
_ROOTS = ("C", "C#", "Db", "D", "D#", "Eb", "E", "F", "F#", "Gb", "G", "G#", "Ab", "A", "A#",
          "Bb", "B")
_EXTENSIONS = ("(9)", "(b9)", "(9,11)", "(#11)", "(*5)", "(13)")
_BASSES = ("/3", "/5", "/b7", "/b3", "/7", "/9")
_SWAPS = {cls: tuple(c for c in _SCOREABLE if c != cls) for cls in _REF_SHARES}
_KEEP = 0.7
_SPLIT = 0.3
_DROP = 0.02


def _spell(cls: str, u: list[float]) -> str:
    """A label of class ``cls`` in rich syntax, from four uniform draws ``u``.

    Roots get sharp or flat spellings, qualities any table row of the
    class, and some labels an extension list or an inversion.
    """
    if cls == "N":
        return "N"
    options = _OUT_OF_VOCABULARY if cls == "X" else _QUALITIES[cls]
    quality = options[int(u[0] * len(options))]
    if quality == "X":
        return "X"
    root = _ROOTS[int(u[1] * len(_ROOTS))]
    if quality == "":
        return root
    label = f"{root}:{quality}"
    if u[2] < 0.2:
        label += _EXTENSIONS[int(u[2] * 5 * len(_EXTENSIONS))]
    if u[3] < 0.2:
        label += _BASSES[int(u[3] * 5 * len(_BASSES))]
    return label


def setup_labtools(seed: int, root: Path) -> Inputs:
    """Reference/prediction ``.lab`` dirs, a pseudolabel dump and a select config.

    Predictions reuse the reference boundaries, sometimes split in two,
    and keep or swap the class of each piece; the bookkeeping of kept
    time gives the exact WCSR and class-quality average that
    ``evaluate`` must report.  Times are whole hundredths of a second.
    """
    rng = np.random.default_rng(sub_seed(seed, "labtools"))
    ref_dir, pred_dir = root / "ref", root / "pred"
    ref_dir.mkdir(parents=True)
    pred_dir.mkdir()
    classes = list(_REF_SHARES)
    shares = np.asarray([_REF_SHARES[c] for c in classes])
    shares = shares / shares.sum()
    totals: dict[str, int] = {}
    matched: dict[str, int] = {}
    durations = {}
    jsonl = []
    for i in range(_LAB_TRACKS):
        tid = f"song-{i:04d}"
        length = int(rng.integers(_LAB_LENGTH[0], _LAB_LENGTH[1] + 1))
        durations[tid] = length / 100
        most = length // _LAB_SEGMENT[0] + 1
        bounds = np.cumsum(rng.integers(_LAB_SEGMENT[0], _LAB_SEGMENT[1] + 1, most))
        bounds = [0, *(int(b) for b in bounds[bounds < length]), length]
        n = len(bounds) - 1
        ref_classes = rng.choice(len(classes), size=n, p=shares)
        draws = rng.random((n, 18)).tolist()
        confidences = rng.uniform(0.2, 1.0, (n, 2)).tolist()
        swaps = rng.integers(len(_SCOREABLE) - 1, size=(n, 2)).tolist()
        ref_lines, pred_lines = [], []
        for k in range(n):
            pos, end = bounds[k], bounds[k + 1]
            cls = classes[ref_classes[k]]
            u = draws[k]  # 0-3 reference spelling, 4-5 split, 6-9 per piece, 10-17 spellings
            ref_lines.append(f"{pos / 100:.2f} {end / 100:.2f} {_spell(cls, u[0:4])}\n")
            if cls != "X":
                totals[cls] = totals.get(cls, 0) + end - pos
            cuts = [pos, end]
            if end - pos >= 2 and u[4] < _SPLIT:
                cuts.insert(1, pos + 1 + int(u[5] * (end - pos - 1)))
            for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
                if u[6 + j] < _DROP:
                    continue
                if u[8 + j] < _KEEP and cls != "X":
                    pred_cls = cls
                    matched[cls] = matched.get(cls, 0) + b - a
                else:
                    others = _SWAPS[cls]
                    pred_cls = others[swaps[k][j] % len(others)]
                label = _spell(pred_cls, u[10 + 4 * j:14 + 4 * j])
                pred_lines.append(f"{a / 100:.2f}\t{b / 100:.2f}\t{label}\n")
                # Labels and track ids hold no characters that JSON escapes.
                jsonl.append(f'{{"track": "{tid}", "start": {a / 100!r}, "end": {b / 100!r}, '
                             f'"label": "{label}", "confidence": {confidences[k][j]:.6f}}}')
        (ref_dir / f"{tid}.lab").write_text("".join(ref_lines), "utf-8")
        (pred_dir / f"{tid}.lab").write_text("".join(pred_lines), "utf-8")
    (root / "pseudolabels.jsonl").write_text("\n".join(jsonl) + "\n", "utf-8")
    pool_total = sum(durations.values())
    select_config = {"min_length": _MIN_LENGTH, "labeled_total": round(0.05 * pool_total, 2),
                     "track_durations": durations}
    config = root / "select.json"
    config.write_text(json.dumps(select_config, sort_keys=True), "utf-8")
    scores = {cls: matched.get(cls, 0) / totals[cls] for cls in totals}
    expected = {
        "wcsr": sum(matched.values()) / sum(totals.values()),
        "acqa": sum(scores.values()) / len(scores),
        "durations": durations,
    }
    return Inputs(root, config, expected)


def labtools_commands(inputs: Inputs, out: Path) -> list[list[str]]:
    root = inputs.root
    return [
        ["--output-dir", str(out / "evaluate"), "evaluate",
         "--pred", str(root / "pred"), "--ref", str(root / "ref")],
        ["--output-dir", str(out / "select"), "select",
         "--pseudolabels", str(root / "pseudolabels.jsonl"), "--config", str(inputs.config)],
    ]


def check_labtools(inputs: Inputs, out: Path) -> Outcome:
    errors = []
    report = json.loads((out / "evaluate" / "metrics.json").read_text("utf-8"))
    for key in ("wcsr", "acqa"):
        if abs(report[key] - inputs.expected[key]) > 1e-9:
            errors.append(f"evaluate {key} {report[key]!r} != generator's {inputs.expected[key]!r}")

    durations = inputs.expected["durations"]
    excerpts = json.loads((out / "select" / "excerpts.json").read_text("utf-8"))["tracks"]
    total = 0.0
    for tid, spans in excerpts.items():
        length = durations[tid]
        for start, end in spans:
            total += end - start
            if not (0.0 <= start < end <= length + 1e-9):
                errors.append(f"{tid}: excerpt [{start}, {end}) outside the track")
            if end - start < _MIN_LENGTH - 1e-9 and abs((end - start) - length) > 1e-9:
                errors.append(f"{tid}: excerpt [{start}, {end}) shorter than min_length")
        for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
            if not a_end < b_start:
                errors.append(f"{tid}: excerpts not disjoint at {a_end}")
    with open(out / "select" / "selection_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    credited = sum(float(row["selected_duration"]) for row in rows)
    # Each second of selected time is credited to exactly one class.
    if abs(credited - total) > 1e-6 * max(1, len(rows)):
        errors.append(f"credited {credited:.6f} s but excerpts cover {total:.6f} s")
    if total <= 0:
        errors.append("selection picked nothing")

    digest = hashlib.sha256()
    for path in (out / "evaluate" / "metrics.json", out / "select" / "excerpts.json",
                 out / "select" / "selection_report.csv"):
        digest.update(path.read_bytes())
    return Outcome(digest.hexdigest(), report["acqa"], report["wcsr"], errors)


# ---------------------------------------------------------------- dispatch

def setup(name: str, seed: int, root: Path) -> Inputs:
    """Generate and write the inputs of ``name`` under a fresh ``root``."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    if name == "labtools":
        return setup_labtools(seed, root)
    return setup_experiment(name, seed, root)


def check(name: str, inputs: Inputs, out: Path) -> Outcome:
    if name == "labtools":
        return check_labtools(inputs, out)
    return check_experiment(name, inputs, out)
