"""Command line behaviour: exit codes, outputs, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chordbalance import cli, student
from chordbalance.augment import AugmentSpec
from chordbalance.pipeline import ExperimentConfig
from chordbalance.selection import write_pseudolabels_jsonl
from chordbalance.synth import CorpusSpec, generate_corpus, save_corpus

from helpers import pseudo_pool

GOOD_LAB = "0.0 2.0 C:maj\n2.0 4.0 A:min\n4.0 6.0 N\n"
OVERLAP_LAB = "0.0 2.0 C:maj\n1.5 4.0 A:min\n"

SUBCOMMANDS = ("parse", "validate", "stats", "evaluate", "select", "synth", "run", "compare")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_import_leaves_scipy_unloaded():
    """The package and its console script run on numpy alone."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", "import sys, chordbalance, chordbalance.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert child.stdout == "[]\n"


def test_import_loads_numpy_random():
    """NumPy loads np.random lazily; the package loads it up front, so
    that a run's first draw does not import a dozen extension modules."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", "import sys, chordbalance; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert child.stdout == "True\n"


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_missing_required_option(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["evaluate", "--pred", "x"])
        assert excinfo.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in SUBCOMMANDS:
            assert command in out


class TestParse:
    @pytest.mark.parametrize(
        "label,canonical",
        [
            ("G#:min7/b3", "G#:min7/b3"),
            ("Ab:min7", "G#:min7"),
            ("Db", "C#:maj"),
            ("C:maj(4)/5", "C:maj/5"),
            ("N", "N"),
        ],
    )
    def test_prints_canonical_form(self, capsys, label, canonical):
        code, out, _ = run_cli(capsys, "parse", label)
        assert code == cli.EXIT_OK
        assert out == canonical + "\n"

    def test_bad_label_is_a_data_error(self, capsys):
        code, out, err = run_cli(capsys, "parse", "H:maj")
        assert code == cli.EXIT_DATA
        assert out == ""
        assert err.startswith("error:")


class TestValidate:
    def test_good_file(self, capsys, tmp_path):
        path = tmp_path / "good.lab"
        path.write_text(GOOD_LAB)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == cli.EXIT_OK
        assert "ok (3 segments" in out

    def test_overlap_reports_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.lab"
        path.write_text(OVERLAP_LAB)
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == cli.EXIT_DATA
        assert f"{path}: line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.lab"))
        assert code == cli.EXIT_DATA
        assert err.startswith("error:")


class TestStats:
    def test_distribution_csv(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.lab").write_text(GOOD_LAB)
        (corpus / "b.lab").write_text("0.0 4.0 D:7\n")
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "--output-dir", str(out_dir), "stats", str(corpus))
        assert code == cli.EXIT_OK
        lines = (out_dir / "class_distribution.csv").read_text().splitlines()
        assert lines[0] == "class,share"
        shares = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert shares == pytest.approx({"maj": 0.2, "min": 0.2, "N": 0.2, "7": 0.4})
        assert "wrote" in out

    def test_empty_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stats", str(tmp_path))
        assert code == cli.EXIT_DATA
        assert "no .lab files" in err


class TestEvaluate:
    @pytest.fixture()
    def lab_dirs(self, tmp_path):
        ref = tmp_path / "ref"
        pred = tmp_path / "pred"
        ref.mkdir()
        pred.mkdir()
        for name in ("one", "two"):
            (ref / f"{name}.lab").write_text(GOOD_LAB)
            (pred / f"{name}.lab").write_text(GOOD_LAB)
        return pred, ref

    def test_identical_dirs_score_one(self, capsys, tmp_path, lab_dirs):
        pred, ref = lab_dirs
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "--output-dir", str(out_dir),
            "evaluate", "--pred", str(pred), "--ref", str(ref),
        )
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["wcsr"] == 1.0
        assert report["acqa"] == 1.0
        assert json.loads((out_dir / "metrics.json").read_text()) == report
        assert (out_dir / "per_type.csv").exists()

    def test_missing_prediction(self, capsys, tmp_path, lab_dirs):
        pred, ref = lab_dirs
        (pred / "two.lab").unlink()
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(ref))
        assert code == cli.EXIT_DATA
        assert "'two'" in err

    def test_malformed_reference_names_file(self, capsys, tmp_path, lab_dirs):
        pred, ref = lab_dirs
        (ref / "two.lab").write_text(OVERLAP_LAB)
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(ref))
        assert code == cli.EXIT_DATA
        assert f"{ref / 'two.lab'}: line 2" in err

    def test_byte_identical_reruns(self, capsys, tmp_path, lab_dirs):
        pred, ref = lab_dirs
        blobs = []
        for sub in ("out1", "out2"):
            out_dir = tmp_path / sub
            run_cli(capsys, "--output-dir", str(out_dir),
                    "evaluate", "--pred", str(pred), "--ref", str(ref))
            blobs.append((out_dir / "metrics.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_reference_without_scoreable_time(self, capsys, tmp_path, lab_dirs):
        pred, ref = lab_dirs
        for name in ("one", "two"):
            (ref / f"{name}.lab").write_text("0.0 2.0 X\n")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "--output-dir", str(out_dir),
                               "evaluate", "--pred", str(pred), "--ref", str(ref))
        assert code == cli.EXIT_DATA
        assert err == "error: no scoreable reference duration in corpus\n"
        assert not (out_dir / "metrics.json").exists()


class TestSelect:
    @pytest.fixture()
    def select_inputs(self, tmp_path):
        pool, durations = pseudo_pool(np.random.default_rng(7), 6, 60.0)
        jsonl = tmp_path / "pseudo.jsonl"
        write_pseudolabels_jsonl(jsonl, pool)
        config = tmp_path / "select.json"
        config.write_text(json.dumps({
            "min_length": 8.0,
            "labeled_total": 120.0,
            "track_durations": durations,
        }))
        return jsonl, config

    def test_writes_excerpts_and_report(self, capsys, tmp_path, select_inputs):
        jsonl, config = select_inputs
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "--output-dir", str(out_dir),
            "select", "--pseudolabels", str(jsonl), "--config", str(config),
        )
        assert code == cli.EXIT_OK
        assert (out_dir / "excerpts.json").exists()
        assert (out_dir / "selection_report.csv").exists()
        assert "total selected:" in out

    def test_config_without_durations(self, capsys, tmp_path, select_inputs):
        jsonl, config = select_inputs
        raw = json.loads(config.read_text())
        del raw["track_durations"]
        config.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "select", "--pseudolabels", str(jsonl), "--config", str(config))
        assert code == cli.EXIT_DATA
        assert "track_durations" in err

    def test_config_without_labeled_total(self, capsys, tmp_path, select_inputs):
        jsonl, config = select_inputs
        raw = json.loads(config.read_text())
        del raw["labeled_total"]
        config.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "select", "--pseudolabels", str(jsonl), "--config", str(config))
        assert code == cli.EXIT_DATA
        assert "lacks required fields: ['labeled_total']" in err

    def test_pseudolabel_line_without_track_names_file_and_line(self, capsys, tmp_path, select_inputs):
        jsonl, config = select_inputs
        lines = jsonl.read_text().splitlines()
        record = json.loads(lines[0])
        del record["track"]
        jsonl.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        code, _, err = run_cli(capsys, "select", "--pseudolabels", str(jsonl), "--config", str(config))
        assert code == cli.EXIT_DATA
        assert f"{jsonl}, line 1: 'track'" in err

    @pytest.mark.parametrize(
        "edit,message",
        [({"label": 5}, "label 5 is not a string"), ({"confidence": 1.5}, "confidence 1.5 outside [0, 1]")],
        ids=["numeric-label", "confidence"],
    )
    def test_malformed_pseudolabel_line_names_file_and_line(self, capsys, tmp_path, select_inputs, edit,
                                                            message):
        jsonl, config = select_inputs
        lines = jsonl.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), **edit})
        jsonl.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "select", "--pseudolabels", str(jsonl), "--config", str(config))
        assert code == cli.EXIT_DATA
        assert f"{jsonl}, line 2: {message}" in err

    def test_overlapping_pseudolabel_lines_name_file_and_lines(self, capsys, tmp_path, select_inputs):
        jsonl, config = select_inputs
        lines = jsonl.read_text().splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        assert first["track"] == second["track"] and second["start"] == first["end"]
        lines[1] = json.dumps({**second, "start": (first["start"] + first["end"]) / 2})
        jsonl.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "select", "--pseudolabels", str(jsonl), "--config", str(config))
        assert code == cli.EXIT_DATA
        assert f"{jsonl}, lines 1 and 2: overlapping segments of track {first['track']!r}" in err

    @pytest.mark.parametrize("which", [0, 1], ids=["pseudolabels", "config"])
    def test_non_utf8_input_names_file(self, capsys, tmp_path, select_inputs, which):
        path = select_inputs[which]
        path.write_bytes(b"\xff\n" + path.read_bytes())
        code, _, err = run_cli(capsys, "select", "--pseudolabels", str(select_inputs[0]),
                               "--config", str(select_inputs[1]))
        assert code == cli.EXIT_DATA
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("seconds", ["NaN", "Infinity"])
    def test_non_finite_duration(self, capsys, tmp_path, select_inputs, seconds):
        jsonl, config = select_inputs
        text = config.read_text().replace('"pool-000": 60.0', f'"pool-000": {seconds}')
        assert text != config.read_text()
        config.write_text(text)
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                               "select", "--pseudolabels", str(jsonl), "--config", str(config))
        assert code == cli.EXIT_DATA
        assert "track 'pool-000': duration must be finite and positive" in err
        assert not (tmp_path / "out" / "excerpts.json").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"confidence_treshold": 0.99}, "unknown selection config fields: ['confidence_treshold']"),
            ({"min_length": "4"}, "selection config field 'min_length' must be float, got '4'"),
            ({"track_durations": {"pool-0": "60"}},
             "selection config field 'track_durations' must be dict[str, float]"),
            ({"rare_classes": ["dim", 7]}, "selection config field 'rare_classes' must be tuple[str, ...]"),
        ],
        ids=["misspelt-key", "min_length", "track_durations", "rare_classes"],
    )
    def test_malformed_config(self, capsys, tmp_path, select_inputs, edit, message):
        jsonl, config = select_inputs
        config.write_text(json.dumps({**json.loads(config.read_text()), **edit}))
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                               "select", "--pseudolabels", str(jsonl), "--config", str(config))
        assert code == cli.EXIT_DATA
        assert message in err
        assert not (tmp_path / "out" / "excerpts.json").exists()


class TestSynth:
    def spec_file(self, tmp_path, **overrides):
        raw = CorpusSpec(
            n_tracks=2,
            track_length_range=(10.0, 12.0),
            noise_sigma=0.0,
            seed=3,
            track_prefix="t",
        ).to_dict()
        raw.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        return path

    def test_generates_corpus(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        out_dir = tmp_path / "corpus"
        code, out, _ = run_cli(capsys, "--output-dir", str(out_dir), "synth", "--spec", str(spec))
        assert code == cli.EXIT_OK
        assert "wrote 2 tracks" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["tracks"]) == 2

    def test_seed_override(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        out_dir = tmp_path / "corpus"
        code, _, _ = run_cli(capsys, "--seed", "7", "--output-dir", str(out_dir),
                             "synth", "--spec", str(spec))
        assert code == cli.EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["spec"]["seed"] == 7

    def test_unknown_spec_field(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path, wat=1)
        code, _, err = run_cli(capsys, "synth", "--spec", str(spec))
        assert code == cli.EXIT_DATA
        assert err.startswith("error:")

    def test_wrong_typed_spec_field(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path, n_tracks="2")
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "corpus"),
                               "synth", "--spec", str(spec))
        assert code == cli.EXIT_DATA
        assert "corpus spec field 'n_tracks' must be int, got '2'" in err
        assert not (tmp_path / "corpus" / "manifest.json").exists()


@pytest.fixture(scope="module")
def experiment_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    dirs = {}
    for name, n_tracks, seed, prefix in (
        ("labeled", 3, 71, "lab"),
        ("unlabeled", 3, 72, "pool"),
        ("test", 2, 73, "eval"),
    ):
        spec = CorpusSpec(
            n_tracks=n_tracks,
            track_length_range=(15.0, 20.0),
            noise_sigma=0.05,
            seed=seed,
            track_prefix=prefix,
        )
        path = root / name
        save_corpus(path, generate_corpus(spec), spec)
        dirs[name] = str(path)
    config = ExperimentConfig(
        labeled_dir=dirs["labeled"],
        unlabeled_dir=dirs["unlabeled"],
        test_dir=dirs["test"],
        name="cli-run",
        iterations=1,
        seed=21,
        learning_rate=5.0,
        epochs=20,
        patience=None,
        smoothing_window=5,
        min_length=5.0,
        augment=AugmentSpec((-2, 3), 0.0, 21),
    )
    path = root / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


class TestRunAndCompare:
    def test_run_prints_curve_and_best(self, capsys, tmp_path, experiment_config):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "--output-dir", str(out_dir),
                               "run", "--config", str(experiment_config))
        assert code == cli.EXIT_OK
        assert "iteration 0: wcsr" in out
        assert "iteration 1: wcsr" in out
        assert "best by acqa: iteration" in out
        assert (out_dir / "reports.json").exists()

    def test_run_non_ascii_name_under_ascii_locale(self, tmp_path, experiment_config):
        """Every file a run writes is UTF-8, whatever the locale's encoding."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(experiment_config.read_text()), "name": "caf\u00e9"}))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("PYTHONIOENCODING", None)
        child = subprocess.run(
            [sys.executable, "-m", "chordbalance.cli", "--output-dir", str(tmp_path / "run"),
             "run", "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert child.returncode == cli.EXIT_OK, child.stderr
        summary = (tmp_path / "run" / "summary.csv").read_text("utf-8")
        assert summary.splitlines()[1].startswith("caf\u00e9,")

    def test_run_seed_override(self, capsys, tmp_path, experiment_config):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "--seed", "99", "--output-dir", str(out_dir),
                             "run", "--config", str(experiment_config))
        assert code == cli.EXIT_OK
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        assert manifest["config"]["augment"]["seed"] == 99

    def test_run_missing_corpus(self, capsys, tmp_path, experiment_config):
        raw = json.loads(experiment_config.read_text())
        raw["labeled_dir"] = str(tmp_path / "nope")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                               "run", "--config", str(bad))
        assert code == cli.EXIT_DATA
        assert f"error: not a corpus directory (no manifest.json): {tmp_path / 'nope'}" in err
        assert not (tmp_path / "out" / "models").exists()

    def test_run_rejects_corpora_with_different_frame_rates(self, capsys, tmp_path, experiment_config):
        spec = CorpusSpec(n_tracks=2, track_length_range=(15.0, 20.0), frame_rate=20.0, seed=73,
                          track_prefix="eval")
        save_corpus(tmp_path / "test20", generate_corpus(spec), spec)
        raw = json.loads(experiment_config.read_text())
        raw["test_dir"] = str(tmp_path / "test20")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                               "run", "--config", str(bad))
        assert code == cli.EXIT_DATA
        assert "error: corpora differ in frame rate" in err

    def test_run_truncated_config_names_file(self, capsys, tmp_path, experiment_config):
        text = json.dumps(json.loads(experiment_config.read_text()), indent=2)
        bad = tmp_path / "bad.json"
        bad.write_text(text[:text.index("\n") + 1])
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"), "run", "--config", str(bad))
        assert code == cli.EXIT_DATA
        assert f"error: {bad}: Expecting property name enclosed in double quotes: line 2 column 1" in err
        assert not (tmp_path / "out").exists()

    def test_run_config_without_required_field(self, capsys, tmp_path, experiment_config):
        raw = json.loads(experiment_config.read_text())
        del raw["labeled_dir"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                               "run", "--config", str(bad))
        assert code == cli.EXIT_DATA
        assert "lacks required fields: ['labeled_dir']" in err

    def test_run_config_with_bad_augment(self, capsys, tmp_path, experiment_config):
        raw = json.loads(experiment_config.read_text())
        for augment, message in (({"noise": 0.2}, "unknown augment fields: ['noise']"),
                                 ([1, 2], "augment must be a mapping")):
            raw["augment"] = augment
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(raw))
            code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                                   "run", "--config", str(bad))
            assert code == cli.EXIT_DATA
            assert message in err

    def test_run_config_with_semitone_range_without_shift(self, capsys, tmp_path, experiment_config):
        raw = json.loads(experiment_config.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**raw, "rare_classes": ["maj", "min"],
                                   "augment": {"semitone_range": [0, 0]}}))
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                               "run", "--config", str(bad))
        assert code == cli.EXIT_DATA
        assert "semitone range (0, 0) has no nonzero values" in err
        assert not (tmp_path / "out" / "models" / "iter_0.json").exists()

    def test_run_config_with_non_finite_values(self, capsys, tmp_path, experiment_config):
        raw = json.loads(experiment_config.read_text())
        for edit, message in (
            ({"augment": {"noise_sigma": math.inf}}, "noise sigma must be finite and >= 0, got inf"),
            ({"learning_rate": math.inf}, "learning rate must be finite and positive, got inf"),
            ({"min_length": math.nan}, "min_length must be finite and positive, got nan"),
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({**raw, **edit}))  # written as JSON Infinity / NaN
            assert "Infinity" in bad.read_text() or "NaN" in bad.read_text()
            code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                                   "run", "--config", str(bad))
            assert code == cli.EXIT_DATA
            assert message in err
        assert not (tmp_path / "out" / "reports.json").exists()

    def test_run_config_with_wrong_typed_values(self, capsys, tmp_path, experiment_config):
        raw = json.loads(experiment_config.read_text())
        for edit, message in (
            ({"epochs": "2"}, "experiment config field 'epochs' must be int, got '2'"),
            ({"iterations": 1.5}, "experiment config field 'iterations' must be int, got 1.5"),
            ({"augment": {"seed": "abc"}}, "augment field 'seed' must be int, got 'abc'"),
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({**raw, **edit}))
            code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                                   "run", "--config", str(bad))
            assert code == cli.EXIT_DATA
            assert message in err
        assert not (tmp_path / "out" / "reports.json").exists()

    def test_run_config_with_misspelt_class_weight(self, capsys, tmp_path, experiment_config):
        raw = json.loads(experiment_config.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**raw, "class_weights": {"hdim7": 8.0, "Dim": 6.0}}))
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "out"),
                               "run", "--config", str(bad))
        assert code == cli.EXIT_DATA
        assert "class weight for unknown class 'Dim'" in err
        assert not (tmp_path / "out" / "reports.json").exists()

    @staticmethod
    def run_with_corpus(capsys, tmp_path, experiment_config, key, edit):
        """Run on a copy of the corpus under ``key`` that ``edit(directory)`` has changed."""
        raw = json.loads(experiment_config.read_text())
        corpus = tmp_path / key
        shutil.copytree(raw[key], corpus)
        edit(corpus)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**raw, key: str(corpus)}))
        return run_cli(capsys, "--output-dir", str(tmp_path / "out"), "run", "--config", str(bad))

    def test_run_bug_is_not_a_data_error(self, tmp_path, experiment_config, monkeypatch):
        def broken_train(*args, **kwargs):
            raise TypeError("a bug in training")

        monkeypatch.setattr(student, "train", broken_train)
        with pytest.raises(TypeError, match="a bug in training"):
            cli.main(["--output-dir", str(tmp_path / "out"), "run", "--config", str(experiment_config)])

    @pytest.mark.parametrize(
        "edit",
        [lambda m: [m], lambda m: {k: v for k, v in m.items() if k != "tracks"}],
        ids=["list", "no-tracks"],
    )
    def test_run_malformed_pool_manifest(self, capsys, tmp_path, experiment_config, edit):
        def rewrite(corpus):
            path = corpus / "manifest.json"
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))

        code, _, err = self.run_with_corpus(capsys, tmp_path, experiment_config, "unlabeled_dir", rewrite)
        assert code == cli.EXIT_DATA
        assert f"error: {tmp_path / 'unlabeled_dir' / 'manifest.json'}" in err

    def test_run_malformed_pool_lab(self, capsys, tmp_path, experiment_config):
        def corrupt(corpus):
            lab = corpus / "pool-0001.lab"
            lines = lab.read_text().splitlines(keepends=True)
            lab.write_text(lines[0] + "1.0 x C:maj\n" + "".join(lines[2:]))

        code, _, err = self.run_with_corpus(capsys, tmp_path, experiment_config, "unlabeled_dir", corrupt)
        assert code == cli.EXIT_DATA
        assert f"error: {tmp_path / 'unlabeled_dir' / 'pool-0001.lab'}: line 2: non-numeric time" in err

    def test_run_test_corpus_labelled_only_x(self, capsys, tmp_path, experiment_config):
        def relabel(corpus):
            for path in corpus.glob("*.lab"):
                times = [line.split("\t")[:2] for line in path.read_text().splitlines()]
                path.write_text("".join(f"{start}\t{end}\tX\n" for start, end in times))

        code, _, err = self.run_with_corpus(capsys, tmp_path, experiment_config, "test_dir", relabel)
        assert code == cli.EXIT_DATA
        assert f"test corpus {tmp_path / 'test_dir'} has no reference time outside class X" in err
        assert not (tmp_path / "out" / "models").exists()

    def test_compare_two_runs(self, capsys, tmp_path, experiment_config):
        run_dirs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            run_cli(capsys, "--output-dir", str(out_dir),
                    "run", "--config", str(experiment_config))
            run_dirs.append(str(out_dir))
        out_dir = tmp_path / "cmp"
        code, out, _ = run_cli(capsys, "--output-dir", str(out_dir), "compare", *run_dirs)
        assert code == cli.EXIT_OK
        lines = (out_dir / "comparison.csv").read_text().splitlines()
        assert lines[0] == "name,best_iteration,wcsr,acqa"
        assert [row.split(",")[0] for row in lines[1:]] == ["a", "b"]
        # identical configs, identical runs
        assert lines[1][2:] == lines[2][2:]
        assert "best iter" in out

    def test_compare_unfinished_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compare", str(tmp_path))
        assert code == cli.EXIT_DATA
        assert "reports.json" in err

    @pytest.mark.parametrize("reports", [{"a": 1}, [{"iteration": 0, "selection": None}]],
                             ids=["object", "no-metrics"])
    def test_compare_malformed_reports(self, capsys, tmp_path, reports):
        path = tmp_path / "run" / "reports.json"
        path.parent.mkdir()
        path.write_text(json.dumps(reports))
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "cmp"), "compare", str(path.parent))
        assert code == cli.EXIT_DATA
        assert f"error: {path}" in err

    def test_compare_truncated_reports_names_file(self, capsys, tmp_path):
        path = tmp_path / "run" / "reports.json"
        path.parent.mkdir()
        path.write_text('[{"iteration": 0, "metrics": {"wcsr": 0.5,')
        code, _, err = run_cli(capsys, "--output-dir", str(tmp_path / "cmp"), "compare", str(path.parent))
        assert code == cli.EXIT_DATA
        assert f"error: {path}: Expecting property name enclosed in double quotes" in err
