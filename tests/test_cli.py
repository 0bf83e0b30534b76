"""CLI pipeline: subcommands, exit codes, and byte-level reproducibility."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segue
from conftest import HOSTILE_PLAYLIST_VALUES, with_value
from segue import cli
from segue.catalog import load_catalog
from segue.model import load_model
from segue.playlist import export_transition_matrix, generate
from segue.rnn import TrainingDivergedError
from segue.similarity import Metric


def run(args):
    return cli.main(args)


def error_lines(capsys):
    """The ``segue:`` lines the last command printed to stderr; a traceback would show too."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("segue:")]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> segment -> train, shared across the module's tests."""
    root = tmp_path_factory.mktemp("pipeline")
    catalog = root / "cat.jsonl"
    segmented = root / "seg.jsonl"
    model = root / "model.sgm"
    assert run(["synth", "--tracks", "8", "--clusters", "2", "--dim", "12",
                "--strong-dims", "3", "--weak-dims", "3", "--min-segments", "3",
                "--max-segments", "4", "--min-segment-frames", "20",
                "--max-segment-frames", "28", "--seed", "7", "-o", str(catalog)]) == 0
    assert run(["segment", "-i", str(catalog), "-o", str(segmented)]) == 0
    assert run(["train", "-i", str(segmented), "-o", str(model), "--hidden", "8",
                "--context-length", "4", "--epochs", "15", "--seed", "0",
                "--loss-out", str(root / "loss.csv")]) == 0
    return {"root": root, "catalog": catalog, "segmented": segmented, "model": model}


class TestPipeline:
    def test_generate_writes_playlist_of_requested_length(self, pipeline, tmp_path):
        out = tmp_path / "playlist.json"
        code = run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t03", "--length", "5", "--metric", "dcg", "-o", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["seed"] == "t03"
        assert len(data["tracks"]) == 5
        assert len(set(data["tracks"])) == 5
        assert not data["truncated"]
        assert len(data["steps"]) == 4

    def test_loss_history_csv(self, pipeline):
        lines = (pipeline["root"] / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + 15
        assert lines[1].startswith("1,")

    def test_segmented_catalog_contains_segments(self, pipeline):
        record = json.loads(pipeline["segmented"].read_text().splitlines()[0])
        assert "segments" in record
        assert record["segments"][0]["start"] == 0

    def test_compare_emits_three_playlists_and_coherence(self, pipeline, tmp_path):
        out = tmp_path / "report.json"
        code = run(["compare", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t00", "--length", "4",
                    "--metrics", "cosine,l2,dcg", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metrics"] == ["cosine", "l2", "dcg"]
        assert set(report["playlists"]) == {"cosine", "l2", "dcg"}
        for name in ("cosine", "l2", "dcg"):
            assert len(report["playlists"][name]["tracks"]) == 4
            assert "mean_adjacent_similarity" in report["coherence"][name]
        assert "dcg_vs_cosine" in report
        assert isinstance(report["dcg_vs_cosine"]["dcg_more_coherent"], bool)

    def test_export_transitions_round_trip(self, pipeline, tmp_path):
        playlist_path = tmp_path / "playlist.json"
        csv_path = tmp_path / "transitions.csv"
        run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
             "--seed-track", "t01", "--length", "3", "--metric", "cosine",
             "-o", str(playlist_path)])
        code = run(["export-transitions", "-i", str(pipeline["segmented"]),
                    "-p", str(playlist_path), "-o", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("label,dim_0")
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels.count("pred:0") == 1 and labels.count("pred:1") == 1

    def test_generate_inline_transitions_export(self, pipeline, tmp_path):
        playlist_path = tmp_path / "playlist.json"
        csv_path = tmp_path / "transitions.csv"
        code = run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t02", "--length", "3", "--metric", "l2",
                    "-o", str(playlist_path), "--transitions-out", str(csv_path)])
        assert code == 0
        assert csv_path.exists()

    def test_standardize_flag_runs_end_to_end(self, pipeline, tmp_path):
        # the statistics travel inside the model, so generate takes no flag
        model = tmp_path / "std.sgm"
        playlist_path = tmp_path / "playlist.json"
        assert run(["train", "-i", str(pipeline["segmented"]), "-o", str(model),
                    "--hidden", "8", "--context-length", "4", "--epochs", "5",
                    "--standardize"]) == 0
        assert run(["generate", "-i", str(pipeline["segmented"]), "-m", str(model),
                    "--seed-track", "t00", "--length", "3", "--metric", "dcg",
                    "-o", str(playlist_path)]) == 0
        assert len(json.loads(playlist_path.read_text())["tracks"]) == 3

    @pytest.mark.parametrize("command", [["generate", "--metric", "dcg"], ["compare"]])
    def test_standardize_is_a_train_only_flag(self, pipeline, tmp_path, command, capsys):
        code = run([*command, "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t00", "--standardize", "-o", str(tmp_path / "x.json")])
        assert code == 1
        assert "--standardize" in capsys.readouterr().err


class TestReproducibility:
    def test_synth_twice_is_byte_identical(self, tmp_path):
        args = ["synth", "--tracks", "4", "--dim", "8", "--strong-dims", "2",
                "--weak-dims", "2", "--min-segments", "2", "--max-segments", "3",
                "--min-segment-frames", "8", "--max-segment-frames", "10", "--seed", "5"]
        first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        assert run(args + ["-o", str(first)]) == 0
        assert run(args + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_full_pipeline_twice_is_byte_identical(self, pipeline, tmp_path):
        outputs = []
        for name in ("one", "two"):
            model = tmp_path / f"{name}.sgm"
            playlist_path = tmp_path / f"{name}.json"
            assert run(["train", "-i", str(pipeline["segmented"]), "-o", str(model),
                        "--hidden", "8", "--context-length", "4", "--epochs", "10",
                        "--seed", "3"]) == 0
            assert run(["generate", "-i", str(pipeline["segmented"]), "-m", str(model),
                        "--seed-track", "t04", "--length", "4", "--metric", "dcg",
                        "-o", str(playlist_path)]) == 0
            outputs.append((model.read_bytes(), playlist_path.read_bytes()))
        assert outputs[0] == outputs[1]


# A child process whose writes to regular files fail with EFBIG past a byte
# limit, as on a disk that fills part-way through a write; Python ignores
# SIGXFSZ, so the write raises instead of killing the process.
_FILLING_DISK = (
    "import resource, sys\n"
    "from segue.cli import main\n"
    "limit = resource.RLIMIT_FSIZE\n"
    "resource.setrlimit(limit, (int(sys.argv[1]), resource.getrlimit(limit)[1]))\n"
    "sys.exit(main(sys.argv[2:]))\n"
)

PREVIOUS = b"previous contents, to be kept\n"


def child_env(**extra):
    """The environment of a child Python that imports this ``segue``."""
    source = str(Path(segue.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1", **extra}


def run_on_filling_disk(args, room=16):
    """Run the CLI in a child that can write at most ``room`` bytes to any regular
    file, and check that it failed on a write, with exit code 2."""
    result = subprocess.run([sys.executable, "-c", _FILLING_DISK, str(room), *args],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 2, result.stderr
    assert os.strerror(errno.EFBIG) in result.stderr


def previous_file(path):
    path.write_bytes(PREVIOUS)
    return path


def assert_left_as_it_was(*paths):
    for path in paths:
        assert path.read_bytes() == PREVIOUS
        assert not list(path.parent.glob(".*.tmp"))


def expected_transition_csv(matrix):
    lines = [",".join(["label"] + [f"dim_{d}" for d in range(matrix.rows.shape[1])])]
    lines += [",".join([label] + [repr(float(v)) for v in row])
              for label, row in zip(matrix.labels, matrix.rows)]
    return "".join(line + "\r\n" for line in lines).encode("utf-8")


class TestOutputsAppearWhole:
    """Every file the CLI writes replaces the previous one whole, or not at all."""

    def generate_args(self, pipeline, out, *extra):
        return ["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                "--seed-track", "t01", "--length", "3", "--metric", "cosine",
                "-o", str(out), *extra]

    def test_failed_generate_keeps_the_playlist_and_transitions(self, pipeline, tmp_path):
        playlist_path = previous_file(tmp_path / "playlist.json")
        csv_path = previous_file(tmp_path / "transitions.csv")
        run_on_filling_disk(self.generate_args(
            pipeline, playlist_path, "--transitions-out", str(csv_path)))
        assert_left_as_it_was(playlist_path, csv_path)

    def test_failed_transitions_write_keeps_the_csv(self, pipeline, tmp_path):
        csv_path = previous_file(tmp_path / "transitions.csv")
        run_on_filling_disk(self.generate_args(
            pipeline, os.devnull, "--transitions-out", str(csv_path)))
        assert_left_as_it_was(csv_path)

    def test_failed_transition_matrix_replaces_neither_file(self, pipeline, tmp_path,
                                                            monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise ValueError("matrix failed")

        monkeypatch.setattr(cli.playlist_mod, "export_transition_matrix", explode)
        playlist_path = previous_file(tmp_path / "playlist.json")
        csv_path = previous_file(tmp_path / "transitions.csv")
        code = run(self.generate_args(pipeline, playlist_path, "--transitions-out", str(csv_path)))
        assert code == 2
        assert "matrix failed" in capsys.readouterr().err
        assert_left_as_it_was(playlist_path, csv_path)

    def test_failed_compare_keeps_the_report(self, pipeline, tmp_path):
        out = previous_file(tmp_path / "compare.json")
        run_on_filling_disk(
            ["compare", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
             "--seed-track", "t00", "--length", "3", "-o", str(out)])
        assert_left_as_it_was(out)

    def test_failed_loss_history_keeps_the_csv(self, pipeline, tmp_path):
        loss_path = previous_file(tmp_path / "loss.csv")
        run_on_filling_disk(
            ["train", "-i", str(pipeline["segmented"]), "-o", os.devnull, "--hidden", "4",
             "--context-length", "4", "--epochs", "3", "--loss-out", str(loss_path)])
        assert_left_as_it_was(loss_path)

    @staticmethod
    def train_at_info(pipeline, model_path, loss_path):
        """``segue train`` in a child at ``SEGUE_LOG=info``; its epoch log lines, and the result."""
        result = subprocess.run(
            [sys.executable, "-m", "segue", "train", "-i", str(pipeline["segmented"]),
             "-o", str(model_path), "--hidden", "4", "--context-length", "4", "--epochs", "3",
             "--loss-out", str(loss_path)],
            capture_output=True, text=True, env=child_env(SEGUE_LOG="info"))
        return [line for line in result.stderr.splitlines() if ":segue.rnn:epoch " in line], result

    @pytest.mark.parametrize("absent", ["model", "loss"])
    def test_train_that_cannot_create_an_output_does_not_train(self, pipeline, tmp_path, absent):
        model_path = previous_file(tmp_path / "model.sgm")
        loss_path = previous_file(tmp_path / "loss.csv")
        missing = tmp_path / "absent" / "out"
        epochs, result = self.train_at_info(pipeline, missing if absent == "model" else model_path,
                                            missing if absent == "loss" else loss_path)
        assert result.returncode == 2, result.stderr
        assert os.strerror(errno.ENOENT) in result.stderr
        assert epochs == []
        assert_left_as_it_was(model_path, loss_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv", "model.sgm"]

    def test_train_logs_its_epochs(self, pipeline, tmp_path):
        epochs, result = self.train_at_info(pipeline, tmp_path / "model.sgm", tmp_path / "loss.csv")
        assert result.returncode == 0, result.stderr
        assert len(epochs) == 3
        assert load_model(tmp_path / "model.sgm").hidden_size == 4

    def test_failed_export_keeps_the_csv(self, pipeline, tmp_path):
        playlist_path = tmp_path / "playlist.json"
        assert run(self.generate_args(pipeline, playlist_path)) == 0
        csv_path = previous_file(tmp_path / "transitions.csv")
        run_on_filling_disk(["export-transitions", "-i", str(pipeline["segmented"]),
                             "-p", str(playlist_path), "-o", str(csv_path)])
        assert_left_as_it_was(csv_path)

    def test_playlist_and_transition_bytes(self, pipeline, tmp_path):
        playlist_path = previous_file(tmp_path / "playlist.json")
        csv_path = previous_file(tmp_path / "generate.csv")
        export_path = previous_file(tmp_path / "export.csv")
        assert run(self.generate_args(
            pipeline, playlist_path, "--transitions-out", str(csv_path))) == 0
        assert run(["export-transitions", "-i", str(pipeline["segmented"]),
                    "-p", str(playlist_path), "-o", str(export_path)]) == 0
        catalog, model = load_catalog(pipeline["segmented"]), load_model(pipeline["model"])
        result = generate(catalog, model, "t01", 3, Metric(kind="cosine"))
        text = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
        assert playlist_path.read_bytes() == text.encode("utf-8")
        expected = expected_transition_csv(export_transition_matrix(result, catalog))
        assert csv_path.read_bytes() == expected
        assert export_path.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "export.csv", "generate.csv", "playlist.json"]

    def test_compare_report_bytes(self, pipeline, tmp_path):
        out = previous_file(tmp_path / "compare.json")
        assert run(["compare", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t00", "--length", "3", "-o", str(out)]) == 0
        raw = out.read_bytes()
        assert raw == (json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n").encode()
        assert [p.name for p in tmp_path.iterdir()] == ["compare.json"]

    def test_loss_history_bytes(self, pipeline):
        raw = (pipeline["root"] / "loss.csv").read_bytes()
        lines = raw.decode("utf-8").split("\n")
        assert lines[0] == "epoch,loss" and lines[-1] == "" and b"\r" not in raw
        for epoch, line in enumerate(lines[1:-1], start=1):
            loss = line.removeprefix(f"{epoch},")
            assert line == f"{epoch},{float(loss)!r}"
        assert len(lines) == 1 + 15 + 1


class TestExitCodes:
    def test_unknown_metric_is_usage_error(self, pipeline, capsys, tmp_path):
        code = run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t00", "--metric", "manhattan",
                    "-o", str(tmp_path / "x.json")])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_compare_checks_metric_names_before_reading_files(self, capsys, tmp_path):
        code = run(["compare", "-i", str(tmp_path / "absent.jsonl"), "-m", str(tmp_path / "absent.sgm"),
                    "--seed-track", "t00", "--metrics", "cosine,bogus",
                    "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert "unknown metric 'bogus'" in capsys.readouterr().err

    def test_compare_rejects_a_repeated_metric_before_reading_files(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code = run(["compare", "-i", str(tmp_path / "absent.jsonl"), "-m", str(tmp_path / "absent.sgm"),
                    "--seed-track", "t00", "--metrics", "cosine,l2,cosine", "-o", str(out)])
        assert code == 2
        assert "metric 'cosine' is given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_without_metric_names_is_data_error(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code = run(["compare", "-i", str(tmp_path / "absent.jsonl"), "-m", str(tmp_path / "absent.sgm"),
                    "--seed-track", "t00", "--metrics", ",", "-o", str(out)])
        assert code == 2
        assert "no metrics given" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_checks_metric_before_reading_files(self, capsys, tmp_path):
        code = run(["generate", "-i", str(tmp_path / "absent.jsonl"), "-m", str(tmp_path / "absent.sgm"),
                    "--seed-track", "t00", "--metric", "dcg", "--dcg-depth", "0",
                    "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert "dcg_depth must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["inf", "nan"])
    def test_synth_refuses_non_finite_noise(self, capsys, tmp_path, noise):
        out = tmp_path / "cat.jsonl"
        code = run(["synth", "--tracks", "4", "--dim", "16", "--noise", noise, "-o", str(out)])
        assert code == 2
        assert error_lines(capsys) == [f"segue: error: noise must be finite and >= 0, not {noise}"]
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["synth", "--does-not-exist", "-o", "x"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run(["segment", "-i", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "o.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("flag, field", [
        ("--kernel-sigma=nan", "kernel_sigma"), ("--kernel-sigma=inf", "kernel_sigma"),
        ("--peak-threshold=nan", "peak_threshold"), ("--peak-threshold=inf", "peak_threshold"),
    ])
    def test_non_finite_segment_flag_fails_before_reading(self, tmp_path, capsys, flag, field):
        code = run(["segment", "-i", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "o.jsonl"), flag])
        assert code == 2
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--clip-norm=nan", "clip_norm"), ("--learning-rate=nan", "learning_rate"),
        ("--learning-rate=inf", "learning_rate"),
    ])
    def test_bad_train_flag_fails_before_reading(self, tmp_path, capsys, flag, field):
        code = run(["train", "-i", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "m.sgm"), flag])
        assert code == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "m.sgm").exists()

    def test_unsegmented_catalog_is_data_error(self, pipeline, tmp_path, capsys):
        code = run(["train", "-i", str(pipeline["catalog"]), "-o", str(tmp_path / "m.sgm"),
                    "--epochs", "1"])
        assert code == 2
        assert "segment" in capsys.readouterr().err

    def test_unsegmented_catalog_is_data_error_with_standardize(self, pipeline, tmp_path, capsys):
        # the statistics are fitted before the pairs are built, with the builder's error
        out = tmp_path / "m.sgm"
        for extra in ([], ["--standardize"]):
            code = run(["train", "-i", str(pipeline["catalog"]), "-o", str(out),
                        "--epochs", "1", *extra])
            assert code == 2
            assert capsys.readouterr().err.endswith("segue: error: catalog is not segmented\n")
            assert not out.exists()

    def test_missing_seed_track_is_data_error(self, pipeline, tmp_path, capsys):
        code = run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "zz", "--metric", "dcg", "-o", str(tmp_path / "x.json")])
        assert code == 2

    def test_non_finite_nn_threshold_is_data_error(self, pipeline, tmp_path, capsys):
        for value in ("nan", "inf", "-inf"):
            out = tmp_path / f"{value}.json"
            code = run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                        "--seed-track", "t00", "--metric", "dcg", f"--nn-threshold={value}",
                        "-o", str(out)])
            assert code == 2
            assert "nn_threshold must be finite" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda data: {k: v for k, v in data.items() if k != "metric"}, "missing key 'metric'"),
        (lambda data: [data], "not a JSON object"),
        (lambda data: {**data, "steps": []}, "0 steps for 3 tracks"),
        (lambda data: {**data, "steps": [{**data["steps"][0],
                                           "prediction": data["steps"][0]["prediction"][:5]},
                                          *data["steps"][1:]]},
         "step 0: prediction has shape (5,), expected (12,)"),
        (lambda data: {**data, "steps": [{**data["steps"][0],
                                           "prediction": [10**400, *data["steps"][0]["prediction"][1:]]},
                                          *data["steps"][1:]]},
         "step 0: prediction value beyond float range"),
    ], ids=["missing-metric", "top-level-list", "no-steps", "cut-prediction", "huge-prediction"])
    def test_malformed_playlist_is_data_error(self, pipeline, tmp_path, capsys, edit, message):
        playlist_path = tmp_path / "playlist.json"
        assert run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t01", "--length", "3", "--metric", "cosine",
                    "-o", str(playlist_path)]) == 0
        playlist_path.write_text(json.dumps(edit(json.loads(playlist_path.read_text()))))
        capsys.readouterr()
        code = run(["export-transitions", "-i", str(pipeline["segmented"]),
                    "-p", str(playlist_path), "-o", str(tmp_path / "t.csv")])
        assert code == 2
        [line] = error_lines(capsys)
        assert line.startswith("segue: error: ") and message in line

    @pytest.mark.parametrize("where, value, message", list(HOSTILE_PLAYLIST_VALUES.values()),
                             ids=list(HOSTILE_PLAYLIST_VALUES))
    def test_malformed_playlist_value_is_data_error(self, pipeline, tmp_path, capsys,
                                                    where, value, message):
        playlist_path, csv_path = tmp_path / "playlist.json", tmp_path / "t.csv"
        assert run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t01", "--length", "3", "--metric", "cosine",
                    "-o", str(playlist_path)]) == 0
        data = with_value(json.loads(playlist_path.read_text()), where, value)
        playlist_path.write_text(json.dumps(data))
        capsys.readouterr()
        code = run(["export-transitions", "-i", str(pipeline["segmented"]),
                    "-p", str(playlist_path), "-o", str(csv_path)])
        assert code == 2
        assert error_lines(capsys) == [f"segue: error: {message}"]
        assert not csv_path.exists()

    def test_bad_catalog_line_in_export_names_the_catalog(self, pipeline, tmp_path, capsys):
        playlist_path, catalog = tmp_path / "playlist.json", tmp_path / "bad.jsonl"
        assert run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "t01", "--length", "3", "--metric", "cosine",
                    "-o", str(playlist_path)]) == 0
        catalog.write_text(pipeline["segmented"].read_text() + "{not json\n")
        capsys.readouterr()
        code = run(["export-transitions", "-i", str(catalog), "-p", str(playlist_path),
                    "-o", str(tmp_path / "t.csv")])
        assert code == 2
        [line] = error_lines(capsys)
        assert line.startswith(f"segue: error: {catalog}: line 9: invalid JSON: ")

    def test_integer_beyond_float_range_is_data_error(self, tmp_path, capsys):
        catalog = tmp_path / "huge.jsonl"
        catalog.write_text('{"id": "a", "frame_hop": 0.5, "frames": [[0.5, 1%s]]}\n' % ("0" * 400))
        code = run(["segment", "-i", str(catalog), "-o", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "line 1: track 'a': frame value beyond float range" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integers of any length")
    def test_integer_beyond_the_digit_limit_is_data_error(self, tmp_path, capsys):
        catalog = tmp_path / "long.jsonl"
        catalog.write_text('{"id": "a", "frame_hop": 0.5, "frames": [[0.5, 1%s]]}\n' % ("0" * 5000))
        code = run(["segment", "-i", str(catalog), "-o", str(tmp_path / "o.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"segue: error: {catalog}: line 1: invalid JSON: Exceeds the limit" in err

    def test_deeply_nested_playlist_is_data_error(self, pipeline, tmp_path, capsys):
        playlist_path = tmp_path / "deep.json"
        playlist_path.write_text("[" * 100_000 + "]" * 100_000)
        code = run(["export-transitions", "-i", str(pipeline["segmented"]),
                    "-p", str(playlist_path), "-o", str(tmp_path / "t.csv")])
        assert code == 2
        assert error_lines(capsys) == [f"segue: error: {playlist_path}: playlist nests too deeply to read"]

    def test_deeply_nested_catalog_line_is_data_error(self, tmp_path, capsys):
        catalog = tmp_path / "deep.jsonl"
        catalog.write_text('{"id": "a", "frame_hop": 0.5, "frames": %s}\n' % ("[" * 100_000 + "]" * 100_000))
        code = run(["segment", "-i", str(catalog), "-o", str(tmp_path / "o.jsonl")])
        assert code == 2
        [line] = error_lines(capsys)
        assert line.startswith(f"segue: error: {catalog}: line 1: invalid JSON: "
                               "maximum recursion depth exceeded")

    def test_zero_dimension_catalog_is_data_error(self, tmp_path, capsys):
        catalog = tmp_path / "empty-rows.jsonl"
        catalog.write_text('{"id": "a", "frame_hop": 0.5, "frames": [[]]}\n'
                           '{"id": "b", "frame_hop": 0.5, "frames": [[]]}\n')
        out = tmp_path / "o.jsonl"
        code = run(["segment", "-i", str(catalog), "-o", str(out)])
        assert code == 2
        assert "track 'a': frames must be a non-empty 2-D matrix" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_maps_to_exit_three(self, pipeline, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss", epoch=2)

        monkeypatch.setattr(cli, "train", explode)
        code = run(["train", "-i", str(pipeline["segmented"]), "-o", str(tmp_path / "m.sgm"),
                    "--epochs", "1"])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    def test_config_echoed_to_stderr(self, tmp_path, capsys):
        run(["synth", "--tracks", "2", "--clusters", "1", "--dim", "4", "--strong-dims", "1",
             "--weak-dims", "1", "--min-segments", "2", "--max-segments", "2",
             "--min-segment-frames", "4", "--max-segment-frames", "4",
             "-o", str(tmp_path / "c.jsonl")])
        err = capsys.readouterr().err
        assert "# segue config:" in err
        assert '"tracks": 2' in err


class TestLogLevel:
    @pytest.mark.parametrize("value", ["debug", "INFO", "Warning", "error", ""])
    def test_documented_levels_in_any_case(self, value, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGUE_LOG", value)
        out = tmp_path / "c.jsonl"
        assert run(["synth", "--tracks", "2", "--clusters", "1", "--dim", "4",
                    "--strong-dims", "1", "--weak-dims", "1", "-o", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("value", ["basic_format", "inf", "raiseExceptions", "critical", "10"])
    def test_other_values_fail_before_reading(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEGUE_LOG", value)
        out = tmp_path / "o.jsonl"
        code = run(["segment", "-i", str(tmp_path / "absent.jsonl"), "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"SEGUE_LOG='{value}' is not one of debug|info|warning|error" in err
        assert "absent" not in err and not out.exists()


class TestHelp:
    @pytest.mark.parametrize("command", [
        [], ["synth"], ["segment"], ["train"], ["generate"], ["compare"], ["export-transitions"],
    ])
    def test_help_exits_zero(self, command, capsys):
        assert run(command + ["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_train_help_documents_reference_scale(self, capsys):
        run(["train", "--help"])
        out = capsys.readouterr().out
        assert "512" in out and "50" in out

    def test_module_entry_point(self):
        # the child imports the same package as this test, installed or not
        source = str(Path(segue.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "segue", "--help"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "segue" in result.stdout
