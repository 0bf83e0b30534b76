"""CLI pipeline: subcommands, exit codes, and byte-level reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segue
from segue import cli
from segue.rnn import TrainingDivergedError


def run(args):
    return cli.main(args)


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
        model = tmp_path / "std.sgm"
        playlist_path = tmp_path / "playlist.json"
        assert run(["train", "-i", str(pipeline["segmented"]), "-o", str(model),
                    "--hidden", "8", "--context-length", "4", "--epochs", "5",
                    "--standardize"]) == 0
        assert run(["generate", "-i", str(pipeline["segmented"]), "-m", str(model),
                    "--seed-track", "t00", "--length", "3", "--metric", "dcg",
                    "--standardize", "-o", str(playlist_path)]) == 0
        assert len(json.loads(playlist_path.read_text())["tracks"]) == 3


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

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["synth", "--does-not-exist", "-o", "x"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run(["segment", "-i", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_unsegmented_catalog_is_data_error(self, pipeline, tmp_path, capsys):
        code = run(["train", "-i", str(pipeline["catalog"]), "-o", str(tmp_path / "m.sgm"),
                    "--epochs", "1"])
        assert code == 2
        assert "segment" in capsys.readouterr().err

    def test_missing_seed_track_is_data_error(self, pipeline, tmp_path, capsys):
        code = run(["generate", "-i", str(pipeline["segmented"]), "-m", str(pipeline["model"]),
                    "--seed-track", "zz", "--metric", "dcg", "-o", str(tmp_path / "x.json")])
        assert code == 2

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
