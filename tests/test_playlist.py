"""Generation loop contracts, transition-matrix export, and coherence diagnostics."""

import dataclasses
import inspect
import logging
import re

import numpy as np
import pytest

from conftest import HOSTILE_PLAYLIST_VALUES, segmented_catalog, with_value
from segue import cli, playlist, similarity
from segue import rnn as rnn_mod
from segue.catalog import Catalog, CatalogError, Track
from segue.playlist import (
    Playlist,
    coherence_report,
    export_transition_matrix,
    generate,
    read_transition_csv,
    write_transition_csv,
)
from segue.rnn import init_model, predict_next
from segue.similarity import Metric, nearest_neighbour_gap, score


def make_catalog(track_count=6, dimension=4, seed=0, segments=(2, 5)):
    rng = np.random.default_rng(seed)
    return segmented_catalog({
        f"t{i:02d}": rng.uniform(0, 1, (int(rng.integers(segments[0], segments[1])), dimension))
        for i in range(track_count)
    })


def make_model(dimension=4, context=3, seed=0):
    model = init_model(2, 4, dimension, seed=seed)
    model.context_length = context
    return model


def sequential_reference(catalog, model, seed_id, length, metric):
    """The playlist that predicting from the whole history at every step gives.

    Returns the chosen ids and, per step, (prediction, gap, history length).
    """
    chosen = [seed_id]
    history = [catalog.tracks[seed_id].sections]
    records = []
    while len(chosen) < min(length, len(catalog)):
        segments = np.vstack(history)
        prediction = predict_next(model, segments)
        gap = nearest_neighbour_gap(prediction, catalog, metric, exclude=frozenset(chosen))
        records.append((prediction, gap, len(segments)))
        chosen.append(gap.best_id)
        history.append(catalog.tracks[gap.best_id].sections)
    return chosen, records


class TestGenerate:
    def test_length_one_is_just_the_seed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LSTM run for a one-track playlist")

        monkeypatch.setattr(rnn_mod, "_run", refuse)
        catalog = make_catalog()
        result = generate(catalog, make_model(), "t02", 1, Metric("cosine"))
        assert result.track_ids == ["t02"]
        assert result.steps == []
        assert not result.truncated

    def test_catalog_exhaustion_truncates(self):
        catalog = make_catalog(track_count=3)
        result = generate(catalog, make_model(), "t00", 5, Metric("l2"))
        assert len(result) == 3
        assert result.truncated
        assert len(result.steps) == 2

    def test_never_repeats_a_track(self):
        catalog = make_catalog(track_count=8, seed=3)
        result = generate(catalog, make_model(seed=3), "t04", 8, Metric("dcg"))
        assert len(set(result.track_ids)) == len(result.track_ids) == 8

    def test_deterministic_for_identical_inputs(self):
        catalog = make_catalog(track_count=7, seed=5)
        model = make_model(seed=5)
        first = generate(catalog, model, "t01", 5, Metric("cosine"))
        second = generate(catalog, model, "t01", 5, Metric("cosine"))
        assert first.track_ids == second.track_ids
        for a, b in zip(first.steps, second.steps):
            np.testing.assert_array_equal(a.prediction, b.prediction)
            assert a.chosen_score == b.chosen_score

    def test_context_concatenates_chosen_tracks_most_recent_last(self):
        # While the history fits the context, the state is advanced by each new
        # track's sections only. Advancing by a one-section track is a one-row
        # product, which BLAS may round differently from the same row inside a
        # longer window, so those steps are held to 1e-12. Past the context a
        # step runs the window from zero, as predict_next does, so it matches
        # bit for bit; the ids must match exactly.
        rng = np.random.default_rng(11)
        seen = set()
        for case in range(40):
            dimension = int(rng.integers(2, 6))
            catalog = make_catalog(
                track_count=int(rng.integers(3, 9)), dimension=dimension, seed=100 + case,
                segments=(1, 5),
            )
            model = init_model(int(rng.integers(1, 3)), int(rng.integers(3, 7)), dimension, seed=case)
            model.context_length = int(rng.integers(1, 7))
            metric = Metric(["cosine", "l2", "dcg"][case % 3])
            seed_id = catalog.track_ids[int(rng.integers(len(catalog)))]
            length = int(rng.integers(2, len(catalog) + 2))
            result = generate(catalog, model, seed_id, length, metric)
            chosen, records = sequential_reference(catalog, model, seed_id, length, metric)
            assert result.track_ids == chosen
            assert len(result.steps) == len(records)
            for step, (prediction, gap, history) in zip(result.steps, records):
                if history > model.context_length:
                    assert step.prediction.tobytes() == prediction.tobytes()
                    assert step.gap == gap
                np.testing.assert_allclose(step.prediction, prediction, rtol=0, atol=1e-12)
                assert step.chosen_id == gap.best_id
                for field in ("best_score", "median_score", "margin", "best_cosine_distance"):
                    assert getattr(step.gap, field) == pytest.approx(getattr(gap, field), rel=0, abs=1e-12)
                assert step.no_near_neighbour == gap.no_near_neighbour()
                seen.add(int(np.sign(history - model.context_length)))
        assert seen == {-1, 0, 1}  # histories below, exactly at and past the context

    def test_state_is_carried_while_the_history_fits(self, monkeypatch):
        # context 4, tracks of 2 sections: histories of 2, 4 (the context), 6 and 8 sections
        catalog = make_catalog(track_count=6, segments=(2, 3))
        model = make_model(context=4)
        positions = []
        run = rnn_mod._run

        def counting_run(model, windows, masks, *args, **kwargs):
            positions.append(int(np.count_nonzero(masks)))
            return run(model, windows, masks, *args, **kwargs)

        monkeypatch.setattr(rnn_mod, "_run", counting_run)
        generate(catalog, model, "t00", 5, Metric("l2"))
        assert positions == [2, 2, 4, 4]

    def test_model_without_context_length_rejected(self):
        model = make_model()
        model.context_length = None
        with pytest.raises(ValueError, match="model has no context length"):
            generate(make_catalog(), model, "t00", 3, Metric("l2"))

    def test_logs_one_debug_record_per_step(self, caplog):
        catalog = make_catalog(track_count=6, seed=4)
        with caplog.at_level(logging.INFO, logger="segue.playlist"):
            generate(catalog, make_model(seed=4), "t02", 4, Metric("dcg"))
        assert not [r for r in caplog.records if "generate_step" in r.getMessage()]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="segue.playlist"):
            result = generate(catalog, make_model(seed=4), "t02", 4, Metric("dcg"), nn_threshold=0.0)
        records = [r for r in caplog.records if r.getMessage().startswith("generate_step ")]
        assert [r.levelno for r in records] == [logging.DEBUG] * 3
        for index, (record, step) in enumerate(zip(records, result.steps)):
            fields = dict(item.split("=") for item in record.getMessage().split()[1:])
            assert int(fields["step"]) == index
            assert float(fields["seconds"]) >= 0.0
            assert int(fields["candidates"]) == len(catalog) - 1 - index
            assert float(fields["margin"]) == pytest.approx(step.gap.margin, rel=1e-5)
            used = set(result.track_ids[: index + 1])
            ranked = sorted(
                score(step.prediction, track.sections[0], Metric("dcg"))
                for track in catalog if track.id not in used
            )
            assert float(fields["runner_up_gap"]) == pytest.approx(ranked[-1] - ranked[-2], rel=1e-5)
            assert float(fields["best_cosine_distance"]) == pytest.approx(
                step.gap.best_cosine_distance, rel=1e-5, abs=1e-12
            )
            assert fields["no_near_neighbour"] == str(step.no_near_neighbour)

    def test_missing_seed_rejected(self):
        with pytest.raises(ValueError, match="seed track"):
            generate(make_catalog(), make_model(), "nope", 3, Metric("l2"))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            generate(make_catalog(dimension=4), make_model(dimension=5), "t00", 3, Metric("l2"))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            generate(make_catalog(), make_model(), "t00", 0, Metric("l2"))

    def test_unsegmented_catalog_is_a_catalog_error(self):
        catalog = Catalog.from_tracks(
            Track(id=track.id, frames=track.frames) for track in make_catalog()
        )
        with pytest.raises(CatalogError, match="^catalog is not segmented$"):
            generate(catalog, make_model(), "t00", 3, Metric("l2"))

    def test_one_no_near_neighbour_default(self):
        default = similarity.DEFAULT_NN_THRESHOLD
        assert playlist.DEFAULT_NN_THRESHOLD is default
        assert inspect.signature(generate).parameters["nn_threshold"].default is default
        method = similarity.NeighbourGap.no_near_neighbour
        assert inspect.signature(method).parameters["threshold"].default is default
        command = "generate -i c -m m --seed-track t --metric l2 -o o".split()
        assert cli.build_parser().parse_args(command).nn_threshold is default

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_nn_threshold_rejected(self, threshold):
        # a NaN threshold would make every no-near-neighbour check false
        with pytest.raises(ValueError, match="nn_threshold must be finite"):
            generate(make_catalog(), make_model(), "t00", 3, Metric("l2"), nn_threshold=threshold)

    @pytest.mark.parametrize("key", ["seed", "metric", "tracks", "truncated", "steps"])
    def test_from_dict_names_a_missing_key(self, key):
        data = generate(make_catalog(), make_model(), "t00", 3, Metric("l2")).to_dict()
        del data[key]
        with pytest.raises(ValueError, match=f"playlist is missing key '{key}'"):
            Playlist.from_dict(data)

    def test_from_dict_names_a_missing_step_key(self):
        data = generate(make_catalog(), make_model(), "t00", 3, Metric("l2")).to_dict()
        del data["steps"][1]["margin"]
        with pytest.raises(ValueError, match="playlist is missing key 'margin'"):
            Playlist.from_dict(data)

    def test_from_dict_names_the_step_of_a_prediction_beyond_float_range(self):
        data = generate(make_catalog(), make_model(), "t00", 3, Metric("l2")).to_dict()
        data["steps"][1]["prediction"][0] = 10**400
        with pytest.raises(ValueError, match="^step 1: prediction value beyond float range$"):
            Playlist.from_dict(data)

    @pytest.mark.parametrize("where, value, message", list(HOSTILE_PLAYLIST_VALUES.values()),
                             ids=list(HOSTILE_PLAYLIST_VALUES))
    def test_from_dict_names_the_key_of_a_malformed_value(self, where, value, message):
        data = generate(make_catalog(), make_model(), "t00", 3, Metric("l2")).to_dict()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Playlist.from_dict(with_value(data, where, value))

    @pytest.mark.parametrize("data", [[], "playlist", {"seed": "t00", "metric": "l2",
                                      "tracks": ["t00"], "truncated": False, "steps": 3}])
    def test_from_dict_rejects_other_shapes(self, data):
        with pytest.raises(ValueError, match="not a JSON object"):
            Playlist.from_dict(data)

    def test_round_trips_through_dict(self):
        catalog = make_catalog(track_count=5, seed=7)
        result = generate(catalog, make_model(seed=7), "t03", 4, Metric("dcg"))
        clone = Playlist.from_dict(result.to_dict())
        assert clone.track_ids == result.track_ids
        assert clone.metric == result.metric
        assert clone.truncated == result.truncated
        for a, b in zip(clone.steps, result.steps):
            np.testing.assert_array_equal(a.prediction, b.prediction)
            assert a.no_near_neighbour == b.no_near_neighbour


class TestExportTransitionMatrix:
    def test_single_track_playlist_has_no_prediction_rows(self):
        rng = np.random.default_rng(1)
        catalog = segmented_catalog({"seed": rng.uniform(0, 1, (7, 5))})
        result = Playlist(track_ids=["seed"], steps=[], metric=Metric("dcg"), seed_id="seed")
        matrix = export_transition_matrix(result, catalog)
        assert matrix.row_count == 7
        assert matrix.labels == [f"seg:seed:{k}" for k in range(7)]

    def test_two_track_playlist_interleaves_on_the_boundary(self):
        catalog = segmented_catalog({
            "a": np.full((3, 4), 0.2),
            "b": np.full((4, 4), 0.6),
        })
        model = make_model()
        result = generate(catalog, model, "a", 2, Metric("l2"))
        matrix = export_transition_matrix(result, catalog)
        assert matrix.row_count == 3 + 1 + 4
        assert matrix.labels[3] == "pred:0"
        np.testing.assert_array_equal(matrix.rows[3], result.steps[0].prediction)

    def test_row_count_formula_on_random_playlists(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            catalog = make_catalog(track_count=int(rng.integers(3, 8)), seed=trial)
            length = int(rng.integers(1, len(catalog) + 2))
            result = generate(catalog, make_model(seed=trial), catalog.track_ids[0], length, Metric("cosine"))
            matrix = export_transition_matrix(result, catalog)
            segment_total = sum(len(catalog.tracks[t].segments) for t in result.track_ids)
            assert matrix.row_count == segment_total + (len(result) - 1)

    def test_csv_round_trip(self, tmp_path):
        catalog = make_catalog(track_count=4, seed=9)
        result = generate(catalog, make_model(seed=9), "t00", 3, Metric("dcg"))
        matrix = export_transition_matrix(result, catalog)
        path = tmp_path / "transitions.csv"
        write_transition_csv(matrix, path)
        parsed = read_transition_csv(path)
        assert parsed.labels == matrix.labels
        np.testing.assert_array_equal(parsed.rows, matrix.rows)
        header = path.read_text().splitlines()[0]
        assert header == "label," + ",".join(f"dim_{d}" for d in range(4))

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="^not a transition matrix CSV$"):
            read_transition_csv(path)

    def test_header_only_csv_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("label,dim_0\n")
        with pytest.raises(ValueError, match="^transition matrix CSV has no rows$"):
            read_transition_csv(path)

    def test_short_csv_row_names_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("label,dim_0,dim_1,dim_2\nseg:a:0,0.1,0.2,0.3\npred:0,0.1,0.2\n")
        with pytest.raises(ValueError, match=r"^line 3: 2 values, expected 3$"):
            read_transition_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999", "1" + "0" * 400])
    def test_non_finite_csv_value_names_its_line(self, tmp_path, cell):
        path = tmp_path / "non-finite.csv"
        path.write_text(f"label,dim_0,dim_1\nseg:a:0,0.1,0.2\npred:0,0.3,{cell}\n")
        with pytest.raises(ValueError, match="^line 3: non-finite value$"):
            read_transition_csv(path)

    def test_csv_value_that_is_not_a_number_names_its_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("label,dim_0\nseg:a:0,0.1\nseg:a:1,x\n")
        with pytest.raises(ValueError, match="^line 3: could not convert string to float: 'x'$"):
            read_transition_csv(path)

    def test_cut_prediction_names_its_step(self):
        catalog = make_catalog(track_count=4, seed=9)
        result = generate(catalog, make_model(seed=9), "t00", 3, Metric("dcg"))
        cut = dataclasses.replace(result.steps[1], prediction=result.steps[1].prediction[:2])
        result.steps[1] = cut
        with pytest.raises(ValueError, match=r"^step 1: prediction has shape \(2,\), expected \(4,\)$"):
            export_transition_matrix(result, catalog)

    def test_step_count_mismatch_rejected(self):
        catalog = make_catalog()
        result = Playlist(track_ids=["t00", "t01", "t02"], steps=[], metric=Metric("l2"),
                          seed_id="t00")
        with pytest.raises(ValueError, match="0 steps for 3 tracks"):
            export_transition_matrix(result, catalog)

    def test_unknown_track_rejected(self):
        catalog = make_catalog()
        result = Playlist(track_ids=["ghost"], steps=[], metric=Metric("l2"), seed_id="ghost")
        with pytest.raises(ValueError, match="ghost"):
            export_transition_matrix(result, catalog)

    @pytest.mark.parametrize("report", [export_transition_matrix, coherence_report])
    def test_unsegmented_catalog_rejected(self, report):
        catalog = Catalog.from_tracks(
            Track(id=track.id, frames=track.frames) for track in make_catalog()
        )
        steps = generate(make_catalog(), make_model(), "t00", 2, Metric("l2")).steps
        result = Playlist(track_ids=["t00", "t01"], steps=steps, metric=Metric("l2"), seed_id="t00")
        with pytest.raises(CatalogError, match="not segmented"):
            report(result, catalog)


class TestCoherenceReport:
    def test_identical_tracks_are_perfectly_coherent(self):
        catalog = segmented_catalog({
            "a": np.full((3, 4), 0.5),
            "b": np.full((2, 4), 0.5),
            "c": np.full((4, 4), 0.5),
        })
        result = generate(catalog, make_model(), "a", 3, Metric("cosine"))
        report = coherence_report(result, catalog)
        assert report["mean_adjacent_similarity"] == pytest.approx(1.0, abs=1e-12)
        assert report["seed_similarity_curve"] == pytest.approx([1.0] * 3, abs=1e-12)
        assert report["per_dimension_variance"] == pytest.approx([0.0] * 4, abs=1e-15)

    def test_orthogonal_tracks_have_zero_adjacent_similarity(self):
        catalog = segmented_catalog({
            "a": np.array([[1.0, 0.0, 0.0, 0.0]]),
            "b": np.array([[0.0, 1.0, 0.0, 0.0]]),
        })
        result = Playlist(
            track_ids=["a", "b"], steps=[], metric=Metric("cosine"), seed_id="a"
        )
        report = coherence_report(result, catalog)
        assert report["mean_adjacent_similarity"] == pytest.approx(0.0, abs=1e-12)

    def test_event_count_is_summed(self):
        catalog = segmented_catalog({
            "a": np.array([[1.0, 0.0]]),
            "b": np.array([[0.0, 1.0]]),
            "c": np.array([[0.0, 1.0]]) * 0.9,
        })
        model = make_model(dimension=2)
        result = generate(catalog, model, "a", 3, Metric("cosine"), nn_threshold=0.0)
        report = coherence_report(result, catalog)
        assert report["no_near_neighbour_events"] == len(result.steps)

    def test_single_track_playlist_rejected(self):
        catalog = make_catalog()
        result = Playlist(track_ids=["t00"], steps=[], metric=Metric("l2"), seed_id="t00")
        with pytest.raises(ValueError, match="at least 2"):
            coherence_report(result, catalog)
