"""Catalog ingestion, persistence, and training-window construction."""

import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import padded_pairs, segmented_catalog, segmented_track
from segue import catalog as catalog_module
from segue.catalog import (
    Catalog,
    CatalogError,
    Track,
    build_training_sequences,
    load_catalog,
    save_catalog,
)
from segue.features import SynthSpec, fit_standardizer, generate_synthetic_catalog
from segue.segmentation import segment_catalog


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def _catalogs_equal(a: Catalog, b: Catalog) -> bool:
    if a.dimension != b.dimension or a.track_ids != b.track_ids:
        return False
    for track_id in a.track_ids:
        ta, tb = a.tracks[track_id], b.tracks[track_id]
        if ta.frame_hop != tb.frame_hop or not np.array_equal(ta.frames, tb.frames):
            return False
        if len(ta.segments) != len(tb.segments):
            return False
        for sa, sb in zip(ta.segments, tb.segments):
            if sa.start != sb.start or not np.array_equal(sa.features, sb.features):
                return False
    return True


class TestLoadCatalog:
    def test_valid_two_track_file(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [
            {"id": "a", "frame_hop": 0.5, "frames": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]]},
            {"id": "b", "frame_hop": 0.5, "frames": [[0.0, 1.0, 0.5, 0.25]]},
        ])
        catalog = load_catalog(path)
        assert len(catalog) == 2
        assert catalog.dimension == 4
        assert catalog.track_ids == ["a", "b"]
        assert catalog.tracks["a"].frame_hop == 0.5

    def test_ragged_frames_name_the_track(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [
            {"id": "a", "frame_hop": 1.0, "frames": [[0.1, 0.2, 0.3, 0.4]]},
            {"id": "B", "frame_hop": 1.0, "frames": [[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3]]},
        ])
        with pytest.raises(CatalogError, match="B"):
            load_catalog(path)

    def test_cross_track_dimension_mismatch(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [
            {"id": "a", "frame_hop": 1.0, "frames": [[0.1, 0.2]]},
            {"id": "b", "frame_hop": 1.0, "frames": [[0.1, 0.2, 0.3]]},
        ])
        with pytest.raises(CatalogError, match="dimension"):
            load_catalog(path)

    def test_out_of_range_element(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [{"id": "a", "frame_hop": 1.0, "frames": [[0.1, 1.5]]}])
        with pytest.raises(CatalogError, match=r"\[0, 1\]"):
            load_catalog(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [
            {"id": "a", "frame_hop": 1.0, "frames": [[0.1]]},
            {"id": "a", "frame_hop": 1.0, "frames": [[0.2]]},
        ])
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(path)

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": "a", "frame_hop": 1.0, "frames": [[0.1]]}\n{not json\n')
        with pytest.raises(CatalogError, match="line 2"):
            load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text("")
        with pytest.raises(CatalogError, match="no tracks"):
            load_catalog(path)

    def test_non_finite_element(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": "a", "frame_hop": 1.0, "frames": [[0.1, NaN]]}\n')
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_blank_lines_are_skipped_and_later_lines_keep_their_numbers(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        good = '{"id": "%s", "frame_hop": 0.5, "frames": [[0.25, 0.5]]}'
        path.write_text(f"\n{good % 'a'}\n   \n\n{good % 'b'}\n\t\n{{not json\n")
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: line 7: invalid JSON: "):
            load_catalog(path)
        path.write_text(f"\n{good % 'a'}\n   \n\n{good % 'b'}\n\t\n")
        assert load_catalog(path).track_ids == ["a", "b"]

    def test_line_nested_beyond_the_recursion_limit_gets_the_json_error(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        good = '{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]]}'
        deep = '{"id": "b", "frame_hop": 0.5, "frames": %s}' % ("[" * 100_000 + "]" * 100_000)
        path.write_text(f"{good}\n{deep}\n")
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: line 2: invalid JSON: "
                                               "maximum recursion depth exceeded"):
            load_catalog(path)

    def test_non_ascii_character_among_layout_numbers_gets_the_json_error(self, tmp_path):
        line = '{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5], [0.75, \u00bd]]}'
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        path = tmp_path / "cat.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as caught:
            load_catalog(path)
        assert str(caught.value) == f"{path}: line 1: invalid JSON: {expected.value}"

    @pytest.mark.parametrize("line", [
        '{"id": "a", "frame_hop": 1%s, "frames": [[0.25, 0.5]]}' % ("0" * 399),
        '{"frames": [[0.25, 0.5]], "id": "a", "frame_hop": 1%s}' % ("0" * 399),
    ], ids=["writer's layout", "other key order"])
    def test_integer_frame_hop_beyond_float_range_is_invalid(self, tmp_path, line):
        path = tmp_path / "cat.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CatalogError,
                           match=f"^{re.escape(str(path))}: line 1: track 'a': invalid 'frame_hop'$"):
            load_catalog(path)

    @pytest.mark.parametrize("record", ["[1, 2]", '"track"', "0.5", "null"])
    def test_line_that_is_not_an_object(self, tmp_path, record):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": "a", "frame_hop": 0.5, "frames": [[0.25]]}\n' + record + "\n")
        with pytest.raises(CatalogError,
                           match=f"^{re.escape(str(path))}: line 2: record is not a JSON object$"):
            load_catalog(path)

    @pytest.mark.parametrize("frames", ["", ', "frames": []', ', "frames": {}', ', "frames": 0.5'],
                             ids=["missing", "empty", "object", "number"])
    def test_missing_or_empty_frames(self, tmp_path, frames):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": "a", "frame_hop": 0.5%s}\n' % frames)
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: "
                                               "line 1: track 'a': missing or empty 'frames'$"):
            load_catalog(path)

    def test_segments_field_round_trip(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [{
            "id": "a", "frame_hop": 1.0,
            "frames": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
            "segments": [
                {"start": 0, "features": [0.2, 0.3]},
                {"start": 2, "features": [0.5, 0.6]},
            ],
        }])
        catalog = load_catalog(path)
        track = catalog.tracks["a"]
        assert track.is_segmented
        assert [seg.start for seg in track.segments] == [0, 2]
        np.testing.assert_array_equal(track.segments[1].features, [0.5, 0.6])

    def test_bad_segment_order(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [{
            "id": "a", "frame_hop": 1.0, "frames": [[0.1], [0.2], [0.3]],
            "segments": [{"start": 2, "features": [0.1]}, {"start": 1, "features": [0.2]}],
        }])
        with pytest.raises(CatalogError, match="increasing"):
            load_catalog(path)

    def test_boolean_segment_start_rejected(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [{
            "id": "a", "frame_hop": 1.0, "frames": [[0.1], [0.2]],
            "segments": [{"start": True, "features": [0.1]}],
        }])
        with pytest.raises(CatalogError, match=r"line 1: track 'a': segment start"):
            load_catalog(path)

    _FRAMES = [[0.1, 0.2, 0.3], [0.2, 0.3, 0.4], [0.3, 0.4, 0.5], [0.4, 0.5, 0.6]]

    @pytest.mark.parametrize("segments, message", [
        ([{"start": 0}], "{path}: line {line}: track '{id}': malformed segment entry"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, [2, [0.3, 0.4, 0.5]]],
         "{path}: line {line}: track '{id}': malformed segment entry"),
        ({"start": 0, "features": [0.1, 0.2, 0.3]},
         "{path}: line {line}: track '{id}': invalid 'segments'"),
        ([{"start": 0, "features": ["x", 0.2, 0.3]}],
         "{path}: line {line}: track '{id}': non-numeric segment features"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, {"start": 2, "features": [0.1, 0.2]}],
         "{path}: track '{id}': segment feature dimension mismatch"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, {"start": 2, "features": [0.1, 0.2, 0.3, 0.4]}],
         "{path}: track '{id}': segment feature dimension mismatch"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, {"start": 2, "features": [0.1, float("nan"), 0.3]}],
         "{path}: track '{id}': non-finite segment element"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, {"start": 2, "features": [0.1, 1.5, 0.3]}],
         "{path}: track '{id}': segment element outside [0, 1]"),
        ([{"start": -1, "features": [0.1, 0.2, 0.3]}],
         "{path}: track '{id}': segment start -1 outside frame range"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, {"start": 4, "features": [0.1, 0.2, 0.3]}],
         "{path}: track '{id}': segment start 4 outside frame range"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, {"start": 9, "features": [0.1, 0.2, 0.3]}],
         "{path}: track '{id}': segment start 9 outside frame range"),
        ([{"start": 0, "features": [0.1, 0.2, 0.3]}, {"start": 2, "features": [0.1, 0.2, 0.3]},
          {"start": 2, "features": [0.1, 0.2, 0.3]}],
         "{path}: track '{id}': segment starts are not strictly increasing"),
    ])
    @pytest.mark.parametrize("bad_line", [1, 3])
    def test_bad_segments_are_named(self, tmp_path, segments, message, bad_line):
        path = tmp_path / "cat.jsonl"
        good = {"start": 0, "features": [0.2, 0.3, 0.4]}, {"start": 3, "features": [0.4, 0.5, 0.6]}
        records = [{"id": f"t{i}", "frame_hop": 1.0, "frames": self._FRAMES, "segments": list(good)}
                   for i in range(1, 4)]
        records[bad_line - 1]["segments"] = segments
        _write_jsonl(path, records)
        expected = message.format(line=bad_line, id=f"t{bad_line}", path=path)
        with pytest.raises(CatalogError) as caught:
            load_catalog(path)
        assert str(caught.value) == expected

    def test_start_beyond_int64_is_outside_the_frame_range(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [{"id": "a", "frame_hop": 1.0, "frames": self._FRAMES,
                             "segments": [{"start": 2**64, "features": [0.1, 0.2, 0.3]}]}])
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: "
                                               r"line 1: track 'a': segment start outside frame range$"):
            load_catalog(path)

    def test_boolean_frame_hop_rejected(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [{"id": "a", "frame_hop": True, "frames": [[0.1], [0.2]]}])
        with pytest.raises(CatalogError, match=r"line 1: track 'a': invalid 'frame_hop'"):
            load_catalog(path)

    @pytest.mark.parametrize("line, message", [
        ('{"id": "a", "frame_hop": 0.5, "frames": [[0.1, 0.2], [true, 0.3]]}',
         "line 1: track 'a': frame dimension mismatch or non-numeric value"),
        ('{"frames": [[false, 0.2]], "id": "a"}',
         "line 1: track 'a': frame dimension mismatch or non-numeric value"),
        ('{"id": "a", "frame_hop": 0.5, "frames": [[0.1, 0.2]], '
         '"segments": [{"start": 0, "features": [0.1, false]}]}',
         "line 1: track 'a': non-numeric segment features"),
        ('{"id": "a", "frame_hop": 0.5, "frames": [[0.1, 0.2]], '
         '"segments": [{"start": 0, "features": [0.1, 0.2]}, {"start": 1, "features": [true]}]}',
         "line 1: track 'a': non-numeric segment features"),
    ], ids=["frame", "frame, other key order", "feature", "ragged feature rows"])
    def test_boolean_values_rejected(self, tmp_path, line, message):
        path = tmp_path / "cat.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as caught:
            load_catalog(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_true_in_an_id_is_not_a_value(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"frames": [[0.1, 0.2]], "id": "true or false"}\n', encoding="utf-8")
        track = load_catalog(path).tracks["true or false"]
        np.testing.assert_array_equal(track.frames, [[0.1, 0.2]])

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        _write_jsonl(path, [{"id": "a", "frame_hop": 0.5, "frames": [[]]},
                            {"id": "b", "frame_hop": 0.5, "frames": [[], []]}])
        with pytest.raises(CatalogError) as caught:
            load_catalog(path)
        assert str(caught.value) == f"{path}: track 'a': frames must be a non-empty 2-D matrix"


class TestSaveCatalog:
    def test_round_trip_is_fixed_point(self, tmp_path):
        spec = SynthSpec(track_count=4, cluster_count=2, dimension=6, strong_dims=2,
                         weak_dims=2, segment_range=(2, 3), frames_per_segment=(4, 6), seed=3)
        original = generate_synthetic_catalog(spec)
        first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_catalog(original, first)
        loaded = load_catalog(first)
        assert _catalogs_equal(original, loaded)
        save_catalog(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert _catalogs_equal(loaded, load_catalog(second))

    def test_short_decimal_round_trip_is_fixed_point(self, tmp_path):
        # Frames carry 6 decimals, as tag probabilities do, so they take the
        # numpy formatting path; the section means carry full precision.
        spec = SynthSpec(track_count=4, cluster_count=2, dimension=6, strong_dims=2,
                         weak_dims=2, segment_range=(2, 3), frames_per_segment=(20, 30), seed=5)
        rounded = Catalog.from_tracks(
            Track(id=t.id, frames=np.round(t.frames, 6), frame_hop=t.frame_hop)
            for t in generate_synthetic_catalog(spec)
        )
        segmented = segment_catalog(rounded)
        first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_catalog(segmented, first)
        loaded = load_catalog(first)
        assert _catalogs_equal(segmented, loaded)
        save_catalog(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_segmented_catalog_round_trip(self, tmp_path):
        catalog = segmented_catalog({
            "a": np.array([[0.1, 0.9], [0.4, 0.5]]),
            "b": np.array([[0.7, 0.2]]),
        })
        path = tmp_path / "seg.jsonl"
        save_catalog(catalog, path)
        assert _catalogs_equal(catalog, load_catalog(path))

    @pytest.mark.parametrize("frames, starts, message", [
        ([[0.1, np.nan], [0.2, 0.3]], [0], "non-finite"),
        ([[0.1, 1.5], [0.2, 0.3]], [0], r"outside \[0, 1\]"),
        ([[0.1, 0.2], [0.2, 0.3]], [1, 1], "increasing"),
    ])
    def test_catalog_that_would_not_load_is_not_written(self, tmp_path, frames, starts, message):
        frames = np.array(frames)
        track = Track(id="bad", frames=frames, starts=np.array(starts), sections=frames[starts])
        path = tmp_path / "nope.jsonl"
        with pytest.raises(CatalogError, match=f"track 'bad'.*{message}"):
            save_catalog(Catalog(dimension=2, tracks={"bad": track}), path)
        assert not path.exists()

    @pytest.mark.parametrize("track_id, frame_hop, message", [
        ("", 0.5, "track '': missing or invalid 'id'"),
        (7, 0.5, "track 7: missing or invalid 'id'"),
        (["x"], 0.5, "track ['x']: missing or invalid 'id'"),
        ("bad", True, "track 'bad': invalid 'frame_hop'"),
        ("bad", float("nan"), "track 'bad': invalid 'frame_hop'"),
        ("bad", 10**400, "track 'bad': invalid 'frame_hop'"),
    ], ids=["empty id", "integer id", "unhashable id", "boolean hop", "NaN hop",
            "hop beyond float range"])
    def test_header_that_would_not_load_is_not_written(self, tmp_path, track_id, frame_hop,
                                                       message):
        good = Track(id="good", frames=np.full((2, 2), 0.5))
        bad = Track(id=track_id, frames=np.full((2, 2), 0.5), frame_hop=frame_hop)
        path = tmp_path / "nope.jsonl"
        with pytest.raises(CatalogError) as caught:
            save_catalog(Catalog(dimension=2, tracks={"good": good, "bad": bad}), path)
        assert str(caught.value) == message
        assert not path.exists()


def _written(values: np.ndarray) -> str:
    handle = io.BytesIO()
    catalog_module._write_numbers(handle, values)
    return handle.getvalue().decode("ascii")


class TestNumberWriter:
    """The catalog writer's number arrays are byte for byte ``json.dumps`` text."""

    BLOCK = catalog_module._BLOCK_VALUES

    @pytest.mark.parametrize("decimals", [*range(18), None])
    @pytest.mark.parametrize("shape", [(7,), (1, 7), (5, 1), (83, 50)])
    def test_rounded_and_full_precision_values(self, decimals, shape):
        rng = np.random.default_rng(decimals or 99)
        values = rng.uniform(0.0, 1.0, shape)
        if decimals is not None:
            values = np.round(values, decimals)
        assert _written(values) == json.dumps(values.tolist())

    def test_edge_values(self):
        edges = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 1e-4, np.nextafter(1e-4, 0.0),
                 np.nextafter(1e-4, 1.0), 9e-5]
        for centre in (0.001, 0.01):
            below = above = centre
            for _ in range(4):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
                edges += [below, above]
        for value in edges:
            # alone (the value decides the block's path) and beside a short decimal
            for values in (np.array([value]), np.array([[value, 0.5], [0.25, value]])):
                assert _written(values) == json.dumps(values.tolist()), repr(value)
        values = np.array([0.0, 1.0, 1e-4, 0.001, 0.01])
        assert _written(values) == json.dumps(values.tolist())

    @pytest.mark.parametrize("width", [1, 3, 50])
    def test_row_counts_around_the_block_size(self, width):
        rng = np.random.default_rng(width)
        rows_per_block = max(1, self.BLOCK // width)
        for count in (rows_per_block - 1, rows_per_block, rows_per_block + 1,
                      2 * rows_per_block + 1):
            values = np.round(rng.uniform(0.0, 1.0, (count, width)), 4)
            assert _written(values) == json.dumps(values.tolist())
            values[-1, -1] = rng.uniform()  # last block falls back to json.dumps
            assert _written(values) == json.dumps(values.tolist())

    def test_other_dtypes_are_left_to_json(self):
        for values in (np.array([[0.5, 0.1]], dtype=np.float32),
                       np.array([[0, 1], [1, 0]]),
                       np.zeros((2, 0))):
            assert _written(values) == json.dumps(values.tolist())
        assert _written(np.zeros((1, 2), dtype=np.int64)) == "[[0, 0]]"

    def test_short_decimals_are_formatted_without_json(self, monkeypatch):
        values = np.round(np.random.default_rng(1).uniform(1e-3, 1.0, (300, 50)), 6)
        expected = json.dumps(values.tolist())

        class NoJson:
            @staticmethod
            def dumps(obj):
                raise AssertionError("short decimals reached json.dumps")

        monkeypatch.setattr(catalog_module, "json", NoJson)
        assert _written(values) == expected

    def test_exponent_form_and_negative_zero_are_formatted_without_json(self, monkeypatch):
        rng = np.random.default_rng(2)
        values = np.round(rng.uniform(0.0, 1.0, (300, 50)), 6)
        odd = rng.random(values.shape) < 0.01
        values[odd] = rng.choice([5e-05, 1e-05, 9.99999e-05, 1.2345e-08, 5e-324, -0.0], odd.sum())
        expected = json.dumps(values.tolist())
        assert "e-" in expected and "-0.0" in expected

        class NoJson:
            @staticmethod
            def dumps(obj):
                raise AssertionError("a value below 1e-4 or -0.0 reached json.dumps")

        monkeypatch.setattr(catalog_module, "json", NoJson)
        assert _written(values) == expected

    @pytest.mark.parametrize("width", [1, 3, 50, 4096])
    @pytest.mark.parametrize("odd", [5e-05, -0.0, 1.5e-07, -2e-05])
    def test_spliced_values_at_block_and_row_edges(self, width, odd):
        rows = max(2, 2 * self.BLOCK // width)
        values = np.round(np.random.default_rng(width).uniform(0.0, 1.0, (rows, width)), 5)
        per_block = max(1, self.BLOCK // width)
        for row, column in [(0, 0), (per_block - 1, width - 1), (per_block, 0),
                            (rows - 1, width - 1), (1, width - 1), (rows // 2, width // 2)]:
            edited = values.copy()
            edited[row, column] = odd
            assert _written(edited) == json.dumps(edited.tolist()), (row, column)
        edited = values.copy()
        edited[:, -1] = odd  # every row end
        assert _written(edited) == json.dumps(edited.tolist())
        edited[:] = odd  # nothing but spliced values
        assert _written(edited) == json.dumps(edited.tolist())

    def test_digit_tables(self):
        for n in range(10_000):
            for table, text in ((catalog_module._DIGITS, f"{n:04d}"),
                                (catalog_module._TRIMMED, f"{n:04d}".rstrip("0"))):
                word = int(table[n]).to_bytes(8, "little")
                assert word == text.encode().ljust(8, b"\0"), (n, word)


class TestAtomicSave:
    """A catalog replaces the file it is saved over only once it is written whole."""

    def test_failed_write_leaves_the_old_file(self, monkeypatch, tmp_path):
        path = tmp_path / "cat.jsonl"
        old = segmented_catalog({"a": np.array([[0.5, 0.25]])})
        save_catalog(old, path)
        before = path.read_bytes()
        write_numbers = catalog_module._write_numbers
        calls = []

        def fail_after_first_track(handle, values):
            calls.append(values)
            if len(calls) > 2:  # the first track's frames and its one section
                raise RuntimeError("cut")
            write_numbers(handle, values)

        monkeypatch.setattr(catalog_module, "_write_numbers", fail_after_first_track)
        new = segmented_catalog({"b": np.array([[0.1, 0.2]]), "c": np.array([[0.3, 0.4]])})
        with pytest.raises(RuntimeError, match="cut"):
            save_catalog(new, path)
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cat.jsonl"]

    def test_symlinked_target_is_replaced_through_the_link(self, tmp_path):
        real = tmp_path / "real.jsonl"
        link = tmp_path / "link.jsonl"
        save_catalog(segmented_catalog({"a": np.array([[0.5]])}), real)
        link.symlink_to(real)
        catalog = segmented_catalog({"b": np.array([[0.25]])})
        save_catalog(catalog, link)
        assert link.is_symlink() and link.resolve() == real
        assert _catalogs_equal(load_catalog(real), catalog)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]


class TestBuildTrainingSequences:
    def test_three_segment_track_context_two(self):
        a, b, c = np.array([0.1, 0.2]), np.array([0.3, 0.4]), np.array([0.5, 0.6])
        catalog = segmented_catalog({"t": np.stack([a, b, c])})
        pairs = build_training_sequences(catalog, 2)
        assert len(pairs) == 2
        np.testing.assert_array_equal(pairs[0].window, np.stack([np.zeros(2), a]))
        np.testing.assert_array_equal(pairs[0].mask, [False, True])
        np.testing.assert_array_equal(pairs[0].target, b)
        np.testing.assert_array_equal(pairs[1].window, np.stack([a, b]))
        np.testing.assert_array_equal(pairs[1].mask, [True, True])
        np.testing.assert_array_equal(pairs[1].target, c)

    def test_single_segment_track_contributes_nothing(self):
        catalog = segmented_catalog({
            "solo": np.array([[0.5, 0.5]]),
            "pair": np.array([[0.1, 0.2], [0.3, 0.4]]),
        })
        pairs = build_training_sequences(catalog, 3)
        assert len(pairs) == 1

    def test_ten_tracks_seven_segments_context_three(self):
        rng = np.random.default_rng(0)
        catalog = segmented_catalog(
            {f"t{i:02d}": rng.uniform(0, 1, (7, 5)) for i in range(10)}
        )
        pairs = build_training_sequences(catalog, 3)
        # independent count: one pair per consecutive-segment transition
        expected = sum(max(0, len(t.segments) - 1) for t in catalog)
        assert expected == 60
        assert len(pairs) == expected

    def test_windows_never_span_tracks(self):
        # tag each track with a constant value so provenance is visible
        catalog = segmented_catalog(
            {f"t{j}": np.full((4, 3), (j + 1) / 10) for j in range(5)}
        )
        for window, mask, target in build_training_sequences(catalog, 3):
            values = set(np.unique(window[mask])) | set(np.unique(target))
            assert len(values) == 1

    def test_pair_count_matches_formula_on_random_catalogs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            catalog = segmented_catalog({
                f"t{i}": rng.uniform(0, 1, (int(rng.integers(1, 9)), 4))
                for i in range(int(rng.integers(1, 7)))
            })
            pairs = build_training_sequences(catalog, int(rng.integers(1, 6)))
            assert len(pairs) == sum(max(0, len(t.segments) - 1) for t in catalog)

    def test_unsegmented_catalog_rejected(self):
        catalog = Catalog.from_tracks([Track(id="a", frames=np.array([[0.1], [0.2]]))])
        with pytest.raises(CatalogError, match="not segmented"):
            build_training_sequences(catalog, 2)

    def test_empty_catalog_rejected(self):
        with pytest.raises(CatalogError, match="no tracks"):
            build_training_sequences(Catalog(dimension=2, tracks={}), 2)

    @pytest.mark.parametrize("length", [0, -1])
    def test_context_length_below_one_rejected(self, length):
        catalog = segmented_catalog({"a": np.full((2, 2), 0.5)})
        with pytest.raises(ValueError, match="context_length must be >= 1"):
            build_training_sequences(catalog, length)

    @pytest.mark.parametrize("length", [1, 2, 5, 9, 12])
    def test_pairs_equal_windows_padded_one_at_a_time(self, length):
        rng = np.random.default_rng(length)
        catalog = segmented_catalog({
            f"t{i}": rng.uniform(0, 1, (int(rng.integers(1, 11)), 3)) for i in range(6)
        })
        pairs = build_training_sequences(catalog, length)
        expected = [pair for track in catalog for pair in padded_pairs(track.sections, length)]
        assert len(pairs) == len(expected)
        for pair, oracle in zip(pairs, expected):
            for found, wanted in zip(pair, oracle):
                assert found.dtype == wanted.dtype and found.shape == wanted.shape
                assert found.tobytes() == wanted.tobytes()

    @staticmethod
    def _assert_read_only_views_of_one_array_per_track(standardize):
        rng = np.random.default_rng(3)
        catalog = segmented_catalog({f"t{i}": rng.uniform(0, 1, (9, 4)) for i in range(3)})
        stats = fit_standardizer(catalog) if standardize else None
        pairs = build_training_sequences(catalog, 5, stats)
        bases = []
        for track_pairs in (pairs[0:8], pairs[8:16], pairs[16:24]):
            rows, real = track_pairs[0].window.base, track_pairs[0].mask.base
            assert rows.shape == (4 + 9, 4) and real.shape == (4 + 9,)
            for window, mask, _ in track_pairs:
                assert window.base is rows and mask.base is real
                assert np.shares_memory(window, rows) and np.shares_memory(mask, real)
            bases.append(rows)
        assert not any(np.shares_memory(a, b) for a, b in zip(bases, bases[1:]))
        window, mask, _ = pairs[3]
        with pytest.raises(ValueError, match="read-only"):
            window[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = True

    def test_windows_are_read_only_views_of_one_array_per_track(self):
        self._assert_read_only_views_of_one_array_per_track(standardize=False)

    def test_standardized_windows_are_read_only_views_of_one_array_per_track(self):
        self._assert_read_only_views_of_one_array_per_track(standardize=True)

    @staticmethod
    def _held_by_pairs(standardize):
        """Bytes the pairs hold under tracemalloc, and their padded arrays' bytes."""
        tracks, length, sections, dimension = 200, 50, 9, 50
        rng = np.random.default_rng(11)
        catalog = segmented_catalog({
            f"t{i:03d}": rng.uniform(0, 1, (sections, dimension)) for i in range(tracks)
        })
        stats = fit_standardizer(catalog) if standardize else None
        padded = tracks * (length - 1 + sections) * (dimension * 8 + 1)  # rows and mask
        tracemalloc.start()
        try:
            pairs = build_training_sequences(catalog, length, stats)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == tracks * (sections - 1)
        return held, padded

    def test_pairs_hold_little_more_than_the_padded_tracks(self):
        held, padded = self._held_by_pairs(standardize=False)
        assert held < 2 * padded

    def test_standardized_pairs_hold_little_more_than_the_padded_tracks(self):
        # a z-scored copy of every window would hold about 7x the padded arrays
        held, padded = self._held_by_pairs(standardize=True)
        assert held < 2 * padded

    @pytest.mark.parametrize("length", [1, 2, 5, 9, 12])
    def test_standardized_pairs_equal_padded_windows_z_scored(self, length):
        rng = np.random.default_rng(length)
        tracks = {f"t{i}": rng.uniform(0, 1, (int(rng.integers(1, 11)), 3)) for i in range(6)}
        for sections in tracks.values():
            sections[:, 2] = 0.3  # a constant dimension: z-scores of +-0.0
        catalog = segmented_catalog(tracks)
        stats = fit_standardizer(catalog)
        pairs = build_training_sequences(catalog, length, stats)
        expected = [pair for track in catalog for pair in padded_pairs(track.sections, length)]
        assert len(pairs) == len(expected)
        for pair, oracle in zip(pairs, expected):
            z_scored = np.where(oracle.mask[:, None], stats.apply(oracle.window), 0.0)
            for found, wanted in zip(pair, oracle._replace(window=z_scored)):
                assert found.dtype == wanted.dtype and found.shape == wanted.shape
                assert found.tobytes() == wanted.tobytes()


class TestTrackValidation:
    def test_segment_start_outside_range(self):
        track = Track(
            id="a",
            frames=np.array([[0.1], [0.2]]),
            starts=np.array([5]),
            sections=np.array([[0.1]]),
        )
        with pytest.raises(CatalogError, match="outside frame range"):
            Catalog.from_tracks([track])

    @pytest.mark.parametrize("starts", [np.array([0.0, 2.0]), np.array([False, True])])
    def test_non_integer_starts_rejected(self, starts):
        track = Track(id="odd", frames=np.full((4, 2), 0.5), starts=starts,
                      sections=np.full((2, 2), 0.5))
        message = "^track 'odd': segment starts must be a non-empty integer vector$"
        with pytest.raises(CatalogError, match=message):
            Catalog.from_tracks([segmented_track("fine", np.full((2, 2), 0.5)), track])

    def test_segments_view_pairs_starts_with_sections(self):
        track = segmented_track("a", np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), 4)
        rows = track.segments
        assert len(rows) == 3
        for row, start, section in zip(rows, track.starts, track.sections, strict=True):
            assert type(row.start) is int and row.start == start
            np.testing.assert_array_equal(row.features, section)
        assert Track(id="b", frames=np.zeros((2, 2))).segments == []

    def test_track_value_above_one(self):
        with pytest.raises(CatalogError, match=r"\[0, 1\]"):
            Catalog.from_tracks([Track(id="a", frames=np.array([[1.2]]))])

    def test_no_tracks(self):
        with pytest.raises(CatalogError, match="^catalog has no tracks$"):
            Catalog.from_tracks([])

    @pytest.mark.parametrize("frames", [[[0.5]], None, "0.5"], ids=["list", "None", "text"])
    def test_frames_that_are_not_an_array(self, frames):
        with pytest.raises(CatalogError, match="^track 'a': frames must be a non-empty 2-D matrix$"):
            Catalog.from_tracks([Track(id="a", frames=frames)])


class TestWholeChecks:
    """``from_tracks`` checks values whole, yet raises what a walk over the tracks raises."""

    @staticmethod
    def _tracks():
        values = np.full((10, 2), 0.5)  # rows of several tracks, as the reader's batches hold them
        return [
            Track(id="a", frames=values[0:4], starts=np.array([0, 3]), sections=values[8:10]),
            Track(id="b", frames=values[4:7], starts=np.array([1]), sections=values[7:8]),
            Track(id="c", frames=np.full((2, 2), 0.25), starts=np.array([0, 1]),
                  sections=np.full((2, 2), 0.75)),
        ]

    def test_batched_values_are_checked_once_per_array(self):
        calls = []

        class Watched(np.ndarray):  # records every ufunc call on it, with the shape it had
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                calls.append((ufunc.__name__, method, self.shape))
                plain = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        values = np.full((10, 2), 0.5).view(Watched)  # the rows of both tracks, as in a batch
        catalog = Catalog.from_tracks([
            Track(id="a", frames=values[0:4], starts=np.array([0, 3]), sections=values[8:10]),
            Track(id="b", frames=values[4:7], starts=np.array([1]), sections=values[7:8]),
        ])
        assert catalog.track_ids == ["a", "b"]
        assert calls, "no value was checked"
        assert {shape for _, _, shape in calls} == {values.shape}, "a track's rows were checked"
        assert len(set(calls)) == len(calls), "the array was checked more than once"

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t[1].frames.__setitem__((0, 1), np.nan), "track 'b': non-finite frame element"),
        (lambda t: t[2].sections.__setitem__((1, 0), 1.5), "track 'c': segment element outside [0, 1]"),
        (lambda t: t[0].sections.__setitem__((1, 1), -0.5), "track 'a': segment element outside [0, 1]"),
        (lambda t: setattr(t[1], "starts", np.array([3])), "track 'b': segment start 3 outside frame range"),
        (lambda t: setattr(t[2], "starts", np.array([-1, 1])),
         "track 'c': segment start -1 outside frame range"),
        (lambda t: setattr(t[0], "starts", np.array([2, 2])),
         "track 'a': segment starts are not strictly increasing"),
        (lambda t: setattr(t[2], "id", "a"), "duplicate track id 'a'"),
        (lambda t: setattr(t[1], "frames", np.full((3, 3), 0.5)),
         "track 'b': dimension 3 does not match catalog dimension 2"),
        (lambda t: setattr(t[2], "starts", np.array([0, 1], dtype=np.uint8)), None),
        (lambda t: setattr(t[2], "frames", np.full((2, 2), 0.25, dtype=np.float32)), None),
        (lambda t: setattr(t[1], "id", ""), "track '': missing or invalid 'id'"),
        (lambda t: setattr(t[1], "id", 7), "track 7: missing or invalid 'id'"),
        (lambda t: setattr(t[1], "id", ["x"]), "track ['x']: missing or invalid 'id'"),
        (lambda t: setattr(t[2], "frame_hop", True), "track 'c': invalid 'frame_hop'"),
        (lambda t: setattr(t[2], "frame_hop", float("nan")), "track 'c': invalid 'frame_hop'"),
        (lambda t: setattr(t[0], "frame_hop", 10**400), "track 'a': invalid 'frame_hop'"),
    ], ids=["frame NaN", "section above 1", "section below 0", "start past the end",
            "negative start", "repeated start", "duplicate id", "other dimension",
            "uint8 starts", "float32 frames", "empty id", "integer id", "unhashable id",
            "boolean hop", "NaN hop", "hop beyond float range"])
    def test_each_fault_is_named_as_a_walk_names_it(self, edit, message):
        tracks = self._tracks()
        edit(tracks)
        if message is None:  # checked one at a time, and valid
            assert Catalog.from_tracks(tracks).track_ids == ["a", "b", "c"]
            return
        with pytest.raises(CatalogError) as caught:
            Catalog.from_tracks(tracks)
        assert str(caught.value) == message

    def test_first_bad_track_is_named(self):
        tracks = self._tracks()
        tracks[2].frames[0, 0] = np.inf
        tracks[0].sections[0, 0] = 2.0
        tracks.append(Track(id="a", frames=np.full((1, 2), 0.5)))
        with pytest.raises(CatalogError) as caught:
            Catalog.from_tracks(tracks)
        assert str(caught.value) == "track 'a': segment element outside [0, 1]"

    def test_bad_rows_outside_the_tracks_are_not_their_fault(self):
        values = np.full((6, 2), 0.5)
        values[5] = np.nan  # in the tracks' base array, but in none of their rows
        catalog = Catalog.from_tracks([Track(id="a", frames=values[:2]),
                                       Track(id="b", frames=values[2:4])])
        assert catalog.track_ids == ["a", "b"]

    def test_reinterpreted_views_are_checked_as_themselves(self):
        base = np.full((2, 2), 0.1, dtype=">f8")  # in range, but byte-swapped in the view
        with pytest.raises(CatalogError, match=r"^track 'a': frame element outside \[0, 1\]$"):
            Catalog.from_tracks([Track(id="a", frames=base.view("<f8"))])

    def test_zero_dimension_names_the_track(self):
        with pytest.raises(CatalogError, match="^track 'z': frames must be a non-empty 2-D matrix$"):
            Catalog.from_tracks([Track(id="z", frames=np.zeros((3, 0)))])


def _batched_tracks(rng) -> list[Track]:
    """1 to 8 tracks whose values are row views of one or two shared arrays, as the reader's are.

    Each shared array holds its tracks' frame rows, then their section rows,
    then one spare row that no track holds; starts are views of one vector.
    """
    dimension = int(rng.integers(1, 4))
    tracks = []
    count = int(rng.integers(1, 9))
    for batch in np.array_split(np.arange(count), rng.integers(1, min(count, 2) + 1)):
        lengths = rng.integers(1, 7, size=batch.size)
        counts = [int(rng.integers(1, n + 1)) if rng.random() < 0.8 else 0 for n in lengths]
        values = rng.random((lengths.sum() + sum(counts) + 1, dimension))
        starts = np.concatenate([np.sort(rng.choice(n, size=k, replace=False))
                                 for n, k in zip(lengths, counts)]).astype(np.int64)
        row, section = 0, int(lengths.sum())
        for index, n, k in zip(batch.tolist(), lengths.tolist(), counts):
            track = Track(id=f"t{index}", frames=values[row : row + n], frame_hop=0.5)
            if k:
                at = section - int(lengths.sum())
                track.starts, track.sections = starts[at : at + k], values[section : section + k]
            row, section = row + n, section + k
            tracks.append(track)
    return tracks


def _cell(rng, array):
    return tuple(int(rng.integers(size)) for size in array.shape)


def _set_section(value):
    def fault(rng, tracks, track):
        if track.sections is not None:
            track.sections[_cell(rng, track.sections)] = value
    return fault


def _spare_row_nan(rng, tracks, track):
    track.frames.base[-1, 0] = np.nan  # in the array the track's rows live in, in no track


# The faults of ``TestWholeChecks``, each applied to a given track, and a NaN in a spare row.
_FAULTS = [
    lambda rng, tracks, t: t.frames.__setitem__(_cell(rng, t.frames), np.nan),
    _set_section(1.5),
    _set_section(-0.5),
    lambda rng, tracks, t: setattr(t, "starts", np.array([t.num_frames])),
    lambda rng, tracks, t: setattr(t, "starts", np.array([-1])),
    lambda rng, tracks, t: setattr(t, "starts", np.array([0, 0])),
    lambda rng, tracks, t: setattr(t, "id", tracks[int(rng.integers(len(tracks)))].id),
    lambda rng, tracks, t: setattr(t, "frames", np.full((t.num_frames, 7), 0.5)),
    lambda rng, tracks, t: setattr(t, "starts",
                                   None if t.starts is None else t.starts.astype(np.uint8)),
    lambda rng, tracks, t: setattr(t, "frames", t.frames.astype(np.float32)),
    lambda rng, tracks, t: setattr(t, "id", ""),
    lambda rng, tracks, t: setattr(t, "id", 7),
    lambda rng, tracks, t: setattr(t, "id", ["x"]),
    lambda rng, tracks, t: setattr(t, "frame_hop", True),
    lambda rng, tracks, t: setattr(t, "frame_hop", float("nan")),
    lambda rng, tracks, t: setattr(t, "frame_hop", 10**400),
    _spare_row_nan,
]


def _outcome(tracks) -> str | None:
    try:
        Catalog.from_tracks(tracks)
    except CatalogError as exc:
        return str(exc)
    return None


def test_batched_tracks_are_judged_as_tracks_that_own_their_arrays():
    rng = np.random.default_rng(20161606)
    outcomes = []
    for _ in range(200):
        tracks = _batched_tracks(rng)
        for _ in range(rng.integers(0, 4)):
            fault = _FAULTS[int(rng.integers(len(_FAULTS)))]
            fault(rng, tracks, tracks[int(rng.integers(len(tracks)))])
        owned = [Track(id=t.id, frames=np.array(t.frames), frame_hop=t.frame_hop,
                       starts=None if t.starts is None else np.array(t.starts),
                       sections=None if t.sections is None else np.array(t.sections))
                 for t in tracks]
        outcome = _outcome(tracks)
        assert outcome == _outcome(owned)
        outcomes.append(outcome)
    assert None in outcomes and len(set(outcomes)) > 10  # both verdicts, and many faults, were seen
