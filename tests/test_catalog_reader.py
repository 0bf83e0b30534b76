"""The catalog reader: every line loads exactly as ``_parse_record(json.loads(line))``."""

import json
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from segue import catalog as catalog_module
from segue.catalog import Catalog, CatalogError, Track, load_catalog, save_catalog
from segue.features import SynthSpec, generate_synthetic_catalog
from segue.segmentation import segment_catalog

_GOOD = '{"id": "g%d", "frame_hop": 0.5, "frames": [[0.25, 0.5], [0.75, 1.0]]}'
_FRAMES = '"frames": [[0.25, 0.5], [0.75, 1.0]]'
_OUT_OF_RANGE = "{path}: track '%s': frame element outside [0, 1]"
_WIDE = ", ".join(["0"] * 20_000)  # a first frame row that claims a width of 20,000

# Lines near the writer's layout, each with the exact error it raises: the fault,
# the decoded id and the line number show which text was read and how.
HOSTILE = {
    "ragged row": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5], [0.75]]}'],
        "line 1: track 'a': frame dimension mismatch or non-numeric value"),
    "ragged section rows": (
        ['{"id": "a", "frame_hop": 0.5, %s, "segments": [{"start": 0, "features": [0.25, 0.5]}, '
         '{"start": 1, "features": [0.5]}]}' % _FRAMES],
        "{path}: track 'a': segment feature dimension mismatch"),
    "NaN": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, NaN]]}'],
        "{path}: track 'a': non-finite frame element"),
    "Infinity in a section": (
        ['{"id": "a", "frame_hop": 0.5, %s, "segments": [{"start": 0, '
         '"features": [-Infinity, 0.5]}]}' % _FRAMES],
        "{path}: track 'a': non-finite segment element"),
    "1.5": (['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 1.5]]}'], _OUT_OF_RANGE % "a"),
    "1.5 in a section": (
        ['{"id": "a", "frame_hop": 0.5, %s, "segments": [{"start": 0, "features": [0.25, 1.5]}]}'
         % _FRAMES],
        "{path}: track 'a': segment element outside [0, 1]"),
    "true in a frame": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[true, 0.5]]}',
         '{"id": "b", "frame_hop": 0.5, "frames": [[0.5, 0.5, 0.5]]}'],
        "line 1: track 'a': frame dimension mismatch or non-numeric value"),
    "false in a section": (
        ['{"id": "a", "frame_hop": 0.5, %s, "segments": [{"start": 0, "features": [0.25, false]}]}'
         % _FRAMES],
        "line 1: track 'a': non-numeric segment features"),
    "rows in one features text": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25], [0.5]], '
         '"segments": [{"start": 0, "features": [0.25], [0.5]}]}'],
        "line 1: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 104 (char 103)"),
    "no values in a frame": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[]]}'],
        "{path}: track 'a': frames must be a non-empty 2-D matrix"),
    "true start": (
        ['{"id": "a", "frame_hop": 0.5, %s, "segments": [{"start": true, "features": [0.25, 0.5]}]}'
         % _FRAMES],
        "line 1: track 'a': segment start must be an integer"),
    "missing ]": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5], [0.75, 1.0]}'],
        "line 1: invalid JSON: Expecting ',' delimiter: line 1 column 66 (char 65)"),
    "escaped id": (
        ['{"id": "a\\"b\\u00e9", "frame_hop": 0.5, "frames": [[0.25, 1.5]]}'],
        _OUT_OF_RANGE % 'a"bé'),
    "non-ASCII id": (
        ['{"id": "zoë", "frame_hop": 0.5, "frames": [[0.25, 1.5]]}'],
        _OUT_OF_RANGE % "zoë"),
    "extra space in a row": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25,  1.5]]}'], _OUT_OF_RANGE % "a"),
    "extra spaces around rows": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [ [0.25, 1.5] ]}'], _OUT_OF_RANGE % "a"),
    "compact separators": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25,10.5]]}'], _OUT_OF_RANGE % "a"),
    "compact row separator": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5],[0.75, 1.5]]}'],
        _OUT_OF_RANGE % "a"),
    "compact separator in a later row": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5], [0.75,10.5]]}'],
        _OUT_OF_RANGE % "a"),
    "compact row separator before a long value": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5],[10.75, 0.5]]}'],
        _OUT_OF_RANGE % "a"),
    "other key order": (
        ['{"frames": [[0.25, 1.5]], "id": "a", "frame_hop": 0.5}'], _OUT_OF_RANGE % "a"),
    "duplicate frames key": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], "frames": [[0.25, 1.5]]}'],
        _OUT_OF_RANGE % "a"),
    "duplicate id key": (
        ['{"id": "a", "id": "b", "frame_hop": 0.5, "frames": [[0.25, 1.5]]}'],
        _OUT_OF_RANGE % "b"),
    "duplicate segment entry key": (
        ['{"id": "a", "frame_hop": 0.5, %s, "segments": [{"start": 0, "start": 2, '
         '"features": [0.25, 0.5]}]}' % _FRAMES],
        "{path}: track 'a': segment start 2 outside frame range"),
    "bad line, JSON error later": (
        [_GOOD % 1, '{"id": "b", "frame_hop": 0.5, "frames": [[0.25, 0.5], [0.75]]}', _GOOD % 3,
         "{not json"],
        "line 2: track 'b': frame dimension mismatch or non-numeric value"),
    "bad number, JSON error later": (
        [_GOOD % 1, '{"id": "b", "frame_hop": 0.5, "frames": [[0.25, 00.5]]}', _GOOD % 3,
         "{not json"],
        "line 2: invalid JSON: Expecting ',' delimiter: line 1 column 50 (char 49)"),
    "bad value, JSON error later": (
        [_GOOD % 1, '{"id": "b", "frame_hop": 0.5, "frames": [[0.25, 1.5]]}', _GOOD % 3,
         "{not json"],
        "line 4: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"),
    ".5": (['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, .5]]}'],
           "line 1: invalid JSON: Expecting value: line 1 column 49 (char 48)"),
    "1.": (['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 1.]]}'],
           "line 1: invalid JSON: Expecting ',' delimiter: line 1 column 50 (char 49)"),
    "+0.5": (['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, +0.5]]}'],
             "line 1: invalid JSON: Expecting value: line 1 column 49 (char 48)"),
    "exponent out of range": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 1e1]]}'], _OUT_OF_RANGE % "a"),
    "negative value": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, -0.5]]}'], _OUT_OF_RANGE % "a"),
    "infinite frame_hop": (
        ['{"id": "a", "frame_hop": 1e999, "frames": [[0.25, 0.5]]}'],
        "line 1: track 'a': invalid 'frame_hop'"),
    "empty features": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], '
         '"segments": [{"start": 0, "features": []}]}'],
        "{path}: track 'a': segment feature dimension mismatch"),
    "nested features": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], '
         '"segments": [{"start": 0, "features": [[0.25, 0.5]]}]}'],
        "{path}: track 'a': segment feature dimension mismatch"),
    "nested frames": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[[0.25, 0.5]]]}'],
        "line 1: track 'a': frame dimension mismatch"),
    "extra brace": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]]}}'],
        "line 1: invalid JSON: Extra data: line 1 column 55 (char 54)"),
    "control character in id": (
        ['{"id": "a\x01", "frame_hop": 0.5, "frames": [[0.25, 0.5]]}'],
        "line 1: invalid JSON: Invalid control character at: line 1 column 10 (char 9)"),
    "empty id": (
        ['{"id": "", "frame_hop": 0.5, "frames": [[0.25, 0.5]]}'],
        "line 1: missing or invalid 'id'"),
    "leading zero start": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], '
         '"segments": [{"start": 01, "features": [0.25, 0.5]}]}'],
        "line 1: invalid JSON: Expecting ',' delimiter: line 1 column 80 (char 79)"),
    "float start": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], '
         '"segments": [{"start": 1.0, "features": [0.25, 0.5]}]}'],
        "line 1: track 'a': segment start must be an integer"),
    "empty segments, then a bad line": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], "segments": []}',
         '{"id": "b", "frame_hop": 0.5, "frames": [[0.25, 1.5]]}'],
        _OUT_OF_RANGE % "b"),
    # Rows and width that, taken from the separators alone, would claim a
    # 20,000 x 20,000 array (3.2 GB) from text of well under 1 MB.
    "wide first row, then narrow rows": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[%s%s]]}' % (_WIDE, "], [0" * 20_000)],
        "line 1: track 'a': frame dimension mismatch or non-numeric value"),
    "wide frame, then narrow sections": (
        ['{"id": "a", "frame_hop": 0.5, "frames": [[%s]], "segments": [%s]}'
         % (_WIDE, ", ".join(['{"start": 0, "features": [0]}'] * 20_000))],
        "{path}: track 'a': segment starts are not strictly increasing"),
}


@pytest.mark.parametrize("block", [None, 16], ids=["default blocks", "16-character blocks"])
@pytest.mark.parametrize("lines, message", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_lines_raise_the_same_error(monkeypatch, tmp_path, block, lines, message):
    """Each line raises its error with little memory, whichever path reads it.

    With 16-character blocks the numpy reader parses a few values at a time;
    with the default, a batch's rows at once.
    """
    if block is not None:
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", block, raising=False)
    path = tmp_path / "cat.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(CatalogError) as caught:
            load_catalog(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == message.format(path=path)
    assert peak < 16_000_000


_FILLER = '{"id": "fill%d", "frame_hop": 0.5, "frames": [[%s], [%s]]}'


def _fillers(count: int, start: int, width: int) -> list[str]:
    """Good layout lines whose frames have the given width."""
    return [_FILLER % (start + i, ", ".join(["0.25"] * width), ", ".join(["0.5"] * width))
            for i in range(count)]


_PLACEMENTS = {  # good lines before and after the hostile ones, and the batch budget
    "first": (0, 6, None),
    "in the middle": (3, 3, None),
    "last": (6, 0, None),
    "across a batch boundary": (3, 3, 2 * len(_fillers(1, 0, 2)[0])),
}


@pytest.mark.parametrize("placement", list(_PLACEMENTS))
@pytest.mark.parametrize("lines, message", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_lines_keep_their_error_among_good_lines(monkeypatch, tmp_path, placement,
                                                         lines, message):
    """Batched with good lines, or cut off from them by a batch boundary, each
    line raises its error; only its line number moves."""
    before, after, budget = _PLACEMENTS[placement]
    if budget is not None:  # about two lines a batch
        monkeypatch.setattr(catalog_module, "_BATCH_TEXT", budget)
    width = re.search(r'"frames": \[\[([^\]]*)', lines[0])
    width = 2 if width is None else width[1].count(",") + 1
    path = tmp_path / "cat.jsonl"
    path.write_text("\n".join(_fillers(before, 0, width) + lines + _fillers(after, before, width))
                    + "\n", encoding="utf-8")
    with pytest.raises(CatalogError) as caught:
        load_catalog(path)
    expected = re.sub(r"^line (\d+):", lambda m: f"line {int(m[1]) + before}:", message)
    assert str(caught.value) == expected.format(path=path)


def _oracle(lines):
    """Tracks as ``json`` reads them: the reference for every reader path."""
    return [catalog_module._parse_record(json.loads(line), lineno)
            for lineno, line in enumerate(lines, start=1)]


def _assert_same_tracks(found, expected):
    assert [t.id for t in found] == [t.id for t in expected]
    for got, want in zip(found, expected):
        assert got.frame_hop == want.frame_hop and type(got.frame_hop) is float, got.id
        for name in ("frames", "starts", "sections"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), (got.id, name)
            if a is not None:
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (got.id, name)
                assert a.tobytes() == b.tobytes(), (got.id, name)


_EDGE_TOKENS = [
    "0.0", "1.0", "-0.0", "0", "1", "-0", "12", "-3.25", "1e-4", "0.0001", "1e-04", "1E-4",
    repr(np.nextafter(1e-4, 0.0).item()), repr(np.nextafter(1e-4, 1.0).item()),
    "5e-05", "1e-05", "2.5e-3", "1e0", "0.1e1", "1e+0", "0.5E+1", "9.5e-7",
    "123456789012345678901234567890", "0.1000000000000000055511151231257827",
    "0.999999999999999999", "1.000000000000000001",
]


def _full_precision(rng) -> str:
    return repr(rng.random())


def _token(rng) -> str:
    """A JSON number: mostly I.ddd with 1-17 decimals, else an integer or an edge case."""
    kind = rng.random()
    if kind < 0.08:
        return rng.choice(_EDGE_TOKENS)
    if kind < 0.12:
        return _full_precision(rng)
    places = rng.randrange(18)
    whole = str(rng.randrange(2))
    if places == 0:
        return whole
    return f"{whole}.{rng.randrange(10**places):0{places}d}"


def _rows_text(rng, rows: int, width: int, token=None) -> str:
    token = token or _token
    return "], [".join(", ".join(token(rng) for _ in range(width)) for _ in range(rows))


def _bit(rng) -> str:
    return str(rng.randrange(2))


def _short(rng) -> str:
    return f"0.{rng.randrange(10**6):06d}"


def _long(rng) -> str:
    return f"0.{rng.randrange(10**17):017d}"


def _random_line(rng, index: int, width: int) -> tuple[str, bool]:
    """A line in the writer's layout, and whether its values are all full precision.

    Mixed lines start with a row of short decimals, full-precision ones with a
    row of 17-decimal values: a first row of long values sends a whole line to
    json.
    """
    token = rng.choice([_token] * 8 + [_full_precision, _bit])
    shape = rng.random()
    rows = 1 if shape < 0.15 else rng.randrange(2, 30)
    if shape > 0.97:  # longer than a default block
        rows = rng.randrange(1, 3) * 80_000 // (width * 11)
    first = _rows_text(rng, 1, width, _long if token is _full_precision else _short)
    line = f'{{"id": "t{index}", "frame_hop": {_token(rng)}, "frames": [[{first}'
    if rows > 1:
        line += "], [" + _rows_text(rng, rows - 1, width, token)
    line += "]]"
    if rng.random() < 0.5:
        starts = sorted(rng.sample(range(10**6), rng.randrange(1, 10)))
        entries = [f'{{"start": {s}, "features": [{_rows_text(rng, 1, width, token)}]}}'
                   for s in starts]
        line += ', "segments": [' + ", ".join(entries) + "]"
    return line + "}", token is _full_precision


class _JsonSpy:
    """``json`` as the catalog module sees it, recording what it loads and dumps."""

    def __init__(self):
        self.loaded, self.dumped = [], []

    def loads(self, text):
        self.loaded.append(text)
        return json.loads(text)

    def dumps(self, value):
        self.dumped.append(value)
        return json.dumps(value)

    def __getattr__(self, name):
        return getattr(json, name)


class TestFastPath:
    """Lines in the writer's layout are read by numpy, with json's exact result.

    Most tests shrink the block (``_READ_BLOCK``) so that a batch's rows are
    read a few at a time, and some the batch (``_BATCH_TEXT``) so that a few
    lines are read together.
    """

    @pytest.fixture
    def json_reads(self, monkeypatch):
        """The numbers of the lines read whole by json."""
        reads = []
        parse_line = catalog_module._parse_line

        def record(line, lineno):
            reads.append(lineno)
            return parse_line(line, lineno)

        monkeypatch.setattr(catalog_module, "_parse_line", record)
        return reads

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_lines_match_json(self, monkeypatch, json_reads, seed):
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", [64, 256, 4096, 1024][seed])
        monkeypatch.setattr(catalog_module, "_BATCH_TEXT", [1, 2048, 64 * 1024, 16 * 1024][seed])
        rng = random.Random(seed)
        width = [1, 3, 50, 7][seed]
        generated = [_random_line(rng, index, width) for index in range(150)]
        lines = [line for line, _ in generated]
        _assert_same_tracks(catalog_module._read_tracks(lines), _oracle(lines))
        assert json_reads == [n for n, (_, long) in enumerate(generated, start=1) if long]
        assert len(json_reads) < len(lines) // 2

    @pytest.mark.parametrize("places", range(1, 18))
    def test_every_decimal_count(self, monkeypatch, json_reads, places):
        # Blocks of I.ddd tokens of one length, integer digit 0 or 1: computed
        # by numpy up to 8 decimals, read by the block's json.loads from 9 to 15;
        # lines of longer ones go to json whole.
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", 1024)
        rng = random.Random(places)

        def token(rng):
            return f"{rng.randrange(2)}.{rng.randrange(10**places):0{places}d}"

        lines = [f'{{"id": "t{i}", "frame_hop": 0.5, "frames": [[{_rows_text(rng, 20, 30, token)}]]}}'
                 for i in range(4)]
        _assert_same_tracks(catalog_module._read_tracks(lines), _oracle(lines))
        assert json_reads == ([] if places <= 15 else [1, 2, 3, 4])

    def test_edge_tokens_among_short_decimals(self, monkeypatch, json_reads):
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", 64)
        rng = np.random.default_rng(11)
        lines = []
        for index, edge in enumerate(_EDGE_TOKENS):
            values = [f"0.{v:06d}" for v in rng.integers(0, 10**6, 20)]
            values[10 + index % 10] = edge
            lines.append(f'{{"id": "e{index}", "frame_hop": {edge}, "frames": '
                         f'[[{", ".join(values[:10])}], [{", ".join(values[10:])}]]}}')
        _assert_same_tracks(catalog_module._read_tracks(lines), _oracle(lines))
        assert json_reads == []

    @pytest.mark.parametrize("share", [0.05, 0.5, 1.0])
    def test_odd_tokens_among_short_decimals(self, monkeypatch, json_reads, share):
        # Tokens other than I.ddd with at most 8 decimals, a few in a block or
        # all of it (section rows), are read together exactly as json reads them.
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", 2048)
        rng = random.Random(int(share * 100))
        odd = _EDGE_TOKENS + ["1e400", "-1E+400", "-0", "-0.0", "0.00000000000000000001"]

        def token(rng):
            if rng.random() >= share:
                return _short(rng)
            return rng.choice(odd) if rng.random() < 0.5 else _full_precision(rng)

        lines = []
        for index in range(8):
            frames = _rows_text(rng, 1, 7, _short) + "], [" + _rows_text(rng, 40, 7, token)
            entries = ", ".join(f'{{"start": {s}, "features": [{_rows_text(rng, 1, 7, token)}]}}'
                                for s in range(0, 40, 8))
            lines.append(f'{{"id": "t{index}", "frame_hop": 0.5, "frames": [[{frames}]], '
                         f'"segments": [{entries}]}}')
        _assert_same_tracks(catalog_module._read_tracks(lines), _oracle(lines))
        assert json_reads == []

    @pytest.mark.parametrize("bad", ["01", "1.", ".5", "+1", "1_0", "inf", "nan", "0x1", "1e",
                                     "--1", "1e+", "0.5.5", "1 0", "NaN", "Infinity",
                                     "-Infinity", "true", "null", '"1"', "[1]"])
    def test_odd_tokens_off_the_json_grammar_are_refused(self, bad):
        # float() reads most of these, and json the constants and the last
        # four as other values; the JSON number grammar takes none of them.
        for row in (["5e-05", "-0", bad, "0.25"], ["5e-05", "0.1234567890123456789", bad]):
            assert catalog_module._parse_rows(", ".join(row), len(row)) is None, row
            good = [token if token != bad else "0.5" for token in row]
            values = catalog_module._parse_rows(", ".join(good), len(good))
            assert values.tobytes() == np.array([json.loads(f"[{', '.join(good)}]")]).tobytes()

    @pytest.mark.parametrize("frames", [
        "[[0.1234567890123456],[0.2345678901234567]]",
        "[[0.1234567890123456,0.2345678901234567]]",
        "[[0.1234567890123456, 0.2345678901234567],[0.3456789012345678, 0.4567890123456789]]",
        "[[1, 0], [0,1]]",
        "[[0.5, 1], [0, 0.25], [1e-5, 0.5E1]]",
    ])
    def test_lines_near_the_layout_match_json(self, monkeypatch, frames):
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", 16)
        lines = [_GOOD % 1, '{"id": "a", "frame_hop": 0.5, "frames": %s}' % frames, _GOOD % 3]
        _assert_same_tracks(catalog_module._read_tracks(lines), _oracle(lines))

    def test_writer_output_is_read_without_json(self, monkeypatch, json_reads, tmp_path):
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", 1024)
        spec = SynthSpec(track_count=6, cluster_count=2, dimension=8, strong_dims=2,
                         weak_dims=2, segment_range=(2, 4), frames_per_segment=(20, 30), seed=4)
        segmented = segment_catalog(Catalog.from_tracks(
            Track(id=t.id, frames=np.round(t.frames, 6), frame_hop=t.frame_hop)
            for t in generate_synthetic_catalog(spec)
        ))
        path = tmp_path / "seg.jsonl"
        save_catalog(segmented, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        _assert_same_tracks(list(load_catalog(path)), _oracle(lines))
        assert json_reads == []

    def test_writer_shapes_are_computed_without_json(self, monkeypatch, json_reads, tmp_path):
        # The shapes the writer builds from its digit tables (0.0, 1.0, and
        # values in [1e-4, 1] with 1 to 8 decimals) are the ones the reader
        # computes: json.loads reads each line's frame_hop and nothing else.
        monkeypatch.setattr(catalog_module, "_READ_BLOCK", 512)
        rng = np.random.default_rng(12)

        def table_values(shape):
            places = rng.integers(1, 9, shape)
            values = np.rint(rng.uniform(1e-4, 1.0, shape) * 10.0**places) / 10.0**places
            values.flat[rng.integers(0, values.size, values.size // 10)] = 0.0
            values.flat[rng.integers(0, values.size, values.size // 10)] = 1.0
            return values

        tracks = [Track(id=f"t{i}", frames=table_values((30, 7)), frame_hop=0.25 * (i + 1),
                        starts=np.array([0, 12, 25]), sections=table_values((3, 7)))
                  for i in range(5)]
        spy = _JsonSpy()
        monkeypatch.setattr(catalog_module, "json", spy)
        path = tmp_path / "tables.jsonl"
        save_catalog(Catalog.from_tracks(tracks), path)
        assert spy.dumped == [value for track in tracks for value in (track.id, track.frame_hop)]
        _assert_same_tracks(list(load_catalog(path)), tracks)
        assert spy.loaded == [repr(track.frame_hop) for track in tracks]
        assert json_reads == []

    def test_longer_decimals_in_a_block_go_to_json(self, monkeypatch):
        # A block mixing 1-8, 9-15 and 17 decimals reads as json.loads does;
        # exactly the tokens with more than 8 decimals reach it.
        rng = random.Random(13)
        tokens = [f"{rng.randrange(2)}.{rng.randrange(10**places):0{places}d}"
                  for places in [*range(1, 16), 17] * 6]
        rng.shuffle(tokens)
        spy = _JsonSpy()
        monkeypatch.setattr(catalog_module, "json", spy)
        text = "], [".join(", ".join(tokens[lo : lo + 16]) for lo in range(0, len(tokens), 16))
        values = catalog_module._parse_rows(text, 16)
        assert values.tobytes() == np.array(json.loads(f"[[{text}]]")).tobytes()
        assert spy.loaded == [f"[{','.join(t for t in tokens if len(t) > 10)}]"]

    def test_layout_lines_are_read_without_json_at_any_length(self, json_reads):
        rng = np.random.default_rng(5)
        long_rows = "], [".join(", ".join(f"{v:.6f}" for v in row)
                                for row in rng.uniform(0.0, 1.0, (800, 20)))
        lines = ['{"id": "long%d", "frame_hop": 0.5, "frames": [[%s]]}' % (i, long_rows)
                 for i in range(2)]
        lines[1:1] = [_GOOD % 1, '{"id": "full", "frame_hop": 0.5, "frames": [[%s]]}'
                      % ", ".join(repr(v) for v in rng.uniform(0.0, 1.0, 20).tolist()),
                      '{"frames": [[0.25, 0.5]], "id": "other order"}', _GOOD % 2]
        assert len(lines[0]) > catalog_module._BATCH_TEXT > len(lines[1])
        _assert_same_tracks(catalog_module._read_tracks(lines), _oracle(lines))
        assert json_reads == [3, 4]

    @pytest.mark.parametrize("budget", [1, 300, None], ids=["one line", "a few lines", "default"])
    def test_json_lines_between_batches_keep_their_place(self, monkeypatch, json_reads, budget):
        if budget is not None:
            monkeypatch.setattr(catalog_module, "_BATCH_TEXT", budget)
        rng = random.Random(8)
        lines, by_json = [], []
        for index in range(60):
            kind = rng.randrange(4)
            if kind == 0:  # off the layout
                line, long = '{"frames": [[%s]], "id": "t%d"}' % (
                    _rows_text(rng, 1, 3, _short), index), True
            else:  # in the layout; full precision if long
                line, long = _random_line(rng, index, 3)
            lines.append(line)
            if long:
                by_json.append(index + 1)
        _assert_same_tracks(catalog_module._read_tracks(lines), _oracle(lines))
        assert json_reads == by_json


_HUGE = "1" + "0" * 400  # an integer JSON reads exactly, beyond float range
_LONG_INT = "1" + "0" * 5000  # beyond the digits int() converts from text


@pytest.mark.parametrize("line, fault", [
    ('{"id": "a", "frame_hop": 0.5, "frames": [[0.25, %s]]}' % _HUGE,
     "frame value beyond float range"),
    ('{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], '
     '"segments": [{"start": 0, "features": [0.25, %s]}]}' % _HUGE,
     "segment value beyond float range"),
    ('{"id": "a", "frame_hop": 0.5, "frames": [[0.25, 0.5]], "segments": [{"start": 0, '
     '"features": [0.25, 0.5]}, {"start": 1, "features": [0.25, %s, 0.5]}]}' % _HUGE,
     "segment value beyond float range"),
    ('{"id": "a", "frame_hop": %s, "frames": [[0.25, 0.5]]}' % _HUGE, "invalid 'frame_hop'"),
], ids=["frames", "features", "ragged features", "frame_hop"])
def test_integer_beyond_float_range_is_a_catalog_error(tmp_path, line, fault):
    path = tmp_path / "cat.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CatalogError) as caught:
        load_catalog(path)
    assert str(caught.value) == f"line 1: track 'a': {fault}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length")
@pytest.mark.parametrize("line", [
    '{"id": "a", "frame_hop": 0.5, "frames": [[0.25, %s]]}' % _LONG_INT,
    '{"id": "a", "frame_hop": %s, "frames": [[0.25, 0.5]]}' % _LONG_INT,
], ids=["frames", "frame_hop"])
def test_integer_beyond_the_digit_limit_is_a_catalog_error(tmp_path, line):
    path = tmp_path / "cat.jsonl"
    path.write_text(_GOOD % 1 + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=r"^line 2: invalid JSON: Exceeds the limit \(4300"):
        load_catalog(path)


def test_reader_scratch_is_bounded(tmp_path):
    """Loading one 36,000 x 50 track holds little beyond the text line and the array.

    Reading the line (and its ``strip``) is measured alone first: the reader
    must hold that text, so the bound is on what it needs beyond the line and
    the loaded frames.
    """
    frames = np.round(np.random.default_rng(0).uniform(0.0, 1.0, (36_000, 50)), 6)
    path = tmp_path / "big.jsonl"
    save_catalog(Catalog.from_tracks([Track(id="big", frames=frames)]), path)
    tracemalloc.start()
    try:
        with path.open(encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        del lines
        reading = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        catalog = load_catalog(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(catalog.tracks["big"].frames, frames)
    assert peak - frames.nbytes - reading < 4_000_000


def test_short_lines_scratch_is_bounded(tmp_path):
    """Loading 2,000 short lines holds little beyond the loaded catalog at any time.

    Lines are read a batch at a time, so the scratch is a batch's text and its
    parse, not the file's.
    """
    rng = np.random.default_rng(1)
    tracks = [Track(id=f"t{index:04d}", frames=np.round(rng.uniform(0.0, 1.0, (9, 16)), 6),
                    starts=np.arange(9), sections=np.round(rng.uniform(0.0, 1.0, (9, 16)), 6))
              for index in range(2_000)]
    path = tmp_path / "short.jsonl"
    save_catalog(Catalog.from_tracks(tracks), path)
    del tracks
    tracemalloc.start()
    try:
        catalog = load_catalog(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(catalog) == 2_000 and path.stat().st_size > 5_000_000
    assert peak - held < 1_048_576
