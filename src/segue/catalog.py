"""Track catalog data model, JSON-lines persistence, and training-window construction.

A catalog file is UTF-8 JSON lines, one track per line:

    {"id": "t00", "frame_hop": 0.5, "frames": [[...], ...], "segments": [...]}

``frames`` holds one feature vector per analysis frame; all tracks in a file
share one dimension D and every element must be a finite value in [0, 1].
``segments`` is optional and appears once a catalog has been segmented; each
entry is ``{"start": <first frame index>, "features": [...]}``. In memory a
segmented track holds them as two arrays, ``starts`` (S,) and ``sections``
(S, D); ``Track.segments`` is a read-only row view of them.

``save_catalog`` writes each record as exactly the text ``json.dumps`` gives
for it, streamed to the file as bytes (the text is ASCII: ``json.dumps``
escapes ids), and the file replaces the target only once it is complete.
Number arrays of short decimals (+0.0, or in [1e-4, 1] with at most 8
decimals, as tag probabilities are) are formatted in numpy a block of rows at
a time from tables of digit words; values below 1e-4 and -0.0 among them are
written by ``repr``. Every other array goes through ``json.dumps``. Which path
ran never shows in the file.

``load_catalog`` takes lines in the writer's layout (the keys above in that
order, ``json.dumps`` separators, an id without escapes) apart without
``json``, whatever their length. Consecutive such lines are gathered into
batches of about ``_BATCH_TEXT`` (128 KiB) of text, a longer line being a
batch of its own.
A batch's frame rows, then its section rows, are parsed into one array, in
blocks of whole rows of at most 64 KiB of text tokenised as bytes in numpy, and
each track holds row views of it. A token ``I.ddd`` (I is 0 or 1, 1 to 8
decimals, the shape the writer builds) is computed exactly in numpy. A block's
other tokens, longer decimals among them, whose bytes must all be ones a
number holds (digits, signs, points, exponents), are read by ``json`` itself,
in one ``json.loads``, which refuses any that is not a JSON number;
``frame_hop`` is read by ``json.loads`` too. Lines in any other layout, a line
whose first frame holds longer values on average (full precision, which
``json`` reads as fast), and every line of a batch whose text fails a check
are read by ``json.loads``, one at a time in file order.
Which path ran never shows in the result: the tracks and every error are the
same. ``Catalog.from_tracks`` then walks the tracks once, in order, and
raises the first fault, naming its track. Values are checked once per array
that the tracks' rows live in; a track's own values only when that array
fails, so a bad value is blamed on the first track that holds it.

Catalogs are treated as immutable after construction: segmentation builds a
new ``Catalog`` rather than mutating one in place.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .files import atomic_output

if TYPE_CHECKING:
    from .features import StandardizationStats


class CatalogError(ValueError):
    """A catalog file or catalog contents violate the format contract."""


class Segment(NamedTuple):
    """One row of ``Track.segments``: a section's first frame and its feature vector."""

    start: int
    features: np.ndarray


@dataclass
class Track:
    """A track: per-frame feature matrix plus, once segmented, one array row per section."""

    id: str
    frames: np.ndarray  # (T, D) float64, time-ordered
    frame_hop: float = 1.0  # seconds per frame, metadata only
    starts: np.ndarray | None = None  # (S,) int64 first frame of each section, increasing
    sections: np.ndarray | None = None  # (S, D) float64 section feature vectors

    @property
    def is_segmented(self) -> bool:
        return self.sections is not None

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def segments(self) -> list[Segment]:
        """The sections as ``(start, features)`` rows; empty until segmented."""
        if not self.is_segmented:
            return []
        return [Segment(*row) for row in zip(self.starts.tolist(), self.sections)]


@dataclass
class Catalog:
    """An id-keyed collection of tracks sharing one feature dimension."""

    dimension: int
    tracks: dict[str, Track]

    def __len__(self) -> int:
        return len(self.tracks)

    def __iter__(self) -> Iterator[Track]:
        return iter(self.tracks.values())

    def __contains__(self, track_id: str) -> bool:
        return track_id in self.tracks

    @property
    def track_ids(self) -> list[str]:
        return list(self.tracks)

    @property
    def is_segmented(self) -> bool:
        return len(self.tracks) > 0 and all(t.is_segmented for t in self)

    @classmethod
    def from_tracks(cls, tracks: Iterable[Track]) -> "Catalog":
        """Build a catalog from tracks, validating ids, frame hops, dimensions, and values.

        One walk over the tracks, in order, raises the first fault it finds,
        naming the track; it needs no second pass, so ``tracks`` may be a
        stream. Values are checked through the array that holds them
        (``_holder``), once per such array; only a track whose holder fails
        has its own values checked (``_check_values``), so a bad value is
        blamed on the first track that holds it.
        """
        table: dict[str, Track] = {}
        verdicts: dict[int, tuple[np.ndarray, bool]] = {}
        dimension = None
        for track in tracks:
            bad = _bad_header(track.id, track.frame_hop)
            if bad:
                raise CatalogError(f"track {track.id!r}: {bad}")
            if track.id in table:
                raise CatalogError(f"duplicate track id '{track.id}'")
            frames = track.frames
            if not isinstance(frames, np.ndarray) or frames.ndim != 2 or frames.size == 0:
                raise CatalogError(f"track '{track.id}': frames must be a non-empty 2-D matrix")
            if dimension is None:
                dimension = frames.shape[1]
            elif frames.shape[1] != dimension:
                raise CatalogError(
                    f"track '{track.id}': dimension {frames.shape[1]} does not match "
                    f"catalog dimension {dimension}"
                )
            _check_values(track.id, frames, "frame", verdicts)
            _validate_segments(track, dimension, verdicts)
            table[track.id] = track
        if dimension is None:
            raise CatalogError("catalog has no tracks")
        return cls(dimension=dimension, tracks=table)


def _holder(array: np.ndarray) -> np.ndarray:
    """An array that holds every value of ``array``: its base, or itself.

    A view's values are among its base's when both have the same dtype at
    aligned addresses and the base is one contiguous block, as the reader's
    batch arrays are.
    """
    base = array.base
    if (isinstance(base, np.ndarray) and base.dtype == array.dtype and base.flags.c_contiguous
            and base.flags.aligned and array.flags.aligned):
        return base
    return array


def _check_values(track_id: str, values: np.ndarray, kind: str,
                  verdicts: dict[int, tuple[np.ndarray, bool]]) -> None:
    """Refuse a non-finite ``values`` element, or one outside [0, 1].

    The float64 array that holds them (``_holder``) is checked once, its
    verdict kept in ``verdicts`` by id beside the array itself. Only when it
    fails, or holds another dtype, are ``values`` checked on their own.
    """
    holder = _holder(values)
    verdict = verdicts.get(id(holder))
    if verdict is None:
        # min and max are NaN when any value is, so this also checks finiteness.
        valid = holder.dtype == np.float64 and holder.min() >= 0.0 and holder.max() <= 1.0
        verdict = verdicts[id(holder)] = holder, valid
    if verdict[1]:
        return
    if not np.isfinite(values).all():
        raise CatalogError(f"track '{track_id}': non-finite {kind} element")
    if (values < 0.0).any() or (values > 1.0).any():
        raise CatalogError(f"track '{track_id}': {kind} element outside [0, 1]")


def _validate_segments(track: Track, dimension: int,
                       verdicts: dict[int, tuple[np.ndarray, bool]]) -> None:
    """Check a track's section arrays; of its bad starts, the first is named."""
    starts, sections = track.starts, track.sections
    if starts is None and sections is None:
        return
    if not (isinstance(starts, np.ndarray) and starts.ndim == 1 and starts.size
            and starts.dtype.kind in "iu"):
        raise CatalogError(f"track '{track.id}': segment starts must be a non-empty integer vector")
    listed = starts.tolist()
    if listed != sorted(set(listed)) or listed[0] < 0 or listed[-1] >= track.num_frames:
        outside = (starts < 0) | (starts >= track.num_frames)
        first = int((outside | np.concatenate(([False], starts[1:] <= starts[:-1]))).argmax())
        if outside[first]:
            raise CatalogError(
                f"track '{track.id}': segment start {starts[first]} outside frame range"
            )
        raise CatalogError(f"track '{track.id}': segment starts are not strictly increasing")
    if not isinstance(sections, np.ndarray) or sections.shape != (starts.size, dimension):
        raise CatalogError(f"track '{track.id}': segment feature dimension mismatch")
    _check_values(track.id, sections, "segment", verdicts)


def _is_int(value: object) -> bool:
    """An integer that is not a bool (JSON ``true`` loads as a Python int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


_BAD_ID = "missing or invalid 'id'"


def _bad_header(track_id: object, frame_hop: object) -> str | None:
    """What ``load_catalog`` refuses in a track's id or frame hop; None if both are valid.

    An id is a non-empty string; a frame hop is a finite float or a non-bool
    integer within float range.
    """
    if not isinstance(track_id, str) or not track_id:
        return _BAD_ID
    try:
        valid = (_is_int(frame_hop) or isinstance(frame_hop, float)) and math.isfinite(frame_hop)
    except OverflowError:  # an integer beyond float range
        valid = False
    return None if valid else "invalid 'frame_hop'"


def load_catalog(path: str | Path) -> Catalog:
    """Read a JSON-lines catalog file, validating every record.

    Lines in the writer's layout are parsed in numpy in batches of about
    ``_BATCH_TEXT`` characters, any other line by ``json`` (``_read_tracks``);
    which path read a line never shows in the result. Raises ``CatalogError``
    naming the offending line and track for malformed JSON, dimension
    mismatches, out-of-range values, or duplicate ids.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        tracks = _read_tracks(handle)
    if not tracks:
        raise CatalogError(f"{path}: catalog file contains no tracks")
    try:
        return Catalog.from_tracks(tracks)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from None


def _read_tracks(lines: Iterable[str]) -> list[Track]:
    """One track per non-blank line, in file order.

    Consecutive lines in the writer's layout (``_split_layout``) of one frame
    width are gathered into batches of about ``_BATCH_TEXT`` characters and
    read together by ``_read_batch``; a longer line is a batch of its own.
    Every other line is read by ``json`` (``_parse_line``) after the pending
    batch, and so is each line of a batch that does not parse, so the tracks
    keep the file's order and every error is the one ``json`` and
    ``_parse_record`` raise.
    """
    tracks: list[Track] = []
    batch: list[_Layout] = []
    size = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        layout = _split_layout(line, lineno)
        if batch and (layout is None or layout.width != batch[0].width
                      or size + len(line) > _BATCH_TEXT):
            tracks += _read_batch(batch)
            batch, size = [], 0
        if layout is None:
            tracks.append(_parse_line(line, lineno))
        else:
            batch.append(layout)
            size += len(line)
    return tracks + _read_batch(batch)


def _parse_line(line: str, lineno: int) -> Track:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # malformed, too deep, or past the int digit limit
        raise CatalogError(f"line {lineno}: invalid JSON: {exc}") from None
    return _parse_record(record, lineno, booleans="true" in line or "false" in line)


def _holds_bool(values: list) -> bool:
    """Whether JSON ``true`` or ``false`` is among the values or their rows' values."""
    return any(value is True or value is False
               or (isinstance(value, list) and any(v is True or v is False for v in value))
               for value in values)


def _parse_record(record: object, lineno: int, booleans: bool = True) -> Track:
    """The track of one decoded line.

    ``booleans`` says whether the line may hold JSON ``true`` or ``false``,
    which numpy would read as numbers; only then are the number arrays scanned
    for them.
    """
    if not isinstance(record, dict):
        raise CatalogError(f"line {lineno}: record is not a JSON object")
    track_id = record.get("id")
    frame_hop = record.get("frame_hop", 1.0)
    bad = _bad_header(track_id, frame_hop)
    if bad == _BAD_ID:
        raise CatalogError(f"line {lineno}: {bad}")
    where = f"line {lineno}: track '{track_id}'"
    raw_frames = record.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise CatalogError(f"{where}: missing or empty 'frames'")
    if booleans and _holds_bool(raw_frames):
        raise CatalogError(f"{where}: frame dimension mismatch or non-numeric value")
    try:
        frames = np.asarray(raw_frames, dtype=np.float64)
    except (TypeError, ValueError):
        raise CatalogError(f"{where}: frame dimension mismatch or non-numeric value") from None
    except OverflowError:
        raise CatalogError(f"{where}: frame value beyond float range") from None
    if frames.ndim != 2:
        raise CatalogError(f"{where}: frame dimension mismatch")
    if bad:
        raise CatalogError(f"{where}: {bad}")
    raw_segments = record.get("segments", [])
    if not isinstance(raw_segments, list):
        raise CatalogError(f"{where}: invalid 'segments'")
    starts = sections = None
    if raw_segments:
        for entry in raw_segments:
            if not isinstance(entry, dict) or "start" not in entry or "features" not in entry:
                raise CatalogError(f"{where}: malformed segment entry")
            if not _is_int(entry["start"]):
                raise CatalogError(f"{where}: segment start must be an integer")
        try:
            starts = np.asarray([entry["start"] for entry in raw_segments], dtype=np.int64)
        except OverflowError:
            raise CatalogError(f"{where}: segment start outside frame range") from None
        rows = [entry["features"] for entry in raw_segments]
        if booleans and _holds_bool(rows):
            raise CatalogError(f"{where}: non-numeric segment features")
        try:
            sections = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            for row in rows:
                try:
                    np.asarray(row, dtype=np.float64)
                except (TypeError, ValueError):
                    raise CatalogError(f"{where}: non-numeric segment features") from None
                except OverflowError:
                    raise CatalogError(f"{where}: segment value beyond float range") from None
            # Numeric rows of different lengths make no matrix; validation refuses the track.
    return Track(id=track_id, frames=frames, frame_hop=float(frame_hop), starts=starts,
                 sections=sections)


# Characters of row text per parsed block: one block's scratch arrays stay below
# glibc's 128 KiB mmap threshold, as segmentation's blocks do.
_READ_BLOCK = 64 * 1024
# Characters of line text per batch of layout lines: enough lines that numpy's
# per-call costs are shared. Loads were as fast at 256 KiB, but a batch's text
# and scratch then left more free heap between the arrays that tracks hold.
_BATCH_TEXT = 128 * 1024
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"  # JSON's number grammar
_HEAD = re.compile(
    r'\{"id": "([^"\\\x00-\x1f]+)", "frame_hop": (' + _NUMBER + r'), "frames": \[\['
)
_SEGMENTS = ']], "segments": [{"start": '  # the end of the frames, then the segments
_NEXT_SEGMENT = ']}, {"start": '
_FEATURES = ', "features": ['
_STARTS = re.compile(r"(?:0|[1-9][0-9]{0,17})(?: (?:0|[1-9][0-9]{0,17}))*")  # fit int64
_PAD = bytes(9)  # room for the 8-byte read at 2 bytes into the last token
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # low k bytes
_NUMBER_BYTE = np.zeros(256, dtype=bool)  # the bytes of a number's text besides digits
_NUMBER_BYTE[list(b"+-.Ee")] = True


class _Layout(NamedTuple):
    """A line in the writer's layout, cut into the text of its parts."""

    line: str
    lineno: int
    track_id: str
    frame_hop: float
    width: int  # values in the first frame row
    frames: slice  # where the frame rows, joined by "], [", lie in the line
    starts: str | None  # section starts joined by " "
    sections: list[str] | None  # the text of each section's features


def _split_layout(line: str, lineno: int) -> _Layout | None:
    """The parts of a line in ``save_catalog``'s layout; None for any other line.

    The layout is ``{"id": ..., "frame_hop": ..., "frames": [[...]]}``, optionally
    with ``"segments": [{"start": ..., "features": [...]}, ...]`` before the
    closing brace, all with ``json.dumps`` separators and an id without escapes.
    A line whose first frame row averages more than 19 characters a value (full
    precision, which ``json`` reads as fast) is not taken either. The number
    text is only cut out here; ``_read_batch`` parses it.
    """
    head = _HEAD.match(line)
    if head is None:
        return None
    try:
        frame_hop = float(json.loads(head[2]))
    except (OverflowError, ValueError):  # beyond float range, or beyond int's digit limit
        return None
    if not math.isfinite(frame_hop):
        return None
    # Where the frames end is only found here; text that is not number rows
    # up to that point fails to parse later.
    close = line.find(_SEGMENTS, head.end())
    starts = sections = None
    if close >= 0:
        if not line.endswith("]}]}"):
            return None
        entries = line[close + len(_SEGMENTS) : -4].split(_NEXT_SEGMENT)
        entries = [entry.partition(_FEATURES) for entry in entries]
        starts = " ".join(start for start, _, _ in entries)
        sections = [row for _, _, row in entries]
        if _STARTS.fullmatch(starts) is None or starts.count(" ") != len(sections) - 1:
            return None
    elif line.endswith("]]}"):
        close = len(line) - 3
    else:
        return None
    first_row = line.find("], [", head.end(), close)
    first_row = close if first_row < 0 else first_row
    width = line.count(", ", head.end(), first_row) + 1
    if first_row - head.end() + 2 > 19 * width:  # full precision: ``json`` reads it as fast
        return None
    return _Layout(line, lineno, head[1], frame_hop, width, slice(head.end(), close), starts,
                   sections)


def _read_batch(batch: list[_Layout]) -> list[Track]:
    """The tracks of consecutive layout lines of one width, their numbers parsed together.

    The frame rows of every line, then the section rows, are parsed into one
    array, of which each track holds row views. If any of the text does not
    parse, every line of the batch is read by ``json`` instead.
    """
    if not batch:
        return []
    counts = [layout.line.count("], [", layout.frames.start, layout.frames.stop) + 1
              for layout in batch]
    segmented = [layout for layout in batch if layout.starts is not None]
    rows = [(row, slice(0, len(row))) for layout in segmented for row in layout.sections]
    total = sum(counts)
    values = _parse_arrays([[(layout.line, layout.frames) for layout in batch], rows],
                           [total, len(rows)], batch[0].width)
    if values is None:
        return [_parse_line(layout.line, layout.lineno) for layout in batch]
    frames, sections = values[:total], values[total:]
    if segmented:
        starts = np.array(" ".join(layout.starts for layout in segmented).split(" "),
                          dtype=np.int64)
    tracks = []
    row = section = 0
    for layout, count in zip(batch, counts):
        track = Track(id=layout.track_id, frames=frames[row : row + count],
                      frame_hop=layout.frame_hop)
        row += count
        if layout.sections is not None:
            end = section + len(layout.sections)
            track.starts, track.sections = starts[section:end], sections[section:end]
            section = end
        tracks.append(track)
    return tracks


def _parse_arrays(texts: list[list[tuple[str, slice]]], rows: list[int], width: int
                  ) -> np.ndarray | None:
    """The values of row texts as one ``(sum(rows), width)`` array, text after text.

    Each text is given as pieces ``(text, span)``, whose ``text[span]`` are
    joined by ``"], ["``, and must hold ``rows[i]`` rows; None when one holds
    another number of rows or does not parse. The array is allocated only
    when every text is long enough to hold its rows (one character a value,
    two between values), so no text can claim more memory than its own length
    suggests; and before any text is joined, so that it lies below the
    parser's scratch on the heap. Each text is then parsed a block of whole
    rows at a time, each block at most ``_READ_BLOCK`` characters unless one
    row is longer.
    """
    for pieces, count in zip(texts, rows):
        length = sum(span.stop - span.start for _, span in pieces) + 4 * len(pieces) - 4
        if count and 3 * count * width - 2 > length:
            return None
    array = np.empty((sum(rows), width))
    filled = 0
    for pieces, count in zip(texts, rows):
        if not count:
            continue
        if len(pieces) == 1:  # one piece, as a long line's frames: parsed in place, not copied
            text, span = pieces[0]
        else:
            text = "], [".join(piece[span] for piece, span in pieces)
            span = slice(0, len(text))
        start, end = span.start, span.stop
        limit = filled + count
        while True:
            cut = end if end - start <= _READ_BLOCK else text.rfind("], [", start, start + _READ_BLOCK)
            if cut <= start:  # one row longer than a block, or an empty row
                cut = text.find("], [", start, end)
                cut = end if cut < 0 else cut
            block = _parse_rows(text[start:cut], width)
            if block is None or filled + len(block) > limit:
                return None
            array[filled : filled + len(block)] = block
            filled += len(block)
            if cut == end:
                break
            start = cut + 4
    return array


def _parse_rows(text: str, width: int) -> np.ndarray | None:
    """The ``(rows, width)`` values of row text, exactly as ``json.loads`` reads them.

    ``text`` is number tokens joined by ``", "`` within a row and ``"], ["``
    between rows; any other text gives None. A token ``I.ddd`` (I is 0 or 1,
    1 to 8 decimals, as ``_format_block`` writes them) is read as the integer
    ``Iddd`` scaled to 8 decimals, divided by 1e8: both are exact doubles and
    division rounds correctly, so the value is ``float(token)``. The other
    tokens, longer decimals among them, if no byte of them is one that no
    number holds, are read by ``json.loads`` in one call, which refuses any
    that is not a JSON number.
    """
    raw = text.encode()
    n = len(raw)
    if n != len(text):  # not ASCII
        return None
    buffer = raw + _PAD
    padded = np.frombuffer(buffer, dtype=np.uint8)
    data = padded[:n]
    # Every comma opens ", " or, after "]", "], [": tokens lie between them.
    commas = np.flatnonzero(data == ord(","))
    row_ends = data[commas - 1] == ord("]")
    if not ((padded[commas + 1] == ord(" ")).all()
            and (padded[commas[row_ends] + 2] == ord("[")).all()):
        return None
    starts = np.concatenate(([0], commas + 2 + row_ends))
    ends = np.concatenate((commas - row_ends, [n]))
    lengths = ends - starts
    breaks = np.flatnonzero(row_ends)
    if (lengths.min() < 1 or starts.size % width
            or not np.array_equal(breaks, np.arange(width - 1, starts.size - 1, width))):
        return None
    shape = (starts.size // width, width)
    # Decimal tokens: 0 or 1, a point, then digits only. When the non-digit
    # bytes are just the separators and those points, no token holds another.
    first = data[starts]
    decimal = ((first == ord("0")) | (first == ord("1"))) & (padded[starts + 1] == ord("."))
    decimal &= lengths >= 3
    separator_bytes = 2 * (commas.size + breaks.size)
    non_digit = (data - ord("0")) > 9
    if np.count_nonzero(non_digit) != separator_bytes + np.count_nonzero(decimal):
        for at in (commas, commas + 1, commas[row_ends] - 1, commas[row_ends] + 2,
                   starts[decimal] + 1):
            non_digit[at] = False
        stray = np.flatnonzero(non_digit)
        if not _NUMBER_BYTE[data[stray]].all():  # text that no number holds
            return None
        decimal[np.searchsorted(starts, stray, side="right") - 1] = False
    exact = decimal & (lengths <= 10)
    # The decimals are the 8 bytes at the first decimal; bytes past the token
    # are masked off before the digits are summed. The bytes are gathered as
    # raw 8-byte items: much faster than gathering unaligned integers, and the
    # gathered copy is aligned. Tokens that are not exact get some value here,
    # replaced below.
    words = np.ndarray((n + 2,), dtype="V8", buffer=buffer, strides=(1,))
    digits = (words[starts + 2].view("<u8") - _ZEROS) & _KEEP[np.minimum(lengths - 2, 8)]
    numerators = _eight_digits(digits).view(np.int64)
    numerators += (first == ord("1")) * 10**8
    values = numerators / 1e8
    others = np.flatnonzero(~exact)
    if others.size:
        tokens = ",".join([text[lo:hi] for lo, hi in zip(starts[others].tolist(),
                                                         ends[others].tolist())])
        try:
            values[others] = json.loads(f"[{tokens}]")
        except (OverflowError, ValueError):  # beyond float range; not JSON numbers or too long
            return None
    return values.reshape(shape)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The 8-digit numbers whose digits (0-9) are each word's bytes, first byte first."""
    words = (words * 10 + (words >> 8)) & 0x00FF00FF00FF00FF
    words = (words * 100 + (words >> 16)) & 0x0000FFFF0000FFFF
    return (words * 10000 + (words >> 32)) & 0xFFFFFFFF


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog as JSON lines; loading the result reproduces the catalog.

    The tracks are validated as ``load_catalog`` validates them before the file
    is opened, so a catalog that would not load raises ``CatalogError`` naming
    the track and nothing is written. The file replaces ``path`` only once it
    is complete (``atomic_output``). It is written as bytes: ``json.dumps``
    escapes every non-ASCII character, so the text is ASCII.
    """
    Catalog.from_tracks(catalog)
    with atomic_output(path) as handle:
        for track in catalog:
            handle.write(
                f'{{"id": {json.dumps(track.id)}, "frame_hop": {json.dumps(track.frame_hop)}, '
                '"frames": '.encode()
            )
            _write_numbers(handle, track.frames)
            if track.is_segmented:
                handle.write(b', "segments": [')
                for index, start in enumerate(track.starts.tolist()):
                    handle.write(f'{", " if index else ""}{{"start": {start}, "features": '.encode())
                    _write_numbers(handle, track.sections[index])
                    handle.write(b"}")
                handle.write(b"]")
            handle.write(b"}\n")


# Values per formatted block: bounds the formatter's scratch arrays.
_BLOCK_VALUES = 4096


def _word(text: str) -> int:
    """The little-endian integer whose bytes are ``text``, NUL-padded to 8 bytes."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


def _digit_words(trimmed: bool) -> np.ndarray:
    """The 4-digit ASCII text of 0 to 9,999 as words; trailing zeros NUL if ``trimmed``."""
    digits = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    text = digits + np.uint8(ord("0"))
    if trimmed:  # a digit is a trailing zero when it and every later digit are 0
        text[np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] == 0] = 0
    return text.view("<u4").ravel().astype(np.uint64)


_DIGITS = _digit_words(trimmed=False)
_TRIMMED = _digit_words(trimmed=True)  # 0 is all NUL
# A value's first word, at h = its first four decimals (10,000 for 1.0): "0."
# or "1.", then those decimals. Entry h holds all four (more follow); entry
# 10,001 + h has trailing zeros dropped, keeping one decimal as repr does.
_HEADS = np.concatenate((_DIGITS, _DIGITS[:1], _TRIMMED, _TRIMMED[:1])) << np.uint64(16)
_HEADS |= np.uint64(_word("0."))
_HEADS[[10_000, 10_001, 20_001]] = _word("1.0000"), _word("0.0"), _word("1.0")
# A value's second word: its last four decimals, trailing zeros dropped, then
# ", " (the separator is changed to "], [" at a row end and cut at the end).
_TAILS = _TRIMMED | np.uint64(_word("\0\0\0\0, "))
_ROW_END = np.uint64(_word("\0\0\0\0, ") ^ _word("\0\0\0\0], ["))
_DIGITS_ONLY = np.uint64(0xFFFFFFFF)
_SLOT = np.uint64(_word("%b"))  # where a value written by repr goes


def _write_numbers(handle: BinaryIO, values: np.ndarray) -> None:
    """Write exactly ``json.dumps(values.tolist())`` as bytes, formatting row blocks in numpy.

    Only float64 vectors and matrices take the numpy path (``_format_block``);
    every other array is written by ``json.dumps`` itself.
    """
    if values.dtype != np.float64 or values.ndim not in (1, 2) or values.size == 0:
        handle.write(json.dumps(values.tolist()).encode())
        return
    rows = values.reshape(1, -1) if values.ndim == 1 else values
    opening, closing = (b"[", b"]") if values.ndim == 1 else (b"[[", b"]]")
    step = max(1, _BLOCK_VALUES // rows.shape[1])
    handle.write(opening)
    for lo in range(0, rows.shape[0], step):
        if lo:
            handle.write(b"], [")
        handle.write(_format_block(rows[lo : lo + step]))
    handle.write(closing)


def _decimal_numerators(x: np.ndarray) -> np.ndarray | None:
    """The integers n with each value the double nearest to n / 1e8; else None.

    Both n and 1e8 are exact doubles, and division is correctly rounded, so
    when the check holds that decimal text with 8 decimals parses back to the
    value. The integers are returned as float64.
    """
    scaled = np.rint(x * 1e8)
    return scaled if (scaled / 1e8 == x).all() else None


def _format_block(block: np.ndarray) -> bytes:
    """``json.dumps(block.tolist())`` as bytes, without its outer ``[[`` and ``]]``.

    ``repr`` writes +0.0 and every value in [1e-4, 1] in fixed notation with
    its fewest decimals. When such values have at most 8 decimals, each is
    built as two 8-byte words from the digit tables: ``0.`` or ``1.`` and the
    first four decimals, then the last four and the separator, with NUL for
    each dropped trailing zero; one ``translate`` then deletes the NULs.
    Values below 1e-4 in magnitude, which ``repr`` writes in exponent form,
    and -0.0 are written by ``repr`` and spliced in at their places. A block
    holding any other value goes through ``json.dumps``.
    """
    values = block.ravel()
    # +0.0 is the one value below 1e-4 in magnitude whose bits are all zero.
    odd = np.flatnonzero((np.abs(values) < 1e-4) & (values.view(np.int64) != 0))
    x = values
    if odd.size:
        x = values.copy()
        x[odd] = 0.0
    scaled = _decimal_numerators(x)
    if scaled is None or not (scaled.min() >= 0.0 and scaled.max() <= 1e8):
        return json.dumps(block.tolist())[2:-2].encode()
    numerators = scaled.astype(np.intp)
    high = numerators // 10_000
    low = numerators - 10_000 * high
    words = np.empty((x.size, 2), dtype="<u8")
    words[:, 0] = _HEADS[high + 10_001 * (low == 0)]
    words[:, 1] = _TAILS[low]
    words[block.shape[1] - 1 :: block.shape[1], 1] ^= _ROW_END
    words[-1, 1] &= _DIGITS_ONLY
    words[odd, 0] = _SLOT  # a zero's last four decimals are NUL already
    text = words.tobytes().translate(None, b"\0")
    if not odd.size:
        return text
    return text % tuple(repr(value).encode() for value in values[odd].tolist())


class TrainingPair(NamedTuple):
    """One supervised example: a context window of segment vectors and its successor.

    ``window`` is (N, D) with all-zero rows where ``mask`` is False (left
    padding); ``target`` is the raw segment vector right after the window.
    Windows and masks from ``build_training_sequences`` are read-only views.
    """

    window: np.ndarray
    mask: np.ndarray
    target: np.ndarray


def build_training_sequences(
    catalog: Catalog, context_length: int, stats: StandardizationStats | None = None
) -> list[TrainingPair]:
    """Enumerate every within-track transition as a (window, mask, target) pair.

    Windows never cross track boundaries: a track with k segments gives k - 1
    pairs, whose windows and masks are read-only views of one array per track:
    N-1 zero rows (left padding, which the mask excludes), then its sections,
    z-scored by ``stats`` when given. Targets are always the raw sections.
    """
    if context_length < 1:
        raise ValueError("context_length must be >= 1")
    if len(catalog) == 0:
        raise CatalogError("catalog has no tracks")
    if not catalog.is_segmented:
        raise CatalogError("catalog is not segmented")
    pairs: list[TrainingPair] = []
    pad = context_length - 1
    for track in catalog:
        rows = np.zeros((pad + len(track.sections), catalog.dimension))
        rows[pad:] = track.sections if stats is None else stats.apply(track.sections)
        real = np.arange(len(rows)) >= pad
        rows.flags.writeable = real.flags.writeable = False
        pairs += [TrainingPair(rows[t - 1 : t + pad], real[t - 1 : t + pad], track.sections[t])
                  for t in range(1, len(track.sections))]
    return pairs
