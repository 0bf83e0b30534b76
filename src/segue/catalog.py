"""Track catalog data model, JSON-lines persistence, and training-window construction.

A catalog file is UTF-8 JSON lines, one track per line:

    {"id": "t00", "frame_hop": 0.5, "frames": [[...], ...], "segments": [...]}

``frames`` holds one feature vector per analysis frame; all tracks in a file
share one dimension D and every element must be a finite value in [0, 1].
``segments`` is optional and appears once a catalog has been segmented; each
entry is ``{"start": <first frame index>, "features": [...]}``. In memory a
segmented track holds them as two arrays, ``starts`` (S,) and ``sections``
(S, D), validated whole; ``Track.segments`` is a read-only row view of them.

``save_catalog`` writes each record as exactly the text ``json.dumps`` gives
for it, streamed to the file. Number arrays whose values are short decimals
(+0.0, or in [1e-4, 1] with at most 15 decimals, as tag probabilities are) are
formatted in numpy a block of rows at a time; every other array goes through
``json.dumps``. Which path ran never shows in the file.

Catalogs are treated as immutable after construction: segmentation builds a
new ``Catalog`` rather than mutating one in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np


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
        """Build a catalog from tracks, validating ids, dimensions, and value range."""
        table: dict[str, Track] = {}
        dimension: int | None = None
        for track in tracks:
            if track.id in table:
                raise CatalogError(f"duplicate track id '{track.id}'")
            if track.frames.ndim != 2 or track.frames.shape[0] < 1:
                raise CatalogError(f"track '{track.id}': frames must be a non-empty 2-D matrix")
            if dimension is None:
                dimension = track.frames.shape[1]
            elif track.frames.shape[1] != dimension:
                raise CatalogError(
                    f"track '{track.id}': dimension {track.frames.shape[1]} does not match "
                    f"catalog dimension {dimension}"
                )
            if not np.isfinite(track.frames).all():
                raise CatalogError(f"track '{track.id}': non-finite frame element")
            if (track.frames < 0.0).any() or (track.frames > 1.0).any():
                raise CatalogError(f"track '{track.id}': frame element outside [0, 1]")
            _validate_segments(track, dimension)
            table[track.id] = track
        if dimension is None:
            raise CatalogError("catalog has no tracks")
        return cls(dimension=dimension, tracks=table)


def _validate_segments(track: Track, dimension: int) -> None:
    """Check a track's section arrays whole; of its bad starts, the first is named."""
    starts, sections = track.starts, track.sections
    if starts is None and sections is None:
        return
    if not (isinstance(starts, np.ndarray) and starts.ndim == 1 and starts.size
            and starts.dtype.kind in "iu"):
        raise CatalogError(f"track '{track.id}': segment starts must be a non-empty integer vector")
    outside = (starts < 0) | (starts >= track.num_frames)
    bad = outside | np.concatenate(([False], starts[1:] <= starts[:-1]))
    if bad.any():
        first = int(bad.argmax())
        if outside[first]:
            raise CatalogError(
                f"track '{track.id}': segment start {starts[first]} outside frame range"
            )
        raise CatalogError(f"track '{track.id}': segment starts are not strictly increasing")
    if not isinstance(sections, np.ndarray) or sections.shape != (starts.size, dimension):
        raise CatalogError(f"track '{track.id}': segment feature dimension mismatch")
    if not np.isfinite(sections).all():
        raise CatalogError(f"track '{track.id}': non-finite segment element")
    if (sections < 0.0).any() or (sections > 1.0).any():
        raise CatalogError(f"track '{track.id}': segment element outside [0, 1]")


def _is_int(value: object) -> bool:
    """An integer that is not a bool (JSON ``true`` loads as a Python int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_catalog(path: str | Path) -> Catalog:
    """Read a JSON-lines catalog file, validating every record.

    Raises ``CatalogError`` naming the offending line and track for malformed
    JSON, dimension mismatches, out-of-range values, or duplicate ids.
    """
    path = Path(path)
    tracks: list[Track] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"line {lineno}: invalid JSON: {exc}") from None
            tracks.append(_parse_record(record, lineno))
    if not tracks:
        raise CatalogError(f"{path}: catalog file contains no tracks")
    try:
        return Catalog.from_tracks(tracks)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from None


def _parse_record(record: object, lineno: int) -> Track:
    if not isinstance(record, dict):
        raise CatalogError(f"line {lineno}: record is not a JSON object")
    track_id = record.get("id")
    if not isinstance(track_id, str) or not track_id:
        raise CatalogError(f"line {lineno}: missing or invalid 'id'")
    where = f"line {lineno}: track '{track_id}'"
    raw_frames = record.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise CatalogError(f"{where}: missing or empty 'frames'")
    try:
        frames = np.asarray(raw_frames, dtype=np.float64)
    except (TypeError, ValueError):
        raise CatalogError(f"{where}: frame dimension mismatch or non-numeric value") from None
    if frames.ndim != 2:
        raise CatalogError(f"{where}: frame dimension mismatch")
    frame_hop = record.get("frame_hop", 1.0)
    if not (_is_int(frame_hop) or isinstance(frame_hop, float)) or not np.isfinite(frame_hop):
        raise CatalogError(f"{where}: invalid 'frame_hop'")
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
        try:
            sections = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):
            for row in rows:
                try:
                    np.asarray(row, dtype=np.float64)
                except (TypeError, ValueError):
                    raise CatalogError(f"{where}: non-numeric segment features") from None
            # Numeric rows of different lengths make no matrix; validation refuses the track.
    return Track(id=track_id, frames=frames, frame_hop=float(frame_hop), starts=starts,
                 sections=sections)


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog as JSON lines; loading the result reproduces the catalog.

    The tracks are validated as ``load_catalog`` validates them before the file
    is opened, so a catalog that would not load raises ``CatalogError`` naming
    the track and nothing is written.
    """
    Catalog.from_tracks(catalog)
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for track in catalog:
            handle.write(
                f'{{"id": {json.dumps(track.id)}, "frame_hop": {json.dumps(track.frame_hop)}, '
                '"frames": '
            )
            _write_numbers(handle, track.frames)
            if track.is_segmented:
                handle.write(', "segments": [')
                for index, start in enumerate(track.starts.tolist()):
                    handle.write(f'{", " if index else ""}{{"start": {start}, "features": ')
                    _write_numbers(handle, track.sections[index])
                    handle.write("}")
                handle.write("]")
            handle.write("}\n")


# Values per formatted block: bounds the formatter's scratch arrays.
_BLOCK_VALUES = 4096
_ROW_END = np.frombuffer(b"], [", dtype=np.uint8)


def _write_numbers(handle: TextIO, values: np.ndarray) -> None:
    """Write exactly ``json.dumps(values.tolist())``, formatting row blocks in numpy.

    Only float64 vectors and matrices take the numpy path (``_format_block``);
    every other array is written by ``json.dumps`` itself.
    """
    if values.dtype != np.float64 or values.ndim not in (1, 2) or values.size == 0:
        handle.write(json.dumps(values.tolist()))
        return
    rows = values.reshape(1, -1) if values.ndim == 1 else values
    opening, closing = ("[", "]") if values.ndim == 1 else ("[[", "]]")
    step = max(1, _BLOCK_VALUES // rows.shape[1])
    handle.write(opening)
    for lo in range(0, rows.shape[0], step):
        if lo:
            handle.write("], [")
        handle.write(_format_block(rows[lo : lo + step]))
    handle.write(closing)


def _has_decimals(x: np.ndarray, places: int) -> bool:
    """Whether every value is the double nearest to some integer / 10**places.

    For places <= 15 both the integer and 10**places are exact doubles, and
    division is correctly rounded, so equality means that decimal text parses
    back to the value.
    """
    scale = 10.0**places
    return bool((np.rint(x * scale) / scale == x).all())


def _format_block(block: np.ndarray) -> str:
    """``json.dumps(block.tolist())`` without its outer ``[[`` and ``]]``.

    When every value is +0.0 or lies in [1e-4, 1] with at most 15 decimals,
    ``repr`` writes it in fixed notation with its fewest decimals. The block's
    digits are then built as a uint8 matrix of one row per value (integer
    digit, point, decimals, separator) and the padding is dropped with one
    boolean mask. Any other block goes through ``json.dumps``.
    """
    x = block.ravel()
    in_range = ((x >= 1e-4) & (x <= 1.0)) | ((x == 0.0) & ~np.signbit(x))
    if not (in_range.all() and _has_decimals(x, 15)):
        return json.dumps(block.tolist())[2:-2]
    # Fewest decimals that hold every value, by bisection (d decimals imply d + 1);
    # per value, the fewest decimals are repr's shortest digits.
    lo, hi = 0, 15
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_decimals(x, mid):
            hi = mid
        else:
            lo = mid + 1
    places = max(lo, 1)  # repr keeps one decimal: "0.0", "1.0"
    scaled = np.rint(x * 10.0**places).astype(np.int32 if places <= 9 else np.int64)
    sep = places + 2  # first separator column
    text = np.empty((x.size, sep + 4), dtype=np.uint8)
    keep = np.zeros(text.shape, dtype=bool)
    nonzero_after = np.zeros(x.size, dtype=bool)
    for col in range(sep - 1, 1, -1):  # decimals, last first
        quotient = scaled // 10
        digit = scaled - quotient * 10
        scaled = quotient
        text[:, col] = digit + ord("0")
        nonzero_after |= digit != 0
        keep[:, col] = nonzero_after  # trailing zeros are dropped
    text[:, 0] = scaled + ord("0")  # the integer digit, 0 or 1
    text[:, 1] = ord(".")
    text[:, sep] = ord(",")
    text[:, sep + 1] = ord(" ")
    for col in (0, 1, 2, sep, sep + 1):
        keep[:, col] = True
    width = block.shape[1]
    text[width - 1 :: width, sep:] = _ROW_END
    keep[width - 1 :: width, sep:] = True
    keep[-1, sep:] = False
    return text[keep].tobytes().decode("ascii")


class TrainingPair(NamedTuple):
    """One supervised example: a context window of segment vectors and its successor.

    ``window`` is (N, D) with all-zero rows where ``mask`` is False (left
    padding); ``target`` is the segment vector immediately after the window.
    """

    window: np.ndarray
    mask: np.ndarray
    target: np.ndarray


def build_training_sequences(catalog: Catalog, context_length: int) -> list[TrainingPair]:
    """Enumerate every within-track transition as a (window, mask, target) pair.

    Windows never cross track boundaries: a track with k segments contributes
    max(0, k - 1) pairs, one per consecutive-segment transition, with windows
    shorter than ``context_length`` left-padded by all-zero vectors that the
    mask excludes.
    """
    if context_length < 1:
        raise ValueError("context_length must be >= 1")
    if len(catalog) == 0:
        raise CatalogError("catalog has no tracks")
    if not catalog.is_segmented:
        raise CatalogError("catalog is not segmented")
    pairs: list[TrainingPair] = []
    for track in catalog:
        vectors = track.sections
        for target in range(1, len(vectors)):
            filled = min(target, context_length)
            window = np.zeros((context_length, catalog.dimension))
            mask = np.zeros(context_length, dtype=bool)
            window[context_length - filled :] = vectors[target - filled : target]
            mask[context_length - filled :] = True
            pairs.append(TrainingPair(window=window, mask=mask, target=vectors[target]))
    return pairs
