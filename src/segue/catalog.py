"""Track catalog data model, JSON-lines persistence, and training-window construction.

A catalog file is UTF-8 JSON lines, one track per line:

    {"id": "t00", "frame_hop": 0.5, "frames": [[...], ...], "segments": [...]}

``frames`` holds one feature vector per analysis frame; all tracks in a file
share one dimension D and every element must be a finite value in [0, 1].
``segments`` is optional and appears once a catalog has been segmented; each
entry is ``{"start": <first frame index>, "features": [...]}``.

Catalogs are treated as immutable after construction: segmentation and
standardization build new ``Catalog`` objects rather than mutating in place.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

# Floor applied to per-dimension standard deviations when mapping between the
# original [0, 1] feature space and standardized space.
STD_FLOOR = 1e-8


class CatalogError(ValueError):
    """A catalog file or catalog contents violate the format contract."""


@dataclass(frozen=True)
class StandardizationStats:
    """Per-dimension mean and population standard deviation of segment vectors."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Map original-space vectors to z-scores, flooring tiny deviations."""
        return (values - self.mean) / np.maximum(self.std, STD_FLOOR)

    def invert(self, values: np.ndarray) -> np.ndarray:
        """Map z-scored vectors back to the original space."""
        return self.mean + np.maximum(self.std, STD_FLOOR) * values


@dataclass(frozen=True)
class Segment:
    """One structural section of a track.

    ``start`` is the index of the section's first frame; ``features`` is the
    aggregated feature vector for the section.
    """

    start: int
    features: np.ndarray


@dataclass
class Track:
    """A track: per-frame feature matrix plus, once segmented, section features."""

    id: str
    frames: np.ndarray  # (T, D) float64, time-ordered
    frame_hop: float = 1.0  # seconds per frame, metadata only
    segments: list[Segment] = field(default_factory=list)

    @property
    def is_segmented(self) -> bool:
        return len(self.segments) > 0

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    def segment_matrix(self) -> np.ndarray:
        """Stack segment feature vectors into a (k, D) matrix."""
        if not self.is_segmented:
            raise CatalogError(f"track '{self.id}' is not segmented")
        return np.stack([seg.features for seg in self.segments])

    def start_segment(self) -> np.ndarray:
        """Feature vector of the track's first section."""
        if not self.is_segmented:
            raise CatalogError(f"track '{self.id}' is not segmented")
        return self.segments[0].features


@dataclass
class Catalog:
    """An id-keyed collection of tracks sharing one feature dimension."""

    dimension: int
    tracks: dict[str, Track]
    stats: StandardizationStats | None = None  # set when segment vectors are z-scores

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

    @property
    def standardized(self) -> bool:
        return self.stats is not None

    def to_original_space(self, values: np.ndarray) -> np.ndarray:
        """Map vectors from this catalog's segment-feature space back to [0, 1]
        (the identity for an unstandardized catalog)."""
        return values if self.stats is None else self.stats.invert(values)

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
    previous = -1
    for seg in track.segments:
        if not isinstance(seg.start, int) or seg.start < 0 or seg.start >= track.num_frames:
            raise CatalogError(
                f"track '{track.id}': segment start {seg.start} outside frame range"
            )
        if seg.start <= previous:
            raise CatalogError(f"track '{track.id}': segment starts are not strictly increasing")
        previous = seg.start
        if seg.features.shape != (dimension,):
            raise CatalogError(f"track '{track.id}': segment feature dimension mismatch")
        if not np.isfinite(seg.features).all():
            raise CatalogError(f"track '{track.id}': non-finite segment element")
        if (seg.features < 0.0).any() or (seg.features > 1.0).any():
            raise CatalogError(f"track '{track.id}': segment element outside [0, 1]")


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
    raw_frames = record.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise CatalogError(f"line {lineno}: track '{track_id}': missing or empty 'frames'")
    try:
        frames = np.asarray(raw_frames, dtype=np.float64)
    except (TypeError, ValueError):
        raise CatalogError(
            f"line {lineno}: track '{track_id}': frame dimension mismatch or non-numeric value"
        ) from None
    if frames.ndim != 2:
        raise CatalogError(f"line {lineno}: track '{track_id}': frame dimension mismatch")
    frame_hop = record.get("frame_hop", 1.0)
    if not isinstance(frame_hop, (int, float)) or not np.isfinite(frame_hop):
        raise CatalogError(f"line {lineno}: track '{track_id}': invalid 'frame_hop'")
    segments: list[Segment] = []
    raw_segments = record.get("segments", [])
    if not isinstance(raw_segments, list):
        raise CatalogError(f"line {lineno}: track '{track_id}': invalid 'segments'")
    for entry in raw_segments:
        if not isinstance(entry, dict) or "start" not in entry or "features" not in entry:
            raise CatalogError(f"line {lineno}: track '{track_id}': malformed segment entry")
        try:
            features = np.asarray(entry["features"], dtype=np.float64)
        except (TypeError, ValueError):
            raise CatalogError(
                f"line {lineno}: track '{track_id}': non-numeric segment features"
            ) from None
        start = entry["start"]
        if not isinstance(start, int):
            raise CatalogError(f"line {lineno}: track '{track_id}': segment start must be an integer")
        segments.append(Segment(start=start, features=features))
    try:
        return Track(id=track_id, frames=frames, frame_hop=float(frame_hop), segments=segments)
    except CatalogError as exc:
        raise CatalogError(f"line {lineno}: {exc}") from None


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog as JSON lines; loading the result reproduces the catalog."""
    if catalog.standardized:
        raise CatalogError(
            "standardized catalogs are in-memory only and cannot be saved; "
            "persist the original catalog and re-standardize at use"
        )
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for track in catalog:
            record: dict = {
                "id": track.id,
                "frame_hop": track.frame_hop,
                "frames": track.frames.tolist(),
            }
            if track.is_segmented:
                record["segments"] = [
                    {"start": seg.start, "features": seg.features.tolist()}
                    for seg in track.segments
                ]
            handle.write(json.dumps(record) + "\n")


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
        vectors = track.segment_matrix()
        count = vectors.shape[0]
        for target_index in range(1, count):
            lo = max(0, target_index - context_length)
            filled = target_index - lo
            window = np.zeros((context_length, catalog.dimension))
            mask = np.zeros(context_length, dtype=bool)
            window[context_length - filled :] = vectors[lo:target_index]
            mask[context_length - filled :] = True
            pairs.append(TrainingPair(window=window, mask=mask, target=vectors[target_index]))
    return pairs
