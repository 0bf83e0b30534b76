"""Shared builders for catalog and track fixtures, and hostile playlist values."""

from __future__ import annotations

import math

import numpy as np

from segue.catalog import Catalog, Track, TrainingPair


def segmented_track(track_id: str, vectors: np.ndarray, frames_per_segment: int = 6) -> Track:
    """A track whose segments are set directly; frames repeat each segment vector."""
    vectors = np.asarray(vectors, dtype=np.float64)
    frames = np.repeat(vectors, frames_per_segment, axis=0)
    starts = np.arange(vectors.shape[0]) * frames_per_segment
    return Track(id=track_id, frames=frames, starts=starts, sections=vectors.copy())


def segmented_catalog(vectors_by_id: dict[str, np.ndarray]) -> Catalog:
    """Catalog of directly segmented tracks, insertion order preserved."""
    return Catalog.from_tracks(
        segmented_track(track_id, vectors) for track_id, vectors in vectors_by_id.items()
    )


def padded_pairs(sections: np.ndarray, length: int) -> list[TrainingPair]:
    """One track's pairs, each window zero-filled and copied on its own: the
    reference for ``build_training_sequences``."""
    pairs = []
    for target in range(1, len(sections)):
        filled = min(target, length)
        window = np.zeros((length, sections.shape[1]))
        mask = np.zeros(length, dtype=bool)
        window[length - filled :] = sections[target - filled : target]
        mask[length - filled :] = True
        pairs.append(TrainingPair(window, mask, sections[target]))
    return pairs


def one_hot_block_track(
    track_id: str, block_dims: list[int], block_lengths: list[int], dimension: int
) -> tuple[Track, list[int]]:
    """A track of one-hot constant blocks; returns (track, planted boundary frames)."""
    rows, boundaries, position = [], [], 0
    for dim, length in zip(block_dims, block_lengths):
        block = np.zeros((length, dimension))
        block[:, dim] = 1.0
        rows.append(block)
        if position > 0:
            boundaries.append(position)
        position += length
    return Track(id=track_id, frames=np.vstack(rows)), boundaries


_PREDICTION = "must be a list of finite numbers"

# A value put where ``generate`` writes another in a playlist of 3 tracks and 2
# steps, and the error ``Playlist.from_dict`` raises for it: (where, value, message).
# ``json`` writes math.inf and math.nan as Infinity and NaN.
HOSTILE_PLAYLIST_VALUES = {
    "track id a list": (("tracks", 0), ["t00"], "'tracks' must be a list of non-empty strings"),
    "track id an object": (("tracks", 1), {"a": 1}, "'tracks' must be a list of non-empty strings"),
    "empty track id": (("tracks", 2), "", "'tracks' must be a list of non-empty strings"),
    "null in a prediction": (("steps", 0, "prediction", 0), None, f"step 0: 'prediction' {_PREDICTION}"),
    "Infinity in a prediction": (("steps", 1, "prediction", 2), math.inf,
                                 f"step 1: 'prediction' {_PREDICTION}"),
    "NaN in a prediction": (("steps", 0, "prediction", 1), math.nan,
                            f"step 0: 'prediction' {_PREDICTION}"),
    "true in a prediction": (("steps", 0, "prediction", 1), True, f"step 0: 'prediction' {_PREDICTION}"),
    "ragged prediction": (("steps", 1, "prediction", 0), [0.5, 0.5],
                          f"step 1: 'prediction' {_PREDICTION}"),
    "null score": (("steps", 0, "score"), None, "step 0: 'score' must be a finite number"),
    "true score": (("steps", 1, "score"), True, "step 1: 'score' must be a finite number"),
    "string median score": (("steps", 0, "median_score"), "0.5",
                            "step 0: 'median_score' must be a finite number"),
    "400-digit integer margin": (("steps", 1, "margin"), 10**400,
                                 "step 1: 'margin' must be a finite number"),
    "NaN best cosine distance": (("steps", 0, "best_cosine_distance"), math.nan,
                                 "step 0: 'best_cosine_distance' must be a finite number"),
    "-Infinity best cosine distance": (("steps", 1, "best_cosine_distance"), -math.inf,
                                       "step 1: 'best_cosine_distance' must be a finite number"),
    "chosen id a list": (("steps", 0, "chosen"), ["t01"], "step 0: 'chosen' must be a non-empty string"),
    "number for no_near_neighbour": (("steps", 1, "no_near_neighbour"), 0,
                                     "step 1: 'no_near_neighbour' must be a boolean"),
    "null truncated": (("truncated",), None, "'truncated' must be a boolean"),
    "number for a seed": (("seed",), 3, "'seed' must be a non-empty string"),
    "true DCG depth": (("dcg_depth",), True, "'dcg_depth' must be null or a positive integer"),
    "string DCG depth": (("dcg_depth",), "3", "'dcg_depth' must be null or a positive integer"),
}


def with_value(data: dict, where: tuple, value) -> dict:
    """``data``, a playlist as ``to_dict`` writes it, with ``value`` put at the key path ``where``."""
    *path, last = where
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    return data
