"""Shared builders for catalog and track fixtures."""

from __future__ import annotations

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
