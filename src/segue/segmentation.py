"""Structural segmentation of tracks via checkerboard novelty.

The pipeline per track: correlate a sign-alternating Gaussian-tapered kernel
along the diagonal of the frames' cosine self-similarity to obtain a novelty
curve, pick novelty peaks as section boundaries, and aggregate each section's
frames into one feature vector by arithmetic mean. The kernel is the outer
product of one tapered sign line, so each novelty value is the squared norm of
that line's weighted sum of the window's unit frames; the (T, T) similarity
matrix is never built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import Catalog, Segment, Track

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SegmentationParams:
    """Tunables for boundary detection.

    kernel_sigma defaults to kernel_size / 4 when unset; peak_threshold
    defaults to mean + 1 stddev of the novelty curve when unset.
    """

    kernel_size: int = 16
    kernel_sigma: float | None = None
    peak_threshold: float | None = None
    min_segment_length: int = 4

    def __post_init__(self) -> None:
        if self.kernel_size < 2 or self.kernel_size % 2 != 0:
            raise ValueError("kernel_size must be an even integer >= 2")
        if self.kernel_sigma is not None and self.kernel_sigma <= 0:
            raise ValueError("kernel_sigma must be positive")
        if self.peak_threshold is not None and self.peak_threshold < 0:
            raise ValueError("peak_threshold must be >= 0")
        if self.min_segment_length < 1:
            raise ValueError("min_segment_length must be >= 1")

    @property
    def effective_sigma(self) -> float:
        return self.kernel_sigma if self.kernel_sigma is not None else self.kernel_size / 4.0


def _kernel_line(size: int, sigma: float) -> np.ndarray:
    """The tapered sign line whose outer product with itself is the checkerboard kernel."""
    if size < 2 or size % 2 != 0:
        raise ValueError("kernel size must be an even integer >= 2")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    offsets = np.arange(size) - (size - 1) / 2.0
    return np.sign(offsets) * np.exp(-(offsets**2) / (2.0 * sigma**2))


def checkerboard_kernel(size: int, sigma: float) -> np.ndarray:
    """Sign-alternating quadrant kernel with a radial Gaussian taper.

    Entry (u, v) is sign(u - c) * sign(v - c) * exp(-((u-c)^2 + (v-c)^2) / (2 sigma^2))
    with c midway between the two middle indices, so the four quadrants
    alternate sign and the entries sum to zero.
    """
    line = _kernel_line(size, sigma)
    return np.outer(line, line)


def novelty_curve(frames: np.ndarray, params: SegmentationParams) -> np.ndarray:
    """Correlate the checkerboard kernel along the diagonal of the frames' cosine similarity.

    Out-of-range window indices replicate the nearest edge frame, so the curve
    has one value per frame. Similarity follows the cosine convention: a
    zero-norm frame has similarity 1 to itself and 0 to every other frame.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"frames must be a 2-D (T, D) array, got {frames.ndim}-D")
    frame_count = frames.shape[0]
    size = params.kernel_size
    if size > frame_count:
        raise ValueError(
            f"kernel size {size} exceeds frame count {frame_count}"
        )
    norms = np.linalg.norm(frames, axis=1, keepdims=True)
    silent = norms == 0.0
    # Zero frame j gets its own axis j % size: distinct frames in one window
    # differ mod size, so zero frames are orthogonal to all others there.
    own_axis = np.eye(size)[np.arange(frame_count) % size]
    unit = np.hstack([frames / np.where(silent, 1.0, norms), silent * own_axis])
    padded = unit[np.clip(np.arange(frame_count + size - 1) - size // 2, 0, frame_count - 1)]
    weighted = sliding_window_view(padded, size, axis=0) @ _kernel_line(size, params.effective_sigma)
    return np.square(weighted).sum(axis=1)


def pick_peaks(novelty: np.ndarray, params: SegmentationParams) -> list[int]:
    """Select boundary frames: strict local novelty maxima above threshold.

    Peaks are scanned left to right; a peak closer than ``min_segment_length``
    frames to the previously accepted one is dropped. The implicit track
    endpoints (0 and T) are never returned.
    """
    novelty = np.asarray(novelty, dtype=np.float64)
    if novelty.size == 0:
        raise ValueError("novelty curve is empty")
    threshold = params.peak_threshold
    if threshold is None:
        threshold = float(novelty.mean() + novelty.std())
    peaks: list[int] = []
    for t in range(1, novelty.size - 1):
        if not (novelty[t - 1] < novelty[t] > novelty[t + 1]):
            continue
        if novelty[t] < threshold:
            continue
        if peaks and t - peaks[-1] < params.min_segment_length:
            continue
        peaks.append(t)
    return peaks


def segment_track(track: Track, params: SegmentationParams | None = None) -> Track:
    """Detect section boundaries and aggregate each section into one feature vector.

    Returns a new track whose ``segments`` hold one entry per section: the
    section's first frame index plus the mean of its frames clamped to [0, 1].
    A track shorter than the kernel has no novelty curve and becomes a single
    section at frame 0.
    """
    params = params or SegmentationParams()
    if track.num_frames < 1:
        raise ValueError(f"track '{track.id}' has no frames")
    if track.num_frames < params.kernel_size:
        logger.info(
            "track '%s': %d frames, fewer than kernel size %d; kept as one section",
            track.id, track.num_frames, params.kernel_size,
        )
        boundaries = [0, track.num_frames]
    else:
        novelty = novelty_curve(track.frames, params)
        boundaries = [0] + pick_peaks(novelty, params) + [track.num_frames]
    segments = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        features = np.clip(track.frames[start:end].mean(axis=0), 0.0, 1.0)
        segments.append(Segment(start=start, features=features))
    return replace(track, segments=segments)


def segment_catalog(catalog: Catalog, params: SegmentationParams | None = None) -> Catalog:
    """Segment every track; returns a new catalog, ingestion order preserved."""
    tracks = {track.id: segment_track(track, params) for track in catalog}
    return replace(catalog, tracks=tracks)
