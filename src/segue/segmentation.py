"""Structural segmentation of tracks via checkerboard novelty.

The pipeline per track: correlate a sign-alternating Gaussian-tapered kernel
along the diagonal of the frames' cosine self-similarity to obtain a novelty
curve, pick novelty peaks as section boundaries, and aggregate each section's
frames into one feature vector by arithmetic mean. The kernel is the outer
product of one tapered sign line, so each novelty value is the squared norm of
that line's weighted sum of the window's unit frames; the (T, T) similarity
matrix is never built.

The curve is computed in blocks of B frames. A block reads the B + K - 1
edge-replicated frames its windows cover, turns them into unit rows of D + K
values (the K silent-frame axes appended), and writes its B values into the
(T,) output. B is the largest count whose unit rows fit ``_BLOCK_BYTES``
(96 KiB; B = 171 at D = 50, K = 16), but at least 4K, so that the K - 1
frames a block shares with the next are not normalised many times over.
The scratch, a unit-row buffer and a product buffer reused by every block,
never grows with T. It stays below glibc's 128 KiB mmap threshold while 5K - 1
unit rows fit the budget (D <= 139 at K = 16); wider frames take a few
page faults per track for their buffers, not per block. Every value comes
from the same operations on the same rows as a whole-track computation, so
the curve is bit-identical to one.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import Catalog, Track

logger = logging.getLogger(__name__)

# Scratch budget of one novelty block: below glibc's default 128 KiB mmap
# threshold, so block buffers are reused heap memory, not fresh pages.
_BLOCK_BYTES = 96 * 1024
# Each block normalises again the K - 1 frames it shares with the next one;
# blocks of at least 4 kernels keep that repeat under a quarter at any D.
_MIN_BLOCK_KERNELS = 4


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
        sigma, threshold = self.kernel_sigma, self.peak_threshold
        if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"kernel_sigma must be positive and finite, got {sigma}")
        if threshold is not None and not (math.isfinite(threshold) and threshold >= 0):
            raise ValueError(f"peak_threshold must be finite and >= 0, got {threshold}")
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


def _block_frames(dimension: int, size: int) -> int:
    """Frames per novelty block: as many as fit ``_BLOCK_BYTES`` of unit rows, at least 4 kernels."""
    return max(_MIN_BLOCK_KERNELS * size, _BLOCK_BYTES // (8 * (dimension + size)) - (size - 1))


def novelty_curve(frames: np.ndarray, params: SegmentationParams) -> np.ndarray:
    """Correlate the checkerboard kernel along the diagonal of the frames' cosine similarity.

    Out-of-range window indices replicate the nearest edge frame, so the curve
    has one value per frame. Similarity follows the cosine convention: a
    zero-norm frame has similarity 1 to itself and 0 to every other frame.
    The curve is filled block by block, so the scratch does not grow with T.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"frames must be a 2-D (T, D) array, got {frames.ndim}-D")
    frame_count, dimension = frames.shape
    size = params.kernel_size
    if size > frame_count:
        raise ValueError(
            f"kernel size {size} exceeds frame count {frame_count}"
        )
    half = size // 2
    line = _kernel_line(size, params.effective_sigma)
    own_axes = np.eye(size)
    block = min(frame_count, _block_frames(dimension, size))
    # Unit frames with one silent-frame axis per kernel offset appended, and
    # their windowed products: reused by every block.
    unit = np.empty((block + size - 1, dimension + size))
    windows = sliding_window_view(unit, size, axis=0)
    weighted = np.empty((block, dimension + size))
    novelty = np.empty(frame_count)
    for lo in range(0, frame_count, block):
        hi = min(lo + block, frame_count)
        rows = np.arange(lo - half, hi - half + size - 1)
        if lo < half or rows[-1] >= frame_count:
            np.clip(rows, 0, frame_count - 1, out=rows)  # replicate the edge frames
            chunk = frames[rows]
        else:
            chunk = frames[rows[0] : rows[-1] + 1]
        # np.linalg.norm's own reduction; the squares go through the unit
        # rows, which the division then overwrites.
        squares = np.multiply(chunk, chunk, out=unit[: rows.size, :dimension])
        norms = np.sqrt(np.add.reduce(squares, axis=1, keepdims=True))
        silent = norms == 0.0
        np.divide(chunk, np.where(silent, 1.0, norms), out=squares)
        if silent.any():
            # Zero frame j gets its own axis j % size: distinct frames in one
            # window differ mod size, so zero frames are orthogonal to all others there.
            np.multiply(silent, own_axes[rows % size], out=unit[: rows.size, dimension:])
        else:
            unit[: rows.size, dimension:] = 0.0
        products = np.matmul(windows[: hi - lo], line, out=weighted[: hi - lo])
        np.square(products, out=products).sum(axis=1, out=novelty[lo:hi])
    return novelty


def pick_peaks(novelty: np.ndarray, params: SegmentationParams) -> list[int]:
    """Select boundary frames: strict local novelty maxima at or above threshold.

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
    inner = novelty[1:-1]
    candidates = np.flatnonzero((novelty[:-2] < inner) & (inner > novelty[2:]) & (inner >= threshold))
    peaks: list[int] = []
    for t in (candidates + 1).tolist():
        if not peaks or t - peaks[-1] >= params.min_segment_length:
            peaks.append(t)
    return peaks


def segment_track(track: Track, params: SegmentationParams | None = None) -> Track:
    """Detect section boundaries and aggregate each section into one feature vector.

    Returns a new track with one row per section: its first frame index in
    ``starts`` and the mean of its frames, clamped to [0, 1], in ``sections``.
    A track shorter than the kernel has no novelty curve and becomes a single
    section at frame 0.
    """
    params = params or SegmentationParams()
    debug = logger.isEnabledFor(logging.DEBUG)
    began = time.perf_counter() if debug else 0.0
    if track.num_frames < 1:
        raise ValueError(f"track '{track.id}' has no frames")
    fallback = track.num_frames < params.kernel_size
    if fallback:
        logger.info(
            "track '%s': %d frames, fewer than kernel size %d; kept as one section",
            track.id, track.num_frames, params.kernel_size,
        )
        boundaries = [0, track.num_frames]
    else:
        novelty = novelty_curve(track.frames, params)
        boundaries = [0] + pick_peaks(novelty, params) + [track.num_frames]
    edges = zip(boundaries, boundaries[1:])
    sections = np.clip(np.stack([track.frames[a:b].mean(axis=0) for a, b in edges]), 0.0, 1.0)
    if debug:
        logger.debug(
            "segment_track id=%s frames=%d sections=%d fallback=%s seconds=%.6f",
            track.id, track.num_frames, len(sections), fallback, time.perf_counter() - began,
        )
    return replace(track, starts=np.array(boundaries[:-1], dtype=np.int64), sections=sections)


def segment_catalog(catalog: Catalog, params: SegmentationParams | None = None) -> Catalog:
    """Segment every track; returns a new catalog, ingestion order preserved."""
    tracks = {track.id: segment_track(track, params) for track in catalog}
    return replace(catalog, tracks=tracks)
