"""Training-side standardization and a synthetic catalog generator.

Standardization is opt-in and for training only: ``fit_standardizer``'s
statistics go to ``build_training_sequences``, which z-scores each track's
sections once for its windows while the targets stay in [0, 1], where the
sigmoid head reaches them, and ``fold_standardizer`` then moves the statistics
into the model's first layer, so the saved model takes raw [0, 1] sections
like any other.

The synthetic generator plants the structure the engine is built around: each
track has a handful of consistently strong dimensions (shared within a cluster
of tracks), consistently weak ones, and per-section fluctuating ones, with
near-constant frames inside each planted section so segmentation can recover
the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, CatalogError, Track
from .model import SequenceModel

STRONG_LEVEL = 0.8
WEAK_LEVEL = 0.1
FLUCTUATION_RANGE = (0.2, 0.8)

STD_FLOOR = 1e-8  # a dimension whose std is at most this counts as constant


@dataclass(frozen=True)
class StandardizationStats:
    """Per-dimension mean and population standard deviation of segment vectors."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def scale(self) -> np.ndarray:
        """The divisor of each dimension: its std, or inf for a constant one, whose z-score is 0."""
        return np.where(self.std > STD_FLOOR, self.std, np.inf)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Map [0, 1] vectors to z-scores."""
        return (values - self.mean) / self.scale


def fit_standardizer(catalog: Catalog) -> StandardizationStats:
    """Compute per-dimension statistics over all segment vectors in the catalog."""
    if not catalog.is_segmented:
        raise CatalogError("catalog is not segmented")
    pooled = np.vstack([track.sections for track in catalog])
    if pooled.shape[0] < 2:
        raise ValueError("standardization needs at least 2 segment vectors")
    return StandardizationStats(mean=pooled.mean(axis=0), std=pooled.std(axis=0))


def fold_standardizer(model: SequenceModel, stats: StandardizationStats) -> SequenceModel:
    """A copy of a model trained on z-scored windows that takes raw windows instead.

    Layer 0's ``W_x (x - mean) / scale + b`` is ``(W_x / scale) x + b - W_x (mean / scale)``.
    """
    folded = model.copy()
    layer = folded.layers[0]
    layer.bias -= layer.w_x @ (stats.mean / stats.scale)
    layer.w_x /= stats.scale
    return folded


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic catalog with planted cluster and section structure.

    Tracks are assigned to clusters round-robin by index (track i belongs to
    cluster i % cluster_count) and named ``t00``, ``t01``, ... All ranges are
    inclusive. Generation is a pure function of the spec, seed included.
    """

    track_count: int = 20
    segment_range: tuple[int, int] = (4, 7)
    dimension: int = 50
    strong_dims: int = 5
    weak_dims: int = 5
    cluster_count: int = 2
    noise: float = 0.02
    seed: int = 0
    frames_per_segment: tuple[int, int] = (24, 40)

    def __post_init__(self) -> None:
        if self.track_count < 1 or self.dimension < 1 or self.cluster_count < 1:
            raise ValueError("track_count, dimension, and cluster_count must be positive")
        if self.strong_dims < 1 or self.weak_dims < 1:
            raise ValueError("strong_dims and weak_dims must be positive")
        if self.strong_dims + self.weak_dims > self.dimension:
            raise ValueError("strong_dims + weak_dims must not exceed dimension")
        if self.cluster_count > self.track_count:
            raise ValueError("cluster_count must not exceed track_count")
        for lo, hi in (self.segment_range, self.frames_per_segment):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must satisfy 1 <= lo <= hi")
        if not 0 <= self.noise < np.inf:  # NaN fails both comparisons
            raise ValueError(f"noise must be finite and >= 0, not {self.noise}")

    def track_id(self, index: int) -> str:
        width = max(2, len(str(self.track_count - 1)))
        return f"t{index:0{width}d}"

    def cluster_of(self, index: int) -> int:
        return index % self.cluster_count


def generate_synthetic_catalog(spec: SynthSpec) -> Catalog:
    """Build a catalog of frame matrices with planted sections and clusters.

    Strong dimensions sit at ``STRONG_LEVEL`` and weak ones at ``WEAK_LEVEL``
    in every frame of a cluster's tracks; the remaining dimensions take a
    fresh uniform level per planted section. Gaussian noise scaled by
    ``spec.noise`` is added per frame and everything is clamped to [0, 1].
    """
    rng = np.random.default_rng(spec.seed)
    strong_sets, weak_sets = _cluster_dimensions(spec, rng)
    fluct_sets = [
        np.setdiff1d(np.arange(spec.dimension), np.concatenate([strong, weak]))
        for strong, weak in zip(strong_sets, weak_sets)
    ]

    tracks = []
    for index in range(spec.track_count):
        cluster = spec.cluster_of(index)
        strong, weak, fluct = strong_sets[cluster], weak_sets[cluster], fluct_sets[cluster]
        base = np.empty(spec.dimension)
        base[strong] = STRONG_LEVEL
        base[weak] = WEAK_LEVEL
        section_count = int(rng.integers(spec.segment_range[0], spec.segment_range[1] + 1))
        blocks = []
        for _ in range(section_count):
            frame_count = int(
                rng.integers(spec.frames_per_segment[0], spec.frames_per_segment[1] + 1)
            )
            base[fluct] = rng.uniform(*FLUCTUATION_RANGE, size=fluct.size)
            noise = spec.noise * rng.standard_normal((frame_count, spec.dimension))
            blocks.append(np.clip(base + noise, 0.0, 1.0))
        tracks.append(Track(id=spec.track_id(index), frames=np.vstack(blocks)))
    return Catalog.from_tracks(tracks)


def _cluster_dimensions(
    spec: SynthSpec, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Pick each cluster's strong and weak dimension sets.

    Strong sets are disjoint across clusters whenever they fit within the
    dimension budget, which keeps clusters separable; otherwise each cluster
    samples independently.
    """
    strong_sets: list[np.ndarray] = []
    if spec.cluster_count * spec.strong_dims <= spec.dimension:
        order = rng.permutation(spec.dimension)
        for cluster in range(spec.cluster_count):
            lo = cluster * spec.strong_dims
            strong_sets.append(np.sort(order[lo : lo + spec.strong_dims]))
    else:
        for cluster in range(spec.cluster_count):
            strong_sets.append(
                np.sort(rng.choice(spec.dimension, size=spec.strong_dims, replace=False))
            )
    weak_sets = []
    for strong in strong_sets:
        remaining = np.setdiff1d(np.arange(spec.dimension), strong)
        weak_sets.append(np.sort(rng.choice(remaining, size=spec.weak_dims, replace=False)))
    return strong_sets, weak_sets
