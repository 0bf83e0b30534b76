"""Candidate-ranking measures: cosine distance, Euclidean distance, and a
top-weighted DCG similarity, plus ranking of catalog start segments against a
predicted feature vector.

Each measure is written once, in ``_scores``, which scores a stack of rows
against one prediction; the scalar functions are one-row calls into it. It
reduces row-wise (elementwise product, then a sum along each row), never with
``@``: BLAS ``gemv`` may round a row differently depending on the rows around
it, while a row-wise sum gives a row the same bits alone or stacked, so a
catalog-wide ranking equals scoring the candidates one at a time, exactly.

All comparisons happen in the original [0, 1] feature space: when a catalog is
standardized, both the prediction and the candidates' start segments are
mapped back through the catalog's stored statistics before scoring.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog

logger = logging.getLogger(__name__)

METRIC_NAMES = ("cosine", "l2", "dcg")


@dataclass(frozen=True)
class Metric:
    """A ranking measure plus its orientation.

    ``dcg_depth`` is how many top-ranked dimensions contribute to the DCG
    score; None means all of them (the catalog dimension).
    """

    kind: str
    dcg_depth: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in METRIC_NAMES:
            raise ValueError(f"unknown metric '{self.kind}' (choose from {METRIC_NAMES})")
        if self.dcg_depth is not None and self.dcg_depth < 1:
            raise ValueError("dcg_depth must be >= 1")

    @property
    def higher_is_better(self) -> bool:
        return self.kind == "dcg"


@dataclass(frozen=True)
class RankedCandidates:
    """Candidate (track id, score) pairs, best first."""

    entries: list[tuple[str, float]]
    metric: Metric

    @property
    def best(self) -> tuple[str, float]:
        return self.entries[0]


@dataclass(frozen=True)
class NeighbourGap:
    """How close the best candidate is, and whether anything is close at all.

    ``margin`` is how much the best score beats the catalog-median score under
    the ranking metric. ``best_cosine_distance`` is metric-independent and
    drives no-near-neighbour detection.
    """

    best_id: str
    best_score: float
    median_score: float
    margin: float
    best_cosine_distance: float

    def no_near_neighbour(self, threshold: float = 0.5) -> bool:
        return self.best_cosine_distance > threshold


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b); in [0, 1] for nonnegative inputs, [0, 2] in general.

    A zero-norm argument compares as maximally dissimilar (distance 1).
    """
    return score(a, b, Metric("cosine"))


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance."""
    return score(a, b, Metric("l2"))


def dcg_similarity(pred: np.ndarray, candidate: np.ndarray, depth: int | None = None) -> float:
    """Discount-weighted sum of candidate values over the prediction's top dimensions.

    The prediction ranks dimensions (descending value, ties to the lower
    index); the candidate contributes its value at rank i discounted by
    1 / log2(i + 1) for i = 1..depth. Only the prediction's ordering matters,
    so positive rescaling of the prediction never changes scores.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"dcg depth {depth} outside [1, {np.shape(pred)[-1]}]")
    return score(pred, candidate, Metric("dcg", depth))


def score(pred: np.ndarray, candidate: np.ndarray, metric: Metric) -> float:
    """Score one candidate under the metric (orientation per ``metric.higher_is_better``)."""
    pred = np.asarray(pred, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if pred.shape != candidate.shape:
        raise ValueError(f"dimension mismatch: {pred.shape} vs {candidate.shape}")
    return float(_scores(pred, candidate[None, :], metric)[0])


def _scores(pred: np.ndarray, rows: np.ndarray, metric: Metric) -> np.ndarray:
    """Score each row of the C-ordered (M, D) ``rows`` against ``pred``; shape (M,).

    ``np.take`` keeps the DCG gather C-ordered: ``rows[:, order]`` would be
    column-major, and numpy sums such rows in another order than one row.
    """
    if metric.kind == "l2":
        diff = rows - pred
        return np.sqrt((diff * diff).sum(axis=1))
    if metric.kind == "cosine":
        norms = np.sqrt((rows * rows).sum(axis=1)) * np.sqrt((pred * pred).sum())
        if not norms.all():
            logger.debug("cosine distance against a zero-norm vector; reporting 1.0")
        dots = (rows * pred).sum(axis=1)
        cosines = np.divide(dots, norms, out=np.zeros_like(dots), where=norms != 0.0)
        return np.clip(1.0 - cosines, 0.0, 2.0)
    dim = pred.shape[0]
    depth = dim if metric.dcg_depth is None else metric.dcg_depth
    if depth > dim:
        raise ValueError(f"dcg depth {depth} outside [1, {dim}]")
    order = np.argsort(-pred, kind="stable")[:depth]
    discounts = 1.0 / np.log2(np.arange(1, depth + 1) + 1.0)
    return (np.take(rows, order, axis=1) * discounts).sum(axis=1)


def rank_candidates(
    pred: np.ndarray,
    catalog: Catalog,
    metric: Metric,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> RankedCandidates:
    """Rank all non-excluded tracks by comparing their start segments to ``pred``.

    ``pred`` must be in the catalog's segment-vector space; scoring happens in
    the original [0, 1] space. Ties break by ascending track id, so rankings
    are deterministic.
    """
    ids, scores, _, _ = _ranked(pred, catalog, metric, exclude)
    return RankedCandidates(entries=list(zip(ids.tolist(), scores.tolist())), metric=metric)


def nearest_neighbour_gap(
    pred: np.ndarray,
    catalog: Catalog,
    metric: Metric,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> NeighbourGap:
    """Diagnose whether the prediction has a near neighbour among the candidates."""
    ids, scores, pred_orig, starts = _ranked(pred, catalog, metric, exclude)
    best_score = float(scores[0])
    median = float(np.median(scores))
    margin = best_score - median if metric.higher_is_better else median - best_score
    cosine = scores if metric.kind == "cosine" else _scores(pred_orig, starts, Metric("cosine"))
    return NeighbourGap(
        best_id=str(ids[0]),
        best_score=best_score,
        median_score=median,
        margin=margin,
        best_cosine_distance=float(cosine.min()),
    )


def _ranked(
    pred: np.ndarray, catalog: Catalog, metric: Metric, exclude: frozenset[str] | set[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score the non-excluded start sections once, in the original space.

    Returns ids and scores best first (ties by ascending id), then the
    prediction and the start-section stack mapped to the original space.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != (catalog.dimension,):
        raise ValueError(f"dimension mismatch: {pred.shape} vs catalog dimension {catalog.dimension}")
    candidates = [track for track in catalog if track.id not in exclude]
    if not candidates:
        raise ValueError("no candidate tracks remain")
    ids = np.array([track.id for track in candidates])
    starts = catalog.to_original_space(np.stack([track.start_segment() for track in candidates]))
    pred = catalog.to_original_space(pred)
    scores = _scores(pred, starts, metric)
    order = np.lexsort((ids, -scores if metric.higher_is_better else scores))
    return ids[order], scores[order], pred, starts
