"""Candidate-ranking measures: cosine distance, Euclidean distance, and a
top-weighted DCG similarity, plus ranking of catalog start segments against a
predicted feature vector.

Each measure is written once, in ``_scores``, which scores a stack of rows
against one prediction; the scalar functions are one-row calls into it. It
reduces row-wise (elementwise product, then a sum along each row), never with
``@``: BLAS ``gemv`` may round a row differently depending on the rows around
it, while a row-wise sum gives a row the same bits alone or stacked, so a
catalog-wide ranking equals scoring the candidates one at a time, exactly.

Predictions and start sections share one feature space, the catalog's
[0, 1] tag probabilities, so both are scored as they are.

``StartSections.of`` stacks the start sections once, with their norms.
Against a prediction, ``StartSections.ranked`` orders the rows that a boolean
mask leaves unused, and ``StartSections.gap`` scores them once and picks the
winner in one min (or max) pass, with no sort; the cosine distances that an
``l2`` or ``dcg`` step also reports reuse the stored norms. ``rank_candidates``
and ``nearest_neighbour_gap`` build the stack per call; a playlist builds it
once and scores it at every step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .catalog import Catalog, CatalogError

logger = logging.getLogger(__name__)

METRIC_NAMES = ("cosine", "l2", "dcg")
# Best cosine distance above which a playlist step has no near neighbour.
DEFAULT_NN_THRESHOLD = 0.5


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
        depth = self.dcg_depth
        if depth is not None and type(depth) is not int:  # a float fails at scoring; True is 1
            raise ValueError(f"dcg_depth must be an integer, not {depth!r}")
        if depth is not None and depth < 1:
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
    drives no-near-neighbour detection. ``runner_up_gap`` is how much the best
    score beats the second-best candidate's (0 on a tie, inf when there is no
    second candidate); it is not compared.
    """

    best_id: str
    best_score: float
    median_score: float
    margin: float
    best_cosine_distance: float
    runner_up_gap: float = field(compare=False)

    def no_near_neighbour(self, threshold: float = DEFAULT_NN_THRESHOLD) -> bool:
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
    return score(pred, candidate, Metric("dcg", depth))


def score(pred: np.ndarray, candidate: np.ndarray, metric: Metric) -> float:
    """Score one candidate under the metric (orientation per ``metric.higher_is_better``)."""
    pred = np.asarray(pred, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if pred.shape != candidate.shape:
        raise ValueError(f"dimension mismatch: {pred.shape} vs {candidate.shape}")
    return float(_scores(pred, candidate[None, :], metric)[0])


def _norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a C-ordered (M, D) ``rows``."""
    return np.sqrt((rows * rows).sum(axis=1))


def _scores(
    pred: np.ndarray, rows: np.ndarray, metric: Metric, norms: np.ndarray | None = None
) -> np.ndarray:
    """Score each row of the C-ordered (M, D) ``rows`` against ``pred``; shape (M,).

    ``norms``, if given, is ``_norms(rows)``, which the cosine measure needs.
    ``np.take`` keeps the DCG gather C-ordered: ``rows[:, order]`` would be
    column-major, and numpy sums such rows in another order than one row.
    Each measure makes one (M, D) temporary and works on it in place.
    """
    if metric.kind == "l2":
        diff = rows - pred
        diff *= diff
        return np.sqrt(diff.sum(axis=1))
    if metric.kind == "cosine":
        norms = (_norms(rows) if norms is None else norms) * np.sqrt((pred * pred).sum())
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
    taken = np.take(rows, order, axis=1)
    taken *= discounts
    return taken.sum(axis=1)


def rank_candidates(
    pred: np.ndarray,
    catalog: Catalog,
    metric: Metric,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> RankedCandidates:
    """Rank all non-excluded tracks by comparing their start segments to ``pred``.

    Ties break by ascending track id, so rankings are deterministic.
    """
    starts = StartSections.of(catalog)
    order, scores = starts.ranked(pred, metric, starts.mask(exclude))
    return RankedCandidates(
        entries=list(zip(starts.ids[order].tolist(), scores.tolist())), metric=metric
    )


def nearest_neighbour_gap(
    pred: np.ndarray,
    catalog: Catalog,
    metric: Metric,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> NeighbourGap:
    """Diagnose whether the prediction has a near neighbour among the candidates."""
    starts = StartSections.of(catalog)
    return starts.gap(pred, metric, starts.mask(exclude))[0]


@dataclass(frozen=True)
class StartSections:
    """Every track's id and start section, in catalog order.

    Built once and scored against any number of predictions, each with a
    boolean ``used`` mask (one entry per row) marking the tracks that are no
    longer candidates. Every row is scored and the used ones dropped after,
    which gives the same bits as scoring only the candidates, since
    ``_scores`` works row by row.
    """

    ids: np.ndarray  # (M,) track ids
    rows: np.ndarray  # (M, D) start sections, C-ordered

    @classmethod
    def of(cls, catalog: Catalog) -> "StartSections":
        if not catalog.is_segmented:
            raise CatalogError("catalog is not segmented")
        rows = np.stack([track.sections[0] for track in catalog])
        return cls(ids=np.array(catalog.track_ids), rows=rows)

    @cached_property
    def norms(self) -> np.ndarray:
        """The row norms that every cosine pass over ``rows`` shares."""
        return _norms(self.rows)

    def mask(self, exclude: frozenset[str] | set[str]) -> np.ndarray:
        """The ``used`` mask that leaves out the ``exclude`` ids."""
        return np.fromiter((i in exclude for i in self.ids.tolist()), bool, len(self.ids))

    def _scored(
        self, pred: np.ndarray, metric: Metric, used: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The checked prediction, the unused rows' positions, and their scores."""
        pred = np.asarray(pred, dtype=np.float64)
        dim = self.rows.shape[1]
        if pred.shape != (dim,):
            raise ValueError(f"dimension mismatch: {pred.shape} vs catalog dimension {dim}")
        if not np.isfinite(pred).all():
            raise ValueError("prediction has a non-finite value")
        keep = np.flatnonzero(~used)
        if not keep.size:
            raise ValueError("no candidate tracks remain")
        norms = self.norms if metric.kind == "cosine" else None
        return pred, keep, _scores(pred, self.rows, metric, norms)[keep]

    def ranked(
        self, pred: np.ndarray, metric: Metric, used: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score the unused rows once against ``pred``.

        Returns their row positions and scores, best first (ties by ascending id).
        """
        _, keep, scores = self._scored(pred, metric, used)
        order = np.lexsort((self.ids[keep], -scores if metric.higher_is_better else scores))
        return keep[order], scores[order]

    def gap(
        self, pred: np.ndarray, metric: Metric, used: np.ndarray
    ) -> tuple[NeighbourGap, int]:
        """The neighbour gap among the unused rows, and the best one's row position.

        One pass finds the best score; of the rows that reach it, the smallest
        id wins, as in ``ranked``.
        """
        pred, keep, scores = self._scored(pred, metric, used)
        extreme = np.max if metric.higher_is_better else np.min
        tied = np.flatnonzero(scores == extreme(scores))
        at = tied[np.argmin(self.ids[keep[tied]])]
        best, best_score = int(keep[at]), float(scores[at])
        median = float(np.median(scores))
        margin = best_score - median if metric.higher_is_better else median - best_score
        if metric.kind == "cosine":
            cosine = scores
        else:
            cosine = _scores(pred, self.rows, Metric("cosine"), self.norms)[keep]
        rest = np.delete(scores, at)
        gap = NeighbourGap(
            best_id=str(self.ids[best]),
            best_score=best_score,
            median_score=median,
            margin=margin,
            best_cosine_distance=float(cosine.min()),
            runner_up_gap=abs(best_score - float(extreme(rest))) if rest.size else math.inf,
        )
        return gap, best
