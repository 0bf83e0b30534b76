"""Playlist generation and its diagnostics.

From a seed track, the engine repeatedly predicts the feature vector that
should come next from the segment history of everything chosen so far, then
appends the unused track whose start segment ranks best under the chosen
metric. Exports a stacked transition matrix (segment rows interleaved with
prediction rows) and a coherence report.

A request carries the LSTM state along the history: while the history still
fits the model's context, each step advances the state by the newly chosen
track's sections only; once it is longer, the window slides, and each step
calls ``predict_next`` on the whole history, which runs its last N sections
from zero. Either way the prediction is the one ``predict_next`` gives on the
whole history, and every step of those runs is dense, so the state is carried
without gathering rows. The candidates' start sections are stacked once per
request, and a used-mask drops the chosen tracks. Each step scores the unused
candidates once and takes the best in one pass (``StartSections.gap``); at
debug level it also logs the best score's lead over the runner-up.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, CatalogError
from .files import atomic_output
from .model import SequenceModel
from .rnn import advance, predict_next
from .similarity import DEFAULT_NN_THRESHOLD, Metric, NeighbourGap, StartSections, cosine_distance

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlaylistStep:
    """One selection: the prediction that drove it and the scoring whose best is chosen."""

    prediction: np.ndarray
    gap: NeighbourGap
    no_near_neighbour: bool

    @property
    def chosen_id(self) -> str:
        return self.gap.best_id

    @property
    def chosen_score(self) -> float:
        return self.gap.best_score


@dataclass
class Playlist:
    """An ordered track selection plus the per-step records behind it."""

    track_ids: list[str]
    steps: list[PlaylistStep]
    metric: Metric
    seed_id: str
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.track_ids)

    def to_dict(self) -> dict:
        """JSON-ready representation (deterministic for identical playlists)."""
        return {
            "seed": self.seed_id,
            "metric": self.metric.kind,
            "dcg_depth": self.metric.dcg_depth,
            "tracks": list(self.track_ids),
            "truncated": self.truncated,
            "steps": [
                {
                    "prediction": step.prediction.tolist(),
                    "chosen": step.chosen_id,
                    "score": step.chosen_score,
                    "median_score": step.gap.median_score,
                    "margin": step.gap.margin,
                    "best_cosine_distance": step.gap.best_cosine_distance,
                    "no_near_neighbour": step.no_near_neighbour,
                }
                for step in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Playlist":
        """Rebuild a playlist from ``to_dict`` output; a malformed one raises ``ValueError``."""
        try:
            steps = [
                PlaylistStep(
                    prediction=_prediction(entry["prediction"], index),
                    gap=NeighbourGap(
                        best_id=entry["chosen"],
                        best_score=entry["score"],
                        median_score=entry["median_score"],
                        margin=entry["margin"],
                        best_cosine_distance=entry["best_cosine_distance"],
                        runner_up_gap=math.nan,  # not saved
                    ),
                    no_near_neighbour=entry["no_near_neighbour"],
                )
                for index, entry in enumerate(data["steps"])
            ]
            return cls(
                track_ids=list(data["tracks"]),
                steps=steps,
                metric=Metric(kind=data["metric"], dcg_depth=data.get("dcg_depth")),
                seed_id=data["seed"],
                truncated=data["truncated"],
            )
        except KeyError as exc:
            raise ValueError(f"playlist is missing key {exc}") from None
        except TypeError:
            raise ValueError("playlist is not a JSON object as generate writes it") from None


def _prediction(values: object, index: int) -> np.ndarray:
    """A saved step's prediction as float64; a value beyond float range raises ``ValueError``."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"step {index}: prediction value beyond float range") from None


def generate(
    catalog: Catalog,
    model: SequenceModel,
    seed_id: str,
    length: int,
    metric: Metric,
    nn_threshold: float = DEFAULT_NN_THRESHOLD,
) -> Playlist:
    """Generate a playlist of up to ``length`` tracks starting from the seed.

    Each step predicts from the last N segment vectors of the tracks chosen so
    far (N being the model's context length) and appends the best-ranked
    unused track. Deterministic for identical inputs. If the catalog runs out
    before the target length, the playlist is returned truncated.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if not math.isfinite(nn_threshold):
        raise ValueError(f"nn_threshold must be finite, got {nn_threshold}")
    if seed_id not in catalog:
        raise ValueError(f"seed track '{seed_id}' not in catalog")
    if not catalog.is_segmented:
        raise CatalogError("catalog is not segmented")
    if model.dimension != catalog.dimension:
        raise ValueError(
            f"model dimension {model.dimension} != catalog dimension {catalog.dimension}"
        )
    chosen = [seed_id]
    steps: list[PlaylistStep] = []
    truncated = False
    if length == 1:
        return Playlist(track_ids=chosen, steps=steps, metric=metric, seed_id=seed_id)
    context = model.context_length
    if context is None:
        raise ValueError("model has no context length; train it or set context_length")
    debug = logger.isEnabledFor(logging.DEBUG)
    starts = StartSections.of(catalog)
    used = starts.ids == seed_id
    pending = catalog.tracks[seed_id].sections  # sections the state has not seen
    history = list(pending)
    state = None
    for step in range(length - 1):
        if len(chosen) == len(catalog):
            truncated = True
            logger.warning(
                "catalog exhausted after %d of %d tracks; returning truncated playlist",
                len(chosen), length,
            )
            break
        began = time.perf_counter() if debug else 0.0
        if len(history) <= context:
            # The whole history is the window: carry the state over the new sections.
            prediction, state = advance(model, pending, state)
        else:
            # The window slides: run its last N sections from zero.
            prediction = predict_next(model, history)
        gap, best = starts.gap(prediction, metric, used)
        event = gap.no_near_neighbour(nn_threshold)
        if event:
            logger.info(
                "no near neighbour for step %d: best cosine distance %.3f > %.3f",
                step, gap.best_cosine_distance, nn_threshold,
            )
        if debug:
            logger.debug(
                "generate_step step=%d seconds=%.6f candidates=%d margin=%.6g "
                "runner_up_gap=%.6g best_cosine_distance=%.6g no_near_neighbour=%s",
                step, time.perf_counter() - began, len(catalog) - len(chosen),
                gap.margin, gap.runner_up_gap, gap.best_cosine_distance, event,
            )
        steps.append(PlaylistStep(prediction=prediction, gap=gap, no_near_neighbour=event))
        used[best] = True
        chosen.append(gap.best_id)
        pending = catalog.tracks[gap.best_id].sections
        history.extend(pending)
    return Playlist(track_ids=chosen, steps=steps, metric=metric, seed_id=seed_id, truncated=truncated)


@dataclass(frozen=True)
class TransitionMatrix:
    """Stacked segment vectors of the playlist's tracks with prediction rows between tracks.

    Row count is the total segment count plus (track count - 1) prediction
    rows. Labels are ``seg:<track_id>:<k>`` and ``pred:<step>``.
    """

    labels: list[str]
    rows: np.ndarray

    @property
    def row_count(self) -> int:
        return self.rows.shape[0]


def export_transition_matrix(playlist: Playlist, catalog: Catalog) -> TransitionMatrix:
    """Stack every chosen track's segment vectors, interleaving prediction rows."""
    if len(playlist.steps) != len(playlist.track_ids) - 1:
        raise ValueError(
            f"playlist has {len(playlist.steps)} steps for {len(playlist.track_ids)} tracks; "
            "expected one step fewer than tracks"
        )
    for index, step in enumerate(playlist.steps):
        if step.prediction.shape != (catalog.dimension,):
            raise ValueError(
                f"step {index}: prediction has shape {step.prediction.shape}, "
                f"expected ({catalog.dimension},)"
            )
    labels: list[str] = []
    blocks: list[np.ndarray] = []
    for index, sections in enumerate(_sections_of(playlist, catalog)):
        labels.extend(f"seg:{playlist.track_ids[index]}:{k}" for k in range(len(sections)))
        blocks.append(sections)
        if index < len(playlist.steps):
            labels.append(f"pred:{index}")
            blocks.append(playlist.steps[index].prediction[None])
    return TransitionMatrix(labels=labels, rows=np.concatenate(blocks))


def _sections_of(playlist: Playlist, catalog: Catalog) -> list[np.ndarray]:
    """Each playlist track's (S, D) sections, in playlist order."""
    for track_id in playlist.track_ids:
        if track_id not in catalog:
            raise ValueError(f"track '{track_id}' not in catalog")
    if not catalog.is_segmented:
        raise CatalogError("catalog is not segmented")
    return [catalog.tracks[track_id].sections for track_id in playlist.track_ids]


def write_transition_csv(matrix: TransitionMatrix, path) -> None:
    """Write ``label,dim_0,...,dim_{D-1}`` rows, each ending in ``\\r\\n``.

    The file replaces ``path`` only once it is complete (``atomic_output``).
    """
    dim = matrix.rows.shape[1]
    with (
        atomic_output(path) as binary,
        io.TextIOWrapper(binary, encoding="utf-8", newline="") as handle,
    ):
        writer = csv.writer(handle)
        writer.writerow(["label"] + [f"dim_{d}" for d in range(dim)])
        for label, row in zip(matrix.labels, matrix.rows):
            writer.writerow([label] + [repr(float(v)) for v in row])


def read_transition_csv(path) -> TransitionMatrix:
    """Parse a transition CSV back into labels and rows."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if not header or header[0] != "label":
                raise ValueError("not a transition matrix CSV")
            labels, rows = [], []
            for record in reader:
                if len(record) != len(header):
                    raise ValueError(
                        f"line {reader.line_num}: {max(len(record) - 1, 0)} values, "
                        f"expected {len(header) - 1}"
                    )
                labels.append(record[0])
                rows.append(np.array([float(v) for v in record[1:]]))
        except csv.Error as exc:  # before Python 3.11, a NUL byte or an overlong field
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("transition matrix CSV has no rows")
    return TransitionMatrix(labels=labels, rows=np.stack(rows))


def coherence_report(playlist: Playlist, catalog: Catalog) -> dict:
    """Quantify how coherent a playlist is.

    Reports the mean adjacent-track similarity (cosine of track-mean segment
    vectors), the seed-to-each-track similarity curve (drift), the count of
    no-near-neighbour events, and per-dimension variance pooled over all
    segment vectors in the playlist (fluctuation).
    """
    if len(playlist) < 2:
        raise ValueError("coherence report needs a playlist of at least 2 tracks")
    sections = _sections_of(playlist, catalog)
    means = [rows.mean(axis=0) for rows in sections]
    adjacent = [
        1.0 - cosine_distance(means[i], means[i + 1]) for i in range(len(means) - 1)
    ]
    drift = [1.0 - cosine_distance(means[0], mean) for mean in means]
    variance = np.vstack(sections).var(axis=0)
    return {
        "metric": playlist.metric.kind,
        "track_count": len(playlist),
        "truncated": playlist.truncated,
        "mean_adjacent_similarity": float(np.mean(adjacent)),
        "adjacent_similarities": [float(v) for v in adjacent],
        "seed_similarity_curve": [float(v) for v in drift],
        "no_near_neighbour_events": int(sum(s.no_near_neighbour for s in playlist.steps)),
        "per_dimension_variance": [float(v) for v in variance],
        "mean_per_dimension_variance": float(variance.mean()),
    }
