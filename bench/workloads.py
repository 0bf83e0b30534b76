"""The three workloads: what one round does, what set-up is, and how output is checked.

Every call into the library goes through a module attribute looked up at
call time (``catalog.load_catalog(...)``), so that ``tracing.Tracer`` can
wrap it. A workload is measured in rounds:

* ``ingest``: one round is ``load_catalog`` -> ``segment_track`` for every
  track -> ``save_catalog``, as ``segue segment`` does it. An operation is a
  track and the latency sample is its ``segment_track`` call; set-up is the
  ``load_catalog`` at the start of each round.
* ``train``: one round is what ``segue train`` does: set-up (``load_catalog``
  -> ``build_training_sequences`` -> ``init_model``), then ``train`` at the
  reference configuration, then ``save_model``. An operation is one pair in
  one epoch; the latency sample is the ``train`` call.
* ``serve``: set-up is ``load_catalog`` + ``load_model``, repeated before the
  first request. A closed loop with a single client then sends ``generate``
  requests; one round is three requests, one per metric, so every run has
  the same mix. An operation is a request and the latency sample is its
  ``generate`` call.

The round time covers everything a round does apart from the output checks,
and the work rate is the work of all timed rounds over their summed time.
A warm-up runs before the timed rounds (one round; on ``serve`` one request):
its operations are counted and checked, but its times are dropped, so that
first-use costs (page faults, cold caches) stay out.

Output checks run outside the timed calls. A check that fails marks the
round's operations failed and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from segue import catalog, model, playlist, rnn, segmentation, similarity

from inputs import CONTEXT, DIMENSION, HIDDEN, LAYERS

SEGMENTATION_TOLERANCE = 2  # frames; acceptance criterion 3 uses the same
MEAN_TOLERANCE = 1e-12
TRAIN_EPOCHS = 2
TRAIN_BATCH = 16
PLAYLIST_LENGTH = 10
METRICS = ("cosine", "l2", "dcg")
SERVE_SETUPS = 3
TIE_TOLERANCE = 1e-9


class Clock:
    """Process CPU seconds (every thread) and wall seconds since construction."""

    def __init__(self) -> None:
        self.cpu, self.wall = process_time(), perf_counter()

    def split(self) -> tuple[float, float]:
        return process_time() - self.cpu, perf_counter() - self.wall


@dataclass
class Samples:
    """What the timed rounds produced, plus the checks' verdicts.

    Times are ``(cpu seconds, wall seconds)`` pairs from ``Clock.split``; the
    metrics use the wall seconds, and the CPU seconds go to the results file.
    """

    round_s: list[tuple[float, float]] = field(default_factory=list)
    work: list[float] = field(default_factory=list)  # work units per round
    latency_s: list[tuple[float, float]] = field(default_factory=list)  # per timed operation
    setup_s: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def drop_round_times(self) -> None:
        """Forget the rounds' times and work; set-up times, counts and checks stay."""
        self.round_s.clear()
        self.work.clear()
        self.latency_s.clear()


class Ingest:
    unit = "frames of segmented tracks"

    def __init__(self, work: Path, seed: int, samples: Samples) -> None:
        self.raw = work / "raw.jsonl"
        self.out = work / "segmented.jsonl"
        self.truth = json.loads((work / "truth.json").read_text())["starts"]
        self.samples = samples
        self.last = None

    def setup(self) -> None:
        """Set-up happens inside each round: the ``load_catalog`` that starts it."""

    def warm_up(self) -> None:
        self.round()

    def round(self) -> None:
        s = self.samples
        clock = Clock()
        raw = catalog.load_catalog(self.raw)
        s.setup_s.append(clock.split())
        tracks, failures, frames = {}, {}, 0
        for track in raw:
            begin = Clock()
            try:
                tracks[track.id] = segmentation.segment_track(track)
            except Exception as exc:  # one failed track must not stop the ingest
                failures[track.id] = f"{type(exc).__name__}: {exc}"
                tracks[track.id] = track
                continue
            s.latency_s.append(begin.split())
            frames += track.num_frames
        segmented = replace(raw, tracks=tracks)
        catalog.save_catalog(segmented, self.out)
        s.round_s.append(clock.split())
        s.work.append(frames)
        s.attempted += len(tracks)
        s.failed += len(failures)
        s.failed += self._check(segmented, failures)
        self.last = segmented

    def _check(self, segmented, failures: dict[str, str]) -> int:
        """Planted starts recovered within tolerance; sections are clamped frame means."""
        s = self.samples
        kernel = segmentation.SegmentationParams().kernel_size
        bad = 0
        digest = hashlib.sha256()
        for track in segmented:
            planted = self.truth.get(track.id)
            if planted is None:
                s.problem(f"{track.id}: not in the generated input")
                bad += 1
                continue
            if track.id in failures:
                if len(planted) == 1 and track.num_frames < kernel:
                    continue  # the known short-track defect; counted as failed already
                s.problem(f"{track.id}: {failures[track.id]}")
                continue
            starts = [seg.start for seg in track.segments]
            digest.update(f"{track.id}:{starts};".encode())
            ok = bool(starts) and starts[0] == 0
            ok = ok and _within(planted, starts) and _within(starts, planted)
            if not ok:
                s.problem(f"{track.id}: found starts {starts}, planted {planted}")
            ends = starts[1:] + [track.num_frames]
            for seg, end in zip(track.segments, ends):
                expected = np.clip(track.frames[seg.start : end].mean(axis=0), 0.0, 1.0)
                if not np.allclose(seg.features, expected, rtol=0.0, atol=MEAN_TOLERANCE):
                    s.problem(f"{track.id}: section at {seg.start} is not the clamped frame mean")
                    ok = False
                    break
            bad += not ok
        if s.digests and digest.hexdigest() != s.digests[0]:
            s.problem("section starts differ from the first round's")
        s.digests.append(digest.hexdigest())
        return bad

    def final_check(self) -> None:
        """The file written last reads back as the catalog that was written."""
        back = catalog.load_catalog(self.out)
        for track in self.last:
            again = back.tracks.get(track.id)
            same = again is not None and len(again.segments) == len(track.segments) and all(
                a.start == b.start and np.array_equal(a.features, b.features)
                for a, b in zip(again.segments, track.segments)
            )
            if not same:
                self.samples.problem(f"{track.id}: saved catalog does not read back unchanged")


class Train:
    unit = "training pairs x epochs"

    def __init__(self, work: Path, seed: int, samples: Samples) -> None:
        self.path = work / "segmented.jsonl"
        self.out = work / "model.sgm"
        self.seed = seed
        self.samples = samples
        self.losses = None
        # Taken before any tracing starts, so the check's reads stay out of the trace.
        self.load_model = model.load_model

    def setup(self) -> None:
        """Set-up happens inside each round, before ``train``."""

    def warm_up(self) -> None:
        self.round()

    def round(self) -> None:
        s = self.samples
        config = rnn.TrainConfig(
            context_length=CONTEXT, epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH, seed=self.seed
        )
        clock = Clock()
        pairs = catalog.build_training_sequences(catalog.load_catalog(self.path), CONTEXT)
        initial = rnn.init_model(LAYERS, HIDDEN, DIMENSION, seed=self.seed)
        s.setup_s.append(clock.split())
        operations = len(pairs) * TRAIN_EPOCHS
        s.attempted += operations
        begin = Clock()
        try:
            trained, report = rnn.train(initial, pairs, config)
        except Exception as exc:  # counted as failed; the run goes on
            s.failed += operations
            s.problem(f"train: {type(exc).__name__}: {exc}")
            return
        s.latency_s.append(begin.split())
        model.save_model(trained, self.out)
        s.round_s.append(clock.split())
        s.work.append(operations)
        del initial
        if not self._check(trained, report.epoch_losses):
            s.failed += operations

    def _check(self, trained, losses: list[float]) -> bool:
        """Finite, falling losses; the saved file loads as an equal model; rounds agree."""
        s = self.samples
        ok = len(losses) == TRAIN_EPOCHS and all(np.isfinite(losses))
        if not ok:
            s.problem(f"epoch losses {losses}")
        elif not losses[-1] < losses[0]:
            s.problem(f"last epoch loss {losses[-1]} is not below the first {losses[0]}")
            ok = False
        if not self.load_model(self.out).equals(trained):
            s.problem("saved model does not load back equal to the trained one")
            ok = False
        if self.losses is not None and losses != self.losses:
            s.problem(f"losses {losses} differ from an identical earlier round {self.losses}")
            ok = False
        self.losses = losses
        s.digests.append(hashlib.sha256(repr(losses).encode()).hexdigest())
        return ok

    def final_check(self) -> None:
        """Every round is checked as it ends."""


class Serve:
    unit = "playlist requests"

    def __init__(self, work: Path, seed: int, samples: Samples) -> None:
        self.path = work / "segmented.jsonl"
        self.model_path = work / "model.sgm"
        self.samples = samples
        self.rng = np.random.default_rng([seed, 3])
        self.served: list[tuple[str, str, list[str], list[np.ndarray]]] = []
        self.catalog = self.model = None

    def setup(self) -> None:
        for _ in range(SERVE_SETUPS):
            self.catalog = self.model = None
            clock = Clock()
            self.catalog = catalog.load_catalog(self.path)
            self.model = model.load_model(self.model_path)
            self.samples.setup_s.append(clock.split())
        self.ids = self.catalog.track_ids

    def warm_up(self) -> None:
        """One request: every later one reuses the same loaded arrays."""
        self._request(METRICS[0])

    def round(self) -> None:
        s = self.samples
        clock = Clock()
        served = sum(self._request(kind) for kind in METRICS)
        s.round_s.append(clock.split())
        s.work.append(served)

    def _request(self, kind: str) -> bool:
        s = self.samples
        seed_id = self.ids[int(self.rng.integers(len(self.ids)))]
        s.attempted += 1
        begin = Clock()
        try:
            result = playlist.generate(
                self.catalog, self.model, seed_id, PLAYLIST_LENGTH, similarity.Metric(kind)
            )
        except Exception as exc:  # counted as failed; the run goes on
            s.failed += 1
            s.problem(f"request from {seed_id} ({kind}): {type(exc).__name__}: {exc}")
            return False
        s.latency_s.append(begin.split())
        predictions = [np.array(step.prediction, dtype=np.float64) for step in result.steps]
        self.served.append((seed_id, kind, list(result.track_ids), predictions))
        return True

    def final_check(self) -> None:
        """Every step's choice equals an independent brute-force ranking."""
        s = self.samples
        ids, starts = _start_sections(self.path)
        row = {track_id: index for index, track_id in enumerate(ids)}
        digest = hashlib.sha256()
        for seed_id, kind, chosen, predictions in self.served:
            digest.update(f"{kind}:{','.join(chosen)};".encode())
            problem = None
            if len(chosen) != PLAYLIST_LENGTH or len(predictions) != PLAYLIST_LENGTH - 1:
                problem = f"length {len(chosen)}"
            elif chosen[0] != seed_id or len(set(chosen)) != len(chosen):
                problem = "seed not first or duplicate tracks"
            else:
                used = np.zeros(len(ids), dtype=bool)
                used[row[seed_id]] = True
                for step, (pred, pick) in enumerate(zip(predictions, chosen[1:])):
                    if not (np.isfinite(pred).all() and ((pred > 0) & (pred < 1)).all()):
                        problem = f"step {step}: prediction outside (0, 1)"
                        break
                    if pick not in row or not _is_best(starts, ids, used, pred, kind, row[pick]):
                        problem = f"step {step}: chose {pick}, brute force disagrees"
                        break
                    used[row[pick]] = True
            if problem:
                s.failed += 1
                s.problem(f"request from {seed_id} ({kind}): {problem}")
        s.digests.append(digest.hexdigest())


def _within(wanted: list[int], found: list[int]) -> bool:
    """Every wanted frame index has a found one within ``SEGMENTATION_TOLERANCE``."""
    return all(min(abs(w - f) for f in found) <= SEGMENTATION_TOLERANCE for w in wanted)


def _start_sections(path: Path) -> tuple[list[str], np.ndarray]:
    """Track ids and start-section vectors, read straight from the catalog file."""
    ids, rows = [], []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            ids.append(record["id"])
            rows.append(record["segments"][0]["features"])
    return ids, np.asarray(rows, dtype=np.float64)


def _brute_force_scores(starts: np.ndarray, pred: np.ndarray, kind: str) -> np.ndarray:
    """Scores oriented so that lower is better, for every candidate at once."""
    if kind == "l2":
        return np.linalg.norm(starts - pred, axis=1)
    if kind == "cosine":
        norms = np.linalg.norm(starts, axis=1) * np.linalg.norm(pred)
        with np.errstate(divide="ignore", invalid="ignore"):
            distance = np.clip(1.0 - (starts @ pred) / norms, 0.0, 2.0)
        return np.where(norms > 0.0, distance, 1.0)
    order = np.argsort(-pred, kind="stable")
    discounts = 1.0 / np.log2(np.arange(1, pred.size + 1) + 1.0)
    return -(starts[:, order] @ discounts)


def _is_best(starts, ids, used, pred, kind, picked: int) -> bool:
    """The pick is the unused best, ties broken by the smaller id.

    Scores within ``TIE_TOLERANCE`` of the best count as tied, because the
    library may sum in another order than this oracle.
    """
    scores = _brute_force_scores(starts, pred, kind)
    scores[used] = np.inf
    best = float(scores.min())
    tied = np.flatnonzero(scores <= best + TIE_TOLERANCE * max(1.0, abs(best)))
    if picked not in tied or used[picked]:
        return False
    exact = np.flatnonzero(scores == best)
    return len(tied) > len(exact) or ids[picked] == min(ids[i] for i in exact)


WORKLOADS = {"ingest": Ingest, "train": Train, "serve": Serve}
