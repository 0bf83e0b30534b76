"""Which library names are traced, and how spans and counts become per-layer metrics.

The layers are the package's modules. ``features`` only makes synthetic
inputs and ``cli`` is argument parsing, so neither is traced. Each name is
wrapped where its caller looks it up: the benchmark's own calls go through
``segue.catalog``, ``segue.segmentation``, ``segue.rnn``, ``segue.model`` and
``segue.playlist``; ``segment_track`` finds its stages in
``segue.segmentation``, ``train`` finds ``loss_and_gradients`` in
``segue.rnn``, and ``generate`` finds ``predict_next``, ``rank_candidates``
and ``nearest_neighbour_gap`` in ``segue.playlist``.

Metric conventions: a name ending in ``_s`` is mean wall seconds per call of
that function (``_self_s``: minus the time in its traced children); a count
is per round of the workload (on ``serve``, three requests); a layer that did
not run on the workload reads 0.
"""

from __future__ import annotations

import os

import numpy as np


def _file_size(position: int, key: str):
    def hook(counts, args, kwargs, result) -> None:
        counts[key] += os.path.getsize(args[position])

    return hook


def _sections(counts, args, kwargs, result) -> None:
    counts["segmentation.sections"] += len(result.segments)


def _batch_steps(counts, args, kwargs, result) -> None:
    for pair in args[1]:
        counts["rnn.unmasked_steps"] += int(np.count_nonzero(pair.mask))
        counts["rnn.window_steps"] += int(pair.mask.size)


def _predict_steps(counts, args, kwargs, result) -> None:
    window = args[0].context_length
    counts["rnn.unmasked_steps"] += min(len(args[1]), window)
    counts["rnn.window_steps"] += window


def _candidates(counts, args, kwargs, result) -> None:
    exclude = kwargs["exclude"] if "exclude" in kwargs else (args[3] if len(args) > 3 else ())
    counts["similarity.candidates_scored"] += len(args[1]) - len(exclude)


def _playlist(counts, args, kwargs, result) -> None:
    counts["playlist.steps"] += len(result.steps)
    counts["playlist.no_near_neighbour_events"] += sum(
        bool(step.no_near_neighbour) for step in result.steps
    )


TARGETS = [
    ("catalog", "load_catalog", _file_size(0, "catalog.bytes_read")),
    ("catalog", "save_catalog", _file_size(1, "catalog.bytes_written")),
    ("catalog", "build_training_sequences", None),
    ("segmentation", "segment_track", _sections),
    ("segmentation", "self_similarity", None),
    ("segmentation", "novelty_curve", None),
    ("segmentation", "pick_peaks", None),
    ("rnn", "train", None),
    ("rnn", "loss_and_gradients", _batch_steps),
    ("model", "save_model", _file_size(1, "model.bytes")),
    ("model", "load_model", _file_size(0, "model.bytes")),
    ("playlist", "generate", _playlist),
    ("playlist", "predict_next", _predict_steps),
    ("playlist", "rank_candidates", _candidates),
    ("playlist", "nearest_neighbour_gap", _candidates),
]


def per_layer_metrics(tracer, rounds: int, cpu_util: float, overhead: float):
    """``{metric: (value, unit)}`` from the spans and counts of ``rounds`` traced rounds."""
    table = tracer.summary()
    counts, errors = tracer.counts, tracer.errors

    def calls(*spans: str) -> int:
        return sum(table[span]["calls"] for span in spans if span in table)

    def per_call(span: str, column: str = "total_s") -> float:
        return table[span][column] / table[span]["calls"] if span in table else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "catalog.load_s": (per_call("catalog.load_catalog"), "s"),
        "catalog.save_s": (per_call("catalog.save_catalog"), "s"),
        "catalog.bytes_read": (
            share(counts["catalog.bytes_read"], calls("catalog.load_catalog")), "bytes"),
        "catalog.bytes_written": (
            share(counts["catalog.bytes_written"], calls("catalog.save_catalog")), "bytes"),
        "catalog.build_pairs_s": (per_call("catalog.build_training_sequences"), "s"),
        "segmentation.self_similarity_s": (per_call("segmentation.self_similarity"), "s"),
        "segmentation.novelty_s": (per_call("segmentation.novelty_curve"), "s"),
        "segmentation.pick_peaks_s": (per_call("segmentation.pick_peaks"), "s"),
        "segmentation.segment_track_self_s": (
            per_call("segmentation.segment_track", "self_s"), "s"),
        "segmentation.tracks": (calls("segmentation.segment_track") / rounds, "count"),
        "segmentation.sections": (counts["segmentation.sections"] / rounds, "count"),
        "segmentation.failed_tracks": (errors["segmentation.segment_track"] / rounds, "count"),
        "rnn.loss_and_gradients_s": (per_call("rnn.loss_and_gradients"), "s"),
        "rnn.batches": (calls("rnn.loss_and_gradients") / rounds, "count"),
        "rnn.train_self_s": (per_call("rnn.train", "self_s"), "s"),
        "rnn.predict_next_s": (per_call("playlist.predict_next"), "s"),
        "rnn.predict_calls": (calls("playlist.predict_next") / rounds, "count"),
        "rnn.unmasked_step_share": (
            share(counts["rnn.unmasked_steps"], counts["rnn.window_steps"]), "ratio"),
        "model.save_s": (per_call("model.save_model"), "s"),
        "model.load_s": (per_call("model.load_model"), "s"),
        "model.bytes": (
            share(counts["model.bytes"], calls("model.save_model", "model.load_model")), "bytes"),
        "similarity.rank_s": (per_call("playlist.rank_candidates"), "s"),
        "similarity.gap_s": (per_call("playlist.nearest_neighbour_gap"), "s"),
        "similarity.candidates_scored": (
            counts["similarity.candidates_scored"] / rounds, "count"),
        "playlist.generate_self_s": (per_call("playlist.generate", "self_s"), "s"),
        "playlist.steps": (counts["playlist.steps"] / rounds, "count"),
        "playlist.no_near_neighbour_events": (
            counts["playlist.no_near_neighbour_events"] / rounds, "count"),
        "process.cpu_util": (cpu_util, "ratio"),
        "trace.overhead_share": (overhead, "ratio"),
    }
