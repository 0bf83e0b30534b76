"""Seeded input generation for the benchmark workloads.

Runs as its own process (``python3 bench/inputs.py --workload W --seed S
--out DIR``) before any timing starts, so neither its time nor its memory
reaches a metric. Catalog files are written with a JSON-lines writer of this
file's own, following the format documented in ``segue.catalog``, so the
inputs do not change when the library's writer does. Only the ``serve`` model
is made with the library: it is initialised and briefly trained at the
reference configuration, then saved with ``save_model``.

The seed changes every value and boundary position. It never changes the
amount of work or its order: track lengths come from a fixed ladder and
section counts from a fixed list, so two seeds give the same number of
frames, pairs and window steps, and allocate in the same sizes and order.
That keeps run-to-run spread down to what the machine adds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

DIMENSION = 50
HIDDEN = 512
CONTEXT = 50
LAYERS = 2
STRONG_DIMS = 5
WEAK_DIMS = 5
STRONG_LEVEL = 0.8
WEAK_LEVEL = 0.1
FLUCTUATION = (0.2, 0.8)
NOISE = 0.02
CLUSTERS = 2
DECIMALS = 6  # tag probabilities in real catalogs carry a few digits

# ingest: long tracks on a fixed length ladder, cut into planted sections, and
# in fixed slots a share (2 of 16) of tracks shorter than the 16-frame kernel.
INGEST_TRACKS = 16
INGEST_SHORT_SLOTS = (5, 11)
INGEST_LONG_LENGTHS = tuple(
    int(v) for v in np.linspace(1500, 3000, INGEST_TRACKS - len(INGEST_SHORT_SLOTS)).round()
)
INGEST_SECTION_FRAMES = (150, 300)
SHORT_MAX_FRAMES = 15

# train: 2 tracks of 7 and 11 sections give 16 pairs, one full batch of 16,
# with 76 of 800 window steps unmasked.
TRAIN_SECTION_COUNTS = (7, 11)
TRAIN_FRAMES_PER_SECTION = 2
# serve: 2,000 tracks of 9 sections each. Which tracks a playlist picks
# depends on the seed, so equal section counts keep the history lengths, and
# with them the work of every request, the same for every seed.
SERVE_SECTION_COUNTS = (9,)
SERVE_TRACKS = 2000
SERVE_MODEL_PAIRS = 16


def _cluster_levels(rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-cluster (strong dims, weak dims), disjoint strong sets."""
    order = rng.permutation(DIMENSION)
    clusters = []
    for cluster in range(CLUSTERS):
        strong = order[cluster * STRONG_DIMS : (cluster + 1) * STRONG_DIMS]
        rest = np.setdiff1d(np.arange(DIMENSION), strong)
        weak = rng.choice(rest, size=WEAK_DIMS, replace=False)
        clusters.append((strong, weak))
    return clusters


def _section_levels(rng: np.random.Generator, cluster, count: int) -> np.ndarray:
    """(count, D) planted section levels: fixed strong/weak dims, fresh fluctuating ones."""
    strong, weak = cluster
    levels = rng.uniform(*FLUCTUATION, size=(count, DIMENSION))
    levels[:, strong] = STRONG_LEVEL
    levels[:, weak] = WEAK_LEVEL
    return levels


def _noisy_frames(rng: np.random.Generator, levels: np.ndarray, lengths) -> np.ndarray:
    rows = np.repeat(levels, lengths, axis=0)
    rows = rows + NOISE * rng.standard_normal(rows.shape)
    return np.round(np.clip(rows, 0.0, 1.0), DECIMALS)


def _split_length(rng: np.random.Generator, total: int, lo: int, hi: int) -> list[int]:
    """Random section lengths in [lo, hi] that sum to ``total``."""
    count = int(rng.integers(-(-total // hi), total // lo + 1))
    lengths = np.full(count, lo)
    extra = total - lo * count
    while extra > 0:
        room = np.flatnonzero(lengths < hi)
        add = rng.multinomial(extra, np.full(room.size, 1.0 / room.size))
        add = np.minimum(add, hi - lengths[room])
        lengths[room] += add
        extra -= int(add.sum())
    return [int(v) for v in lengths]


def _record(track_id: str, frames: np.ndarray, starts=None, features=None) -> str:
    record = {"id": track_id, "frame_hop": 0.5, "frames": frames.tolist()}
    if starts is not None:
        record["segments"] = [
            {"start": int(s), "features": f.tolist()} for s, f in zip(starts, features)
        ]
    return json.dumps(record)


def _write_lines(path: Path, lines: list[str]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def make_ingest(rng: np.random.Generator, out: Path) -> None:
    """Raw (unsegmented) catalog plus the planted section starts of every track."""
    clusters = _cluster_levels(rng)
    long_lengths = iter(INGEST_LONG_LENGTHS)
    shortest = 1
    lines, truth = [], {}
    for index in range(INGEST_TRACKS):
        if index in INGEST_SHORT_SLOTS:
            total, shortest = shortest, int(rng.integers(2, SHORT_MAX_FRAMES + 1))
        else:
            total = next(long_lengths)
        if total > SHORT_MAX_FRAMES:
            sections = _split_length(rng, total, *INGEST_SECTION_FRAMES)
        else:
            sections = [total]
        levels = _section_levels(rng, clusters[index % CLUSTERS], len(sections))
        frames = _noisy_frames(rng, levels, sections)
        track_id = f"r{index:03d}"
        truth[track_id] = [int(v) for v in np.cumsum([0] + sections[:-1])]
        lines.append(_record(track_id, frames))
    _write_lines(out / "raw.jsonl", lines)
    (out / "truth.json").write_text(json.dumps({"starts": truth}))


def _segmented_lines(rng: np.random.Generator, counts, track_count: int, frames_per_section: int):
    """Pre-segmented tracks whose section counts cycle through ``counts``."""
    clusters = _cluster_levels(rng)
    counts = np.resize(np.array(counts), track_count)
    width = len(str(track_count - 1))
    lines = []
    for index, count in enumerate(counts):
        levels = _section_levels(rng, clusters[index % CLUSTERS], int(count))
        lengths = [frames_per_section] * int(count)
        frames = _noisy_frames(rng, levels, lengths)
        starts = np.arange(count) * frames_per_section
        features = np.clip(
            frames.reshape(int(count), frames_per_section, DIMENSION).mean(axis=1), 0.0, 1.0
        )
        lines.append(_record(f"t{index:0{width}d}", frames, starts, features))
    return lines


def make_train(rng: np.random.Generator, out: Path) -> None:
    lines = _segmented_lines(
        rng, TRAIN_SECTION_COUNTS, len(TRAIN_SECTION_COUNTS), TRAIN_FRAMES_PER_SECTION
    )
    _write_lines(out / "segmented.jsonl", lines)


def make_serve(rng: np.random.Generator, out: Path, seed: int) -> None:
    """Segmented 2,000-track catalog and a briefly trained reference-scale model."""
    from segue import catalog, model, rnn

    path = out / "segmented.jsonl"
    _write_lines(path, _segmented_lines(rng, SERVE_SECTION_COUNTS, SERVE_TRACKS, 1))
    pairs = catalog.build_training_sequences(catalog.load_catalog(path), CONTEXT)
    config = rnn.TrainConfig(context_length=CONTEXT, epochs=1, batch_size=16, seed=seed)
    untrained = rnn.init_model(LAYERS, HIDDEN, DIMENSION, seed=seed)
    trained, _ = rnn.train(untrained, pairs[:SERVE_MODEL_PAIRS], config)
    model.save_model(trained, out / "model.sgm")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "train", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the segue package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # A distinct stream per workload, so no two workloads share inputs by accident.
    rng = np.random.default_rng([args.seed, ("ingest", "train", "serve").index(args.workload)])
    if args.workload == "ingest":
        make_ingest(rng, out)
    elif args.workload == "train":
        make_train(rng, out)
    else:
        make_serve(rng, out, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
