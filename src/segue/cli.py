"""Command-line pipeline: synthesize or ingest catalogs, segment, train,
generate playlists, compare metrics, and export transition matrices.

Every output file (``-o``, ``--loss-out``, ``--transitions-out``) appears whole
or not at all (``files.atomic_output``): a failed write leaves the previous
file as it was, ``generate`` builds its transition matrix before it
replaces either of its files, and ``train`` creates both of its files before
the first epoch, so a target it cannot create fails the run before training.

Exit codes: 0 success, 1 usage error, 2 data or validation error, 3 training
divergence. Every run echoes its resolved configuration to stderr so results
can be reproduced exactly. Set SEGUE_LOG=debug|info|warning|error (any case) to
control log verbosity; any other value is a validation error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import ExitStack
from pathlib import Path

from . import playlist as playlist_mod
from .catalog import CatalogError, build_training_sequences, load_catalog, save_catalog
from .features import SynthSpec, generate_synthetic_catalog
from .features import fit_standardizer, fold_standardizer
from .files import atomic_output
from .model import ModelFormatError, _write_model, load_model
from .rnn import TrainConfig, TrainingDivergedError, init_model, train
from .segmentation import SegmentationParams, segment_catalog
from .similarity import DEFAULT_NN_THRESHOLD, METRIC_NAMES, Metric


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="segue",
        description="Playlist generation from learned within-track feature transitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = sub.add_parser("synth", help="emit a synthetic catalog with planted structure")
    synth.add_argument("-o", "--output", required=True, help="catalog file to write (JSON lines)")
    synth.add_argument("--tracks", type=int, default=20, help="number of tracks (default 20)")
    synth.add_argument("--clusters", type=int, default=2, help="number of track clusters (default 2)")
    synth.add_argument("--dim", type=int, default=50, help="feature dimension (default 50)")
    synth.add_argument("--min-segments", type=int, default=4, help="min planted sections per track")
    synth.add_argument("--max-segments", type=int, default=7, help="max planted sections per track")
    synth.add_argument("--strong-dims", type=int, default=5, help="consistently strong dims per track")
    synth.add_argument("--weak-dims", type=int, default=5, help="consistently weak dims per track")
    synth.add_argument("--min-segment-frames", type=int, default=24, help="min frames per section")
    synth.add_argument("--max-segment-frames", type=int, default=40, help="max frames per section")
    synth.add_argument("--noise", type=float, default=0.02, help="per-frame noise scale (default 0.02)")
    synth.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")

    segment = sub.add_parser("segment", help="detect section boundaries and segment features")
    segment.add_argument("-i", "--input", required=True, help="catalog file to read")
    segment.add_argument("-o", "--output", required=True, help="segmented catalog file to write")
    segment.add_argument("--kernel-size", type=int, default=16,
                         help="checkerboard kernel size in frames, even (default 16)")
    segment.add_argument("--kernel-sigma", type=float, default=None,
                         help="Gaussian taper width (default kernel size / 4)")
    segment.add_argument("--peak-threshold", type=float, default=None,
                         help="novelty threshold (default mean + 1 stddev of the curve)")
    segment.add_argument("--min-segment-length", type=int, default=4,
                         help="min frames between boundaries (default 4)")

    train_p = sub.add_parser(
        "train",
        help="train the sequence model on within-track transitions",
        epilog="Desk-scale defaults; the full-scale reference configuration is "
               "--hidden 512 --context-length 50.",
    )
    train_p.add_argument("-i", "--input", required=True, help="segmented catalog file")
    train_p.add_argument("-o", "--output", required=True, help="model file to write")
    train_p.add_argument("--layers", type=int, default=2, help="LSTM layers (default 2)")
    train_p.add_argument("--hidden", type=int, default=64,
                         help="hidden units per layer (default 64; reference scale 512)")
    train_p.add_argument("--context-length", type=int, default=8,
                         help="window length in segments (default 8; reference scale 50)")
    train_p.add_argument("--epochs", type=int, default=200, help="training epochs (default 200)")
    train_p.add_argument("--learning-rate", type=float, default=1e-3, help="step size (default 1e-3)")
    train_p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam",
                         help="update rule (default adam)")
    train_p.add_argument("--batch-size", type=int, default=16, help="minibatch size (default 16)")
    train_p.add_argument("--clip-norm", type=float, default=5.0,
                         help="global gradient-norm clip (default 5.0)")
    train_p.add_argument("--seed", type=int, default=0, help="init and shuffle seed (default 0)")
    train_p.add_argument("--standardize", action="store_true",
                         help="train on z-scored inputs; the saved model takes raw ones (default off)")
    train_p.add_argument("--loss-out", default=None, help="optional CSV path for the loss history")

    generate = sub.add_parser("generate", help="generate a playlist from a seed track")
    _add_generate_args(generate)
    generate.add_argument("--metric", choices=METRIC_NAMES, required=True, help="ranking measure")
    generate.add_argument("-o", "--output", required=True, help="playlist JSON to write")
    generate.add_argument("--transitions-out", default=None,
                          help="optional transition-matrix CSV to write")

    compare = sub.add_parser("compare", help="generate one playlist per metric and compare coherence")
    _add_generate_args(compare)
    compare.add_argument("--metrics", default="cosine,l2,dcg",
                         help="comma-separated metrics (default cosine,l2,dcg)")
    compare.add_argument("-o", "--output", required=True, help="comparison report JSON to write")

    export = sub.add_parser("export-transitions", help="export a playlist's transition matrix CSV")
    export.add_argument("-i", "--input", required=True, help="segmented catalog file")
    export.add_argument("-p", "--playlist", required=True, help="playlist JSON written by generate")
    export.add_argument("-o", "--output", required=True, help="CSV path to write")

    return parser


def _add_generate_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--input", required=True, help="segmented catalog file")
    parser.add_argument("-m", "--model", required=True, help="trained model file")
    parser.add_argument("--seed-track", required=True, help="id of the first track")
    parser.add_argument("--length", type=int, default=5, help="target track count (default 5)")
    parser.add_argument("--dcg-depth", type=int, default=None,
                        help="DCG ranking depth (default: feature dimension)")
    parser.add_argument("--nn-threshold", type=float, default=DEFAULT_NN_THRESHOLD,
                        help="cosine distance above which a no-near-neighbour event is logged")


_LOG_LEVELS = ("debug", "info", "warning", "error")


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("SEGUE_LOG") or "warning"
    if level.lower() not in _LOG_LEVELS:
        print(f"segue: error: SEGUE_LOG={level!r} is not one of {'|'.join(_LOG_LEVELS)}",
              file=sys.stderr)
        return 2
    logging.basicConfig(stream=sys.stderr, level=level.upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _echo_config(args)
    handler = {
        "synth": _run_synth,
        "segment": _run_segment,
        "train": _run_train,
        "generate": _run_generate,
        "compare": _run_compare,
        "export-transitions": _run_export,
    }[args.command]
    try:
        return handler(args)
    except TrainingDivergedError as exc:
        print(f"segue: training diverged: {exc}", file=sys.stderr)
        return 3
    except (CatalogError, ModelFormatError, ValueError, OSError) as exc:
        print(f"segue: error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


def _echo_config(args: argparse.Namespace) -> None:
    config = {key: value for key, value in sorted(vars(args).items())}
    print(f"# segue config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)


def _write_json(data: dict, path: str) -> None:
    with atomic_output(path) as handle:
        handle.write((json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _run_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        track_count=args.tracks,
        segment_range=(args.min_segments, args.max_segments),
        dimension=args.dim,
        strong_dims=args.strong_dims,
        weak_dims=args.weak_dims,
        cluster_count=args.clusters,
        noise=args.noise,
        seed=args.seed,
        frames_per_segment=(args.min_segment_frames, args.max_segment_frames),
    )
    save_catalog(generate_synthetic_catalog(spec), args.output)
    return 0


def _run_segment(args: argparse.Namespace) -> int:
    params = SegmentationParams(
        kernel_size=args.kernel_size,
        kernel_sigma=args.kernel_sigma,
        peak_threshold=args.peak_threshold,
        min_segment_length=args.min_segment_length,
    )
    save_catalog(segment_catalog(load_catalog(args.input), params), args.output)
    return 0


def _run_train(args: argparse.Namespace) -> int:
    config = TrainConfig(
        context_length=args.context_length,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        seed=args.seed,
        clip_norm=args.clip_norm,
    )
    catalog = load_catalog(args.input)
    stats = fit_standardizer(catalog) if args.standardize else None
    sequences = build_training_sequences(catalog, config.context_length, stats)
    model = init_model(args.layers, args.hidden, catalog.dimension, seed=args.seed)
    # Both outputs are created before training, so a run that cannot write one fails first.
    with ExitStack() as outputs:
        model_file = outputs.enter_context(atomic_output(args.output))
        loss_file = outputs.enter_context(atomic_output(args.loss_out)) if args.loss_out else None
        trained, report = train(model, sequences, config)
        if stats is not None:
            trained = fold_standardizer(trained, stats)
        _write_model(model_file, trained)
        if loss_file is not None:
            lines = ["epoch,loss"] + [
                f"{epoch},{loss!r}" for epoch, loss in enumerate(report.epoch_losses, start=1)
            ]
            loss_file.write(("\n".join(lines) + "\n").encode("utf-8"))
    print(f"# final loss: {report.final_loss!r} after {len(report.epoch_losses)} epochs",
          file=sys.stderr)
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    metric = Metric(kind=args.metric, dcg_depth=args.dcg_depth)
    catalog, model = load_catalog(args.input), load_model(args.model)
    result = playlist_mod.generate(
        catalog, model, args.seed_track, args.length, metric, nn_threshold=args.nn_threshold
    )
    matrix = (  # built before either file is replaced, so its failure replaces neither
        playlist_mod.export_transition_matrix(result, catalog) if args.transitions_out else None
    )
    _write_json(result.to_dict(), args.output)
    if matrix is not None:
        playlist_mod.write_transition_csv(matrix, args.transitions_out)
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.metrics.split(",") if name.strip()]
    if not names:
        raise ValueError("no metrics given")
    metrics = [Metric(kind=name, dcg_depth=args.dcg_depth) for name in names]
    repeated = next((name for index, name in enumerate(names) if name in names[:index]), None)
    if repeated is not None:
        raise ValueError(f"metric '{repeated}' is given more than once")
    catalog, model = load_catalog(args.input), load_model(args.model)
    playlists: dict[str, dict] = {}
    coherence: dict[str, dict] = {}
    for metric in metrics:
        name = metric.kind
        result = playlist_mod.generate(
            catalog, model, args.seed_track, args.length, metric, nn_threshold=args.nn_threshold
        )
        playlists[name] = result.to_dict()
        coherence[name] = (
            playlist_mod.coherence_report(result, catalog) if len(result) >= 2 else {}
        )
    report: dict = {
        "seed": args.seed_track,
        "length": args.length,
        "metrics": names,
        "playlists": playlists,
        "coherence": coherence,
    }
    if "dcg" in coherence and "cosine" in coherence and coherence["dcg"] and coherence["cosine"]:
        dcg_sim = coherence["dcg"]["mean_adjacent_similarity"]
        cos_sim = coherence["cosine"]["mean_adjacent_similarity"]
        report["dcg_vs_cosine"] = {
            "dcg_mean_adjacent_similarity": dcg_sim,
            "cosine_mean_adjacent_similarity": cos_sim,
            "dcg_more_coherent": bool(dcg_sim >= cos_sim),
        }
    _write_json(report, args.output)
    return 0


def _run_export(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.input)
    try:
        data = json.loads(Path(args.playlist).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{args.playlist}: playlist nests too deeply to read") from None
    result = playlist_mod.Playlist.from_dict(data)
    matrix = playlist_mod.export_transition_matrix(result, catalog)
    playlist_mod.write_transition_csv(matrix, args.output)
    return 0


if __name__ == "__main__":
    console_main()
