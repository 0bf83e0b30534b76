"""Playlist generation from learned within-track feature transitions.

The engine segments each track into structural sections via checkerboard
novelty, trains a stacked LSTM to predict the feature vector of the section
that should come next, and builds playlists by repeatedly appending the
candidate track whose start section best matches the prediction under a
pluggable similarity measure (cosine, Euclidean, or top-weighted DCG).
"""

from .catalog import (
    Catalog,
    CatalogError,
    Track,
    TrainingPair,
    build_training_sequences,
    load_catalog,
    save_catalog,
)
from .features import (
    StandardizationStats,
    SynthSpec,
    fit_standardizer,
    fold_standardizer,
    generate_synthetic_catalog,
)
from .model import (
    LstmLayerParams,
    ModelCorruptError,
    ModelFormatError,
    ModelShapeError,
    ModelVersionError,
    SequenceModel,
    load_model,
    save_model,
)
from .playlist import (
    Playlist,
    PlaylistStep,
    TransitionMatrix,
    coherence_report,
    export_transition_matrix,
    generate,
    read_transition_csv,
    write_transition_csv,
)
from .rnn import (
    LossReport,
    LstmState,
    TrainConfig,
    TrainingDivergedError,
    forward,
    init_model,
    loss_and_gradients,
    lstm_step,
    predict_next,
    train,
    zero_state,
)
from .segmentation import (
    SegmentationParams,
    checkerboard_kernel,
    novelty_curve,
    pick_peaks,
    segment_catalog,
    segment_track,
)
from .similarity import (
    Metric,
    NeighbourGap,
    RankedCandidates,
    cosine_distance,
    dcg_similarity,
    l2_distance,
    nearest_neighbour_gap,
    rank_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "CatalogError",
    "LossReport",
    "LstmLayerParams",
    "LstmState",
    "Metric",
    "ModelCorruptError",
    "ModelFormatError",
    "ModelShapeError",
    "ModelVersionError",
    "NeighbourGap",
    "Playlist",
    "PlaylistStep",
    "RankedCandidates",
    "SegmentationParams",
    "SequenceModel",
    "StandardizationStats",
    "SynthSpec",
    "Track",
    "TrainConfig",
    "TrainingDivergedError",
    "TrainingPair",
    "TransitionMatrix",
    "build_training_sequences",
    "checkerboard_kernel",
    "coherence_report",
    "cosine_distance",
    "dcg_similarity",
    "export_transition_matrix",
    "fit_standardizer",
    "fold_standardizer",
    "forward",
    "generate",
    "generate_synthetic_catalog",
    "init_model",
    "l2_distance",
    "load_catalog",
    "load_model",
    "loss_and_gradients",
    "lstm_step",
    "nearest_neighbour_gap",
    "novelty_curve",
    "pick_peaks",
    "predict_next",
    "rank_candidates",
    "read_transition_csv",
    "save_catalog",
    "save_model",
    "segment_catalog",
    "segment_track",
    "train",
    "write_transition_csv",
    "zero_state",
]
