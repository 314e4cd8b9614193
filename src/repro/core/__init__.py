"""``repro.core`` — the paper's contribution: CAE and CAE-Ensemble."""

from .attention import GlobalAttention
from .cae import CAE
from .config import CAEConfig, EnsembleConfig, fast_config, paper_config
from .diversity import (diversity_driven_loss, diversity_term,
                        ensemble_diversity, pairwise_diversity,
                        reconstruction_loss)
from .embedding import InputEmbedding
from .ensemble import CAEEnsemble, EpochRecord, TrainingCancelled
from .fused import FusedEnsembleScorer, fingerprint_arrays
from .hyperparams import (DEFAULT_BETA_RANGE, DEFAULT_LAMBDA_RANGE,
                          DEFAULT_WINDOW_RANGE,
                          PAPER_SELECTED_HYPERPARAMETERS, SelectionResult,
                          Trial, median_trial, select_hyperparameters)
from .layers import DecoderLayer, Encoder, EncoderLayer, GLUConv
from .persistence import (CheckpointError, load_ensemble, load_fleet,
                          load_sharded_fleet,
                          load_streaming_detector, save_ensemble,
                          save_fleet, save_sharded_fleet,
                          save_streaming_detector,
                          validate_sharded_checkpoint,
                          verify_checkpoint)
from .ratio_estimation import (elbow_ratio_estimate, estimate_outlier_ratio,
                               gaussian_tail_estimate, mad_ratio_estimate)
from .repair import (RepairResult, ensemble_reconstruction,
                     interpolate_over_mask, repair_quality, repair_series)
from .transfer import TransferReport, transfer_parameters

__all__ = [
    "CAE", "CAEConfig", "CAEEnsemble", "CheckpointError", "DecoderLayer",
    "DEFAULT_BETA_RANGE", "DEFAULT_LAMBDA_RANGE", "DEFAULT_WINDOW_RANGE",
    "Encoder", "EncoderLayer", "EnsembleConfig", "EpochRecord",
    "FusedEnsembleScorer", "GLUConv",
    "GlobalAttention", "InputEmbedding", "PAPER_SELECTED_HYPERPARAMETERS",
    "RepairResult", "SelectionResult", "TrainingCancelled",
    "TransferReport", "Trial",
    "diversity_driven_loss", "diversity_term", "elbow_ratio_estimate",
    "ensemble_diversity", "ensemble_reconstruction",
    "estimate_outlier_ratio", "fast_config", "fingerprint_arrays",
    "gaussian_tail_estimate",
    "interpolate_over_mask", "load_ensemble", "load_fleet",
    "load_sharded_fleet",
    "load_streaming_detector", "mad_ratio_estimate", "median_trial",
    "paper_config", "pairwise_diversity",
    "reconstruction_loss", "repair_quality", "repair_series",
    "save_ensemble", "save_fleet", "save_sharded_fleet",
    "save_streaming_detector",
    "select_hyperparameters", "transfer_parameters",
    "validate_sharded_checkpoint", "verify_checkpoint",
]
