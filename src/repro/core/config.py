"""Configuration objects for CAE and CAE-Ensemble.

Two presets are provided:

* :func:`paper_config` — the setting of Section 4.1.5 (D' = 256, 10 conv
  layers per coder, kernel 3, batch 64, Adam lr 1e-3, 8 basic models, a new
  model every 50 epochs).  Matches the published experiments; heavy on CPU.
* :func:`fast_config` — a scaled-down setting (D' = 32, 2 layers, few
  epochs) used by the test-suite and benchmark harness so the pure-NumPy
  substrate finishes in CPU time.  All architectural features (GLU,
  attention, diversity, transfer) remain enabled, so every code path the
  paper describes is exercised.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass
class CAEConfig:
    """Architecture of a single convolutional autoencoder (Section 3.1).

    Attributes
    ----------
    input_dim:     D — dimensionality of each observation.
    embed_dim:     D' — embedding / channel width (paper: 256).
    window:        w — window size (paper selects from {4 .. 256}).
    n_layers:      convolution layers in encoder and decoder (paper: 10).
    kernel_size:   1-D kernel width (paper: 3; Fig. 17 sweeps {3,5,7,9}).
    use_attention: per-decoder-layer global attention (ablated in Table 5).
    use_glu:       gated linear units in every conv block (Section 3.1.2).
    reconstruct:   'observations' scores raw windows (robust default);
                   'embedding' is the paper-literal Eq. 14 target (the
                   embedded vectors, with the target detached from the
                   graph to block the trivial collapse optimum).
    position_mode: 'linear' is the paper's W_p·t + b_p on the (normalised)
                   scalar position; 'table' is a learned lookup table.
    """
    input_dim: int
    embed_dim: int = 32
    window: int = 16
    n_layers: int = 2
    kernel_size: int = 3
    use_attention: bool = True
    use_glu: bool = True
    reconstruct: str = "observations"
    position_mode: str = "linear"

    def __post_init__(self):
        if self.input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if self.embed_dim <= 0:
            raise ValueError(f"embed_dim must be positive, got {self.embed_dim}")
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 1, "
                             f"got {self.kernel_size}")
        if self.reconstruct not in ("observations", "embedding"):
            raise ValueError(f"reconstruct must be 'observations' or "
                             f"'embedding', got {self.reconstruct!r}")
        if self.position_mode not in ("linear", "table"):
            raise ValueError(f"position_mode must be 'linear' or 'table', "
                             f"got {self.position_mode!r}")

    @property
    def output_dim(self) -> int:
        """Width of the reconstruction (depends on the target space)."""
        return self.input_dim if self.reconstruct == "observations" \
            else self.embed_dim


def check_legacy_fused_training(value) -> None:
    """Accept the retired ``fused_training`` switch only as a no-op.

    Every fit runs the fused trainer; the per-module loop it used to
    select survives only as the test suite's oracle.
    """
    if value is not None and value is not True:
        raise ValueError(
            f"fused_training={value!r} is not supported: every fit runs "
            f"the fused trainer, and the per-module loop survives only as "
            f"the test oracle (ReferenceTrainer in the test suite); pass "
            f"None or True")


@dataclasses.dataclass
class EnsembleConfig:
    """Training schedule of CAE-Ensemble (Section 3.2 / Algorithm 1).

    Attributes
    ----------
    n_models:          M — number of basic models (paper default: 8).
    epochs_per_model:  n — epochs before the next model is spawned
                       (paper default: 50).
    diversity_weight:  λ in Eq. 13 (paper sweeps 2^0 .. 2^6).
    transfer_fraction: β — fraction of parameters copied to each new model
                       (paper sweeps 0.1 .. 0.9).
    aggregation:       'median' (Eq. 15) or 'mean' (ablation).
    rescale:           apply z-score pre-processing (ablated in Table 5).
    """
    n_models: int = 8
    epochs_per_model: int = 50
    diversity_weight: float = 1.0
    transfer_fraction: float = 0.5
    batch_size: int = 64
    learning_rate: float = 1e-3
    aggregation: str = "median"
    rescale: bool = True
    grad_clip: Optional[float] = 5.0
    seed: int = 0
    # Cap on training windows (random subsample) so CPU training scales to
    # long series; None trains on every window as the paper does on GPUs.
    max_training_windows: Optional[int] = 4096
    # Optional per-model early stopping: stop a basic model's epochs once
    # the relative epoch-loss improvement stays below the tolerance for
    # `early_stop_patience` consecutive epochs.  This is how the
    # parameter-transfer saving of Table 7 manifests — warm-started models
    # converge in fewer epochs than cold-started ones.
    early_stop_tolerance: Optional[float] = None
    early_stop_patience: int = 1
    # Bound on the diversity reward (see repro.core.diversity): the loss is
    # J − λ·s·K/(K+s) with s = diversity_saturation, which caps the
    # equilibrium drift away from the data at roughly s·(√λ − 1).  The
    # default balances the paper's two empirical findings: ensembles must
    # become *more* diverse than independently trained ones (Table 6)
    # while the diversity must not degrade reconstruction (Table 5).
    diversity_saturation: float = 0.5
    # Compute precision of the fused batched stage trainer
    # (repro.core.fused_training) that every fit runs.
    fused_training_dtype: str = "float32"
    # Legacy input: every fit trains fused now, so only None and True are
    # accepted and nothing is stored (asdict and manifests drop it).
    fused_training: dataclasses.InitVar[Optional[bool]] = None

    def __post_init__(self, fused_training):
        check_legacy_fused_training(fused_training)
        if self.n_models < 1:
            raise ValueError(f"n_models must be >= 1, got {self.n_models}")
        if self.epochs_per_model < 1:
            raise ValueError(f"epochs_per_model must be >= 1, "
                             f"got {self.epochs_per_model}")
        if not 0.0 <= self.transfer_fraction <= 1.0:
            raise ValueError(f"transfer_fraction must be in [0, 1], "
                             f"got {self.transfer_fraction}")
        if self.diversity_weight < 0.0:
            raise ValueError(f"diversity_weight must be >= 0, "
                             f"got {self.diversity_weight}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, "
                             f"got {self.learning_rate}")
        if self.aggregation not in ("median", "mean"):
            raise ValueError(f"aggregation must be 'median' or 'mean', "
                             f"got {self.aggregation!r}")
        if self.grad_clip is not None and self.grad_clip <= 0.0:
            raise ValueError(f"grad_clip must be positive or None, "
                             f"got {self.grad_clip}")
        if self.max_training_windows is not None \
                and self.max_training_windows < 1:
            raise ValueError(f"max_training_windows must be >= 1 or None, "
                             f"got {self.max_training_windows}")
        if self.early_stop_patience < 1:
            raise ValueError(f"early_stop_patience must be >= 1, "
                             f"got {self.early_stop_patience}")
        if self.diversity_saturation <= 0.0:
            raise ValueError(f"diversity_saturation must be positive, "
                             f"got {self.diversity_saturation}")
        if self.fused_training_dtype not in ("float32", "float64"):
            raise ValueError(f"fused_training_dtype must be 'float32' or "
                             f"'float64', got {self.fused_training_dtype!r}")


def paper_config(input_dim: int, window: int = 16) -> "tuple[CAEConfig, EnsembleConfig]":
    """The published configuration (Section 4.1.5)."""
    cae = CAEConfig(input_dim=input_dim, embed_dim=256, window=window,
                    n_layers=10, kernel_size=3)
    ensemble = EnsembleConfig(n_models=8, epochs_per_model=50,
                              batch_size=64, learning_rate=1e-3)
    return cae, ensemble


def fast_config(input_dim: int, window: int = 16,
                seed: int = 0) -> "tuple[CAEConfig, EnsembleConfig]":
    """CPU-friendly configuration used by tests and benchmark harnesses."""
    cae = CAEConfig(input_dim=input_dim, embed_dim=32, window=window,
                    n_layers=2, kernel_size=3)
    ensemble = EnsembleConfig(n_models=3, epochs_per_model=3, batch_size=64,
                              learning_rate=2e-3, seed=seed)
    return cae, ensemble
