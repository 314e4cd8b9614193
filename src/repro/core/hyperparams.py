"""Unsupervised hyperparameter selection — the median strategy (Section 3.3,
Algorithm 2).

No outlier labels exist at tuning time, so quality scores are *validation
reconstruction errors*.  Picking the configuration with the **lowest** error
tends to overfit (a model that reconstructs everything — outliers included —
cannot separate them), so the paper selects the configuration whose error is
the **median** of all evaluated candidates:

1. split the (unlabelled) series into training and validation parts;
2. random-search combinations ``(w, β, λ)``; train a small ensemble per
   combination; record its validation reconstruction error; take the
   combination with the median error as the *default* triple;
3. for each hyperparameter in turn, sweep its full range holding the other
   two at their defaults, and keep the value with the median error.

The returned :class:`SelectionResult` retains every trial so the Figure 14
and 15 experiments can re-plot error-ordered candidate curves.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.preprocess import train_validation_split
from .config import CAEConfig, EnsembleConfig
from .ensemble import CAEEnsemble

# Paper search spaces (Section 4.1.4): β = i/10, λ = 2^j, w = 2^k.
DEFAULT_BETA_RANGE: Tuple[float, ...] = tuple(i / 10.0 for i in range(1, 10))
DEFAULT_LAMBDA_RANGE: Tuple[float, ...] = tuple(float(2 ** j)
                                                for j in range(0, 7))
DEFAULT_WINDOW_RANGE: Tuple[int, ...] = tuple(2 ** k for k in range(2, 9))


@dataclasses.dataclass(frozen=True)
class Trial:
    """One evaluated hyperparameter setting."""
    window: int
    beta: float
    lam: float
    reconstruction_error: float


@dataclasses.dataclass
class SelectionResult:
    """Outcome of Algorithm 2, with full trial logs for the figures."""
    window: int
    beta: float
    lam: float
    default_trial: Trial
    random_trials: List[Trial]
    window_sweep: List[Trial]
    beta_sweep: List[Trial]
    lambda_sweep: List[Trial]


def median_trial(trials: Sequence[Trial]) -> Trial:
    """The trial whose reconstruction error is the (lower) median."""
    if not trials:
        raise ValueError("no trials to select from")
    ordered = sorted(trials, key=lambda t: t.reconstruction_error)
    return ordered[(len(ordered) - 1) // 2]


def _evaluate(series_train: np.ndarray, series_val: np.ndarray,
              input_dim: int, window: int, beta: float, lam: float,
              base_cae: CAEConfig, base_ensemble: EnsembleConfig,
              seed: int) -> Trial:
    """Train one small ensemble and measure validation reconstruction error."""
    max_window = min(series_train.shape[0], series_val.shape[0])
    window = min(window, max_window)
    cae_config = dataclasses.replace(base_cae, input_dim=input_dim,
                                     window=window)
    ensemble_config = dataclasses.replace(base_ensemble,
                                          transfer_fraction=beta,
                                          diversity_weight=lam, seed=seed)
    ensemble = CAEEnsemble(cae_config, ensemble_config)
    ensemble.fit(series_train)
    error = ensemble.validation_reconstruction_error(series_val)
    return Trial(window=window, beta=beta, lam=lam,
                 reconstruction_error=error)


def select_hyperparameters(
        series: np.ndarray,
        base_cae: CAEConfig,
        base_ensemble: Optional[EnsembleConfig] = None,
        n_random_trials: int = 5,
        beta_range: Sequence[float] = DEFAULT_BETA_RANGE,
        lambda_range: Sequence[float] = DEFAULT_LAMBDA_RANGE,
        window_range: Sequence[int] = DEFAULT_WINDOW_RANGE,
        validation_fraction: float = 0.3,
        seed: int = 0,
        sweep_subsample: Optional[int] = None) -> SelectionResult:
    """Run Algorithm 2 end to end on an unlabelled series.

    Parameters
    ----------
    series:           raw (L, D) series, labels never consulted.
    base_cae:         architecture template (window is overwritten).
    base_ensemble:    training template (β, λ, seed overwritten); defaults
                      to a small fast setting appropriate for tuning.
    n_random_trials:  random-search budget for the default triple.
    sweep_subsample:  optionally evaluate only this many values per sweep
                      (evenly spaced) to bound CPU cost; None sweeps all.

    Returns
    -------
    :class:`SelectionResult` with the selected ``(w_opt, β_opt, λ_opt)``.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"expected (L, D) series, got {series.shape}")
    rng = np.random.default_rng(seed)
    train, validation = train_validation_split(series, validation_fraction)
    input_dim = series.shape[1]
    if base_ensemble is None:
        base_ensemble = EnsembleConfig(n_models=2, epochs_per_model=2,
                                       max_training_windows=512)

    def run(window: int, beta: float, lam: float, trial_seed: int) -> Trial:
        return _evaluate(train, validation, input_dim, window, beta, lam,
                         base_cae, base_ensemble, trial_seed)

    # -- step 1: random search for the default triple -------------------
    random_trials: List[Trial] = []
    for i in range(n_random_trials):
        window = int(rng.choice(window_range))
        beta = float(rng.choice(beta_range))
        lam = float(rng.choice(lambda_range))
        random_trials.append(run(window, beta, lam, seed + i))
    default = median_trial(random_trials)

    def subsample(values: Sequence) -> List:
        if sweep_subsample is None or len(values) <= sweep_subsample:
            return list(values)
        index = np.linspace(0, len(values) - 1, sweep_subsample).round()
        return [values[int(i)] for i in index]

    # -- step 2: per-parameter sweeps around the default ------------------
    window_sweep = [run(w, default.beta, default.lam, seed + 100 + i)
                    for i, w in enumerate(subsample(window_range))]
    w_opt = median_trial(window_sweep).window

    beta_sweep = [run(default.window, b, default.lam, seed + 200 + i)
                  for i, b in enumerate(subsample(beta_range))]
    beta_opt = median_trial(beta_sweep).beta

    lambda_sweep = [run(default.window, default.beta, lam, seed + 300 + i)
                    for i, lam in enumerate(subsample(lambda_range))]
    lambda_opt = median_trial(lambda_sweep).lam

    return SelectionResult(window=w_opt, beta=beta_opt, lam=lambda_opt,
                           default_trial=default,
                           random_trials=random_trials,
                           window_sweep=window_sweep,
                           beta_sweep=beta_sweep,
                           lambda_sweep=lambda_sweep)


# Paper Table 2: hyperparameters the authors selected with this strategy.
PAPER_SELECTED_HYPERPARAMETERS: Dict[str, Dict[str, float]] = {
    "ecg":  {"beta": 0.5, "lambda": 2.0,  "window": 16},
    "msl":  {"beta": 0.7, "lambda": 16.0, "window": 16},
    "smap": {"beta": 0.9, "lambda": 2.0,  "window": 16},
    "smd":  {"beta": 0.2, "lambda": 32.0, "window": 32},
    "wadi": {"beta": 0.5, "lambda": 1.0,  "window": 32},
}
