"""CAE-Ensemble: diversity-driven training and median scoring (Algorithm 1).

The ensemble generates basic models sequentially.  Model ``f_1`` trains
normally; each later ``f_m`` (i) inherits a random β-fraction of
``f_{m−1}``'s parameters (:mod:`repro.core.transfer`) and (ii) trains with
the diversity-driven objective ``J − λ·K`` against the frozen output of the
ensemble built so far (:mod:`repro.core.diversity`).  The final outlier
score of an observation is the **median** of the per-model reconstruction
errors (Eq. 15), mapped from windows back to observations using the
Figure 10 protocol.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence

import numpy as np

from ..datasets.preprocess import StandardScaler
from ..datasets.windows import (sample_windows, sliding_windows,
                                window_scores_to_observation_scores)
from ..nn import Tensor, inference_dtype, no_grad
from .cae import CAE
from .config import CAEConfig, EnsembleConfig
from .diversity import ensemble_diversity
from .fused import FusedEnsembleScorer
from .fused_training import FusedEnsembleTrainer
from .transfer import TransferReport, transfer_parameters


@dataclasses.dataclass
class EpochRecord:
    """Loss bookkeeping for one training epoch of one basic model."""
    model_index: int
    epoch: int
    loss: float
    reconstruction: float
    diversity: float


class TrainingCancelled(RuntimeError):
    """Raised by :meth:`CAEEnsemble.fit` when its ``cancel`` flag is set.

    Cooperative: the flag is polled between basic-model fits (the unit of
    progress worth preserving), so a cancelled fit stops before training
    its next model rather than mid-epoch.  The ensemble is restored to its
    exact pre-``fit`` state — models, scaler, history, transfer reports
    and ``train_seconds_`` all roll back, so a cancelled refit leaves a
    previously fitted instance serving its old generation, and a fresh
    instance unfitted.  Callers that cancel a build must keep serving
    their previous models.
    """

    def __init__(self, models_trained: int):
        super().__init__(f"ensemble fit cancelled after "
                         f"{models_trained} basic model(s)")
        self.models_trained = models_trained


class CAEEnsemble:
    """Diversity-driven convolutional autoencoder ensemble.

    Typical use::

        ensemble = CAEEnsemble(CAEConfig(input_dim=D), EnsembleConfig())
        ensemble.fit(train_series)            # (L, D) raw series
        scores = ensemble.score(test_series)  # one score per observation

    All randomness flows from ``ensemble_config.seed``.
    """

    def __init__(self, cae_config: CAEConfig,
                 ensemble_config: Optional[EnsembleConfig] = None):
        self.cae_config = cae_config
        self.config = ensemble_config or EnsembleConfig()
        self.models: List[CAE] = []
        self.scaler: Optional[StandardScaler] = None
        self.history: List[EpochRecord] = []
        self.transfer_reports: List[TransferReport] = []
        self.train_seconds_: float = 0.0
        self._rng = np.random.default_rng(self.config.seed)
        # Scoring path: fused batched inference by default (see
        # repro.core.fused); flip to False to force the per-model loop.
        self.fused_inference: bool = True
        self._fused_scorer: Optional[FusedEnsembleScorer] = None

    # ------------------------------------------------------------------
    # Training (Algorithm 1)
    # ------------------------------------------------------------------
    def fit(self, series: np.ndarray, verbose: bool = False,
            warm_start: Optional[Sequence[CAE]] = None,
            warm_start_fraction: Optional[float] = None,
            cancel=None, reuse_rng: bool = False) -> "CAEEnsemble":
        """Train all basic models on an unlabelled series ``(L, D)``.

        Each basic model trains through the batched stage trainer of
        :mod:`repro.core.fused_training` (one batched GEMM per layer per
        step, ``fused_training_dtype`` compute precision), against the
        frozen mean of the models before it.

        ``warm_start`` optionally provides an already-trained generation of
        basic models (same architecture config): basic model ``i`` then
        inherits a random ``warm_start_fraction`` (default: the config's
        transfer β) of old model ``i``'s parameters before training — the
        drift-triggered refresh path of :mod:`repro.streaming.refresh`.
        Models without a warm-start counterpart fall back to the usual
        chain transfer from their predecessor.

        ``cancel`` is an optional cooperative-cancellation flag (anything
        with ``is_set() -> bool``, e.g. a ``threading.Event``), polled
        before each basic-model fit.  A set flag raises
        :class:`TrainingCancelled` — the release valve for superseded or
        abandoned background refresh builds
        (:mod:`repro.streaming.coordinator`), which would otherwise train
        all remaining models for a result nobody will serve.  Any
        exception (a cancellation, or a series too short for one window)
        rolls the ensemble back to its exact pre-fit state.

        The ensemble RNG is re-seeded from ``config.seed`` at the top of
        every fit, so repeated ``fit()`` calls on one instance are
        reproducible ("all randomness flows from ``ensemble_config.seed``").
        Pass ``reuse_rng=True`` to intentionally continue the generator's
        current stream instead (distinct-but-deterministic refits).
        """
        if not reuse_rng:
            self._rng = np.random.default_rng(self.config.seed)
        snapshot = (self.models, self.scaler, self.history,
                    self.transfer_reports, self.train_seconds_,
                    self._fused_scorer)
        start_time = time.perf_counter()
        try:
            trainer = FusedEnsembleTrainer(
                self.cae_config, self.config,
                self._prepare_training_windows(series))
            self.models = []
            self._fused_scorer = None
            self.history = []
            self.transfer_reports = []
            warm_models = list(warm_start) if warm_start is not None else []
            warm_fraction = self.config.transfer_fraction \
                if warm_start_fraction is None else warm_start_fraction

            for model_index in range(self.config.n_models):
                if cancel is not None and cancel.is_set():
                    raise TrainingCancelled(model_index)
                model = CAE(self.cae_config,
                            np.random.default_rng(self._rng.integers(2 ** 32)))
                if model_index < len(warm_models) and warm_fraction > 0.0:
                    report = transfer_parameters(warm_models[model_index],
                                                 model, warm_fraction,
                                                 self._rng)
                    self.transfer_reports.append(report)
                elif model_index > 0 and self.config.transfer_fraction > 0.0:
                    report = transfer_parameters(
                        self.models[-1], model,
                        self.config.transfer_fraction, self._rng)
                    self.transfer_reports.append(report)
                # The trainer keeps the Eq. 8 running sum of the finished
                # models' outputs and trains this one against its mean.
                stage_records = trainer.train_model(
                    model, model_index, self._rng, verbose=verbose)
                for epoch, loss, j_value, k_value in stage_records:
                    self.history.append(EpochRecord(
                        model_index=model_index, epoch=epoch, loss=loss,
                        reconstruction=j_value, diversity=k_value))
                self.models.append(model)
        except BaseException:
            # Restore the exact pre-fit state: a failed or cancelled refit
            # keeps serving its previous generation, a fresh build stays
            # unfitted.
            (self.models, self.scaler, self.history, self.transfer_reports,
             self.train_seconds_, self._fused_scorer) = snapshot
            raise

        self.train_seconds_ = time.perf_counter() - start_time
        return self

    def _prepare_training_windows(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError(f"expected (L, D) series, got {series.shape}")
        if series.shape[1] != self.cae_config.input_dim:
            raise ValueError(f"series has {series.shape[1]} dims, model "
                             f"expects {self.cae_config.input_dim}")
        if not np.all(np.isfinite(series)):
            raise ValueError("series contains NaN or infinite values; "
                             "impute or drop them before training")
        if self.config.rescale:
            self.scaler = StandardScaler().fit(series)
            series = self.scaler.transform(series)
        else:
            self.scaler = None
        return sample_windows(series, self.cae_config.window,
                              self.config.max_training_windows, self._rng)

    def _model_output(self, model: CAE, windows: np.ndarray,
                      batch_size: int = 256) -> np.ndarray:
        """Frozen forward pass over all windows, ``(N, w, out)``."""
        outputs = np.empty(
            (windows.shape[0], self.cae_config.window,
             self.cae_config.output_dim), dtype=np.float64)
        with no_grad():
            for start in range(0, windows.shape[0], batch_size):
                batch = Tensor(windows[start:start + batch_size])
                outputs[start:start + batch_size] = model(batch).data
        return outputs

    # ------------------------------------------------------------------
    # Scoring (Eq. 14/15 + Figure 10)
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self.models:
            raise RuntimeError("ensemble must be fitted before scoring")

    def _transform(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError(f"expected (L, D) series, got {series.shape}")
        if not np.all(np.isfinite(series)):
            raise ValueError("series contains NaN or infinite values; "
                             "impute or drop them before scoring")
        if self.scaler is not None:
            series = self.scaler.transform(series)
        return series

    def _use_fused(self, fused: Optional[bool]) -> bool:
        return self.fused_inference if fused is None else bool(fused)

    def fused_scorer(self, dtype=None) -> FusedEnsembleScorer:
        """The cached :class:`~repro.core.fused.FusedEnsembleScorer`.

        Built lazily from the current ``models`` and rebuilt automatically
        whenever the model instances change (a refresh swap, a reload, a
        refit) or the requested compute dtype differs from the cached one.
        ``dtype`` defaults to the thread's
        :func:`repro.nn.inference_dtype` policy (float32).  In-place
        mutation of an existing model's weights is *not* detected — call
        :meth:`invalidate_fused` after surgery like ``load_state_dict``
        on an already-scored model.
        """
        self._require_fitted()
        dtype = np.dtype(inference_dtype() if dtype is None else dtype)
        scorer = self._fused_scorer
        if scorer is None or scorer.dtype != dtype \
                or scorer.aggregation != self.config.aggregation \
                or not scorer.matches(self.models):
            scorer = FusedEnsembleScorer(self.models, self.cae_config,
                                         aggregation=self.config.aggregation,
                                         dtype=dtype)
            self._fused_scorer = scorer
        return scorer

    def prepare_fused(self, dtype=None) -> FusedEnsembleScorer:
        """Eagerly pack the fused weights (e.g. on a refresh build thread)
        so the first post-swap score does not pay the packing cost."""
        return self.fused_scorer(dtype=dtype)

    def invalidate_fused(self) -> None:
        """Drop the cached fused scorer (next fused score repacks)."""
        self._fused_scorer = None

    def window_scores(self, series: np.ndarray,
                      n_models: Optional[int] = None,
                      fused: Optional[bool] = None) -> np.ndarray:
        """Aggregated per-window per-timestamp scores, ``(N, w)``.

        ``n_models`` restricts aggregation to the first ``n_models`` basic
        models (used by the Figure 16 "effect of the number of basic
        models" experiment without retraining).  ``fused`` overrides the
        ensemble's ``fused_inference`` default (the batched single-pass
        engine vs. the per-model loop; see :mod:`repro.core.fused`).
        """
        self._require_fitted()
        series = self._transform(series)
        # Zero-copy: the windows stay a strided view over the scaled
        # series; both scoring paths consume it without materialising.
        windows = sliding_windows(series, self.cae_config.window)
        if self._use_fused(fused):
            return self.fused_scorer().window_scores(windows,
                                                     n_models=n_models)
        models = self.models if n_models is None else self.models[:n_models]
        if not models:
            raise ValueError("n_models must be >= 1")
        per_model = np.stack([model.window_scores(windows)
                              for model in models])        # (M, N, w)
        if self.config.aggregation == "median":
            return np.median(per_model, axis=0)
        return per_model.mean(axis=0)

    def score(self, series: np.ndarray,
              n_models: Optional[int] = None,
              fused: Optional[bool] = None) -> np.ndarray:
        """One outlier score per observation of ``series`` (length L).

        Figure 10 keeps the first window's full score row and only the
        last entry of every later window, so the fused path scores the
        head window at full width and the tail through
        :meth:`score_windows_last`'s causal-suffix decoder: float32
        ``score(series)[i]`` equals the online score for ``i >= w``.
        """
        if not self._use_fused(fused):
            aggregated = self.window_scores(series, n_models=n_models,
                                            fused=False)
            return window_scores_to_observation_scores(
                aggregated, self.cae_config.window)
        self._require_fitted()
        windows = sliding_windows(self._transform(series),
                                  self.cae_config.window)
        scorer = self.fused_scorer()
        head = scorer.window_scores(windows[:1], n_models=n_models)[0]
        tail = scorer.score_windows_last(windows[1:], n_models=n_models)
        return np.concatenate([head, tail])

    def score_window(self, window: np.ndarray,
                     fused: Optional[bool] = None) -> float:
        """Online mode: score the *last* observation of one window.

        This is the streaming path of Table 8 — a new observation arrives,
        a window of it plus its ``w−1`` predecessors is scored in one
        batched pass over the whole ensemble.
        """
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (self.cae_config.window, self.cae_config.input_dim):
            raise ValueError(f"expected ({self.cae_config.window}, "
                             f"{self.cae_config.input_dim}) window, "
                             f"got {window.shape}")
        return float(self.score_windows_last(window[None], fused=fused)[0])

    def score_windows_last(self, windows: np.ndarray,
                           fused: Optional[bool] = None) -> np.ndarray:
        """Micro-batched online scoring: each window's *last* observation.

        ``windows`` is ``(B, w, D)`` in raw observation space — typically
        the windows ending at each of B freshly-arrived observations.  One
        batched pass over the whole ensemble covers the micro-batch,
        amortising the per-call overhead of :meth:`score_window` across B
        arrivals (the ``repro.streaming`` hot path).  Returns ``(B,)``
        aggregated scores.
        """
        self._require_fitted()
        windows = np.asarray(windows, dtype=np.float64)
        expected = (self.cae_config.window, self.cae_config.input_dim)
        if windows.ndim != 3 or windows.shape[1:] != expected:
            raise ValueError(f"expected (B, {expected[0]}, {expected[1]}) "
                             f"windows, got {windows.shape}")
        if self.scaler is not None:
            # One broadcast pass onto a scoring copy — no (B*w, D)
            # reshape round-trip through StandardScaler.transform.
            windows = windows - self.scaler.mean_
            windows /= self.scaler.std_
        if self._use_fused(fused):
            return self.fused_scorer().score_windows_last(windows)
        per_model = np.stack([model.window_scores(windows)[:, -1]
                              for model in self.models])      # (M, B)
        if self.config.aggregation == "median":
            return np.median(per_model, axis=0)
        return per_model.mean(axis=0)

    def detect(self, series: np.ndarray,
               threshold: Optional[float] = None,
               ratio: Optional[float] = None) -> np.ndarray:
        """Binary outlier predictions.

        Either pass an explicit score ``threshold`` (domain knowledge) or a
        known outlier ``ratio`` — the top-ratio scores are flagged.
        """
        scores = self.score(series)
        if threshold is None:
            if ratio is None:
                raise ValueError("provide either threshold or ratio")
            from ..metrics.thresholding import top_k_threshold
            threshold = top_k_threshold(scores, ratio * 100.0)
        return (scores > threshold).astype(np.int64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def model_outputs(self, series: np.ndarray) -> List[np.ndarray]:
        """Each basic model's reconstruction of the series' windows.

        Used by the Table 6 experiment to evaluate Eq. 10 diversity.
        """
        self._require_fitted()
        series = self._transform(series)
        windows = sliding_windows(series, self.cae_config.window)
        return [self._model_output(model, windows) for model in self.models]

    def diversity(self, series: np.ndarray) -> float:
        """Eq. 10 ensemble diversity evaluated on ``series``."""
        return ensemble_diversity(self.model_outputs(series))

    def validation_reconstruction_error(self, series: np.ndarray) -> float:
        """Mean aggregated reconstruction error — the Algorithm 2 quality
        score (no labels involved)."""
        return float(self.window_scores(series).mean())

    @property
    def n_models(self) -> int:
        return len(self.models)
