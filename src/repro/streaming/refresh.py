"""Drift-triggered, warm-started ensemble refresh.

When the drift layer confirms the serving ensemble no longer models the
stream (:class:`~repro.streaming.drift.DriftEvent` of kind ``"drift"``),
the engine asks an :class:`EnsembleRefresher` to build a replacement:

* the retraining corpus is the engine's recent-history ring — the traffic
  the refreshed ensemble must actually model;
* each new basic model warm-starts from its predecessor generation via
  the paper's β-fraction parameter transfer
  (:func:`repro.core.transfer.transfer_parameters`, the Table 7 training
  saver), so refreshes are far cheaper than cold retrains while the
  un-copied fraction lets the models adapt to the shifted regime;
* the build happens on a *new* :class:`~repro.core.CAEEnsemble` instance;
  the engine keeps serving the old one and swaps atomically when the
  replacement is ready.

A ``cooldown`` and ``min_history`` gate prevents refresh storms when a
noisy stream re-triggers drift immediately after a refresh.

The mechanism is split in two so refreshes can run off the serving path
(:mod:`repro.streaming.coordinator`): :meth:`EnsembleRefresher.build`
constructs the replacement without touching any refresher state — safe to
call from a background thread — and :meth:`EnsembleRefresher.commit`
records the report and restarts the cooldown clock at the moment the
engine actually swaps the replacement in.  :meth:`EnsembleRefresher.refresh`
remains the synchronous build-and-commit convenience used by inline mode.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import check_legacy_fused_training
from ..core.ensemble import CAEEnsemble
from ..obs import trace
from .buffer import (DecayedReservoirBuffer, HistoryBuffer, ReservoirBuffer)

REFRESH_CORPORA = ("ring", "reservoir", "decayed_reservoir")


@dataclasses.dataclass(frozen=True)
class RefreshReport:
    """Summary of one completed refresh.

    ``index`` is the stream position at which the replacement started
    serving (the swap).  ``trigger_index`` is the drift arrival that
    requested it; ``index - trigger_index`` is the staleness window
    during which the old ensemble kept serving.  The lag is zero only
    when the refresh ran inline with its gates already open; an inline
    refresh deferred by the history/cooldown gates lags by the deferral,
    an async refresh additionally by its background build time.

    >>> report = RefreshReport(index=240, history_length=512,
    ...                        train_seconds=3.2,
    ...                        warm_start_fraction=0.3,
    ...                        copied_fraction=0.29,
    ...                        trigger_index=200, mode="async")
    >>> report.swap_lag                    # 40 arrivals of staleness
    40
    >>> report.warm_started
    True
    """
    index: int
    history_length: int
    train_seconds: float
    warm_start_fraction: float
    copied_fraction: float
    trigger_index: Optional[int] = None
    mode: str = "inline"

    @property
    def warm_started(self) -> bool:
        return self.copied_fraction > 0.0

    @property
    def swap_lag(self) -> int:
        """Arrivals between the drift trigger and the swap."""
        if self.trigger_index is None:
            return 0
        return self.index - self.trigger_index


class EnsembleRefresher:
    """Policy + mechanism for drift-triggered warm-started retraining.

    Parameters
    ----------
    min_history:         observations required in the history buffer
                         before a refresh is allowed.  None disables this
                         gate — the engine then only requires enough
                         history for one training window, so set an
                         explicit floor for production streams.
    cooldown:            minimum stream distance between refreshes.
    warm_start_fraction: β-fraction of old-model parameters copied into
                         each corresponding new model (default: the
                         ensemble config's transfer β).
    epochs_per_model:    training budget per basic model for refreshes
                         (default: same as the original fit).
    fused_training:      legacy input, kept so older callers construct:
                         every build trains fused, so only None and True
                         are accepted and nothing is stored.
    corpus:              sampling scheme of the retraining corpus the
                         engine maintains for this refresher — ``"ring"``
                         (most recent history), ``"reservoir"`` (uniform
                         over the whole stream) or
                         ``"decayed_reservoir"`` (recency-weighted with
                         surviving pre-drift blocks); see
                         :mod:`repro.streaming.buffer`.  The default None
                         means "no preference": a ring for fresh
                         detectors, whatever the checkpoint carries on
                         resume (an *explicit* corpus that conflicts with
                         a checkpoint's warns).
    corpus_block:        rows per sampled block for the reservoir corpora
                         (default: a multiple of the training window, so
                         block-boundary windows are a small fraction).
    corpus_seed:         seed of the reservoirs' per-block generators.
    corpus_decay:        per-block retention decay of the decayed
                         reservoir.

    The gates alone are cheap to exercise:

    >>> refresher = EnsembleRefresher(min_history=100, cooldown=50)
    >>> refresher.ready(history_length=50, index=0)    # history gate
    False
    >>> refresher.ready(history_length=100, index=0)
    True
    >>> refresher.commit(RefreshReport(index=240, history_length=100,
    ...                                train_seconds=1.0,
    ...                                warm_start_fraction=0.3,
    ...                                copied_fraction=0.3))
    >>> refresher.ready(history_length=500, index=250)  # cooldown gate
    False
    >>> refresher.ready(history_length=500, index=300)
    True
    """

    def __init__(self, min_history: Optional[int] = None, cooldown: int = 0,
                 warm_start_fraction: Optional[float] = None,
                 epochs_per_model: Optional[int] = None,
                 fused_training: Optional[bool] = None,
                 corpus: Optional[str] = None,
                 corpus_block: Optional[int] = None,
                 corpus_seed: int = 0, corpus_decay: float = 0.9):
        if min_history is not None and min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {min_history}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        if warm_start_fraction is not None and \
                not 0.0 <= warm_start_fraction <= 1.0:
            raise ValueError(f"warm_start_fraction must be in [0, 1], "
                             f"got {warm_start_fraction}")
        if epochs_per_model is not None and epochs_per_model < 1:
            raise ValueError(f"epochs_per_model must be >= 1, "
                             f"got {epochs_per_model}")
        if corpus is not None and corpus not in REFRESH_CORPORA:
            raise ValueError(f"corpus must be one of {REFRESH_CORPORA}, "
                             f"got {corpus!r}")
        if corpus_block is not None and corpus_block < 1:
            raise ValueError(f"corpus_block must be >= 1, "
                             f"got {corpus_block}")
        check_legacy_fused_training(fused_training)
        self.min_history = min_history
        self.cooldown = cooldown
        self.warm_start_fraction = warm_start_fraction
        self.epochs_per_model = epochs_per_model
        self.corpus = corpus
        self.corpus_block = corpus_block
        self.corpus_seed = corpus_seed
        self.corpus_decay = corpus_decay
        self.reports: List[RefreshReport] = []
        # Stream position of the newest refresh; checkpoint/resume restores
        # it so the cooldown clock survives restarts.
        self.last_refresh_index: Optional[int] = None

    def make_history_buffer(self, capacity: int, dims: int, window: int):
        """The retraining-corpus buffer this refresher wants the engine to
        maintain.  ``capacity`` bounds the retained rows; the reservoir
        corpora round it down to a whole number of blocks and carry the
        in-fill block on top (see :class:`~repro.streaming.buffer`
        docs for the exact bound)."""
        if self.corpus in (None, "ring"):
            return HistoryBuffer(capacity, dims)
        block = self.corpus_block
        if block is None:
            # Long enough that block-boundary windows are rare, small
            # enough that several blocks fit the corpus.
            block = max(window + 1, min(8 * window, capacity // 4))
        block = min(block, capacity)
        if self.corpus == "reservoir":
            return ReservoirBuffer(capacity, dims, block=block,
                                   seed=self.corpus_seed)
        return DecayedReservoirBuffer(capacity, dims, block=block,
                                      seed=self.corpus_seed,
                                      decay=self.corpus_decay)

    @property
    def n_refreshes(self) -> int:
        return len(self.reports)

    def ready(self, history_length: int, index: int) -> bool:
        """Whether a refresh may run now (history + cooldown gates)."""
        required = self.min_history
        if required is not None and history_length < required:
            return False
        if self.last_refresh_index is not None and \
                index - self.last_refresh_index < self.cooldown:
            return False
        return True

    def build(self, ensemble: CAEEnsemble, history: np.ndarray, index: int,
              generation: Optional[int] = None,
              trigger_index: Optional[int] = None,
              mode: str = "inline",
              cancel=None) -> Tuple[CAEEnsemble, RefreshReport]:
        """Build a warm-started replacement trained on ``history``.

        Pure with respect to the refresher: no reports are recorded and
        the cooldown clock does not move, so this is safe to run on a
        background thread while the engine keeps serving (call
        :meth:`commit` with the report once the replacement is swapped
        in).  The passed ``ensemble`` is read, never mutated.

        ``generation`` pins the replacement's seed offset; it defaults to
        the number of committed refreshes, which an async caller must
        capture at submit time so a build's seed does not depend on when
        it finishes.

        ``cancel`` is a cooperative-cancellation flag (``is_set()``
        duck-type) forwarded to :meth:`CAEEnsemble.fit`: a superseded or
        abandoned build raises
        :class:`~repro.core.ensemble.TrainingCancelled` before fitting
        its next basic model instead of training to completion
        (:mod:`repro.streaming.coordinator` sets it when a build loses
        its last subscriber).
        """
        history = np.asarray(history, dtype=np.float64)
        window = ensemble.cae_config.window
        if history.shape[0] < window + 1:
            raise ValueError(f"history of {history.shape[0]} observations "
                             f"cannot fill a training window of {window}")
        beta = ensemble.config.transfer_fraction \
            if self.warm_start_fraction is None else self.warm_start_fraction
        generation = self.n_refreshes if generation is None else generation
        overrides = {"seed": ensemble.config.seed + generation + 1}
        if self.epochs_per_model is not None:
            overrides["epochs_per_model"] = self.epochs_per_model
        config = dataclasses.replace(ensemble.config, **overrides)
        replacement = CAEEnsemble(ensemble.cae_config, config)
        replacement.fit(history, warm_start=ensemble.models,
                        warm_start_fraction=beta, cancel=cancel)
        # Pack the fused inference weights here, on the build thread, so
        # the serving thread's first post-swap score pays nothing.  The
        # span nests under the caller's refresh.build span when one is
        # current on this thread.
        with trace("refresh.pack", n_models=len(replacement.models)):
            replacement.prepare_fused()
        copied = sum(r.copied_parameters for r in replacement.transfer_reports)
        total = sum(r.total_parameters for r in replacement.transfer_reports)
        report = RefreshReport(index=index,
                               history_length=int(history.shape[0]),
                               train_seconds=replacement.train_seconds_,
                               warm_start_fraction=beta,
                               copied_fraction=copied / total if total
                               else 0.0,
                               trigger_index=index if trigger_index is None
                               else trigger_index,
                               mode=mode)
        return replacement, report

    def commit(self, report: RefreshReport) -> None:
        """Record a completed refresh at the moment its replacement starts
        serving; restarts the cooldown clock at ``report.index``."""
        self.reports.append(report)
        self.last_refresh_index = report.index

    def refresh(self, ensemble: CAEEnsemble, history: np.ndarray,
                index: int) -> Tuple[CAEEnsemble, RefreshReport]:
        """Synchronous build-and-commit (the inline refresh path).

        The passed ``ensemble`` is left untouched — it keeps serving until
        the caller swaps in the returned replacement.
        """
        replacement, report = self.build(ensemble, history, index)
        self.commit(report)
        return replacement, report
