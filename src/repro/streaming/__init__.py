"""``repro.streaming`` — the online detection engine (the Table 8 workload
as a reusable subsystem).

Layers, bottom-up:

``buffer``       zero-copy ring buffers (current window + recent history)
                 and pluggable refresh corpora (uniform and
                 recency-weighted block reservoirs);
``calibration``  online, label-free alert thresholds (burn-in median+MAD,
                 exponentially-decayed quantile);
``drift``        concept-drift detectors over the reconstruction-error
                 stream (DDM-style chart, Page-Hinkley) emitting
                 :class:`DriftEvent`;
``refresh``      drift-triggered ensemble retraining on the refresh
                 corpus, warm-started via the paper's β parameter
                 transfer; split into thread-safe ``build`` and
                 swap-time ``commit``;
``admission``    :class:`~repro.streaming.admission.Admission` — the pure
                 admission state machine behind the coordinator and the
                 process broker;
``coordinator``  :class:`RefreshCoordinator` — the one background build
                 executor, so scoring latency stays flat while a
                 replacement trains; shared by a fleet (bounded
                 concurrency, FIFO/priority queueing, build dedup across
                 streams sharing one ensemble) or private to one stream,
                 with cooperative cancellation either way;
``engine``       :class:`StreamingDetector` — scalar ``update`` and
                 micro-batched ``update_batch`` scoring, wired to the
                 layers above;
``multi``        :class:`StreamFleet` — many named streams sharing fitted
                 detectors.

Quickstart::

    from repro.streaming import (BurnInMAD, DDMDrift, EnsembleRefresher,
                                 StreamingDetector)
    detector = StreamingDetector(fitted_ensemble,
                                 calibrator=BurnInMAD(200, 8.0),
                                 drift_detector=DDMDrift(),
                                 refresher=EnsembleRefresher(),
                                 refresh_mode="async")
    detector.warm_up(train_tail)
    for batch in micro_batches:
        for update in detector.update_batch(batch):
            if update.alert:
                page_someone(update)

Restart & refresh semantics
---------------------------
The guarantees the engine makes about model refreshes and checkpoints:

**Swap atomicity.**  The serving ensemble is only ever replaced *between*
scoring units.  Inline mode retrains inside the triggering arrival's
update and swaps before the next score; async mode builds on a background
thread while the old ensemble keeps serving, and adopts the replacement
at the next ``update()``/``update_batch()`` boundary (or an explicit
``poll_refresh()``).  Every score in a batch therefore comes from exactly
one ensemble — never a mixture — and each completed build swaps exactly
once.  After a swap the calibrator and drift detector are reset (the new
ensemble's score scale is different) and the next emitted
:class:`StreamUpdate` carries ``refreshed=True``.  A confirmed drift that
fires while an async build is already in flight follows the
``refresh_refire`` policy: ``"drop"`` discards the new trigger,
``"queue"`` keeps it pending so a follow-up build runs on post-swap
history once the current one lands.

**Checkpoint guarantees.**  ``state_dict``/``from_state`` (and the
``save_streaming_detector`` / ``save_fleet`` file formats) round-trip the
complete runtime state — buffers, calibration, drift statistics,
counters, refresh reports — exactly: a resumed detector produces
bit-identical :class:`StreamUpdate` sequences over the same future
traffic.  (In async mode that guarantee extends up to the next swap:
swap *placement* depends on wall-clock build time versus arrival rate,
so two async runs — interrupted or not — may swap at different
boundaries; inline refreshes are fully deterministic, which is what the
round-trip tests pin down.)  The refresher itself is *policy*, not
state, and is supplied
fresh on load; the cooldown clock, however, is stream state and is
persisted on the detector, so a refresher attached at (or any time
after) load inherits it and cannot refresh sooner than the uninterrupted
run would have.  An async build that is in flight at save time resolves
deterministically: the half-trained build is discarded and the refresh
*request* is saved as pending, so the resumed detector rebuilds the
replacement from its restored corpus once the gates next allow.  Fleet
checkpoints store each distinct ensemble once; streams that shared an
instance share the reloaded one.

**Corpus sampling.**  The refresh retraining corpus is pluggable via the
refresher's ``corpus`` option: ``"ring"`` keeps the most recent
``history`` rows (fastest tracking, no pre-drift context once the ring
turns over); ``"reservoir"`` keeps a uniform block sample of the whole
stream (maximal context, slowest tracking); ``"decayed_reservoir"``
keeps a recency-weighted block sample that mostly tracks recent traffic
while letting a geometrically-thinning set of older blocks survive.
All corpora are deterministic functions of (seed, rows pushed) and
checkpoint bit-identically.
"""

from .buffer import (DecayedReservoirBuffer, HistoryBuffer, ReservoirBuffer,
                     SlidingWindow, history_buffer_from_state)
from .calibration import (BurnInMAD, DecayedQuantile, calibrator_from_state,
                          robust_mad_threshold)
from .coordinator import (AdmissionClosed, CoordinatedRefreshClient,
                          CoordinatorStats, RefreshCoordinator,
                          RefreshHandle)
from .drift import (DDMDrift, DriftEvent, PageHinkley,
                    drift_detector_from_state)
from .engine import PreparedBatch, StreamingDetector, StreamUpdate
from .multi import (StreamFleet, StreamStats, shared_fleet,
                    sharded_fleet)
from .refresh import EnsembleRefresher, RefreshReport

__all__ = [
    "AdmissionClosed", "BurnInMAD", "CoordinatedRefreshClient",
    "CoordinatorStats", "DDMDrift",
    "DecayedQuantile", "DecayedReservoirBuffer", "DriftEvent",
    "EnsembleRefresher", "HistoryBuffer", "PageHinkley", "PreparedBatch",
    "RefreshCoordinator",
    "RefreshHandle", "RefreshReport", "ReservoirBuffer",
    "SlidingWindow", "StreamFleet", "StreamStats", "StreamUpdate",
    "StreamingDetector", "calibrator_from_state",
    "drift_detector_from_state", "history_buffer_from_state",
    "robust_mad_threshold", "shared_fleet", "sharded_fleet",
]
