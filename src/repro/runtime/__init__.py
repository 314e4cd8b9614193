"""``repro.runtime`` — the multi-process fleet runtime.

The streaming stack (:mod:`repro.streaming`) serves and refreshes inside
one process; this package moves the expensive halves out of it:

* :mod:`repro.runtime.shm` — fused weight packs published through
  ``multiprocessing.shared_memory`` with a generation-tagged manifest:
  a build worker exports a replacement ensemble's fused pack once, and
  every server process attaches it zero-copy (read-only views into the
  segment), verified by a SHA-256 fingerprint against torn publishes.
* :mod:`repro.runtime.pool` — :class:`ProcessBuildPool`, forked build
  workers behind the coordinator's ``build_runner`` seam: admission,
  dedup, fan-out and cancellation stay in-process, the training CPU
  moves out.
* :mod:`repro.runtime.broker` — :class:`BuildBroker`, admission as a
  process: one broker drives the same admission core as the
  coordinator for N server processes, pool workers pull builds, and
  one published pack fans out to every subscribing server.  Servers
  degrade to a private in-process coordinator if the broker dies.
* :mod:`repro.runtime.fleet` — :class:`ShardedFleet`, a
  :class:`~repro.streaming.multi.StreamFleet` sharded over N forked
  server processes (stable crc32 routing), with scatter/gather
  micro-batch ingest, merged telemetry
  (:func:`repro.obs.merge_snapshots`) and per-shard checkpoints.
* :mod:`repro.runtime.supervisor` — the recovery policies the others
  compose: :class:`RetryPolicy` (exponential backoff, full jitter),
  :class:`CircuitBreaker` (per-ensemble failure isolation) and
  :class:`RestartPolicy` (windowed respawn budgets behind the fleet's
  shard supervision and the broker's watchdog).

POSIX only: everything forks, nothing pickles an mp primitive.
"""

from .shm import (AttachedPack, OrphanedSegmentError, PackServedEnsemble,
                  TornPackError, attach_pack, attach_pack_to_ensemble,
                  list_segments, publish_pack, segment_namespace,
                  set_segment_namespace, sweep_orphans, unlink_pack)
from .pool import ProcessBuildPool, WorkerCrashed, worker_context
from .broker import BuildBroker, ProcessCoordinator
from .fleet import ShardCrashed, ShardedFleet, shard_for
from .supervisor import (BREAKER_STATES, BreakerOpen, CircuitBreaker,
                         RestartPolicy, RetryPolicy)

__all__ = [
    "AttachedPack", "OrphanedSegmentError", "PackServedEnsemble",
    "TornPackError", "attach_pack", "attach_pack_to_ensemble",
    "list_segments", "publish_pack", "segment_namespace",
    "set_segment_namespace", "sweep_orphans", "unlink_pack",
    "ProcessBuildPool", "WorkerCrashed", "worker_context",
    "BuildBroker", "ProcessCoordinator",
    "ShardCrashed", "ShardedFleet", "shard_for",
    "BREAKER_STATES", "BreakerOpen", "CircuitBreaker",
    "RestartPolicy", "RetryPolicy",
]
