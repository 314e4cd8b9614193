"""Deterministic fault injection: seeded schedules over named points.

Chaos testing a multi-process runtime with ``kill -9`` and sleeps makes
every failure test a timing lottery.  This module replaces the lottery
with a *schedule*: production code declares named **injection points**
(``faults.point("shm.publish")``) at the exact places a crash, delay or
torn write could happen, and a test installs a :class:`FaultPlan` that
fires a chosen action at a chosen *hit count* of a chosen point.  The
same seed always produces the same plan, so any chaos failure
reproduces exactly from its seed — no sleeps, no races, no flakes.

Design rules (mirroring :mod:`repro.obs`'s ``enabled`` discipline):

* **Zero overhead when disabled.**  Call sites guard every hook with
  ``if faults.enabled:`` — a single module-attribute load and branch.
  ``enabled`` is only ``True`` between :func:`install_plan` and
  :func:`clear_plan`; production never pays for the hooks.
* **Fork-inherited.**  A plan installed before processes fork rides
  into every shard/worker/broker via copy-on-write, so one plan arms
  the whole process tree.  Hit counters are per process (they reset
  when the pid changes), while each arm's *fire budget* lives in
  fork-shared memory — an arm with ``times=1`` fires exactly once
  across the entire tree, not once per process.
* **Actions.**  ``"error"`` raises :class:`FaultInjected`; ``"crash"``
  SIGKILLs the current process (a real hard death — locks stay held,
  buffers stay torn); ``"delay"`` sleeps ``delay`` seconds.  Any other
  action string is *site-interpreted*: :func:`point` returns it and the
  call site implements the corruption (e.g. ``"torn"`` at
  ``shm.publish.torn`` flips a byte in the published segment).

>>> plan = FaultPlan(seed=7, shared=False).at("demo.op", hit=2)
>>> with use_plan(plan):
...     point("demo.op")                      # hit 1: clean
...     try:
...         point("demo.op")                  # hit 2: armed
...     except FaultInjected as exc:
...         print(exc.point_name, exc.hit)
demo.op 2
>>> enabled
False

Known points (kept in sync with the hooks in the codebase; the chaos
battery schedules over this list):

===================== =====================================================
``shm.publish``       entry of :func:`repro.runtime.shm.publish_pack`
``shm.publish.torn``  site-interpreted ``"torn"``: corrupt the pack body
``shm.attach``        entry of :func:`repro.runtime.shm.attach_pack`
``pool.build``        worker process, after receiving a build job
``broker.loop``       broker process, per message handled
``fleet.shard.op``    shard server, per command received
``fleet.shard.update`` shard server, per scoring/update command only
``coordinator.build`` any coordinator (broker too), per build attempt
``serving.flush``     detection server, per dispatch flush
===================== =====================================================
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "KNOWN_POINTS", "FaultInjected", "FaultPlan", "active_plan",
    "clear_plan", "enabled", "install_plan", "point", "use_plan",
]

KNOWN_POINTS: Tuple[str, ...] = (
    "shm.publish", "shm.publish.torn", "shm.attach", "pool.build",
    "broker.loop", "fleet.shard.op", "fleet.shard.update",
    "coordinator.build", "serving.flush",
)

#: Module-level guard, mirroring ``obs.enabled``: call sites do
#: ``if faults.enabled: faults.point(...)`` so the disabled path costs
#: one attribute load + branch.
enabled: bool = False

_plan: Optional["FaultPlan"] = None


class FaultInjected(RuntimeError):
    """Raised by an ``"error"``-action arm when its point fires."""

    def __init__(self, point_name: str, hit: int):
        super().__init__(f"injected fault at point {point_name!r} "
                         f"(hit {hit})")
        self.point_name = point_name
        self.hit = hit

    def __reduce__(self):
        # Default Exception pickling replays ``args`` (the rendered
        # message) into ``__init__`` — keep the real constructor args so
        # the fault survives a worker's result pipe intact.
        return (FaultInjected, (self.point_name, self.hit))


class _Arm:
    """One scheduled fault: fire ``action`` at the ``hit``-th visit of
    ``point`` in any process, at most ``times`` times tree-wide."""

    __slots__ = ("point", "hit", "action", "delay", "_budget")

    def __init__(self, point_name: str, hit: int, action: str,
                 delay: float, times: int, shared: bool):
        if hit < 1:
            raise ValueError(f"hit must be >= 1, got {hit}")
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self.point = point_name
        self.hit = int(hit)
        self.action = action
        self.delay = float(delay)
        if shared:
            import multiprocessing
            self._budget = multiprocessing.get_context("fork").Value(
                "i", int(times))
        else:
            self._budget = _LocalBudget(int(times))

    def try_fire(self) -> bool:
        """Atomically consume one unit of budget; False when spent."""
        with self._budget.get_lock():
            if self._budget.value <= 0:
                return False
            self._budget.value -= 1
        return True

    def describe(self) -> dict:
        return {"point": self.point, "hit": self.hit,
                "action": self.action, "delay": self.delay}


class _LocalBudget:
    """Process-local stand-in for ``mp.Value`` (``shared=False`` plans)."""

    __slots__ = ("value", "_lock")

    def __init__(self, value: int):
        self.value = value
        import threading
        self._lock = threading.Lock()

    def get_lock(self):
        return self._lock


class FaultPlan:
    """A deterministic set of armed faults.

    Arms are added explicitly with :meth:`at` or drawn from a seeded
    generator with :meth:`schedule`; either way the plan is fully
    determined by its construction, so :meth:`describe` (JSON-pure)
    plus the seed reproduce it exactly.

    ``shared=True`` (the default) allocates each arm's fire budget in
    fork-shared memory — required whenever the plan is inherited by
    forked processes, because a respawned process resets its *hit
    counters* and would otherwise re-fire the same arm forever (crash
    loop).  ``shared=False`` keeps budgets process-local for pure
    single-process unit tests and doctests.

    >>> a = FaultPlan(seed=3, shared=False).schedule(["p", "q"], n_faults=2)
    >>> b = FaultPlan(seed=3, shared=False).schedule(["p", "q"], n_faults=2)
    >>> a.describe() == b.describe()
    True
    """

    def __init__(self, seed: Optional[int] = None, shared: bool = True):
        self.seed = seed
        self._shared = bool(shared)
        self._rng = random.Random(seed)
        self._arms: Dict[str, List[_Arm]] = {}
        self._hits: Dict[str, int] = {}
        self._pid = os.getpid()
        self.fired: List[dict] = []     # per-process record, for debugging

    # -- construction -------------------------------------------------
    def at(self, point_name: str, hit: int = 1, action: str = "error",
           delay: float = 0.0, times: int = 1) -> "FaultPlan":
        """Arm ``action`` at the ``hit``-th visit of ``point_name``."""
        arm = _Arm(point_name, hit, action, delay, times, self._shared)
        self._arms.setdefault(point_name, []).append(arm)
        return self

    def schedule(self, points: Sequence[str], n_faults: int,
                 actions: Sequence[str] = ("error",),
                 max_hit: int = 5) -> "FaultPlan":
        """Draw ``n_faults`` arms over ``points`` from the plan's seed."""
        for _ in range(int(n_faults)):
            self.at(self._rng.choice(list(points)),
                    hit=self._rng.randint(1, int(max_hit)),
                    action=self._rng.choice(list(actions)))
        return self

    # -- introspection ------------------------------------------------
    def describe(self) -> dict:
        """JSON-pure view: seed + every arm, for failure reports."""
        return {"seed": self.seed,
                "arms": [arm.describe()
                         for arms in self._arms.values() for arm in arms]}

    def hits(self, point_name: str) -> int:
        """This process's visit count of ``point_name``."""
        self._reset_if_forked()
        return self._hits.get(point_name, 0)

    # -- firing -------------------------------------------------------
    def _reset_if_forked(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # New process lineage: count its own visits from zero so a
            # schedule means the same thing in every process.
            self._pid = pid
            self._hits = {}
            self.fired = []

    def visit(self, point_name: str) -> Optional[str]:
        """Count a visit; return the action to perform (or ``None``)."""
        self._reset_if_forked()
        count = self._hits.get(point_name, 0) + 1
        self._hits[point_name] = count
        for arm in self._arms.get(point_name, ()):
            if arm.hit == count and arm.try_fire():
                self.fired.append({"point": point_name, "hit": count,
                                   "action": arm.action, "pid": self._pid})
                return arm.action if arm.action != "delay" else _sleep_action(
                    arm.delay)
        return None


def _sleep_action(delay: float) -> None:
    time.sleep(delay)
    return None


def point(name: str) -> Optional[str]:
    """Visit injection point ``name``; fire any armed fault.

    Built-in actions are performed here: ``"error"`` raises
    :class:`FaultInjected`, ``"crash"`` SIGKILLs the process,
    ``"delay"`` sleeps.  Any other action string is returned for the
    call site to interpret (e.g. ``"torn"``).  Call sites guard with
    ``if faults.enabled:`` so this is never reached in production.
    """
    plan = _plan
    if plan is None:
        return None
    action = plan.visit(name)
    if action is None:
        return None
    if action == "error":
        raise FaultInjected(name, plan.hits(name))
    if action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)                  # pragma: no cover - death racing
    return action


def install_plan(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (and, via fork, tree-wide).

    Install *before* constructing pools/brokers/fleets: their processes
    fork at construction and only inherit a plan installed first.
    """
    global _plan, enabled
    _plan = plan
    enabled = True


def clear_plan() -> None:
    """Disarm fault injection; hooks return to the free disabled path."""
    global _plan, enabled
    _plan = None
    enabled = False


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None``."""
    return _plan


@contextlib.contextmanager
def use_plan(plan: FaultPlan):
    """Context manager: install ``plan``, restore the prior state after.

    The restore matters in tests — a leaked plan would arm fault hooks
    for every later test in the process.
    """
    previous = _plan
    install_plan(plan)
    try:
        yield plan
    finally:
        if previous is None:
            clear_plan()
        else:
            install_plan(previous)
