"""A minimal asyncio client for the detection service.

:class:`ServingClient` speaks the length-prefixed JSON protocol of
:mod:`repro.serving.protocol` over one TCP connection.  Requests on a
connection are serialized by an internal lock (write the frame, read
the matching reply), so one client is safe to share between tasks;
open several clients when you want requests *in flight concurrently* —
that is exactly what makes the server coalesce them into fused batches.

Two optional robustness knobs, both **off by default** (the bare client
behaves exactly as before):

* ``retry`` — a :class:`repro.runtime.supervisor.RetryPolicy`; responses
  the server uses for load shedding (``overloaded``) and shutdown
  (``draining``) are retried after the policy's exponential backoff with
  full jitter, so a fleet of clients does not hammer an overloaded
  server in lockstep.  Any other status returns verbatim.
* ``deadline`` — a per-request wall-clock bound in seconds.  A request
  (including all its retries) still unanswered at the deadline raises
  :class:`ServingTimeout` and **closes the connection**: the reply may
  still arrive later, and reading it as the answer to the *next* request
  would desynchronise the framing.

A sketch of a session (it needs a running server, so it is not a
doctest)::

    client = await ServingClient.connect("127.0.0.1", server.port,
                                         retry=RetryPolicy(seed=0))
    reply = await client.update("machine-7", observation)
    if reply["status"] == "overloaded":
        back_off_and_retry()
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Optional, Sequence

from .protocol import read_frame, write_frame

__all__ = ["ServingClient", "ServingTimeout"]

#: Statuses a ``retry`` policy re-attempts: transient server states
#: that clear on their own (shed load, a drain racing the request).
RETRYABLE_STATUSES = ("overloaded", "draining")


class ServingTimeout(ConnectionError):
    """A request (with its retries) outlived the client's deadline.

    The connection is closed when this raises — a late reply must not be
    mistaken for the answer to a later request — so callers reconnect
    before retrying.
    """


class ServingClient:
    """One connection to a :class:`~repro.serving.server.DetectionServer`.

    Construct via :meth:`connect`.  Every method returns the server's
    response dict verbatim — callers branch on ``response["status"]``
    (``ok`` / ``overloaded`` / ``draining`` / ``timeout`` / ``error``);
    the client raises only on transport failures
    (:class:`ConnectionError`, including :class:`ServingTimeout`).  With
    a ``retry`` policy, ``overloaded`` / ``draining`` responses are
    retried with backoff before being returned; with a ``deadline``,
    requests that outlive it raise :class:`ServingTimeout`.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, retry=None,
                 deadline: Optional[float] = None):
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self.retry = retry
        self.deadline = None if deadline is None else float(deadline)

    @classmethod
    async def connect(cls, host: str, port: int, retry=None,
                      deadline: Optional[float] = None) -> "ServingClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, retry=retry, deadline=deadline)

    async def request(self, payload: dict) -> dict:
        """Send one request and await its reply (serialized per client).

        Applies the client's ``retry`` policy to ``overloaded`` /
        ``draining`` responses and its ``deadline`` to the whole
        exchange (first attempt through last retry).
        """
        expires = None if self.deadline is None \
            else time.monotonic() + self.deadline
        attempt = 0
        while True:
            response = await self._exchange(payload, expires)
            if (self.retry is None
                    or response.get("status") not in RETRYABLE_STATUSES
                    or attempt >= self.retry.max_retries):
                return response
            delay = self.retry.delay_for(attempt)
            attempt += 1
            if expires is not None:
                remaining = expires - time.monotonic()
                if remaining <= delay:
                    # Sleeping would cross the deadline; the last
                    # response the server gave stands.
                    return response
            await asyncio.sleep(delay)

    async def _exchange(self, payload: dict,
                        expires: Optional[float]) -> dict:
        payload = dict(payload, id=next(self._ids))
        try:
            if expires is None:
                async with self._lock:
                    await write_frame(self._writer, payload)
                    response = await read_frame(self._reader)
            else:
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                async with self._lock:
                    response = await asyncio.wait_for(
                        self._roundtrip(payload), remaining)
        except asyncio.TimeoutError:
            # The reply may still be in flight; leaving the connection
            # open would hand it to the next request (framing desync).
            await self.close()
            raise ServingTimeout(
                f"no reply within {self.deadline}s for op "
                f"{payload.get('op')!r}; connection closed") from None
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    async def _roundtrip(self, payload: dict) -> Optional[dict]:
        await write_frame(self._writer, payload)
        return await read_frame(self._reader)

    async def update(self, stream: str,
                     observation: Sequence[float]) -> dict:
        return await self.request({"op": "update", "stream": stream,
                                   "observation": list(observation)})

    async def update_batch(self, stream: str, observations) -> dict:
        rows = [list(row) for row in observations]
        return await self.request({"op": "update_batch",
                                   "stream": stream,
                                   "observations": rows})

    async def warm_up(self, stream: str, series) -> dict:
        rows = [list(row) for row in series]
        return await self.request({"op": "warm_up", "stream": stream,
                                   "series": rows})

    async def metrics(self) -> dict:
        return await self.request({"op": "metrics"})

    async def healthz(self) -> dict:
        return await self.request({"op": "healthz"})

    async def telemetry(self) -> dict:
        return await self.request({"op": "telemetry"})

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServingClient":
        return self

    async def __aexit__(self, *exc_info) -> Optional[bool]:
        await self.close()
        return None
