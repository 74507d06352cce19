"""Admission control and micro-batching for the coloring daemon.

Requests enter a bounded :class:`asyncio.Queue` (a full queue is an
immediate 503 -- the daemon sheds load instead of buffering unboundedly)
and leave in *micro-batches*: consecutive waiting requests that share a
batch key (same topology identity + same algorithm class, see
:func:`repro.serve.schema.batch_key`) are coalesced into one pool
dispatch, so the mapped topology and its derived caches are paid for
once per batch rather than once per request.

Batching is opportunistic, not windowed: a batch is whatever compatible
work is *already waiting* when the dispatcher looks -- an idle daemon
adds zero latency, a loaded one amortizes naturally.  Non-matching
requests stay in a holdover deque in arrival order, so heterogeneous
traffic cannot starve.

Dispatches run concurrently (each batch is its own task awaiting its
pool future), which keeps all pool workers busy under mixed traffic.  A
batch whose worker dies is retried once on a freshly restarted pool;
requests in a batch that fails terminally get the exception, and the
daemon keeps serving.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..obs import metrics as obs_metrics
from .pool import PoolSupervisor
from .schema import batch_key


class ServerBusy(Exception):
    """The admission queue is full (HTTP 503)."""


class _Pending:
    __slots__ = ("spec", "key", "future", "enqueued")

    def __init__(self, spec: Dict[str, Any], future: "asyncio.Future"):
        self.spec = spec
        self.key = batch_key(spec)
        self.future = future
        self.enqueued = time.perf_counter()


class Batcher:
    """Queue -> micro-batch -> pool bridge; one per server."""

    def __init__(self, supervisor: PoolSupervisor,
                 max_batch: int = 8, max_queue: int = 256):
        self.supervisor = supervisor
        self.max_batch = max(1, max_batch)
        self.max_queue = max_queue
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._holdover: Deque[_Pending] = deque()
        self._task: Optional["asyncio.Task"] = None
        self._dispatches: set = set()
        self.batches = 0
        self.batched_requests = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Admit one request; resolves to its executor payload."""
        queue = self._admission()
        if queue.full():
            raise ServerBusy(
                f"admission queue full ({self.max_queue} waiting)"
            )
        item = _Pending(spec, asyncio.get_running_loop().create_future())
        queue.put_nowait(item)
        return await item.future

    def depth(self) -> int:
        """Requests admitted but not yet dispatched."""
        queued = self._queue.qsize() if self._queue is not None else 0
        return queued + len(self._holdover)

    def stats(self) -> Dict[str, Any]:
        batches = self.batches
        return {
            "depth": self.depth(),
            "capacity": self.max_queue,
            "max_batch": self.max_batch,
            "batches": batches,
            "batched_requests": self.batched_requests,
            "mean_batch": (self.batched_requests / batches
                           if batches else 0.0),
            "largest_batch": self.largest_batch,
        }

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _admission(self) -> "asyncio.Queue[_Pending]":
        """The admission queue, created on first use inside the serving
        loop: before Python 3.10 a Queue binds the loop current at
        construction, which is not the one ``asyncio.run`` serves on."""
        if self._queue is None:
            self._queue = asyncio.Queue(self.max_queue)
        return self._queue

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        # Let in-flight dispatches deliver their responses.
        if self._dispatches:
            await asyncio.gather(*tuple(self._dispatches),
                                 return_exceptions=True)

    async def _run(self) -> None:
        while True:
            batch = await self._next_batch()
            task = asyncio.get_running_loop().create_task(
                self._dispatch(batch)
            )
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _next_batch(self) -> List[_Pending]:
        """Form the next micro-batch from waiting compatible requests."""
        queue = self._admission()
        if not self._holdover:
            self._holdover.append(await queue.get())
        # Sweep everything already admitted into the holdover so the
        # batch sees the full waiting set, not just the queue head.
        while not queue.empty():
            self._holdover.append(queue.get_nowait())
        first = self._holdover.popleft()
        batch = [first]
        rest: Deque[_Pending] = deque()
        while self._holdover and len(batch) < self.max_batch:
            item = self._holdover.popleft()
            if item.key == first.key:
                batch.append(item)
            else:
                rest.append(item)
        rest.extend(self._holdover)
        self._holdover = rest
        return batch

    async def _dispatch(self, batch: List[_Pending]) -> None:
        specs = [item.spec for item in batch]
        dispatched = time.perf_counter()
        loop = asyncio.get_running_loop()
        payloads: Optional[List[Dict[str, Any]]] = None
        error: Optional[BaseException] = None
        for attempt in (0, 1):
            try:
                future = await loop.run_in_executor(
                    None, self.supervisor.submit_batch, specs
                )
                result = await asyncio.wrap_future(future)
                payloads = self._unwrap(result)
                error = None
                break
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - fault barrier
                # Typically BrokenProcessPool from a worker killed
                # mid-batch; rebuild the pool and retry this batch once.
                error = exc
                if attempt == 0:
                    await loop.run_in_executor(
                        None, self.supervisor.restart
                    )
        self.batches += 1
        self.batched_requests += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        # One batch-size observation per batch and one queue-wait
        # observation per dispatched request, so the histogram
        # invariants hold by construction: batch-size count == batches,
        # batch-size sum == batched_requests, queue-wait count ==
        # batched_requests.
        obs_metrics.histogram(
            "repro_batch_size", "Requests coalesced per pool dispatch",
            buckets=obs_metrics.SIZE_BUCKETS,
        ).observe(len(batch))
        wait_hist = obs_metrics.histogram(
            "repro_queue_wait_seconds",
            "Admission-to-dispatch wait per request",
            buckets=obs_metrics.LATENCY_BUCKETS,
        )
        for item in batch:
            wait_hist.observe(dispatched - item.enqueued)
        for index, item in enumerate(batch):
            if item.future.done():  # client went away
                continue
            if error is not None or payloads is None:
                item.future.set_exception(
                    RuntimeError(f"batch execution failed: {error}")
                )
                continue
            payload = payloads[index]
            timing = payload.setdefault("timing", {})
            timing["queue_wait_s"] = dispatched - item.enqueued
            payload["batch"] = {"size": len(batch), "index": index}
            item.future.set_result(payload)

    @staticmethod
    def _unwrap(result: Any) -> List[Dict[str, Any]]:
        """Extract payloads from a pool result, folding in worker metrics.

        The supervisor dispatches
        :func:`~repro.serve.executor.execute_batch_metrics`, which wraps
        the payload list with the worker's registry delta and pid; a
        plain list (tests driving :func:`execute_batch` directly) passes
        through untouched.  Same-pid deltas -- thread-mode pools share
        this process, whose registry already saw the updates -- are
        dropped to avoid double-counting.
        """
        if not isinstance(result, dict):
            return result
        delta = result.get("metrics")
        if delta and result.get("pid") != os.getpid():
            try:
                obs_metrics.merge(delta)
            except obs_metrics.MetricError:
                pass  # foreign layout must not fail the batch
        return result["payloads"]
