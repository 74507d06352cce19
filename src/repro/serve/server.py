"""The coloring daemon: a stdlib-only asyncio HTTP/1.1 front end.

One :class:`ColoringServer` owns the whole warm-state story:

* boot: load the on-disk substrate cache (``REPRO_SIM_CACHE_DIR``),
  install shared-memory signal cleanup, spawn and warm the worker pool,
  publish any prewarm topologies, then start listening;
* steady state: parse requests, admit them through the
  :class:`~repro.serve.batcher.Batcher`, and stream JSON responses over
  keep-alive connections while tracking rolling latency percentiles;
* shutdown: stop accepting, drain in-flight batches, close the pool
  (releasing its shm topologies), and spill the substrate cache back to
  disk so the *next* boot starts warm.

The HTTP layer is deliberately minimal -- request line, headers,
``Content-Length`` bodies, keep-alive -- because the daemon talks to
benchmark harnesses and scripts, not browsers.  Routes:

=======  =========  ====================================================
method   path       purpose
=======  =========  ====================================================
GET      /healthz   liveness + uptime
GET      /stats     occupancy, latency percentiles, cache/pool counters
GET      /metrics   the unified registry in Prometheus text format
POST     /graphs    upload an edge list; returns a reusable graph handle
POST     /color     run one coloring request (see ``serve.schema``)
=======  =========  ====================================================

:class:`ServerHandle` hosts a server on a background thread with its own
event loop -- the harness tests and ``benchmarks/bench_serve.py`` use it
to drive a real TCP daemon in-process.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs.metrics import percentile
from .batcher import Batcher, ServerBusy
from .executor import resolve_topology
from .pool import PoolSupervisor
from .schema import (
    RequestError,
    envelope,
    parse_request,
    parse_topology,
)

#: Refuse request bodies above this size (inline edge lists included).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Rolling window for the /stats latency percentiles.
_LATENCY_WINDOW = 2048

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    503: "Service Unavailable",
}


# ``percentile`` is re-exported from :mod:`repro.obs.metrics`: the
# ceil-based upper nearest rank, shared with ``Histogram.quantile`` so
# the rolling window and the histogram view agree (the old local copy
# used ``round()``, whose banker's rounding resolved p50 of ``[1, 2]``
# to rank 1 and quietly accepted ``fraction=0.0``).
__all__ = ["ColoringServer", "ServerHandle", "percentile"]


class ColoringServer:
    """One daemon: listener + batcher + supervised warm worker pool."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 engine: Optional[str] = None,
                 mode: str = "process",
                 max_batch: int = 8,
                 max_queue: int = 256,
                 prewarm: Tuple[Dict[str, Any], ...] = ()):
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self.supervisor = PoolSupervisor(workers=workers, engine=engine,
                                         mode=mode)
        self.batcher = Batcher(self.supervisor, max_batch=max_batch,
                               max_queue=max_queue)
        self._prewarm = tuple(prewarm)
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_monotonic: Optional[float] = None
        self._latencies_ms: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.requests: Dict[str, int] = {
            "total": 0, "ok": 0, "errors": 0, "rejected": 0,
        }
        self._by_algorithm: Dict[str, int] = {}
        self._uploads: Dict[str, Dict[str, Any]] = {}
        self.boot: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm everything, then start listening (sets :attr:`port`)."""
        from ..sim import shm
        from ..substrates import cache

        loop = asyncio.get_running_loop()
        disk_loaded = cache.load_from_disk()
        shm.install_signal_cleanup()
        warmup_s = await loop.run_in_executor(None, self.supervisor.warm)
        prewarmed = []
        for raw in self._prewarm:
            topology = parse_topology(raw)
            key, compiled = await loop.run_in_executor(
                None, resolve_topology, topology
            )
            self.supervisor.add_topologies({key: compiled})
            prewarmed.append(str(key))
        self.boot = {
            "disk_cache_loaded": disk_loaded,
            "warmup_s": warmup_s,
            "prewarmed": prewarmed,
        }
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def stop(self) -> None:
        """Graceful shutdown: drain, close pool, spill caches to disk."""
        from ..substrates import cache

        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.close)
        cache.save_to_disk()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                if isinstance(body, int):  # oversized: body holds length
                    await self._respond(writer, 413, envelope(
                        "error", status="error",
                        error={"type": "PayloadTooLarge",
                               "message": f"body of {body} bytes exceeds "
                                          f"{MAX_BODY_BYTES}"},
                    ))
                    break
                status, payload = await self._route(method, path, body)
                keep = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, keep_alive=keep)
                if not keep:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError, ValueError):
            pass  # half-closed or garbled peer: drop the connection
        except asyncio.CancelledError:
            # Shutdown cancels handlers parked on an idle keep-alive
            # read; completing quietly keeps asyncio.run's teardown from
            # logging a spurious traceback per open connection.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF.

        Returns ``(method, path, headers, body)``; an oversized body is
        *not* read -- the body slot carries its length as an ``int``.
        """
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length > MAX_BODY_BYTES:
            return method, path, headers, length
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       keep_alive: bool = False) -> None:
        # A ``str`` payload is served verbatim as Prometheus text
        # (``GET /metrics``); everything else is a JSON envelope.
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed()
            return 200, envelope("health", status="ok",
                                 uptime_s=self.uptime_s())
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed()
            return 200, self._stats_payload()
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed()
            self._refresh_gauges()
            return 200, obs_metrics.exposition()
        if path == "/graphs":
            if method != "POST":
                return self._method_not_allowed()
            return await self._post_graph(body)
        if path == "/color":
            if method != "POST":
                return self._method_not_allowed()
            return await self._post_color(body)
        return 404, envelope("error", status="error", error={
            "type": "NotFound", "message": f"no route {path!r}",
        })

    @staticmethod
    def _method_not_allowed() -> Tuple[int, Dict[str, Any]]:
        return 405, envelope("error", status="error", error={
            "type": "MethodNotAllowed",
            "message": "use GET for /healthz, /stats and /metrics, "
                       "POST otherwise",
        })

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(f"body is not valid JSON: {error}") from None

    async def _post_graph(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        """Upload an edge list once; color it many times by handle."""
        try:
            raw = self._parse_body(body)
            if not isinstance(raw, dict):
                raise RequestError("graph upload must be a JSON object")
            topology = parse_topology({
                "kind": "edges",
                "n": raw.get("n"),
                "edges": raw.get("edges"),
            })
        except RequestError as error:
            return 400, envelope("error", status="error", error={
                "type": "RequestError", "message": str(error),
            })
        loop = asyncio.get_running_loop()
        key, compiled = await loop.run_in_executor(
            None, resolve_topology, topology
        )
        handles = self.supervisor.add_topologies({key: compiled})
        graph_id = topology["id"]
        self._uploads[graph_id] = {
            "n": topology["n"],
            "edges": topology["edges"],
            "published": key in handles,
        }
        return 200, envelope(
            "graph-upload", status="ok", id=graph_id,
            n=compiled.n, m=compiled.m,
            max_degree=compiled.raw_max_degree(),
            published=key in handles,
        )

    @staticmethod
    def _count_request(route: str, status: int) -> None:
        obs_metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by route and status code",
            labelnames=("route", "code"),
        ).labels(route=route, code=str(status)).inc()

    async def _post_color(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        status, payload = await self._color_inner(body)
        self._count_request("/color", status)
        return status, payload

    async def _color_inner(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        started = time.perf_counter()
        self.requests["total"] += 1
        try:
            spec = parse_request(self._parse_body(body))
        except RequestError as error:
            self.requests["rejected"] += 1
            return 400, envelope("error", status="error", error={
                "type": "RequestError", "message": str(error),
            })
        self._rewrite_upload(spec)
        name = spec["algorithm"]["name"]
        self._by_algorithm[name] = self._by_algorithm.get(name, 0) + 1
        try:
            payload = await self.batcher.submit(spec)
        except ServerBusy as error:
            self.requests["rejected"] += 1
            return 503, envelope("error", status="error", error={
                "type": "ServerBusy", "message": str(error),
            })
        except RuntimeError as error:
            self.requests["errors"] += 1
            return 500, envelope("error", status="error", error={
                "type": "BatchFailed", "message": str(error),
            })
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._latencies_ms.append(elapsed_ms)
        obs_metrics.histogram(
            "repro_request_seconds",
            "End-to-end /color latency (admission to response)",
            buckets=obs_metrics.LATENCY_BUCKETS,
        ).observe(elapsed_ms / 1000.0)
        payload["timing"]["request_wall_s"] = elapsed_ms / 1000.0
        if payload["status"] == "ok":
            self.requests["ok"] += 1
            return 200, envelope("coloring", **payload)
        self.requests["errors"] += 1
        status = 400 if payload["error"]["type"] == "RequestError" else 422
        return status, envelope("coloring", **payload)

    def _rewrite_upload(self, spec: Dict[str, Any]) -> None:
        """Resolve a ``graph`` handle the workers cannot see via shm.

        When the upload could not be published to shared memory (or a
        thread-mode pool shares this process anyway), the spec is
        rewritten to inline edges whose digest reproduces the same
        topology key, so caching and batching identities are unchanged.
        """
        topology = spec["topology"]
        if topology["kind"] != "graph":
            return
        record = self._uploads.get(topology["id"])
        if record is not None and not record["published"]:
            spec["topology"] = {
                "kind": "edges",
                "n": record["n"],
                "edges": record["edges"],
                "id": topology["id"],
            }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        """Push point-in-time server state into the registry gauges.

        Counters and histograms update at their call sites; gauges that
        mirror live server state (queue depth, pool size, uptime) are
        sampled here, immediately before a snapshot or exposition, so
        scrapes always see current values.
        """
        obs_metrics.gauge(
            "repro_queue_depth", "Requests admitted but not yet dispatched"
        ).set(float(self.batcher.depth()))
        pool = self.supervisor.stats()
        obs_metrics.gauge(
            "repro_pool_workers", "Worker processes/threads in the pool"
        ).set(float(pool.get("workers") or 0))
        obs_metrics.gauge(
            "repro_uptime_seconds", "Seconds since the daemon began listening"
        ).set(self.uptime_s())

    def _stats_payload(self) -> Dict[str, Any]:
        from ..sim import shm
        from ..substrates import cache

        self._refresh_gauges()
        # One snapshot backs every count in the response, so the cache
        # counters and the metrics section always agree.
        snap = obs_metrics.snapshot()
        window = tuple(self._latencies_ms)
        return envelope(
            "stats",
            status="ok",
            uptime_s=self.uptime_s(),
            boot=self.boot,
            requests={**self.requests,
                      "by_algorithm": dict(self._by_algorithm)},
            latency_ms={
                "window": len(window),
                "p50": percentile(window, 0.50),
                "p99": percentile(window, 0.99),
            },
            queue=self.batcher.stats(),
            pool=self.supervisor.stats(),
            caches={
                "enabled": cache.cache_enabled(),
                "registries": cache.registry_sizes(),
                "counters": cache.cache_counters(snap),
                "disk": cache.disk_state(),
            },
            topologies={
                "published": sorted(
                    str(key) for key in (shm.export_handles() or {})
                ),
                "uploads": len(self._uploads),
            },
            metrics=snap,
        )


class ServerHandle:
    """Host a :class:`ColoringServer` on a background thread.

    ``with ServerHandle(ColoringServer(...)) as handle:`` gives tests and
    benchmarks a real TCP daemon (``handle.host`` / ``handle.port``)
    inside the current process, with clean startup/shutdown ordering.
    """

    def __init__(self, server: ColoringServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._boot_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def __enter__(self) -> "ServerHandle":
        ready = threading.Event()
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 - reraised
                self._boot_error = error
                ready.set()
                return
            ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not ready.wait(timeout=120):
            raise RuntimeError("server failed to start within 120 s")
        if self._boot_error is not None:
            raise self._boot_error
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self._loop is not None and self._thread is not None
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self._loop)
        try:
            future.result(timeout=120)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=120)
            if not self._loop.is_running():
                self._loop.close()
