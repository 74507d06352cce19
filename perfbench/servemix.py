"""The ``serve-mix`` workload: an open-loop generator against ``repro serve``.

The daemon runs out of process (``python -m repro serve --port 0``,
default engine and workers).  One asyncio generator in this process
drives it over at most ``nproc`` keep-alive connections.  Arrival times
are seeded Poisson at two fixed rates, light and heavy; each
operation's latency counts from its *due* time, so a stall charges the
requests queued behind it.  Closed-loop passes of the same mix over
every connection give the pass wall and the throughput.  Response bodies
are kept raw during a phase and parsed afterwards, so the generator
spends its time sending, not decoding.
"""

from __future__ import annotations

import asyncio
import collections
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import common


# ----------------------------------------------------------------------
# The daemon process
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess; ``setup_s`` is launch to healthz."""

    def __init__(self) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0"],
            cwd=str(common.ROOT), env=common.child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self._stderr: collections.deque = collections.deque(maxlen=40)
        self._drain = threading.Thread(target=self._collect_stderr,
                                       daemon=True)
        self._drain.start()
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise common.BenchError(
                f"daemon did not start: {line!r} {self.stderr_tail()}")
        self.host, port = line.split("http://", 1)[1].split()[0].split(":")
        self.port = int(port)
        self._stdout = threading.Thread(target=self.proc.stdout.read,
                                        daemon=True)
        self._stdout.start()
        status, _ = self.get("/healthz")
        if status != 200:
            self.stop()
            raise common.BenchError(f"/healthz answered {status}")
        self.setup_s = time.perf_counter() - start

    def _collect_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def stderr_tail(self) -> str:
        return "".join(self._stderr)[-2000:]

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> Dict:
        status, body = self.get("/stats")
        if status != 200:
            raise common.BenchError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (graceful: drains, closes the pool, unlinks shm)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._drain.join(timeout=5)


# ----------------------------------------------------------------------
# The request mix
# ----------------------------------------------------------------------
def _cold_body(template: Dict, seed: int) -> Dict:
    """The template's algorithm on a fresh seeded gnp topology."""
    topology = dict(template["topology"])
    if topology["kind"] == "ring-stream":
        n = topology["n"]
        topology = {"kind": "gnp-stream", "n": n, "p": 4.0 / n}
    topology["seed"] = seed
    return {"topology": topology, "algorithm": dict(template["algorithm"])}


def _upload(cfg: Dict, rng: random.Random) -> Dict:
    """A fresh G(n, p) edge list for ``POST /graphs``."""
    n, p = cfg["upload_n"], cfg["upload_p"]
    edges = [[u, v] for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return {"n": n, "edges": edges}


def _deck(cfg: Dict) -> List[Tuple[str, int]]:
    """One deck of ``(kind, template index)`` cards in the mix's exact
    proportions; shuffled decks keep every phase's composition fixed, so
    seeds vary order and content but not the share of each request."""
    size = cfg["deck"]
    cards = []
    for kind, templates in (("hot", len(cfg["hot"])),
                            ("cold", len(cfg["hot"])),
                            ("write", len(cfg["upload_algorithms"]))):
        count = round(size * cfg["mix"][kind])
        cards.extend((kind, index % templates) for index in range(count))
    return cards


def make_ops(cfg: Dict, rng: random.Random, count: int) -> List[Dict]:
    """``count`` operations dealt from shuffled decks of the mix."""
    hot = cfg["hot"]
    cards: List[Tuple[str, int]] = []
    while len(cards) < count:
        deck = _deck(cfg)
        rng.shuffle(deck)
        cards.extend(deck)
    ops = []
    for kind, index in cards[:count]:
        if kind == "hot":
            body = hot[index]["body"]
            ops.append({"kind": kind, "body": body,
                        "label": hot[index]["label"]})
        elif kind == "cold":
            body = _cold_body(hot[index]["body"], rng.randrange(1, 2 ** 31))
            ops.append({"kind": kind, "body": body,
                        "label": hot[index]["label"]})
        else:
            ops.append({"kind": kind, "upload": _upload(cfg, rng),
                        "algorithm": cfg["upload_algorithms"][index],
                        "label": "upload"})
    for op in ops:
        op["wire"] = json.dumps(op["body"] if "body" in op
                                else op["upload"]).encode()
    return ops


def schedule(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Seeded Poisson arrivals in ``[0, seconds)``, conditioned on their
    count being ``rate * seconds``: uniform order statistics, so every
    seed offers exactly the nominal rate and only the spacing varies."""
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
async def _exchange(reader, writer, path: str, body: bytes
                    ) -> Tuple[int, bytes]:
    writer.write(
        (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
         f"Content-Type: application/json\r\n"
         f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _run_op(reader, writer, op: Dict) -> Tuple[int, bytes]:
    if op["kind"] != "write":
        return await _exchange(reader, writer, "/color", op["wire"])
    status, body = await _exchange(reader, writer, "/graphs", op["wire"])
    if status != 200:
        return status, body
    graph_id = json.loads(body)["id"]
    request = {"topology": {"kind": "graph", "id": graph_id},
               "algorithm": op["algorithm"]}
    return await _exchange(reader, writer, "/color",
                           json.dumps(request).encode())


async def _drive(host: str, port: int, ops: List[Dict],
                 due: Optional[List[float]], connections: int,
                 timeout_s: float) -> Dict:
    """Send ``ops`` at offsets ``due`` (``None``: closed loop)."""
    queue: asyncio.Queue = asyncio.Queue()
    count = len(ops)
    sent = [0.0] * count
    done = [0.0] * count
    status = [0] * count
    bodies: List[bytes] = [b""] * count
    late: List[float] = []
    outstanding: List[int] = []
    completed = [0]
    origin = time.perf_counter() + (0.05 if due else 0.0)
    absolute = [origin + offset for offset in due] if due else None

    async def dispatcher() -> None:
        for index in range(count):
            if absolute is not None:
                delay = absolute[index] - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(time.perf_counter() - absolute[index])
                outstanding.append(index - completed[0])
            queue.put_nowait(index)
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                index = await queue.get()
                if index is None:
                    return
                sent[index] = time.perf_counter()
                try:
                    status[index], bodies[index] = await _run_op(
                        reader, writer, ops[index])
                except (OSError, asyncio.IncompleteReadError, ValueError,
                        IndexError, KeyError) as error:
                    status[index], bodies[index] = -1, repr(error).encode()
                    writer.close()
                    reader, writer = await asyncio.open_connection(host,
                                                                   port)
                done[index] = time.perf_counter()
                completed[0] += 1
        finally:
            writer.close()

    tasks = [asyncio.ensure_future(dispatcher())] + [
        asyncio.ensure_future(connection()) for _ in range(connections)]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout_s)
    except asyncio.TimeoutError:
        for task in tasks:
            task.cancel()
    for index in range(count):
        if not done[index]:
            status[index], done[index] = -2, time.perf_counter()
    return {
        "status": status, "bodies": bodies,
        "latency_s": [done[i] - (absolute[i] if absolute else sent[i])
                      for i in range(count)],
        "service_s": [done[i] - sent[i] for i in range(count)],
        "late_s": late, "outstanding": outstanding,
        "wall_s": max(done) - origin,
    }


def drive(daemon: Daemon, ops: List[Dict], due: Optional[List[float]],
          connections: int, timeout_s: float) -> Dict:
    return asyncio.run(_drive(daemon.host, daemon.port, ops, due,
                              connections, timeout_s))


def growing_backlog(outstanding: List[int], rate: float) -> bool:
    """Requests due but unanswered grow across the phase: their mean over
    the last third exceeds the first third by half and by more than a
    tenth of a second of arrivals (at least three requests)."""
    if len(outstanding) < 9:
        return False
    third = len(outstanding) // 3
    first = sum(outstanding[:third]) / third
    last = sum(outstanding[-third:]) / third
    return last > 1.5 * first and last - first > max(3.0, 0.1 * rate)


# ----------------------------------------------------------------------
# Correctness: every 200 response equals a serial in-process run
# ----------------------------------------------------------------------
def reference_key(op: Dict) -> str:
    if op["kind"] == "write":
        return json.dumps({"upload": op["upload"],
                           "algorithm": op["algorithm"]}, sort_keys=True)
    return json.dumps(op["body"], sort_keys=True)


class References:
    """Serial ``execute_request`` results, computed once per spec."""

    def __init__(self) -> None:
        self._cache: Dict[str, Dict] = {}

    def expected(self, op: Dict) -> Dict:
        key = reference_key(op)
        if key not in self._cache:
            from repro.obs.tracer import canonical_lines
            from repro.serve.executor import execute_request
            from repro.serve.schema import parse_request
            from repro.sim.scheduler import use_engine

            if op["kind"] == "write":
                body = {"topology": {"kind": "edges", **op["upload"]},
                        "algorithm": op["algorithm"]}
            else:
                body = op["body"]
            # Engines are byte-identical by contract; the vectorized one
            # makes the reference pass cheap.
            with use_engine("vectorized"):
                payload = execute_request(parse_request(body))
            self._cache[key] = {
                "status": payload["status"],
                "digest": payload.get("result", {}).get("colors_blake2b"),
                "ledger": payload["ledger"],
                "trace": canonical_lines(payload["trace"] or []),
            }
        return self._cache[key]


def check_response(refs: References, op: Dict, status: int,
                   body: bytes) -> Optional[str]:
    """Why the response fails its check, or ``None``."""
    from repro.obs.tracer import canonical_lines

    if status != 200:
        return f"HTTP {status}: {body[:200]!r}"
    try:
        payload = json.loads(body)
    except ValueError:
        return "response is not JSON"
    expected = refs.expected(op)
    if payload.get("status") != "ok" or expected["status"] != "ok":
        return f"status {payload.get('status')}"
    if payload["result"].get("colors_blake2b") != expected["digest"]:
        return "color digest differs from serial execute_request"
    if payload["ledger"] != expected["ledger"]:
        return "ledger differs from serial execute_request"
    if canonical_lines(payload["trace"] or []) != expected["trace"]:
        return "canonical trace differs from serial execute_request"
    return None


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _rng(seed: int, *tag) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + tag)))


class Session:
    """One measured daemon plus every operation sent to it."""

    def __init__(self, cfg: Dict, seed: int, daemon: Daemon) -> None:
        self.cfg, self.seed, self.daemon = cfg, seed, daemon
        self.connections = min(cfg["connections"], os.cpu_count() or 1)
        self.sent: List[Tuple[Dict, int, bytes]] = []

    def run(self, ops: List[Dict], due: Optional[List[float]],
            duration_s: float = 0.0) -> Dict:
        result = drive(self.daemon, ops, due, self.connections,
                       duration_s + self.cfg["timeout_s"])
        self.sent.extend(zip(ops, result["status"], result["bodies"]))
        return result

    def hot_ops(self, repeat: int) -> List[Dict]:
        hot = [{"kind": "hot", "body": t["body"], "label": t["label"],
                "wire": json.dumps(t["body"]).encode()}
               for t in self.cfg["hot"]]
        return hot * repeat

    def warm(self) -> None:
        """Each hot body four times, so both workers hold the hot
        topologies before anything is timed."""
        self.run(self.hot_ops(4), None)

    def closed(self, tag: str) -> Dict:
        """``closed_ops`` operations of the mix, each connection sending
        its next one when the previous one answers."""
        ops = make_ops(self.cfg, _rng(self.seed, tag),
                       self.cfg["closed_ops"])
        return self.run(ops, None)

    def open_phase(self, rate: float, due: List[float], ops: List[Dict],
                   seconds: float) -> Dict:
        """``ops`` sent open-loop at the offsets ``due``."""
        result = self.run(ops, due, seconds)
        result.update(ops=ops, rate=rate,
                      backlog=growing_backlog(result["outstanding"], rate))
        return result

    def worker_pids(self) -> List[int]:
        pids = set()
        for _, status, body in self.sent:
            if status == 200:
                pids.add(json.loads(body)["manifest"]["pid"])
        return sorted(pids)

    def peak_rss_mb(self, notes: List[str]) -> float:
        """Daemon VmHWM plus that of every worker named in a manifest."""
        parts = {self.daemon.proc.pid: common.vm_hwm_kb(self.daemon.proc.pid)}
        for pid in self.worker_pids():
            try:
                parts[pid] = common.vm_hwm_kb(pid)
            except OSError:
                notes.append(f"worker {pid} exited before its VmHWM was read")
        notes.append("VmHWM MiB: " + ", ".join(
            f"{pid}={kb / 1024:.1f}" for pid, kb in parts.items()))
        return sum(parts.values()) / 1024.0

    def check(self) -> List[str]:
        refs = References()
        failures = []
        for op, status, body in self.sent:
            reason = check_response(refs, op, status, body)
            if reason:
                failures.append(f"{op['kind']}:{op['label']}: {reason}")
        return failures


def launch(cfg: Dict) -> Tuple[Daemon, List[float]]:
    """``launches`` daemons one after another; the last one is kept."""
    setups = []
    for index in range(cfg["launches"]):
        daemon = Daemon()
        setups.append(daemon.setup_s)
        if index < cfg["launches"] - 1:
            daemon.stop()
    return daemon, setups


def open_plan(cfg: Dict, seed: int, level: str, seconds: float,
              blocks: int) -> List[Tuple[List[float], List[Dict]]]:
    """A level's ``(due, ops)`` per block.  The level's operations are
    dealt in one go, so the level as a whole has the mix's composition
    however its arrivals fall into blocks."""
    rate = cfg[f"{level}_rps"]
    dues = [schedule(_rng(seed, level, block), rate, seconds)
            for block in range(blocks)]
    ops = make_ops(cfg, _rng(seed, level, "ops"), sum(map(len, dues)))
    plan, start = [], 0
    for due in dues:
        plan.append((due, ops[start:start + len(due)]))
        start += len(due)
    return plan


def level_seconds(cfg: Dict, seconds: float) -> Dict[str, float]:
    """Per block, each level's phase length: ``open_share * seconds``
    split over the blocks, and within a block so that both levels get
    the same number of arrivals."""
    block_s = cfg["open_share"] * seconds / cfg["blocks"]
    total = cfg["light_rps"] + cfg["heavy_rps"]
    return {"light": block_s * cfg["heavy_rps"] / total,
            "heavy": block_s * cfg["light_rps"] / total}


def run_untraced(cfg: Dict, seed: int, seconds: float,
                 notes: List[str]) -> Tuple[Dict, int, List[str]]:
    """``blocks`` rounds of: a closed-loop pass over every connection
    (``wall_s``, ``max_rps``), then a light and a heavy open-loop phase.
    Interleaving puts a slow minute on a shared host on every measure
    alike.  A level's p50 pools its blocks; its tail is the median of the
    block tails, so one stalled block cannot set it.
    """
    blocks = cfg["blocks"]
    lengths = level_seconds(cfg, seconds)
    plans = {level: open_plan(cfg, seed, level, lengths[level], blocks)
             for level in lengths}
    daemon, setups = launch(cfg)
    session = Session(cfg, seed, daemon)
    walls, closed_ms = [], []
    parts: Dict[str, List[Dict]] = {level: [] for level in plans}
    try:
        session.warm()
        for block in range(blocks):
            full = session.closed(f"closed{block}")
            walls.append(full["wall_s"])
            closed_ms.extend(lat * 1000.0 for lat in full["latency_s"])
            for level, plan in plans.items():
                due, ops = plan[block]
                parts[level].append(session.open_phase(
                    cfg[f"{level}_rps"], due, ops, lengths[level]))
        peak = session.peak_rss_mb(notes)
    finally:
        daemon.stop()
    wall = statistics.median(walls)
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak,
               "wall_s": wall, "max_rps": cfg["closed_ops"] / wall}
    for level, phases in parts.items():
        pooled, tails, pcts = [], [], []
        for phase in phases:
            ok = [lat * 1000.0 for lat, status in zip(phase["latency_s"],
                                                      phase["status"])
                  if status == 200]
            value, pct, count = common.tail(ok)
            pooled.extend(ok)
            tails.append(value)
            pcts.append(pct)
        metrics[f"latency_p50_ms.{level}"] = statistics.median(pooled)
        metrics[f"latency_tail_ms.{level}"] = statistics.median(tails)
        late = common.tail([x for phase in phases
                            for x in phase["late_s"]])[0] * 1000.0
        growing = sum(phase["backlog"] for phase in phases)
        notes.append(
            f"{level} {cfg[f'{level}_rps']:.1f}/s: p50 over {len(pooled)} "
            f"samples; tail the median over {blocks} blocks of "
            f"{lengths[level]:.1f} s of each block's "
            f"p{min(pcts):.1f}-p{max(pcts):.1f} ({count} samples): "
            f"{', '.join(f'{t:.0f}' for t in tails)} ms against the "
            f"{cfg['limit_ms']:.0f} ms limit; generator late tail "
            f"{late:.2f} ms; growing backlog in {growing}/{blocks} blocks")
    tail_ms, pct, count = common.tail(closed_ms)
    notes.append(
        f"wall_s: median of {len(walls)} closed-loop passes of "
        f"{cfg['closed_ops']} operations over {session.connections} "
        f"connections, max_rps their operations per second; closed-loop "
        f"tail p{pct:.1f} {tail_ms:.0f} ms is "
        f"{'within' if tail_ms <= cfg['limit_ms'] else 'OVER'} the limit; "
        f"setup_s: median of {len(setups)} launches")
    failures = session.check()
    return metrics, len(session.sent), failures


def _timing(payloads: List[Dict], field: str) -> List[float]:
    return [p["timing"][field] * 1000.0 for p in payloads]


def run_traced(cfg: Dict, seed: int, seconds: float,
               notes: List[str]) -> Tuple[Dict, int, List[str]]:
    """Layer numbers from response ``timing`` fields, manifests, ledgers
    and ``/stats`` deltas around one heavy phase.  Nothing runs inside
    the daemon; ``obs.trace_overhead`` compares identical hot passes
    with and without the scrapes."""
    daemon, _ = launch(dict(cfg, launches=1))
    session = Session(cfg, seed, daemon)
    try:
        session.warm()
        plain = session.run(session.hot_ops(8), None)["wall_s"]
        daemon.stats()
        scraped = session.run(session.hot_ops(8), None)["wall_s"]
        daemon.stats()
        before = daemon.stats()
        (due, ops), = open_plan(cfg, seed, "heavy", seconds / 2, 1)
        heavy = session.open_phase(cfg["heavy_rps"], due, ops, seconds / 2)
        after = daemon.stats()
    finally:
        daemon.stop()
    failures = session.check()
    payloads, service, sizes = [], [], []
    for op, status, body, spent in zip(heavy["ops"], heavy["status"],
                                       heavy["bodies"], heavy["service_s"]):
        sizes.append(len(body) / 1024.0)
        if status == 200:
            payload = json.loads(body)
            payloads.append(payload)
            if op["kind"] != "write":
                timing = payload["timing"]
                service.append(
                    (spent - timing["total_s"] - timing["queue_wait_s"])
                    * 1000.0)
    hits = misses = runs = fallbacks = rounds = messages = 0
    for payload in payloads:
        for counts in payload["manifest"]["cache_counters"].values():
            hits += counts["hits"]
            misses += counts["misses"]
        runs += payload["manifest"]["kernels"].get("runs", 0)
        fallbacks += payload["manifest"]["kernels"].get("fallbacks", 0)
        rounds += payload["ledger"]["rounds"]
        messages += payload["ledger"]["messages"]
    queue = {key: after["queue"][key] - before["queue"][key]
             for key in ("batches", "batched_requests")}
    waits = _timing(payloads, "queue_wait_s")
    metrics = {
        "serve.execute_p50_ms": statistics.median(_timing(payloads,
                                                          "total_s")),
        "serve.build_p50_ms": statistics.median(_timing(payloads,
                                                        "build_s")),
        "serve.solve_p50_ms": statistics.median(_timing(payloads,
                                                        "solve_s")),
        "serve.overhead_p50_ms": statistics.median(service),
        "serve.queue_wait_p50_ms": statistics.median(waits),
        "serve.queue_wait_tail_ms": common.tail(waits)[0],
        "serve.batch_mean": (queue["batched_requests"] / queue["batches"]
                             if queue["batches"] else 0.0),
        "serve.response_kb_mean": statistics.mean(sizes),
        "serve.rejected": (after["requests"]["rejected"]
                           - before["requests"]["rejected"]),
        "serve.pool_restarts": (after["pool"]["restarts"]
                                - before["pool"]["restarts"]),
        "substrates.cache_hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 0.0),
        "sim.kernel_hit_ratio": (runs - fallbacks) / runs if runs else 0.0,
        "sim.rounds": rounds,
        "sim.messages": messages,
        "obs.trace_overhead": scraped / plain,
        "obs.traced_wall_s": heavy["wall_s"],
        "unattributed_s": sum(p["timing"]["total_s"] - p["timing"]["build_s"]
                              - p["timing"]["solve_s"] for p in payloads),
        "loadgen.late_tail_ms": common.tail(heavy["late_s"])[0] * 1000.0,
    }
    notes.append(f"heavy phase {heavy['rate']:.1f}/s, {len(heavy['ops'])} "
                 f"operations; unattributed_s: executor time outside "
                 f"topology build and solve")
    if not runs:
        notes.append(f"no kernel dispatch: daemon engine is "
                     f"{payloads[0]['manifest']['engine']}")
    return metrics, len(session.sent), failures
