"""Request execution: the one code path behind every daemon response.

:func:`execute_request` turns a validated request spec (see
:mod:`repro.serve.schema`) into a plain-dict payload -- coloring result,
cost ledger, logical trace events, timing, and a lightweight per-request
manifest.  The daemon's worker pool calls it through
:func:`execute_batch`; tests and the benchmark call it directly in the
serving process as the *serial reference*, and the acceptance contract
is that both paths produce byte-identical logical streams (compare
``canonical_lines`` of the returned trace) and identical ledgers.

Design constraints that shape this module:

* everything returned must be picklable **and** JSON-serializable plain
  data -- payloads cross a process pool and then an HTTP socket;
* algorithm failures are *results*, not crashes: an infeasible instance
  or a stuck node yields ``status: "error"`` with the exception's type
  and message, and the worker process stays healthy for the next batch;
* the per-request manifest is deliberately cheap.  The full
  :func:`repro.obs.manifest.collect_manifest` shells out to ``git`` --
  fine once per benchmark, absurd per request -- so requests carry only
  the fields that vary per execution (engine, pid, cache/kernel counter
  deltas, wall times); the daemon writes one full manifest at boot.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..sim.errors import SimulationError
from ..sim.metrics import CostLedger
from .schema import RequestError, topology_key

#: Result payloads above this node count drop the full color mapping
#: unless the request explicitly asks for it (``include_colors``).
_COLORS_INLINE_LIMIT = 4096


def resolve_topology(topology: Dict[str, Any]) -> Tuple[Hashable, Any]:
    """Build (or fetch warm) the compiled network for a topology spec.

    Returns ``(key, compiled)``.  Every kind resolves to a
    :class:`~repro.sim.compiled.CompiledNetwork`: streamed families via
    their interning/shm-aware builders, seeded ``gnp`` via the interned
    generator's ``compile()`` cache, inline ``edges`` via a CSR build
    that itself consults shm and the interned registry, and ``graph``
    handles strictly via shm (the daemon publishes uploads there).
    """
    from ..graphs.streaming import (
        csr_from_edges,
        stream_gnp,
        stream_grid,
        stream_regular,
        stream_ring,
        stream_tree,
    )

    kind = topology["kind"]
    key = topology_key(topology)
    if kind == "ring-stream":
        return key, stream_ring(topology["n"])
    if kind == "grid-stream":
        return key, stream_grid(topology["rows"], topology["cols"])
    if kind == "tree-stream":
        return key, stream_tree(topology["depth"])
    if kind == "gnp-stream":
        return key, stream_gnp(topology["n"], topology["p"],
                               topology["seed"])
    if kind == "regular-stream":
        return key, stream_regular(topology["n"], topology["degree"],
                                   topology["seed"])
    if kind == "gnp":
        from ..graphs.generators import gnp_graph

        network = gnp_graph(topology["n"], topology["density"],
                            topology["seed"])
        return key, network.compile()
    if kind == "edges":
        from ..graphs.generators import _interned
        from ..sim import shm
        from ..sim.compiled import CompiledNetwork
        from ..substrates.cache import record_lookup

        shared = shm.lookup(key)
        record_lookup("topologies", shared is not None)
        if shared is not None:
            return key, shared
        n = topology["n"]
        edges = [tuple(pair) for pair in topology["edges"]]

        def build() -> CompiledNetwork:
            indptr, indices = csr_from_edges(n, edges)
            return CompiledNetwork.from_csr(indptr, indices)

        return key, _interned(key, build, nodes=n)
    # kind == "graph": strictly a warm handle -- the daemon rewrites
    # uploads to inline edges when shared memory is unavailable.
    from ..sim import shm
    from ..substrates.cache import record_lookup

    shared = shm.lookup(key)
    record_lookup("topologies", shared is not None)
    if shared is None:
        raise RequestError(
            f"unknown graph handle {topology['id']!r} "
            "(upload it via POST /graphs first)"
        )
    return key, shared


def _describe(kind: str, compiled: Any) -> Dict[str, Any]:
    return {
        "kind": kind,
        "n": compiled.n,
        "m": compiled.m,
        "max_degree": compiled.raw_max_degree(),
    }


def _colors_payload(colors: Dict[Any, int], n: int,
                    include_colors: bool) -> Dict[str, Any]:
    """Summarize a coloring: class count, stable checksum, optional map.

    The blake2b checksum over the dense ``(node, color)`` sequence lets
    two payloads be compared for bit-identical colorings without
    shipping (or even keeping) million-entry mappings.
    """
    import hashlib

    hasher = hashlib.blake2b(digest_size=16)
    for node in sorted(colors, key=repr):
        hasher.update(f"{node!r}={colors[node]}:".encode())
    payload: Dict[str, Any] = {
        "color_count": len(set(colors.values())),
        "colors_blake2b": hasher.hexdigest(),
    }
    if include_colors and n <= _COLORS_INLINE_LIMIT:
        payload["colors"] = {str(node): color
                             for node, color in colors.items()}
    return payload


def _run_greedy_reduction(compiled: Any, params: Dict[str, Any],
                          ledger: CostLedger
                          ) -> Tuple[Dict[str, Any], Dict[Any, int]]:
    """The ``repro scale`` workload: inflated palette down to Delta+1."""
    from ..graphs.streaming import inflated_seed_coloring
    from ..substrates.greedy import greedy_color_reduction

    delta = compiled.raw_max_degree()
    target = delta + 1
    colors, q = inflated_seed_coloring(compiled,
                                       max(params["colors"], 2 * target))
    shards = params.get("shards", 1)
    if shards > 1:
        from ..sim.scheduler import use_engine
        from ..sim.sharded import use_shards

        # Inside a pool worker the sharded engine runs its shards
        # serially in-process (workers never nest pools), so the result
        # is byte-identical to the vectorized path by construction.
        with use_shards(shards), use_engine("sharded"):
            result = greedy_color_reduction(compiled, colors, q, target,
                                            ledger=ledger)
    else:
        result = greedy_color_reduction(compiled, colors, q, target,
                                        ledger=ledger)
    payload: Dict[str, Any] = {"q": q, "target": target}
    if shards > 1:
        payload["shards"] = shards
    if params["validate"]:
        violations = sum(
            1 for i, j in compiled.edge_ids() if result[i] == result[j]
        )
        if result and max(result.values()) >= target:
            violations += 1
        payload["valid"] = violations == 0
    return payload, result


def _run_sweep(compiled: Any, params: Dict[str, Any],
               ledger: CostLedger, fast: bool
               ) -> Tuple[Dict[str, Any], Dict[Any, int]]:
    """Algorithm 1 / 2 on a seeded OLDC instance over the topology."""
    from ..coloring.random_instances import random_oldc_instance
    from ..coloring.validate import check_oldc
    from ..core.fast_two_sweep import fast_two_sweep
    from ..core.two_sweep import two_sweep
    from ..graphs.identifiers import random_ids, sequential_ids
    from ..graphs.oriented import orient_by_id

    graph = orient_by_id(compiled)
    if params["lists"] == "stuck":
        # A deliberately infeasible instance: every node holds the single
        # color 0 with zero allowed defect, so any edge wedges the sweep.
        # Exercises AlgorithmFailure isolation without randomness.
        from ..coloring.instance import OLDCInstance

        instance = OLDCInstance(
            graph,
            {node: (0,) for node in graph.nodes},
            {node: {0: 0} for node in graph.nodes},
        )
    else:
        epsilon = params.get("epsilon", 0.0) if fast else 0.0
        instance = random_oldc_instance(
            graph, p=params["p"], seed=params["seed"], epsilon=epsilon,
        )
    if params["id_bits"]:
        q = 1 << params["id_bits"]
        if q < compiled.n:
            raise RequestError(
                f"id_bits={params['id_bits']} gives only {q} ids "
                f"for {compiled.n} nodes"
            )
        ids = random_ids(compiled, params["seed"], bits=params["id_bits"])
    else:
        q = compiled.n
        ids = sequential_ids(compiled)
    check = params["check"] and params["lists"] != "stuck"
    if fast:
        result = fast_two_sweep(instance, ids, q, params["p"],
                                params["epsilon"], ledger=ledger,
                                check=check)
    else:
        result = two_sweep(instance, ids, q, params["p"],
                           ledger=ledger, check=check)
    violations = check_oldc(instance, result.colors)
    payload = {
        "q": q,
        "p": params["p"],
        "valid": not violations,
        "stats": {k: v for k, v in result.stats.items()
                  if isinstance(v, (int, float, str, bool))},
    }
    return payload, result.colors


def execute_request(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one validated request spec to a plain-dict payload.

    Never raises for algorithm- or instance-level failures; those come
    back as ``{"status": "error", "error": {...}}`` payloads so a worker
    process survives any request it is handed.  Only truly unexpected
    exceptions (bugs) propagate.
    """
    from ..obs import metrics as obs_metrics
    from ..obs.tracer import Tracer, logical_view, use_tracer
    from ..sim.kernels import kernel_stats
    from ..sim.scheduler import default_engine
    from ..substrates.cache import cache_counters

    algorithm = spec["algorithm"]
    topology = spec["topology"]
    metrics_before = obs_metrics.snapshot()
    started = time.perf_counter()
    ledger = CostLedger()
    tracer: Optional[Tracer] = Tracer() if spec.get("trace", True) else None
    payload: Dict[str, Any] = {
        "algorithm": algorithm["name"],
        "topology": dict(topology),
    }
    payload["topology"].pop("edges", None)  # never echo bulk data back
    try:
        build_start = time.perf_counter()
        key, compiled = resolve_topology(topology)
        build_s = time.perf_counter() - build_start
        payload["topology"] = _describe(topology["kind"], compiled)
        payload["topology"]["key"] = list(map(str, key)) \
            if isinstance(key, tuple) else str(key)
        solve_start = time.perf_counter()
        scope = use_tracer(tracer) if tracer is not None else None
        try:
            if scope is not None:
                scope.__enter__()
            if algorithm["name"] == "greedy-reduction":
                result, colors = _run_greedy_reduction(
                    compiled, algorithm, ledger
                )
            else:
                result, colors = _run_sweep(
                    compiled, algorithm, ledger,
                    fast=algorithm["name"] == "fast-two-sweep",
                )
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
        solve_s = time.perf_counter() - solve_start
        result.update(_colors_payload(colors, compiled.n,
                                      spec.get("include_colors", False)))
        payload["status"] = "ok"
        payload["result"] = result
        payload["timing"] = {"build_s": build_s, "solve_s": solve_s}
        payload["nodes_per_s"] = (round(compiled.n / solve_s)
                                  if solve_s > 0 else None)
    except (SimulationError, RequestError) as exc:
        payload["status"] = "error"
        payload["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        payload["timing"] = {}
    from ..obs.manifest import peak_rss_kb

    payload["ledger"] = ledger.to_dict()
    payload["trace"] = logical_view(tracer.events) if tracer else None
    payload["timing"]["total_s"] = time.perf_counter() - started
    payload["peak_rss_kb"] = peak_rss_kb()
    delta = obs_metrics.snapshot_delta(metrics_before,
                                       obs_metrics.snapshot())
    kernels = kernel_stats(delta)
    payload["manifest"] = {
        "engine": default_engine(),
        "pid": os.getpid(),
        "cache_counters": cache_counters(delta),
        "kernels": {field: kernels[field]
                    for field in ("runs", "fallbacks") if kernels[field]},
    }
    return payload


def execute_batch(specs: List[Dict[str, Any]],
                  handles: Optional[Dict[Hashable, Any]] = None
                  ) -> List[Dict[str, Any]]:
    """Run a homogeneous micro-batch inside a pool worker.

    ``handles`` is the parent's current shared-topology export; attaching
    is idempotent and cheap, and it is how topologies published *after*
    the pool booted reach already-spawned workers.  The first request of
    a batch pays any cold build; the rest ride its warm caches -- the
    point of batching by ``(algorithm, topology)``.
    """
    if handles:
        from ..sim import shm

        shm.receive_handles(handles)
    return [execute_request(spec) for spec in specs]


def execute_batch_metrics(specs: List[Dict[str, Any]],
                          handles: Optional[Dict[Hashable, Any]] = None
                          ) -> Dict[str, Any]:
    """:func:`execute_batch` plus this batch's metrics-registry delta.

    The daemon's dispatch path: the worker ships back
    ``{"payloads", "pid", "metrics"}`` so the serving process can fold
    the worker's counters (kernel hits, cache lookups, per-run ledger
    totals) into its own registry.  A *delta*, not a cumulative
    snapshot, so repeated batches on a long-lived worker stay additive;
    stamped with the pid so a thread-mode pool (same process, updates
    already landed) is merged zero times, not twice.
    """
    from ..obs import metrics as obs_metrics

    before = obs_metrics.snapshot()
    payloads = execute_batch(specs, handles)
    return {
        "payloads": payloads,
        "pid": os.getpid(),
        "metrics": obs_metrics.snapshot_delta(before,
                                              obs_metrics.snapshot()),
    }
