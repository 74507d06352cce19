"""Spans around calls into the program's layers, installed from outside.

A traced run replaces public callables of ``repro`` -- module-level
functions at every binding site, and methods on their classes -- with
wrappers that time each call on an in-process stack.  Per name the
ledger keeps the call count, the total time and the self time (the
span minus the time its child spans cover).  Nothing is written until
the run ends, and no ``src/`` file is touched.

Only per-run or per-round callables are wrapped, never per-node or
per-message ones: a wrapper costs about a microsecond, which is noise
per round and would dominate per node.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Tuple

#: Layer functions per workload: (module, attribute, span name).
SCALE_FUNCTIONS = [
    ("repro.cli", "main", "cli"),
    ("repro.graphs.streaming", "stream_ring", "graphs.build"),
    ("repro.graphs.streaming", "inflated_seed_coloring", "graphs.seed"),
    ("repro.substrates.greedy", "greedy_color_reduction",
     "substrates.reduce"),
]
SWEEP_FUNCTIONS = [
    ("repro.sim.parallel", "parallel_sweep", "parallel.sweep"),
    ("repro.graphs.generators", "gnp_graph", "graphs.build"),
    ("repro.graphs.oriented", "orient_by_id", "graphs.orient"),
    ("repro.coloring.random_instances", "random_oldc_instance",
     "coloring.instance"),
    ("repro.coloring.validate", "check_oldc", "coloring.check"),
    ("repro.core.two_sweep", "two_sweep", "core.two_sweep"),
    ("repro.core.fast_two_sweep", "fast_two_sweep", "core.fast_two_sweep"),
]
#: Scheduler methods (per run) and kernel methods (per run or round).
SCHEDULER_METHODS = [("__init__", "sim.scheduler_init"),
                     ("run", "sim.run"), ("outputs", "sim.outputs")]
KERNEL_METHODS = [("prepare", "sim.kernel_prepare"),
                  ("step", "sim.kernel_step"),
                  ("finalize", "sim.kernel_finalize")]


class SpanLedger:
    """Aggregated spans: ``name -> [calls, total_s, self_s]``."""

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[List] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        span.__wrapped__ = fn
        return span

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install_function(self, module: str, attr: str, name: str) -> None:
        """Wrap a function at every ``repro`` module that binds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install_method(self, cls: type, attr: str, name: str) -> None:
        self._patch(cls, attr, self.wrap(getattr(cls, attr), name))

    def install(self, functions) -> None:
        """Wrap the given layer functions plus the scheduler and every
        registered kernel class."""
        import importlib

        for module, _, _ in functions:
            importlib.import_module(module)
        # Importing the algorithm modules registers their kernels.
        for module in ("repro.substrates.greedy", "repro.core.two_sweep",
                       "repro.substrates.algebraic"):
            importlib.import_module(module)
        from repro.sim.kernels import kernel_for, registered_kernels
        from repro.sim.scheduler import Scheduler

        for module, attr, name in functions:
            self.install_function(module, attr, name)
        for attr, name in SCHEDULER_METHODS:
            self.install_method(Scheduler, attr, name)
        for program_class in registered_kernels():
            factory = kernel_for(program_class)
            if isinstance(factory, type):
                for attr, name in KERNEL_METHODS:
                    self.install_method(factory, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> Dict[str, List[float]]:
        return {name: list(entry) for name, entry in self.totals.items()}


def delta(before: Dict[str, List[float]],
          after: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """``after - before`` per span name (for forked workers' ledgers)."""
    out = {}
    for name, entry in after.items():
        base = before.get(name, [0, 0.0, 0.0])
        moved = [a - b for a, b in zip(entry, base)]
        if moved[0]:
            out[name] = moved
    return out


def add(into: Dict[str, List[float]], more: Dict[str, List[float]]) -> None:
    for name, entry in more.items():
        target = into.setdefault(name, [0, 0.0, 0.0])
        for index, value in enumerate(entry):
            target[index] += value


def total(spans: Dict[str, List[float]], name: str) -> float:
    return spans.get(name, [0, 0.0, 0.0])[1]


def self_time(spans: Dict[str, List[float]], name: str) -> float:
    return spans.get(name, [0, 0.0, 0.0])[2]


def calls(spans: Dict[str, List[float]], name: str) -> int:
    return int(spans.get(name, [0, 0.0, 0.0])[0])
