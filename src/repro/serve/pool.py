"""Pool supervision: keep a warm :class:`WorkerPool` alive across faults.

The daemon's throughput story rests on one process-lifetime pool whose
workers hold the warm state (substrate-cache snapshot, frozen execution
config, attached shm topologies).  The supervisor wraps that pool with the two
things a long-running service needs on top:

* **restart on breakage** -- a worker killed mid-task breaks a
  ``ProcessPoolExecutor`` permanently; the supervisor builds a
  replacement pool, republishes its topologies (refcounts keep the
  segments alive across the handover), and only then closes the broken
  one.  In-flight requests of the broken batch fail; the service does
  not.
* **stable identity for /stats** -- occupancy counters, restart count
  and warmup cost survive across restarts.
"""

from __future__ import annotations

import threading
from dataclasses import asdict
from typing import Any, Dict, Hashable, Mapping, Optional

from ..sim.config import use_config
from ..sim.parallel import PoolUnavailable, WorkerPool
from .executor import execute_batch_metrics


class PoolSupervisor:
    """Owns the request pool for a daemon's whole lifetime."""

    def __init__(self, workers: Optional[int] = None,
                 engine: Optional[str] = None,
                 mode: str = "process"):
        self._mode = mode
        self._lock = threading.Lock()
        self._topologies: Dict[Hashable, Any] = {}
        self.restarts = 0
        self.pool = WorkerPool(max_workers=workers, engine=engine,
                               mode=mode)

    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """The engine frozen into the workers (stable across restarts)."""
        return self.pool.config.engine

    def warm(self) -> float:
        """Spawn workers now; returns warmup seconds (see ``WorkerPool``)."""
        return self.pool.warm()

    def add_topologies(self, topologies: Mapping[Hashable, Any]
                       ) -> Dict[Hashable, dict]:
        """Publish topologies and remember them for pool restarts."""
        with self._lock:
            self._topologies.update(topologies)
            return self.pool.add_topologies(topologies)

    def submit_batch(self, specs):
        """Dispatch one micro-batch; returns a concurrent Future.

        Ships the current shm handle export with the batch so workers
        spawned before a late topology publication still attach it.  A
        dead pool is rebuilt once before giving up.
        """
        handles = self.pool.topology_handles()
        try:
            return self.pool.submit(execute_batch_metrics, specs, handles)
        except PoolUnavailable:
            self.restart()
            return self.pool.submit(execute_batch_metrics, specs, handles)

    def restart(self) -> None:
        """Replace a broken pool with a fresh warm one.

        The new pool re-publishes the supervisor's topologies *before*
        the old pool is closed, so the shm refcounts never touch zero
        and the segments stay mapped throughout the handover.
        """
        with self._lock:
            old = self.pool
            # The replacement inherits the old pool's whole config, not
            # whatever the environment says now.
            with use_config(**asdict(old.config)):
                replacement = WorkerPool(mode=self._mode)
            if self._topologies:
                replacement.add_topologies(self._topologies)
            self.pool = replacement
            self.restarts += 1
        old.close()
        try:
            replacement.warm()
        except PoolUnavailable:  # pragma: no cover - thread fallback path
            pass

    def stats(self) -> Dict[str, Any]:
        snapshot = self.pool.stats()
        snapshot["restarts"] = self.restarts
        return snapshot

    def close(self) -> None:
        self.pool.close()
