"""Synchronous message-passing round simulator (LOCAL and CONGEST)."""

from .compiled import CompiledNetwork
from .congest import BandwidthModel, CongestModel, LocalModel
from .errors import (
    AlgorithmFailure,
    BandwidthExceeded,
    InfeasibleInstanceError,
    InstanceError,
    NetworkError,
    RoundLimitExceeded,
    SchedulerError,
    SimulationError,
)
from .kernels import (
    KernelRound,
    RoundKernel,
    kernel_for,
    kernel_stats,
    register_kernel,
    registered_kernels,
    unregister_kernel,
)
from .message import (
    Broadcast,
    Message,
    clear_payload_memo,
    color_bits,
    int_bits,
    intern_broadcast,
    intern_payload,
    payload_bits,
)
from .metrics import CostLedger, PhaseStats, ensure_ledger
from .network import Network
from .node import NodeProgram, RoundContext
from .parallel import (
    PoolUnavailable,
    SweepReport,
    WorkerPool,
    derive_seed,
    parallel_sweep,
    run_trials,
)
from . import shm
from .sharded import (
    ShardSpec,
    default_shards,
    register_sharded,
    set_default_shards,
    shard_stats,
    sharded_for,
    use_shards,
)
from .scheduler import (
    DEFAULT_MAX_ROUNDS,
    ENGINES,
    Scheduler,
    default_engine,
    run_protocol,
    set_default_engine,
    use_engine,
)
from .tracing import RoundObserver, RoundRecord, expand_pairs

__all__ = [
    "AlgorithmFailure",
    "BandwidthExceeded",
    "BandwidthModel",
    "Broadcast",
    "CompiledNetwork",
    "CongestModel",
    "CostLedger",
    "DEFAULT_MAX_ROUNDS",
    "ENGINES",
    "InfeasibleInstanceError",
    "InstanceError",
    "KernelRound",
    "LocalModel",
    "Message",
    "Network",
    "NetworkError",
    "NodeProgram",
    "PhaseStats",
    "RoundContext",
    "RoundKernel",
    "RoundLimitExceeded",
    "RoundObserver",
    "RoundRecord",
    "Scheduler",
    "SchedulerError",
    "ShardSpec",
    "SimulationError",
    "PoolUnavailable",
    "SweepReport",
    "WorkerPool",
    "clear_payload_memo",
    "color_bits",
    "default_engine",
    "default_shards",
    "derive_seed",
    "ensure_ledger",
    "expand_pairs",
    "int_bits",
    "intern_broadcast",
    "intern_payload",
    "kernel_for",
    "kernel_stats",
    "parallel_sweep",
    "payload_bits",
    "register_kernel",
    "register_sharded",
    "registered_kernels",
    "run_protocol",
    "run_trials",
    "set_default_engine",
    "set_default_shards",
    "shard_stats",
    "sharded_for",
    "shm",
    "unregister_kernel",
    "use_engine",
    "use_shards",
]
