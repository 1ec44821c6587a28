"""The CONGEST / BCONGEST model simulator (§1.1 of the paper)."""

from repro.congest.errors import (
    AlgorithmError,
    BroadcastOnly,
    CongestError,
    DuplicateSend,
    MessageTooLarge,
    ModelViolation,
    NotANeighbor,
)
from repro.congest.cell import CellContext, cell_context, current_cell
from repro.congest.composer import ComposedExecution, compose_machines
from repro.congest.faults import (
    FaultPlan,
    FaultProfile,
    fault_profile_names,
    get_fault_profile,
)
from repro.congest.profile import (
    RoundProfile,
    RoundProfiler,
    mark_phase,
)
from repro.congest.machine import LocalRunner, Machine, MachineAdapter, run_machines
from repro.congest.metrics import Metrics, undirected
from repro.congest.network import (
    Algorithm,
    Execution,
    Network,
    NodeAPI,
    NodeInfo,
    make_node_info,
    node_seed,
    payload_words,
    run_algorithm,
)

__all__ = [
    "Algorithm", "AlgorithmError", "BroadcastOnly", "CellContext",
    "ComposedExecution", "CongestError", "compose_machines",
    "DuplicateSend", "Execution", "FaultPlan", "FaultProfile", "LocalRunner",
    "Machine", "MachineAdapter", "MessageTooLarge", "Metrics",
    "ModelViolation", "Network", "NodeAPI", "NodeInfo", "NotANeighbor",
    "RoundProfile", "RoundProfiler",
    "cell_context", "current_cell", "fault_profile_names",
    "get_fault_profile", "make_node_info", "mark_phase", "node_seed",
    "payload_words", "run_algorithm", "run_machines", "undirected",
]
