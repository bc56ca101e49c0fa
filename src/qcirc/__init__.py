"""Quantum circuits with measurement gates and classical channels: exact
aggregate-measurement semantics, schedule-independent execution, and a
measurement-deferral pass with a faithful-simulation checker."""

from .circuit import (
    Diagnostic,
    Gate,
    Measurement,
    QuantumCircuit,
    UnitaryOp,
    controlled_unitary_gate,
    measure_gate,
    prerequisites,
    standard_measure_gate,
    stage_exits,
    truncate,
    unitary_gate,
    validate_circuit,
)
from .deferral import (
    Commensuration,
    DeferralResult,
    check_faithful,
    defer_measurements,
    red_gates,
)
from .linalg import DensityOperator, dagger, embed, partial_trace, tensor
from .scheduling import Poset, Schedule, greedy_schedule, transposition_path
from .semantics import (
    AggregateMeasurement,
    Track,
    aggregate_measurement,
    enumerate_tracks,
    run,
    sample,
    track_probability,
)
from .serialize import parse_circuit, serialize_circuit

__all__ = [
    "AggregateMeasurement",
    "Commensuration",
    "DeferralResult",
    "DensityOperator",
    "Diagnostic",
    "Gate",
    "Measurement",
    "Poset",
    "QuantumCircuit",
    "Schedule",
    "Track",
    "UnitaryOp",
    "aggregate_measurement",
    "check_faithful",
    "controlled_unitary_gate",
    "dagger",
    "defer_measurements",
    "embed",
    "enumerate_tracks",
    "greedy_schedule",
    "measure_gate",
    "parse_circuit",
    "partial_trace",
    "prerequisites",
    "red_gates",
    "run",
    "sample",
    "serialize_circuit",
    "stage_exits",
    "standard_measure_gate",
    "tensor",
    "track_probability",
    "transposition_path",
    "truncate",
    "unitary_gate",
    "validate_circuit",
]
