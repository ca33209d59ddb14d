"""Discrete-time simulator for energy cooperation between energy-harvesting
base stations connected by a power packet grid."""

from .allocation import AllocationDecision, TheoremDiagnostic, VirtualQueues
from .domain import EnergyBuffer, SimClock
from .engine import (
    RunResult,
    RunSummary,
    SimConfig,
    Simulation,
    compare,
    run,
    run_variants,
    sweep_lambda,
)
from .errors import ConfigError, LinkBusyError, TraceFormatError
from .ingest import HarvestTraceSet, LoadProfileSet
from .topology import LossModel, PpgGrid, Route
from .transfer import TransferJob

__version__ = "0.1.0"

__all__ = [
    "AllocationDecision",
    "ConfigError",
    "EnergyBuffer",
    "HarvestTraceSet",
    "LinkBusyError",
    "LoadProfileSet",
    "LossModel",
    "PpgGrid",
    "Route",
    "RunResult",
    "RunSummary",
    "SimClock",
    "SimConfig",
    "Simulation",
    "TheoremDiagnostic",
    "TraceFormatError",
    "TransferJob",
    "VirtualQueues",
    "compare",
    "run",
    "run_variants",
    "sweep_lambda",
    "__version__",
]
