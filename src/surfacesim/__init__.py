"""Surface-code quantum error correction: simulation, link-probability
analysis, and minimum-weight perfect-matching decoding."""

from .lattice import Lattice, build_lattice, standard_schedule
from .noise import ErrorModel, preset
from .sim import SyndromeHistory, DetectionEvent, PauliFrame, simulate_window, detection_events
from .edge_analysis import EdgeClassTable, derive_edge_classes, odd_parity_probability
from .metric import LinkGraph, manhattan, d_max, d_n, boundary_distance
from .decoder import DecodeOutcome
from .harness import TrialConfig, SweepStats, run_trials, flip_rate, estimate_threshold

__version__ = "0.1.0"

__all__ = [
    "Lattice", "build_lattice", "standard_schedule",
    "ErrorModel", "preset",
    "SyndromeHistory", "DetectionEvent", "PauliFrame", "simulate_window", "detection_events",
    "EdgeClassTable", "derive_edge_classes", "odd_parity_probability",
    "LinkGraph", "manhattan", "d_max", "d_n", "boundary_distance",
    "DecodeOutcome",
    "TrialConfig", "SweepStats", "run_trials", "flip_rate", "estimate_threshold",
]
