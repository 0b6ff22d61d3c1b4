"""Timed discrete-event simulation of eNVy (Section 5, Figures 13-15)."""

from .analytic import CapacityModel, TransactionProfile
from .engine import TimedSimulator, build_tpca_system, simulate_tpca
from .tracker import SimStats

__all__ = ["TimedSimulator", "SimStats", "simulate_tpca",
           "build_tpca_system", "CapacityModel", "TransactionProfile"]
