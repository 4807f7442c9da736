"""Quantum time-of-flight measurements with continuous and kicked clocks.

The package holds the configuration records and the state builders;
functions come from their modules."""

from .core import (
    ChannelState,
    ClockSpec,
    ExperimentConfig,
    PhysicalConfig,
    RegionSpec,
    SpatialGrid,
    WavepacketSpec,
    classical_tof,
    init_gaussian,
    product_state,
    validate_regime,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
