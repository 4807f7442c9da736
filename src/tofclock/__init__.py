"""Quantum time-of-flight measurements with continuous and kicked clocks."""

from .core import (
    ChannelState,
    ClockSpec,
    ExperimentConfig,
    KickSchedule,
    PhysicalConfig,
    RegionSpec,
    SpatialGrid,
    WavepacketSpec,
    classical_tof,
    init_gaussian,
    modular_phase,
    product_state,
    validate_regime,
)
from .propagators import (
    coupling_phase_step,
    evolve_continuous,
    evolve_kicked,
    kinetic_step,
    run_experiment,
)
from .analysis import (
    DistributionSeries,
    distribution_distance,
    mean_reading,
    state_tof_distribution,
    theta_distribution,
    transmission_report,
)
from .oracles import (
    barrier_amplitudes,
    barrier_amplitudes_numeric,
    evolve_theta_grid,
    free_gaussian,
    ideal_dwell,
    phase_shift_approx,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
