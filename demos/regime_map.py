"""Where each clock protocol works: validity conditions vs measured error.

Sweeps the packet momentum p0 and, for the kicked protocol, the kick
period T, printing the analytic validity verdicts next to the actually
measured clock error.  Shows that (a) the continuous clock needs
E >> pi*hbar/tau and degrades below that, and (b) the kicked clock works
throughout the window t_f > T > (2j+1)*tau/j even at low energy.

Usage:  python3 demos/regime_map.py
"""

import dataclasses

import tofclock as tc
from tofclock import analysis, oracles
from tofclock.analysis import mean_reading
from tofclock.presets import get_preset
from tofclock.propagators import run_experiment


def ideal_mean(cfg: tc.ExperimentConfig) -> float:
    return mean_reading(oracles.ideal_reading(cfg))


def measured_mean(cfg: tc.ExperimentConfig) -> float:
    result = run_experiment(cfg)
    series = analysis.state_tof_distribution(result.final_state)
    return mean_reading(series)


def main() -> None:
    grid = tc.SpatialGrid(-250.0, 150.0, 2**11)
    base = dataclasses.replace(
        get_preset("fig1-continuous"), grid=grid, dt=0.02, region_mass_tol=0.2
    )

    print("continuous clock: mean reading vs ideal dwell time")
    print(f"{'p0':>5} {'E':>7} {'pi*hbar/tau':>12} {'valid?':>7} "
          f"{'measured':>9} {'ideal':>7} {'rel err':>8}")
    for p0 in (5.0, 10.0, 25.0):
        t_f = 50.0 / p0
        # the grid must resolve momenta well beyond p0 (k_max = pi/dx)
        fine = tc.SpatialGrid(-250.0, 150.0, 2**12)
        cfg = dataclasses.replace(
            base,
            grid=fine if p0 > 12.0 else base.grid,
            dt=0.01 if p0 > 12.0 else base.dt,
            packet=tc.WavepacketSpec(1.0, -30.0, p0),
            # long enough to finish the collision, short enough that the
            # scattered packets stay clear of the periodic grid edges
            t_final=25.0 if p0 < 6.0 else 2.0 * t_f + 2.0,
        )
        report = tc.validate_regime(cfg)
        mean = measured_mean(cfg)
        ref = ideal_mean(cfg)
        print(f"{p0:5.1f} {report.energy:7.1f} {report.resolution_scale:12.2f} "
              f"{'yes' if report.continuous_ok else 'NO':>7} "
              f"{mean:9.3f} {ref:7.3f} {abs(mean - ref) / ref:8.1%}")

    print("\nkicked clock at low energy (p0 = 5, E = 12.5):")
    window = tc.validate_regime(base)
    print(f"working window: {window.min_kick_period:.3f} < T < {window.classical_time:.1f}")
    print(f"{'T':>5} {'in window?':>11} {'measured':>9} {'ideal':>7} {'rel err':>8}")
    ref = ideal_mean(base)
    for T in (0.2, 0.5, 1.0, 2.0, 5.0, 12.5):
        cfg = dataclasses.replace(
            base, mode="kicked", kick_period=T, boundary_mass_tol=5e-2
        )
        report = tc.validate_regime(cfg)
        mean = measured_mean(cfg)
        print(f"{T:5.2f} {'yes' if report.kick_in_window else 'NO':>11} "
              f"{mean:9.3f} {ref:7.3f} {abs(mean - ref) / ref:8.1%}")


if __name__ == "__main__":
    main()
