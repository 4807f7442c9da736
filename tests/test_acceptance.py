"""End-to-end acceptance suite.

One test per shipping criterion; each prints a single PASS line with the
measured figure of merit so the full verdict is legible from the pytest -v
output.  The expensive runs are shared through session-scoped fixtures in
conftest.py.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

import tofclock as tc
from tofclock import analysis, oracles
from tofclock.analysis import distribution_distance, mean_reading
from tofclock.cli import cmd_run
from tofclock.config_io import emit_config, load_config
from tofclock.presets import get_preset
from tofclock.propagators import (
    evolve_continuous,
    evolve_kicked,
    kinetic_step,
    run_experiment,
)

from conftest import ACCEPTANCE_GRID

MAX_RUNTIME_S = 120.0


def _report(num: int, message: str) -> None:
    print(f"criterion {num:2d}: {message} -- PASS")


def _small_config(**overrides):
    kwargs = dict(
        physical=tc.PhysicalConfig(),
        region=tc.RegionSpec(-8.0, 8.0),
        clock=tc.ClockSpec(0.8, 8),
        packet=tc.WavepacketSpec(1.0, -15.0, 5.0),
        grid=tc.SpatialGrid(-40.0, 40.0, 2**9),
        mode="continuous",
        t_final=4.0,
        dt=0.02,
        region_mass_tol=1.0,
        boundary_mass_tol=1.0,
    )
    kwargs.update(overrides)
    return tc.ExperimentConfig(**kwargs)


def test_criterion_01_unitarity_and_runtime(fig1_cont_run):
    result, wall = fig1_cont_run
    assert result.norm_drift <= 1e-8
    assert result.max_channel_drift <= 1e-9
    assert wall <= MAX_RUNTIME_S
    _report(
        1,
        f"norm drift {result.norm_drift:.2e}, channel drift "
        f"{result.max_channel_drift:.2e}, runtime {wall:.1f}s <= {MAX_RUNTIME_S:.0f}s",
    )


def test_criterion_02_free_motion_exact():
    spec = tc.WavepacketSpec(1.0, -15.0, 5.0)
    grid = tc.SpatialGrid(-60.0, 100.0, 2**10)
    clock = tc.ClockSpec(0.8, 4)
    state = tc.product_state(tc.init_gaussian(spec, grid), clock, grid)
    for _ in range(50):
        state = kinetic_step(state, 0.2)
    analytic = oracles.free_gaussian(spec, 10.0, grid.x) / math.sqrt(clock.n_modes)
    err = max(np.max(np.abs(row - analytic)) for row in state.amplitudes)
    assert err <= 1e-8
    _report(2, f"free flight to t=10, sup amplitude error {err:.2e} <= 1e-8")


def test_criterion_03_clock_rigidity():
    # coupling region covering the whole grid: the clock must advance
    # rigidly by omega * t_final no matter what the particle does
    t_final = 3.0
    cfg = _small_config(
        region=tc.RegionSpec(-40.0, 39.95),
        packet=tc.WavepacketSpec(1.0, -15.0, 3.0),
        t_final=t_final,
        dt=0.01,
    )
    traj = evolve_continuous(cfg)
    theta, density = analysis.theta_distribution(traj.final_state, 512)
    shifted = oracles.hand_density(cfg.clock, theta - cfg.clock.omega * t_final)
    err = np.max(np.abs(density - shifted))
    assert err <= 1e-9
    series = analysis.state_tof_distribution(traj.final_state, 512)
    mean = mean_reading(series)
    assert mean == pytest.approx(t_final, abs=1e-6)
    _report(
        3,
        f"rigid clock: density error {err:.2e} <= 1e-9, "
        f"mean reading {mean:.8f} = {t_final} +/- 1e-6",
    )


def test_criterion_04_representation_equivalence(fig1_kicked_run):
    worst = 0.0
    for mode, extra in (("continuous", {}), ("kicked", dict(kick_period=0.5))):
        cfg = _small_config(mode=mode, **extra)
        oracle = oracles.evolve_theta_grid(cfg, 2**7)
        if mode == "continuous":
            traj = evolve_continuous(cfg)
        else:
            traj = evolve_kicked(cfg)
        _, density = analysis.theta_distribution(traj.final_state, 2**7)
        err = np.max(np.abs(oracle.theta_marginal() - density[:-1]))
        worst = max(worst, err)
        assert err <= 1e-8

    # the shipped kicked preset at full size, relative to the marginal's peak
    marginal = oracles.evolve_theta_grid(fig1_kicked_run.config, 2**8).theta_marginal()
    _, density = analysis.theta_distribution(fig1_kicked_run.final_state, 2**8)
    rel = np.max(np.abs(marginal - density[:-1])) / marginal.max()
    assert rel <= 1e-12
    _report(
        4,
        f"channel vs (x,theta)-grid marginals, sup error {worst:.2e} <= 1e-8; "
        f"fig1-kicked-T1 at 2^12, {rel:.2e} of the peak <= 1e-12",
    )


def test_criterion_05_stationary_scattering():
    # closed-form amplitudes vs direct integration of the stationary equation
    amp_err = 0.0
    for E in (0.5, 1.0, 2.0, 4.5, 10.0):
        a = oracles.barrier_amplitudes(E, 1.76, 2.0)
        b = oracles.barrier_amplitudes_numeric(E, 1.76, 2.0)
        amp_err = max(amp_err, abs(a.transmission - b.transmission),
                      abs(a.reflection - b.reflection))
    assert amp_err <= 1e-8

    # narrow-momentum packet on the single channel n = 5 (V = 5*hbar*omega)
    omega = 1.76 / 5.0
    clock = tc.ClockSpec(omega, 5)
    region = tc.RegionSpec(-1.0, 1.0)
    packet = tc.WavepacketSpec(10.0, -100.0, 3.0)
    grid = tc.SpatialGrid(-400.0, 400.0, 2**12)
    cfg = tc.ExperimentConfig(
        physical=tc.PhysicalConfig(), region=region, clock=clock,
        packet=packet, grid=grid, mode="continuous", t_final=50.0, dt=0.01,
        region_mass_tol=1.0, boundary_mass_tol=1.0,
    )
    amps = np.zeros((clock.n_modes, grid.num_points), dtype=complex)
    amps[-1] = tc.init_gaussian(packet, grid)  # channel n = +5 only
    traj = evolve_continuous(cfg, initial_state=tc.ChannelState(clock, grid, amps))
    report = analysis.transmission_report(traj.final_state, region)
    transmitted = report.total_right

    E0 = packet.p0**2 / 2.0
    stationary = oracles.barrier_amplitudes(
        E0, 5 * omega, region.width
    ).transmission_probability
    rel = abs(transmitted - stationary) / stationary
    assert rel <= 0.01
    _report(
        5,
        f"amplitudes vs integration {amp_err:.2e} <= 1e-8; wavepacket "
        f"transmission {transmitted:.5f} vs |t(k0)|^2 {stationary:.5f} "
        f"(rel {rel:.2%} <= 1%)",
    )


def test_criterion_06_ideal_reference(fig1_ideal_series):
    dist = fig1_ideal_series
    assert dist.total_mass == pytest.approx(1.0, abs=1e-6)

    cfg = get_preset("fig1-continuous")
    fine = np.linspace(0.0, 25.0, 2**15 + 1)
    fine_dist = oracles.ideal_dwell(cfg.packet, cfg.region, 1.0, fine)
    mean = np.trapezoid(fine_dist.times * fine_dist.density, fine_dist.times)
    d = cfg.region.width
    expected, _ = quad(
        lambda p: (d / p) * oracles.momentum_density(cfg.packet, np.array([p]))[0],
        1.0, 9.0,
    )
    assert mean == pytest.approx(expected, abs=1e-6)

    narrow = tc.WavepacketSpec(500.0, -4000.0, 5.0)
    t = np.linspace(9.9, 10.1, 40001)
    conc = oracles.ideal_dwell(narrow, cfg.region, 1.0, t)
    conc_mean = np.trapezoid(conc.times * conc.density, t) / conc.total_mass
    assert conc.total_mass == pytest.approx(1.0, abs=1e-6)
    assert conc_mean == pytest.approx(10.0, abs=1e-4)
    _report(
        6,
        f"mass {dist.total_mass:.8f}, mean {mean:.8f} = quadrature "
        f"{expected:.8f} +/- 1e-6, narrow-momentum limit at t = {conc_mean:.5f}",
    )


def test_criterion_07_high_energy_validity():
    cfg = dataclasses.replace(get_preset("fig1-high-energy"), grid=ACCEPTANCE_GRID)
    result = run_experiment(cfg)
    series = analysis.state_tof_distribution(result.final_state, 1024)
    mean = mean_reading(series)

    d = cfg.region.width
    ideal_mean, _ = quad(
        lambda p: (d / p) * oracles.momentum_density(cfg.packet, np.array([p]))[0],
        21.0, 29.0,
    )
    rel = abs(mean - ideal_mean) / ideal_mean
    report = analysis.transmission_report(result.final_state, cfg.region)
    assert rel <= 0.02
    assert report.total_right >= 0.99
    _report(
        7,
        f"p0=25: mean reading {mean:.4f} vs ideal {ideal_mean:.4f} "
        f"(rel {rel:.2%} <= 2%), transmission {report.total_right:.4f} >= 0.99",
    )


def test_criterion_08_low_energy_continuous_failure(
    fig1_cont_series, fig1_ideal_series
):
    series = fig1_cont_series
    t, p = series.times, series.density
    t_cl = 10.0

    # (a) reflection peak: a genuine local maximum at early readings
    early = t < 0.3 * t_cl
    i_peak = int(np.argmax(p * early))
    t_peak = t[i_peak]
    assert 0 < i_peak < early.sum() - 1
    assert p[i_peak] > p[i_peak - 1] and p[i_peak] > p[i_peak + 1]
    # it must be a prominent feature, not sampling noise: the density drops
    # to a deep valley before the transmitted peak
    valley = p[(t > t_peak) & (t < 0.5 * t_cl)].min()
    assert p[i_peak] > 10.0 * valley

    # (b) transmitted peak displaced to shorter times
    inside = (t >= 3.0) & (t <= 15.0)
    t_in, p_in = t[inside], p[inside]
    mean_trans = np.trapezoid(t_in * p_in, t_in) / np.trapezoid(p_in, t_in)
    ideal_mean = np.trapezoid(
        fig1_ideal_series.times * fig1_ideal_series.density, fig1_ideal_series.times
    )
    assert mean_trans < ideal_mean
    _report(
        8,
        f"reflection peak at t = {t_peak:.2f} (< {0.3 * t_cl:.0f}); transmitted "
        f"mean {mean_trans:.3f} < ideal mean {ideal_mean:.3f}",
    )


def test_criterion_09_kicked_improvement(
    fig1_cont_series, fig1_kicked_series, fig1_ideal_series
):
    d_cont = distribution_distance(fig1_cont_series, fig1_ideal_series)[0]
    d_kick = distribution_distance(fig1_kicked_series, fig1_ideal_series)[0]
    assert d_kick < d_cont

    # staircase: kicked readings quantized near integer multiples of T = 1
    T = 1.0
    tau = get_preset("fig1-continuous").clock.tau
    t, p = fig1_kicked_series.times, fig1_kicked_series.density
    dist_to_grid = np.abs(t - T * np.round(t / T))
    frac = np.trapezoid(p * (dist_to_grid <= 2.0 * tau), t) / fig1_kicked_series.total_mass
    assert frac >= 0.80
    _report(
        9,
        f"sup-CDF to ideal: kicked {d_kick:.3f} < continuous {d_cont:.3f}; "
        f"staircase mass within +/-2*tau of kick multiples: {frac:.2%} >= 80%",
    )


def test_criterion_10_convergence_orders():
    # Strang dt-halving on the small instance
    ref = evolve_continuous(_small_config(dt=0.000625)).final_state.amplitudes
    errs = [
        np.max(np.abs(evolve_continuous(_small_config(dt=dt)).final_state.amplitudes - ref))
        for dt in (0.01, 0.005)
    ]
    order = math.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3

    # kicked -> continuous as the kick period shrinks
    cont = evolve_continuous(_small_config(dt=0.0025, t_final=5.0)).final_state
    ref_series = analysis.state_tof_distribution(cont, 256)
    periods = (0.4, 0.2, 0.1, 0.05)
    dists = []
    for T in periods:
        kicked = evolve_kicked(
            _small_config(mode="kicked", kick_period=T, t_final=5.0)
        ).final_state
        ser = analysis.state_tof_distribution(kicked, 256)
        dists.append(distribution_distance(ref_series, ser)[0])
    assert all(a > b for a, b in zip(dists, dists[1:]))
    slope = np.polyfit(np.log(periods), np.log(dists), 1)[0]
    assert slope >= 0.7
    _report(
        10,
        f"Strang order {order:.2f} in [1.7, 2.3]; kicked->continuous "
        f"monotone, log-log slope {slope:.2f} >= 0.7",
    )


def _manifest_data_lines(path) -> str:
    # wall time and worker count are run provenance, not results
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(
        l for l in lines
        if not l.startswith("wall_time_s") and not l.startswith("workers")
    )


def test_criterion_11_determinism(tmp_path):
    cfg = dataclasses.replace(get_preset("fig1-kicked-T1"), grid=ACCEPTANCE_GRID)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(emit_config(cfg), encoding="utf-8")
    assert load_config(cfg_path) == cfg

    runs = [
        cmd_run(load_config(cfg_path), tmp_path / name, workers=workers)
        for name, workers in (("w1a", 1), ("w1b", 1), ("w4", 4))
    ]
    data_names = ("tof_density.csv", "config.txt")
    base = {n: (runs[0] / n).read_bytes() for n in data_names}
    for run in runs[1:]:
        for n in data_names:
            assert (run / n).read_bytes() == base[n]
    base_manifest = _manifest_data_lines(runs[0] / "manifest.txt")
    for run in runs[1:]:
        assert _manifest_data_lines(run / "manifest.txt") == base_manifest
    digest = hashlib.sha256(base["tof_density.csv"]).hexdigest()[:12]
    _report(
        11,
        f"byte-identical outputs across repeats and workers 1/4 "
        f"(density sha256 {digest}...)",
    )
