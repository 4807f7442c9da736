import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfcinv

import tofclock as tc
from tofclock import oracles
from tofclock.core import NEG_MOMENTUM_MAX, validate_regime
from tofclock.propagators import evolve_continuous, evolve_kicked
from tofclock.analysis import state_tof_distribution, theta_distribution, theta_grid
from tofclock.oracles import hand_density


class TestFreeGaussian:
    SPEC = tc.WavepacketSpec(sigma=1.5, x0=-10.0, p0=4.0)
    GRID = tc.SpatialGrid(-60.0, 60.0, 2**11)

    def test_matches_initial_state_at_t0(self):
        psi0 = tc.init_gaussian(self.SPEC, self.GRID)
        analytic = oracles.free_gaussian(self.SPEC, 0.0, self.GRID.x)
        # continuum vs discrete normalization agree to machine precision
        # for a packet this far from the edges
        assert np.max(np.abs(psi0 - analytic)) < 1e-12

    def test_spreading_variance(self):
        # [DERIVED] var(t) = sigma^2 (1 + (t / (2 m sigma^2))^2)
        for t in (0.5, 2.0, 8.0):
            psi = oracles.free_gaussian(self.SPEC, t, self.GRID.x)
            rho = np.abs(psi) ** 2 * self.GRID.dx
            mean = np.sum(self.GRID.x * rho) / rho.sum()
            var = np.sum((self.GRID.x - mean) ** 2 * rho) / rho.sum()
            beta = t / (2.0 * self.SPEC.sigma**2)
            assert var == pytest.approx(self.SPEC.sigma**2 * (1.0 + beta**2), rel=1e-10)
            assert mean == pytest.approx(self.SPEC.x0 + self.SPEC.p0 * t, rel=1e-10)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            oracles.free_gaussian(self.SPEC, -1.0, self.GRID.x)


class TestBarrierAmplitudes:
    def test_free_limit(self):
        amp = oracles.barrier_amplitudes(E=2.0, V=0.0, d=3.0)
        assert amp.transmission_probability == pytest.approx(1.0, abs=1e-14)
        assert amp.reflection_probability == pytest.approx(0.0, abs=1e-14)
        # transmitted phase is just the free flight: t = 1 exactly
        assert amp.transmission == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("V", [-2.0, -0.3, 0.4, 0.9999, 1.0, 1.5])
    def test_unitarity(self, V):
        amp = oracles.barrier_amplitudes(E=1.0, V=V, d=2.0)
        assert amp.transmission_probability + amp.reflection_probability == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize(
        "E,V,d",
        [
            (1.0, 0.5, 2.0),    # above-barrier
            (1.0, -0.5, 2.0),   # well
            (0.5, 1.0, 1.0),    # tunneling
            (1.0, 1.0, 2.0),    # E = V linear interior
            (10.0, 0.3, 5.0),   # high energy
        ],
    )
    def test_against_direct_integration(self, E, V, d):
        a = oracles.barrier_amplitudes(E, V, d)
        b = oracles.barrier_amplitudes_numeric(E, V, d)
        assert abs(a.transmission - b.transmission) < 1e-8
        assert abs(a.reflection - b.reflection) < 1e-8

    def test_resonance(self):
        # transmission is perfect when k' d = pi: choose E - V = pi^2/(2 d^2)
        d, V = 2.0, -1.0
        E = math.pi**2 / (2.0 * d**2) + V
        assert E > 0
        amp = oracles.barrier_amplitudes(E, V, d)
        assert amp.transmission_probability == pytest.approx(1.0, abs=1e-12)

    def test_deep_tunneling_suppression(self):
        thin = oracles.barrier_amplitudes(E=0.5, V=2.0, d=1.0)
        thick = oracles.barrier_amplitudes(E=0.5, V=2.0, d=3.0)
        assert thick.transmission_probability < thin.transmission_probability
        kappa = math.sqrt(2.0 * (2.0 - 0.5))
        ratio = thick.transmission_probability / thin.transmission_probability
        assert ratio == pytest.approx(math.exp(-2.0 * kappa * 2.0), rel=0.3)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            oracles.barrier_amplitudes(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            oracles.barrier_amplitudes_numeric(-1.0, 1.0, 1.0)


class TestPhaseShiftApprox:
    CLOCK = tc.ClockSpec(omega=2.0 * math.pi / 25.0, j=50)

    def test_zero_mode(self):
        exact, approx = oracles.phase_shift_approx(0, self.CLOCK, 12.5, 50.0)
        assert exact == 0.0 and approx == 0.0

    def test_high_energy_agreement(self):
        # E = 312.5 >> |V_50| = 12.57: linearization accurate to ~V/(2E) ~ 2%
        for n in (-50, -10, 10, 50):
            exact, approx = oracles.phase_shift_approx(n, self.CLOCK, 312.5, 50.0)
            assert approx == pytest.approx(exact, rel=0.03)

    def test_breakdown_near_threshold(self):
        # E barely above V_50: the linearization is badly wrong
        E = 1.05 * 50 * self.CLOCK.omega
        exact, approx = oracles.phase_shift_approx(50, self.CLOCK, E, 50.0)
        assert abs(approx - exact) > 0.3 * abs(exact)

    def test_evanescent_raises(self):
        with pytest.raises(oracles.EvanescentRegimeError):
            oracles.phase_shift_approx(50, self.CLOCK, 1.0, 50.0)

    def test_sign_convention(self):
        # a barrier (n > 0) slows the interior wave: k' < k, phase shift < 0,
        # matching the linearized form -n*omega*t_f
        exact, approx = oracles.phase_shift_approx(10, self.CLOCK, 312.5, 50.0)
        assert exact < 0 and approx < 0


class TestIdealDwell:
    SPEC = tc.WavepacketSpec(sigma=1.0, x0=-30.0, p0=5.0)
    REGION = tc.RegionSpec(-25.0, 25.0)

    def test_total_mass(self):
        times = np.linspace(0.0, 25.0, 4097)
        dist = oracles.ideal_dwell(self.SPEC, self.REGION, 1.0, times)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-6)

    def test_mean_matches_momentum_quadrature(self):
        # [DERIVED] mean dwell time = m d <1/p>, computed by independent
        # quadrature over the analytic momentum density
        times = np.linspace(0.0, 25.0, 8193)
        dist = oracles.ideal_dwell(self.SPEC, self.REGION, 1.0, times)
        mean = np.trapezoid(dist.times * dist.density, dist.times)
        d = self.REGION.width
        expected, _ = quad(
            lambda p: (d / p) * oracles.momentum_density(self.SPEC, np.array([p]))[0],
            1.0, 9.0,
        )
        assert mean == pytest.approx(expected, abs=1e-6)

    def test_narrow_momentum_limit(self):
        # sigma -> infinity: momentum density concentrates at p0 and the dwell
        # distribution concentrates at the classical value m d / p0 = 10
        spec = tc.WavepacketSpec(sigma=200.0, x0=-1000.0, p0=5.0)
        times = np.linspace(9.5, 10.5, 20001)
        dist = oracles.ideal_dwell(spec, self.REGION, 1.0, times)
        mean = np.trapezoid(dist.times * dist.density, times) / np.trapezoid(
            dist.density, times
        )
        assert mean == pytest.approx(10.0, abs=1e-4)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-8)

    def test_zero_at_origin(self):
        times = np.linspace(0.0, 25.0, 101)
        dist = oracles.ideal_dwell(self.SPEC, self.REGION, 1.0, times)
        assert dist.density[0] == 0.0

    def test_rejects_slow_packet(self):
        with pytest.raises(ValueError):
            oracles.ideal_dwell(
                tc.WavepacketSpec(1.0, -30.0, 1.0), self.REGION, 1.0,
                np.linspace(0.0, 25.0, 101),
            )

    def test_negative_momentum_limit_shared_with_config(self):
        # p0 a hair above and below the momentum where the weight below
        # p = 0 is exactly NEG_MOMENTUM_MAX (sigma = 1: momentum std 0.5)
        edge = 0.5 * math.sqrt(2.0) * erfcinv(2.0 * NEG_MOMENTUM_MAX)
        under = tc.WavepacketSpec(1.0, -14.0, edge * (1.0 + 1e-4))
        over = tc.WavepacketSpec(1.0, -14.0, edge * (1.0 - 1e-4))
        assert under.negative_momentum_weight() < NEG_MOMENTUM_MAX
        assert over.negative_momentum_weight() > NEG_MOMENTUM_MAX
        base = dict(
            physical=tc.PhysicalConfig(), region=tc.RegionSpec(-6.0, 6.0),
            clock=tc.ClockSpec(0.9, 6), grid=tc.SpatialGrid(-40.0, 40.0, 2**9),
            mode="ideal-reference", t_final=20.0,
        )
        cfg = tc.ExperimentConfig(packet=under, **base)
        times = theta_grid(cfg.clock) / cfg.clock.omega
        assert oracles.ideal_dwell(under, cfg.region, 1.0, times).total_mass > 0.0
        limit = re.escape(f"{NEG_MOMENTUM_MAX:.3e}")
        with pytest.raises(ValueError, match=f"exceeds threshold {limit}"):
            tc.ExperimentConfig(packet=over, **base)
        with pytest.raises(ValueError, match=f"exceeds {limit}"):
            oracles.ideal_dwell(over, base["region"], 1.0, np.linspace(0.0, 7.0, 101))

    def test_momentum_density_normalized(self):
        p = np.linspace(-5.0, 15.0, 20001)
        rho = oracles.momentum_density(self.SPEC, p)
        assert np.trapezoid(rho, p) == pytest.approx(1.0, abs=1e-10)


def _small_config(mode, **overrides):
    kwargs = dict(
        physical=tc.PhysicalConfig(),
        region=tc.RegionSpec(-6.0, 6.0),
        clock=tc.ClockSpec(0.9, 6),
        packet=tc.WavepacketSpec(1.0, -14.0, 5.0),
        grid=tc.SpatialGrid(-40.0, 40.0, 2**9),
        mode=mode,
        t_final=4.0,
        dt=0.02,
        region_mass_tol=1.0,
        boundary_mass_tol=1.0,
    )
    kwargs.update(overrides)
    return tc.ExperimentConfig(**kwargs)


def _unit_free(m, hbar, mode):
    """Overrides for mass m and Planck constant hbar: p0 = 5 hbar, and the
    times scaled by m/hbar, so that the packet crosses the region as at
    m = hbar = 1 in as many steps or kicks."""
    s = m / hbar
    extra = dict(physical=tc.PhysicalConfig(m, hbar),
                 packet=tc.WavepacketSpec(1.0, -14.0, 5.0 * hbar),
                 t_final=4.0 * s, dt=0.02 * s)
    if mode == "kicked":
        extra["kick_period"] = 0.5 * s
    return extra


@st.composite
def _random_runs(draw):
    """A small continuous or kicked config.  Kicked periods either make
    omega T / 2 pi a fraction a / b with b < 2j+1, so channels b apart share
    every kick phase, or leave omega free."""
    j = draw(st.integers(1, 6))
    t_final = draw(st.floats(1.0, 4.0))
    omega = draw(st.floats(0.2, 3.0))
    kind = draw(st.sampled_from(["continuous", "commensurate", "free"]))
    if kind == "continuous":
        extra = dict(mode="continuous", dt=t_final / draw(st.integers(5, 40)))
    else:
        T = draw(st.floats(0.2, t_final))
        if kind == "commensurate":
            a, b = draw(st.integers(1, 3)), draw(st.integers(1, 2 * j))
            omega = 2.0 * math.pi * a / (b * T)
        extra = dict(mode="kicked", kick_period=T)
    region = tc.RegionSpec(-draw(st.floats(2.0, 8.0)), draw(st.floats(2.0, 8.0)))
    return _small_config(clock=tc.ClockSpec(omega, j), region=region, t_final=t_final,
                         grid=tc.SpatialGrid(-40.0, 40.0, 2**8), **extra)


class TestThetaGridOracle:
    def test_guards(self):
        # 2^14 x 2^8 values, twice the bound
        cfg = _small_config("continuous", grid=tc.SpatialGrid(-80.0, 80.0, 2**14))
        with pytest.raises(ValueError, match=f"limited to {oracles.THETA_GRID_MAX_VALUES} values"):
            oracles.evolve_theta_grid(cfg, 2**8)
        with pytest.raises(ValueError, match="undersamples"):
            oracles.evolve_theta_grid(
                _small_config("continuous", clock=tc.ClockSpec(0.9, 40)), 64
            )

    def test_initial_marginal_is_hand_kernel(self):
        cfg = _small_config("continuous", t_final=1e-9, dt=1e-9)
        res = oracles.evolve_theta_grid(cfg, 128)
        expected = hand_density(cfg.clock, res.theta)
        np.testing.assert_allclose(res.theta_marginal(), expected, atol=1e-8)
        assert res.norm() == pytest.approx(1.0, abs=1e-9)

    def test_packet_not_built_by_the_engines(self, monkeypatch):
        def engine_packet(*args, **kwargs):
            raise AssertionError("the oracle used the engines' init_gaussian")

        cfg = _small_config("continuous")
        expected = oracles.evolve_theta_grid(cfg, 128).theta_marginal()
        for module in (tc, tc.core, oracles):
            monkeypatch.setattr(module, "init_gaussian", engine_packet, raising=False)
        res = oracles.evolve_theta_grid(cfg, 128)
        np.testing.assert_array_equal(res.theta_marginal(), expected)

    def test_kicks_not_counted_by_the_engines(self, monkeypatch):
        # the packet is half inside the region at the last kick, t = 4: with
        # one kick fewer in the engines' schedule, the two must disagree
        cfg = _small_config("kicked", kick_period=0.5)
        n_kicks = tc.core.KickSchedule.n_kicks.fget
        monkeypatch.setattr(tc.core.KickSchedule, "n_kicks",
                            property(lambda schedule: n_kicks(schedule) - 1))
        assert cfg.kick_schedule.n_kicks == 7
        _, density = theta_distribution(evolve_kicked(cfg).final_state, 128)
        oracle = oracles.evolve_theta_grid(cfg, 128).theta_marginal()
        assert np.abs(oracle - density[:-1]).max() > 1e-3

    def test_region_not_masked_by_the_engines(self, monkeypatch):
        def engine_mask(*args, **kwargs):
            raise AssertionError("the oracle used the engines' region_mask")

        cfg = _small_config("kicked", kick_period=0.5)
        expected = oracles.evolve_theta_grid(cfg, 128).theta_marginal()
        monkeypatch.setattr(tc.SpatialGrid, "region_mask", engine_mask)
        res = oracles.evolve_theta_grid(cfg, 128)
        np.testing.assert_array_equal(res.theta_marginal(), expected)

    def test_engines_import_no_reference(self):
        # in a fresh interpreter, so that no other test's imports count
        code = ("import sys, tofclock.propagators; "
                "print(sorted(m for m in sys.modules if m.startswith('tofclock')))")
        env = dict(os.environ, PYTHONPATH=str(Path(tc.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "['tofclock', 'tofclock.core', 'tofclock.propagators']\n"

    @pytest.mark.parametrize("mode,extra", [
        ("continuous", {}),
        ("kicked", dict(kick_period=0.5)),
        ("kicked", dict(kick_period=0.7)),
        *[pytest.param(mode, _unit_free(m, hbar, mode), id=f"{mode}-m{m:g}-hbar{hbar:g}")
          for mode in ("continuous", "kicked") for m, hbar in ((2.0, 0.5), (0.5, 2.0))],
    ])
    def test_channel_engine_equivalence(self, mode, extra):
        # the production channel engines and the brute-force (x, theta)
        # tensor-grid evolution must produce the same clock marginal
        cfg = _small_config(mode, **extra)
        res = oracles.evolve_theta_grid(cfg, 128)
        if mode == "continuous":
            traj = evolve_continuous(cfg)
        else:
            traj = evolve_kicked(cfg)
        theta, density = theta_distribution(traj.final_state, 128)
        np.testing.assert_allclose(
            res.theta_marginal(), density[:-1], atol=1e-10
        )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_random_runs())
    def test_random_configs_match_engines(self, cfg):
        # the same marginal from the (x, theta) grid, and every channel's
        # norm kept, on whichever path the engine takes
        engine = evolve_continuous if cfg.mode == "continuous" else evolve_kicked
        final = engine(cfg).final_state
        _, density = theta_distribution(final, 64)
        oracle = oracles.evolve_theta_grid(cfg, 64)
        np.testing.assert_allclose(density[:-1], oracle.theta_marginal(), rtol=0, atol=1e-10)
        n_modes = cfg.clock.n_modes
        np.testing.assert_allclose(final.channel_norms(), np.full(n_modes, 1.0 / n_modes),
                                   rtol=0, atol=1e-12)
        assert final.norm() == pytest.approx(1.0, abs=1e-12)
        assert oracle.norm() == pytest.approx(1.0, abs=1e-12)

    def test_ideal_time_grid_closed(self):
        clock = tc.ClockSpec(0.9, 6)
        times = theta_grid(clock, 64) / clock.omega
        assert times.shape == (65,)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(clock.period, rel=1e-15)


def _scaled(cfg, lam, mu, eta):
    """`cfg` with lengths scaled by lam, the mass by mu and hbar by eta:
    times scale by lam^2 mu / eta, momenta by eta / lam and omega by
    eta / (lam^2 mu).  Powers of two scale every value exactly."""
    time = lam**2 * mu / eta
    return dataclasses.replace(
        cfg,
        physical=tc.PhysicalConfig(cfg.physical.m * mu, cfg.physical.hbar * eta),
        region=tc.RegionSpec(cfg.region.x_left * lam, cfg.region.x_right * lam),
        clock=tc.ClockSpec(cfg.clock.omega / time, cfg.clock.j),
        packet=tc.WavepacketSpec(cfg.packet.sigma * lam, cfg.packet.x0 * lam,
                                 cfg.packet.p0 * eta / lam),
        grid=tc.SpatialGrid(cfg.grid.x_min * lam, cfg.grid.x_max * lam, cfg.grid.num_points),
        t_final=cfg.t_final * time,
        dt=cfg.dt * time,
        kick_period=None if cfg.kick_period is None else cfg.kick_period * time,
    )


def _dimensionless(report):
    """A regime report's verdicts, and its scales as ratios to the packet's
    energy and classical time."""
    e, t = report.energy, report.classical_time
    return (report.continuous_ok, report.max_time_ok, report.degenerate_clock,
            report.kick_in_window, report.kicked_ok,
            report.resolution_scale / e, report.clock_period / t,
            report.kick_window and tuple(bound / t for bound in report.kick_window),
            report.kick_period and report.kick_period / t,
            report.max_modular_energy and report.max_modular_energy / e)


class TestExactSymmetries:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_random_runs(), st.sampled_from([0.25, 4.0]), st.sampled_from([0.5, 2.0, 4.0]),
           st.sampled_from([0.5, 2.0, 4.0]))
    def test_change_of_units_is_bitwise(self, cfg, lam, mu, eta):
        # the model in other units is the same model: a unit dropped or
        # doubled anywhere on the path breaks one of these identities
        time = lam**2 * mu / eta
        scaled = _scaled(cfg, lam, mu, eta)
        engine = evolve_continuous if cfg.mode == "continuous" else evolve_kicked
        runs = [engine(c, workers=1) for c in (cfg, scaled)]
        np.testing.assert_array_equal(runs[1].final_state.amplitudes * math.sqrt(lam),
                                      runs[0].final_state.amplitudes)
        assert ([(s.t * time, s.norm, s.region_mass, s.boundary_mass)
                 for s in runs[0].diagnostics]
                == [(s.t, s.norm, s.region_mass, s.boundary_mass)
                    for s in runs[1].diagnostics])
        readings = [state_tof_distribution(run.final_state) for run in runs]
        np.testing.assert_array_equal(readings[1].times, readings[0].times * time)
        np.testing.assert_array_equal(readings[1].density * time, readings[0].density)
        assert _dimensionless(validate_regime(scaled)) == _dimensionless(validate_regime(cfg))
        ideal = [oracles.ideal_dwell(c.packet, c.region, c.physical.m, reading.times,
                                     c.physical.hbar)
                 for c, reading in zip((cfg, scaled), readings)]
        # bitwise where the CDF is past 1e-300; below the smallest normal
        # double, 2.2e-308, a density scaled by a power of two is rounded
        # (gradual underflow), and so are the CDF's first sums
        past = ideal[0].cdf > 1e-300
        np.testing.assert_array_equal(ideal[1].cdf[past], ideal[0].cdf[past])
        assert ideal[1].cdf[~past].max() <= 1e-300

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_random_runs().filter(lambda cfg: cfg.mode == "kicked"))
    def test_kicks_see_omega_modulo_two_pi_over_period(self, cfg):
        # a kick turns mode n by n omega T, so omega + 2 pi / T turns it by
        # the same angle; only rounding in the larger phases differs
        omega = cfg.clock.omega + 2.0 * math.pi / cfg.kick_period
        shifted = dataclasses.replace(cfg, clock=tc.ClockSpec(omega, cfg.clock.j))
        a, b = (evolve_kicked(c, workers=1).final_state.amplitudes for c in (cfg, shifted))
        assert np.abs(b - a).max() <= 1e-10 * np.abs(a).max()
