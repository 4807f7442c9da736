"""The three benchmark workloads: their inputs, set-up, timed pass and checks.

Importing this module imports ``tofclock`` from the checkout's ``src``
directory; ``setup_probe.py`` times exactly that import plus ``setup``.

Every workload is a closed loop with one client: each experiment starts when
the previous one has finished, in a single process, with ``workers=1``.

- ``continuous-highE``: ``fig1-high-energy`` on the 2^12 acceptance grid,
  through ``run_experiment`` -> ``state_tof_distribution`` ->
  ``mean_reading`` / ``transmission_report``.  The FFT and in-loop phase
  kernel of the Strang engine.
- ``kicked-sweep``: the six ``fig1-kicked-T*`` presets as shipped on the
  2^12 grid, plus the sup-CDF distance of each result to its reference.
  Same FFT kernel, but guards, masks and coupling weigh ~20x more per FFT.
  ``fig1-kicked-T0.2`` raises ``BoundaryLeakError`` on the seed code
  (ROADMAP item 5); it is kept and counted, never loosened.
- ``regime-sweep``: 100 small experiments (17 clock modes, 2^9-2^10
  points; 40 ideal-reference, 54 kicked, 6 continuous), one of four
  variants per slot of a fixed pool chosen by the seed, each run through
  ``emit_config`` and ``cli.main(["run", ...])``, then one ``compare`` over
  all runs.  Fixed per-call cost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if not (SRC / "tofclock" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no tofclock sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402

import tofclock  # noqa: E402
from tofclock import analysis, cli, config_io, core, oracles, presets, propagators  # noqa: E402

if Path(tofclock.__file__).resolve().parent != SRC / "tofclock":
    raise SystemExit(f"perfbench: imported tofclock from {tofclock.__file__}, not {SRC}")

THETA_POINTS = 1024  # the CLI default, so every workload reads the same grid
NORM_DRIFT_MAX = 1e-8
CHANNEL_DRIFT_MAX = 1e-9
ACCEPTANCE_GRID = (-250.0, 150.0, 2**12)


# the config fields, besides the nested specs, that decide a reading distribution
PHYSICS_FIELDS = ("mode", "t_final", "placement", "dt", "kick_period", "kick_at_zero",
                  "region_mass_tol", "boundary_mass_tol")


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One experiment: a config and a failure that is known."""

    name: str
    config: core.ExperimentConfig
    known_failure: str | None = None  # exception class name

    @property
    def fingerprint(self) -> str:
        """Hash of the resolved physics, so a reference stops matching when a
        preset or a parameter changes."""
        cfg = self.config
        physics = {f: dataclasses.asdict(getattr(cfg, f))
                   for f in ("physical", "region", "clock", "packet", "grid")}
        physics.update((f, getattr(cfg, f)) for f in PHYSICS_FIELDS)
        text = json.dumps(physics, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def fft_pairs(self) -> int:
        """Propagation steps (one FFT pair each) of a completed run."""
        cfg = self.config
        if cfg.mode == "continuous":
            return max(1, math.ceil(cfg.t_final / cfg.dt - 1e-12))
        if cfg.mode == "kicked":
            sched = cfg.kick_schedule
            rest = cfg.t_final - sched.n_kicks * sched.period
            return sched.n_kicks + (rest > 1e-12 * cfg.t_final)
        return 0

    @property
    def mpoint_steps(self) -> float:
        cfg = self.config
        return cfg.clock.n_modes * cfg.grid.num_points * self.fft_pairs / 1e6

    @property
    def array_bytes(self) -> int:
        return self.config.clock.n_modes * self.config.grid.num_points * 16


@dataclasses.dataclass
class Outcome:
    """What one experiment of one pass produced (filled outside the timer
    where possible)."""

    experiment: Experiment
    latency_s: float
    error: str | None = None  # "ExcType: message"; None when it completed
    error_type: str | None = None
    series: object | None = None  # analysis.DistributionSeries
    sup_cdf: float | None = None
    mean: float | None = None
    norm_drift: float | None = None
    channel_drift: float | None = None
    transmission: float | None = None
    digest: str | None = None
    run_dir: Path | None = None


# ---------------------------------------------------------------- inputs

def _acceptance(name: str, known_failure: str | None = None) -> Experiment:
    grid = core.SpatialGrid(*ACCEPTANCE_GRID)
    cfg = dataclasses.replace(presets.get_preset(name), grid=grid)
    return Experiment(name, cfg, known_failure)


def continuous_highe_inputs(seed: int) -> list[Experiment]:
    return [_acceptance("fig1-high-energy")]


def kicked_sweep_inputs(seed: int) -> list[Experiment]:
    out = []
    for T in presets.FIG1_KICK_PERIODS:
        name = f"fig1-kicked-T{T:g}"
        # peak boundary mass 2.05e-2-2.16e-2 > boundary_mass_tol=2e-2 on the
        # seed code (ROADMAP item 5): counted as a failure, not loosened
        known = "BoundaryLeakError" if name == "fig1-kicked-T0.2" else None
        out.append(_acceptance(name, known))
    return out


# regime-sweep: one shared clock (compare needs one time grid), region
# (-8, 8), sigma = 1.  Low band p0 puts the continuous clock outside its
# validity regime (E < 10*pi*hbar/tau = 68), high band inside it.
REGIME_CLOCK = (0.8, 8)
REGIME_REGION = (-8.0, 8.0)
REGIME_BANDS = {"low": (5.0, 6.5), "high": (11.0, 13.0)}
REGIME_KICK_PERIODS = {"low": (0.4, 2.5), "high": (0.3, 1.2)}
# dt ~ 0.02 as in demos/regime_map.py; a fixed step count, so a pass costs
# the same for every seed
REGIME_STEPS = {"low": 400, "high": 250}
# (mode, num_points, band, slots); 100 slots, fixed composition per seed.
# Continuous runs are few: each costs ~10 small runs of FFT work, and the
# workload is there to show the fixed cost of a call (continuous-highE
# measures the Strang engine).  The high band needs 2^10 points to resolve p0.
REGIME_STRATA = (
    ("ideal-reference", 2**9, "low", 14),
    ("ideal-reference", 2**10, "low", 13),
    ("ideal-reference", 2**10, "high", 13),
    ("kicked", 2**9, "low", 18),
    ("kicked", 2**10, "low", 18),
    ("kicked", 2**10, "high", 18),
    ("continuous", 2**9, "low", 3),
    ("continuous", 2**10, "high", 3),
)
# pool = slots x variants; references exist for the whole pool.  A slot's
# parameters are drawn once; its variants jitter p0 and T by <= 2 %, so every
# seed covers the same regimes and its aggregates compare across seeds.
REGIME_VARIANTS = 4
REGIME_JITTER = 0.02
REGIME_POOL_SEED = 20021005


def regime_experiment(slot: int, variant: int) -> Experiment:
    """Pool member (slot, variant); independent of the run seed, so stored
    references stay valid."""
    edges = np.cumsum([s[3] for s in REGIME_STRATA])
    mode, points, band, _ = REGIME_STRATA[int(np.searchsorted(edges, slot, side="right"))]
    base = np.random.default_rng([REGIME_POOL_SEED, slot])
    jitter = 1.0 + REGIME_JITTER * np.random.default_rng(
        [REGIME_POOL_SEED, slot, variant]).uniform(-1.0, 1.0, size=2)
    lo, hi = REGIME_BANDS[band]
    p0 = float(min(hi, max(lo, base.uniform(lo, hi) * jitter[0])))
    lo, hi = REGIME_KICK_PERIODS[band]
    period = float(math.exp(base.uniform(math.log(lo), math.log(hi))) * jitter[1])
    x_left, x_right = REGIME_REGION
    t_final = 2.0 * (x_right - x_left) / p0 + 2.0  # as the demos size it
    reach = p0 * t_final + 12.0  # room for transmitted and reflected packets
    cfg = core.ExperimentConfig(
        physical=core.PhysicalConfig(),
        region=core.RegionSpec(x_left, x_right),
        clock=core.ClockSpec(*REGIME_CLOCK),
        packet=core.WavepacketSpec(1.0, x_left - 6.0, p0),
        grid=core.SpatialGrid(x_left - reach, x_right + reach, points),
        mode=mode,
        t_final=t_final,
        dt=t_final / REGIME_STEPS[band] if mode == "continuous" else None,
        kick_period=period if mode == "kicked" else None,
        region_mass_tol=0.08,
        # 2e-2 as the shipped kicked presets
        boundary_mass_tol=2e-2 if mode == "kicked" else 5e-4,
    )
    return Experiment(f"r{slot:03d}v{variant}", cfg)


def regime_slots() -> int:
    return sum(s[3] for s in REGIME_STRATA)


def regime_sweep_inputs(seed: int) -> list[Experiment]:
    rng = np.random.default_rng(seed)
    n = regime_slots()
    variants = rng.integers(REGIME_VARIANTS, size=n)
    return [regime_experiment(int(slot), int(variants[slot])) for slot in rng.permutation(n)]


def regime_pool() -> list[Experiment]:
    return [regime_experiment(s, v)
            for s in range(regime_slots()) for v in range(REGIME_VARIANTS)]


# ---------------------------------------------------------------- set-up

def setup(workload: str, seed: int) -> list[Experiment]:
    """Build configs and initial states and make one warm-up call per array
    shape, which fills scipy's FFT plan cache.  Users pay this once."""
    experiments = WORKLOADS[workload]["inputs"](seed)
    shapes = {}
    for exp in experiments:
        cfg = exp.config
        psi = core.init_gaussian(cfg.packet, cfg.grid, cfg.physical.hbar)
        state = core.product_state(psi, cfg.clock, cfg.grid)
        shapes.setdefault(state.amplitudes.shape, state)
    for state in shapes.values():
        propagators.kinetic_step(state, 1e-3)
    return experiments


# ---------------------------------------------------------------- passes

def ideal_mean(cfg: core.ExperimentConfig) -> float:
    """Ideal dwell mean by quadrature of the independent momentum density
    over p0 +- 8 sigma_p (criterion 7)."""
    md = cfg.physical.m * cfg.region.width
    sp = cfg.packet.momentum_std(cfg.physical.hbar)
    mean, _ = quad(
        lambda p: (md / p) * oracles.momentum_density(
            cfg.packet, np.array([p]), cfg.physical.hbar)[0],
        cfg.packet.p0 - 8.0 * sp, cfg.packet.p0 + 8.0 * sp,
    )
    return mean


def _error_text(exc: BaseException) -> tuple[str, str]:
    return type(exc).__name__, f"{type(exc).__name__}: {exc}"


def series_digest(series) -> str:
    h = hashlib.sha256()
    for arr in (series.times, series.density, series.cdf):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def library_pass(experiments, refs, work_dir, span):
    """Timed pass of continuous-highE / kicked-sweep.  Returns the outcomes,
    the pass wall time and the failed pass-level checks (none here)."""
    outcomes = []
    t_pass = time.perf_counter()
    for exp in experiments:
        t0 = time.perf_counter()
        with span("experiment"):
            try:
                result = propagators.run_experiment(exp.config)
            except Exception as exc:  # counted and reported by name
                etype, text = _error_text(exc)
                outcomes.append(Outcome(exp, time.perf_counter() - t0, text, etype))
                continue
            series = analysis.state_tof_distribution(result.final_state, THETA_POINTS)
            ref = refs.get(exp)
            sup = None if ref is None else analysis.distribution_distance(series, ref)[0]
            mean = analysis.mean_reading(series)
            trans = analysis.transmission_report(result.final_state, exp.config.region)
        outcomes.append(Outcome(
            exp, time.perf_counter() - t0, series=series, sup_cdf=sup, mean=mean,
            norm_drift=result.norm_drift, channel_drift=result.max_channel_drift,
            transmission=trans.total_right,
        ))
    wall = time.perf_counter() - t_pass
    for out in outcomes:
        if out.series is not None:
            out.digest = series_digest(out.series)
    return outcomes, wall, []


def _quiet_cli(argv) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def regime_pass(experiments, refs, work_dir, span):
    """Timed pass of regime-sweep through the real CLI path.  Files are
    read back and checked after the timer stops."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    outcomes = []
    t_pass = time.perf_counter()
    for exp in experiments:
        cfg_path = work_dir / f"{exp.name}.cfg"
        run_dir = work_dir / exp.name
        t0 = time.perf_counter()
        with span("experiment"):
            try:
                cfg_path.write_text(config_io.emit_config(exp.config), encoding="utf-8")
                code, text = _quiet_cli(
                    ["run", "--config", str(cfg_path), "--out", str(run_dir)])
                etype, error = (None, None) if code == 0 else (
                    "ExitCode", f"exit code {code}: {text.strip()}")
            except Exception as exc:  # cli.main lets PropagationError escape
                etype, error = _error_text(exc)
        outcomes.append(Outcome(exp, time.perf_counter() - t0, error, etype,
                                run_dir=run_dir))
    done = [str(o.run_dir) for o in outcomes if o.error is None]
    cmp_dir = work_dir / "compare"
    with span("compare"):
        try:
            cmp_code, cmp_text = _quiet_cli(["compare", *done, "--out", str(cmp_dir)])
        except Exception as exc:
            cmp_code, cmp_text = -1, _error_text(exc)[1]
    wall = time.perf_counter() - t_pass

    for out in outcomes:
        if out.error is None:
            try:
                _read_back(out, refs)
            except Exception as exc:  # an unreadable or inconsistent run fails its check
                out.error_type, out.error = _error_text(exc)
    if cmp_code != 0:
        return outcomes, wall, [f"compare: exit code {cmp_code}: {cmp_text.strip()}"]
    rows = (cmp_dir / "distances.csv").read_text(encoding="utf-8").count("\n") - 1
    if rows != len(done) * (len(done) - 1) // 2:
        return outcomes, wall, [f"compare: distances.csv has {rows} rows for {len(done)} runs"]
    return outcomes, wall, []


def _read_back(out: Outcome, refs) -> None:
    """Check a CLI run directory: manifest hashes, drifts, readings."""
    manifest = {}
    files = {}
    for line in (out.run_dir / "manifest.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("file."):
            files[key[5:]] = value
        else:
            manifest[key] = value
    bad = [n for n, h in files.items()
           if hashlib.sha256((out.run_dir / n).read_bytes()).hexdigest() != h]
    if bad or not files:
        raise ValueError(f"manifest SHA-256 mismatch for {bad or 'no files'}")
    data_name = "ideal_dwell.csv" if "ideal_dwell.csv" in files else "tof_density.csv"
    raw = (out.run_dir / data_name).read_bytes()
    out.digest = hashlib.sha256(raw).hexdigest()
    data = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1)
    out.series = analysis.DistributionSeries(data[:, 0], data[:, 1], data[:, 2])
    if data_name == "tof_density.csv":
        out.norm_drift = float(manifest["diag.norm_drift"])
        out.channel_drift = float(manifest["diag.max_channel_drift"])
        out.mean = analysis.mean_reading(out.series)
        ref = refs.get(out.experiment)
        if ref is not None:
            if not np.allclose(out.series.times, ref.times, rtol=0.0, atol=1e-12):
                raise ValueError(f"{out.experiment.name}: time grid differs from reference")
            out.sup_cdf = float(np.max(np.abs(out.series.cdf - ref.cdf)))


# ---------------------------------------------------------------- checks

def staircase_mass(series, cfg: core.ExperimentConfig) -> float:
    """Share of reading mass within +-2 tau of a kick multiple (criterion 9)."""
    T, tau = cfg.kick_period, cfg.clock.tau
    t, p = series.times, series.density
    near = np.abs(t - T * np.round(t / T)) <= 2.0 * tau
    return float(np.trapezoid(p * near, t) / series.total_mass)


def check(workload: str, out: Outcome, ideal: dict, first_digest: dict) -> list[str]:
    """Names of the checks this completed outcome fails."""
    exp = out.experiment
    failed = []
    if out.norm_drift is not None and not out.norm_drift <= NORM_DRIFT_MAX:
        failed.append(f"norm drift {out.norm_drift:.3e} > {NORM_DRIFT_MAX:g}")
    if out.channel_drift is not None and not out.channel_drift <= CHANNEL_DRIFT_MAX:
        failed.append(f"channel drift {out.channel_drift:.3e} > {CHANNEL_DRIFT_MAX:g}")
    if first_digest.setdefault(exp.name, out.digest) != out.digest:
        failed.append("reading distribution differs between passes")
    if workload == "continuous-highE":
        rel = abs(out.mean - ideal[exp.name]) / ideal[exp.name]
        if not rel <= 0.02:
            failed.append(f"criterion 7: relative error {rel:.3e} > 0.02")
        if not out.transmission >= 0.99:
            failed.append(f"criterion 7: transmission {out.transmission:.4f} < 0.99")
    if exp.name == "fig1-kicked-T1":
        frac = staircase_mass(out.series, exp.config)
        if not frac >= 0.80:
            failed.append(f"criterion 9: staircase mass {frac:.3f} < 0.80")
    return failed


WORKLOADS = {
    "continuous-highE": {"inputs": continuous_highe_inputs, "pass": library_pass},
    "kicked-sweep": {"inputs": kicked_sweep_inputs, "pass": library_pass},
    "regime-sweep": {"inputs": regime_sweep_inputs, "pass": regime_pass},
}
