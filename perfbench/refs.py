"""Finer-resolution reference reading distributions for ``ref_sup_cdf``.

Each reference is the same experiment run once by the seed code at 4x finer
``dx`` (8x the points on a domain twice as wide, so nothing new wraps
through the periodic edge) and, for the continuous engine, ``dt/4``, with
every guard on.  It is stored as the Fourier coefficients
``c_d = sum_{n-n'=d} O[n, n']`` (d = 0..2j) of the final reduced clock
density matrix ``O``; the reading density on the benchmark's time grid is
``omega/(2 pi) * sum_d c_d exp(i d omega t)`` and its CDF the trapezoid
running integral, both computed here without tofclock code.

Regenerate (about 14 minutes on a 2-vCPU Xeon; it overwrites ``refs/``):

    python3 perfbench/refs.py --write

``refs.json`` records that command, the SHA-256 of ``refs.npz`` (checked on
every load), the fingerprint of each experiment's resolved physics and every
experiment that has no reference, with the reason.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import scipy

import workloads as wl

HERE = Path(__file__).resolve().parent
NPZ = HERE / "refs" / "refs.npz"
INDEX = HERE / "refs" / "refs.json"
COMMAND = "python3 perfbench/refs.py --write"


def _series(coeffs: np.ndarray, omega: float):
    t = np.linspace(0.0, 2.0 * math.pi, wl.THETA_POINTS + 1) / omega
    d = np.arange(coeffs.size)
    terms = np.exp(1j * np.outer(omega * t, d[1:])) @ coeffs[1:]
    density = omega * (coeffs[0].real + 2.0 * terms.real) / (2.0 * math.pi)
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(t)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    return wl.analysis.DistributionSeries(times=t, density=density, cdf=cdf)


class References:
    """Verified references, looked up by experiment name and fingerprint."""

    def __init__(self):
        index = json.loads(INDEX.read_text(encoding="utf-8"))
        digest = hashlib.sha256(NPZ.read_bytes()).hexdigest()
        if digest != index["sha256"]:
            raise SystemExit(
                f"perfbench: {NPZ.name} SHA-256 {digest} does not match "
                f"{INDEX.name} ({index['sha256']})")
        self.index = index
        with np.load(NPZ) as data:
            self._coeffs = {k: data[k] for k in data.files}
        self._cache = {}

    def get(self, exp: wl.Experiment):
        """Reference series, or None when the experiment has none."""
        entry = self.index["references"].get(exp.name)
        if entry is None or entry["fingerprint"] != exp.fingerprint:
            return None
        if exp.name not in self._cache:
            self._cache[exp.name] = _series(self._coeffs[exp.name], exp.config.clock.omega)
        return self._cache[exp.name]

    def missing(self, experiments) -> dict[str, str]:
        """Experiments without a reference, with the reason."""
        out = {}
        for exp in experiments:
            if self.get(exp) is not None:
                continue
            out[exp.name] = self.index["missing"].get(
                exp.name, "no reference with this fingerprint")
        return out


# ---------------------------------------------------------------- generation

def finer(exp: wl.Experiment) -> wl.core.ExperimentConfig:
    cfg = exp.config
    g = cfg.grid
    width = g.x_max - g.x_min
    grid = wl.core.SpatialGrid(g.x_min - 0.5 * width, g.x_max + 0.5 * width, 8 * g.num_points)
    changes = {"grid": grid}
    if cfg.mode == "continuous":
        changes["dt"] = cfg.dt / 4.0
    return dataclasses.replace(cfg, **changes)


def coefficients(state) -> np.ndarray:
    a = state.amplitudes
    overlaps = (a @ a.conj().T) * state.grid.dx
    return np.array([np.trace(overlaps, offset=-d) for d in range(a.shape[0])])


def generate() -> None:
    experiments = (wl.continuous_highe_inputs(0) + wl.kicked_sweep_inputs(0)
                   + wl.regime_pool())
    coeffs, references, missing = {}, {}, {}
    for i, exp in enumerate(experiments):
        if exp.config.mode == "ideal-reference":
            missing[exp.name] = "ideal-reference: closed form, no discretization"
            continue
        cfg = finer(exp)
        t0 = time.perf_counter()
        try:
            result = wl.propagators.run_experiment(cfg, workers=2)
        except Exception as exc:
            missing[exp.name] = f"reference run raised {type(exc).__name__}: {exc}"
            print(f"[{i + 1}/{len(experiments)}] {exp.name}: {missing[exp.name]}", flush=True)
            continue
        c = coefficients(result.final_state)
        # the stored form must reproduce the engine's own distribution
        own = wl.analysis.state_tof_distribution(result.final_state, wl.THETA_POINTS)
        err = np.max(np.abs(_series(c, cfg.clock.omega).cdf - own.cdf))
        if err > 1e-10:
            raise RuntimeError(f"{exp.name}: coefficient form off by {err:.2e}")
        coeffs[exp.name] = c
        references[exp.name] = {
            "fingerprint": exp.fingerprint,
            "grid": [cfg.grid.x_min, cfg.grid.x_max, cfg.grid.num_points],
            "dt": cfg.dt if cfg.mode == "continuous" else None,
            "norm_drift": result.norm_drift,
            "region_mass_final": result.region_mass_final,
            "wall_s": round(time.perf_counter() - t0, 3),
        }
        print(f"[{i + 1}/{len(experiments)}] {exp.name}: {references[exp.name]['wall_s']} s",
              flush=True)
    NPZ.parent.mkdir(exist_ok=True)
    np.savez_compressed(NPZ, **coeffs)
    index = {
        "command": COMMAND,
        "resolution": "dx/4 (8x points on a domain twice as wide), dt/4 for "
                      "continuous, guards on with each experiment's tolerances",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sha256": hashlib.sha256(NPZ.read_bytes()).hexdigest(),
        "references": references,
        "missing": missing,
    }
    INDEX.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="run every reference and overwrite refs/")
    if not parser.parse_args().write:
        parser.error("pass --write to regenerate the stored references")
    generate()
