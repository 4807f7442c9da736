"""Spans around the public functions of the tofclock modules.

``Tracer.install`` replaces each traced function (in every ``tofclock``
module namespace that binds it) and each traced method with a wrapper that
records one span: name, start, end, parent span and a few attributes.
``uninstall`` puts the originals back, so untraced passes run the seed code
untouched.  Spans are kept in memory and written out once, at the end.
Nothing under ``src/`` is changed.

A span's self time is its duration minus the durations of its child spans
(one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
import time

import scipy.fft

import workloads as wl

core, propagators, analysis = wl.core, wl.propagators, wl.analysis
oracles, config_io, cli = wl.oracles, wl.config_io, wl.cli

BENCH = "bench."  # spans the benchmark opens itself, around calls into layers


def _grid_region(args, kwargs, result):
    # one mask per distinct (grid, region) pair is all a pass needs
    grid, region = args[0], args[1]
    return {"key": [grid.x_min, grid.x_max, grid.num_points, region.x_left, region.x_right]}


def _fft_shape(args, kwargs, result):
    return {"shape": list(args[0].shape)}


def _dir_bytes(args, kwargs, result):
    return {"bytes": sum(f.stat().st_size for f in result.iterdir() if f.is_file())}


# (owner, attribute, span name, attributes from (args, kwargs, result))
TARGETS = (
    (core.ExperimentConfig, "__init__", "core.config_build", None),
    (core, "validate_regime", "core.validate_regime", None),
    (core, "init_gaussian", "core.init_gaussian", None),
    (core, "product_state", "core.product_state", None),
    (core.SpatialGrid, "region_mask", "core.region_mask", _grid_region),
    (core.ChannelState, "norm", "guard.norm", None),
    (core.ChannelState, "region_mass", "guard.region_mass", None),
    (core.ChannelState, "boundary_mass", "guard.boundary_mass", None),
    (propagators, "run_experiment", "propagators.run_experiment", None),
    (propagators, "evolve_continuous", "propagators.evolve", None),
    (propagators, "evolve_kicked", "propagators.evolve", None),
    (propagators, "kinetic_step", "propagators.kinetic_step", None),
    (propagators, "coupling_phase_step", "propagators.coupling_phase_step", None),
    (scipy.fft, "fft", "fft", _fft_shape),
    (scipy.fft, "ifft", "fft", _fft_shape),
    (analysis, "state_tof_distribution", "analysis.tof_distribution", None),
    (analysis, "distribution_distance", "analysis.distance", None),
    (analysis, "transmission_report", "analysis.transmission", None),
    (analysis, "mean_reading", "analysis.mean_reading", None),
    (oracles, "ideal_dwell", "oracles.ideal_dwell", None),
    (config_io, "emit_config", "config_io.emit", None),
    (config_io, "load_config", "config_io.load", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_run", "cli.cmd_run", _dir_bytes),
    (cli, "cmd_compare", "cli.cmd_compare", _dir_bytes),
)


class Tracer:
    """Records spans as [name, start, end, parent index, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(BENCH + name)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                tracer._stack.pop()
            rec[2] = time.perf_counter()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "tofclock" or n.startswith("tofclock.")]
        for owner, attr, name, attrs in TARGETS:
            original = getattr(owner, attr)
            traced = self._wrap(original, name, attrs)
            owners = [owner] if isinstance(owner, type) or owner is scipy.fft else [
                m for m in modules if getattr(m, attr, None) is original]
            for o in owners:
                self._undo.append((o, attr, original))
                setattr(o, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")

    # ------------------------------------------------------------ metrics

    def _trees(self) -> tuple[list[int], list[float]]:
        """Root span index and self time of every span."""
        roots, child = [], [0.0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
            if parent >= 0:
                child[parent] += end - start
        selfs = [s[2] - s[1] - c for s, c in zip(self.spans, child)]
        return roots, selfs

    def layer_metrics(self, root_name: str) -> list[dict]:
        """Per-layer metrics of every root span named ``root_name``."""
        roots, selfs = self._trees()
        out = []
        for r, rec in enumerate(self.spans):
            if rec[0] == BENCH + root_name and rec[3] < 0:
                members = [i for i in range(r, len(self.spans)) if roots[i] == r]
                out.append(_metrics(self.spans, selfs, r, members))
        return out


def _metrics(spans, selfs, root, members) -> dict:
    dur, calls, self_s = {}, {}, {}
    errors = {}
    fft_flop = fft_bytes = 0.0
    bytes_written = 0
    mask_keys, covered = set(), 0.0
    for i in members:
        name, start, end, parent, attrs = spans[i]
        dur[name] = dur.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        if i != root and not name.startswith(BENCH) and spans[parent][0].startswith(BENCH):
            covered += end - start
        if not attrs:
            continue
        if "error" in attrs:  # a call that raised carries no other attributes
            if name == "propagators.run_experiment":
                errors[attrs["error"]] = errors.get(attrs["error"], 0) + 1
            continue
        if name == "fft":
            rows, n = math.prod(attrs["shape"][:-1]), attrs["shape"][-1]
            fft_flop += 5.0 * n * math.log2(n) * rows
            fft_bytes += 2.0 * 16.0 * n * rows  # complex128 read and written once
        if name == "core.region_mask":
            mask_keys.add(tuple(attrs["key"]))
        if name in ("cli.cmd_run", "cli.cmd_compare"):
            bytes_written += attrs["bytes"]

    def d(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    guards = ("guard.norm", "guard.region_mass", "guard.boundary_mass")
    wall = spans[root][2] - spans[root][1]
    fft_s = d("fft")
    return {
        "propagators.evolve_s": d("propagators.evolve"),
        "propagators.evolve_self_s": self_s.get("propagators.evolve", 0.0),
        "propagators.fft_s": fft_s,
        "propagators.fft_calls": c("fft"),
        "propagators.fft_gflop_computed": fft_flop / 1e9,
        "propagators.fft_gb_computed": fft_bytes / 1e9,
        "propagators.fft_gflops": fft_flop / 1e9 / fft_s if fft_s > 0 else 0.0,
        "propagators.guard_s": d(*guards),
        "propagators.guard_calls": c(*guards),
        "propagators.coupling_phase_s": d("propagators.coupling_phase_step"),
        "propagators.coupling_phase_calls": c("propagators.coupling_phase_step"),
        "propagators.kinetic_step_s": d("propagators.kinetic_step"),
        "propagators.kinetic_step_calls": c("propagators.kinetic_step"),
        "propagators.boundary_leak_errors": errors.get("BoundaryLeakError", 0),
        "propagators.collision_unfinished_errors": errors.get("CollisionUnfinishedError", 0),
        "propagators.norm_drift_errors": errors.get("NormDriftError", 0),
        "core.config_build_s": d("core.config_build"),
        "core.validate_regime_s": d("core.validate_regime"),
        "core.initial_state_s": d("core.init_gaussian", "core.product_state"),
        "core.region_mask_calls": c("core.region_mask"),
        "core.region_mask_useful_ratio":
            len(mask_keys) / c("core.region_mask") if c("core.region_mask") else 0.0,
        "analysis.tof_distribution_s": d("analysis.tof_distribution"),
        "analysis.distance_s": d("analysis.distance"),
        "analysis.transmission_s": d("analysis.transmission"),
        "analysis.mean_reading_s": d("analysis.mean_reading"),
        "oracles.ideal_dwell_s": d("oracles.ideal_dwell"),
        "config_io.emit_s": d("config_io.emit"),
        "config_io.load_s": d("config_io.load"),
        "cli.run_self_s": self_s.get("cli.cmd_run", 0.0),
        "cli.bytes_written": bytes_written,
        "cli.compare_s": d("cli.cmd_compare"),
        "trace.coverage": covered / wall if wall > 0 else 0.0,
    }


def median_metrics(per_root: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_root) for k in per_root[0]}
