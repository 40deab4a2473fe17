"""Per-layer spans recorded from outside the program.

``Tracer`` replaces the listed public functions of noise_radiance with
timing wrappers, in every module that binds them: a name brought in by
``from .x import y`` is a separate binding (``rate.radiation_matrix``,
``kernels.corr_moment``) and is wrapped too.  Spans live in memory and are
summed per function:

* ``<module>.<function>.calls`` - number of calls;
* ``.s`` - inclusive time, counted once for recursive calls;
* ``.self_s`` - inclusive time minus the time of nested wrapped calls.

Three more figures: ``rate.truncation_rerun.s`` (``spectrum`` called from
inside ``spectrum``), ``noise.validate_admissible.alloc_peak_mb`` (largest
tracemalloc peak within one call) and ``mc.sample_noise.trajectories``.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc

#: (module, function, metric prefix); T1-T3 share one prefix
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "write_csv", "cli.write_csv"),
    ("linewidth", "fill_widths", "linewidth.fill_widths"),
    ("system", "delta_matrix", "system.delta_matrix"),
    ("system", "radiation_matrix", "system.radiation_matrix"),
    ("rate", "spectrum", "rate.spectrum"),
    ("rate", "emission_line_weight", "rate.emission_line_weight"),
    ("rate", "finite_time_probability", "rate.finite_time_probability"),
    ("rate", "check_contributing_widths", "rate.check_contributing_widths"),
    ("kernels", "kernel_T1", "kernels.kernel_T"),
    ("kernels", "kernel_T2", "kernels.kernel_T"),
    ("kernels", "kernel_T3", "kernels.kernel_T"),
    ("kernels", "correlation_double_integral", "kernels.correlation_double_integral"),
    ("noise", "spectral_density", "noise.spectral_density"),
    ("noise", "corr_moment", "noise.corr_moment"),
    ("noise", "validate_admissible", "noise.validate_admissible"),
    ("noise", "load_correlation_file", "noise.load_correlation_file"),
    ("mc", "sample_noise", "mc.sample_noise"),
    ("mc", "amplitude_paths", "mc.amplitude_paths"),
    ("mc", "predicted_Pfi", "mc.predicted_Pfi"),
    ("mc", "empirical_autocovariance", "mc.empirical_autocovariance"),
)

PACKAGE = "noise_radiance"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, prefix in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.s"] = "s"
        units[f"{prefix}.self_s"] = "s"
    units["rate.truncation_rerun.s"] = "s"
    units["noise.validate_admissible.alloc_peak_mb"] = "MB"
    units["mc.sample_noise.trajectories"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.values = dict.fromkeys(metric_units(), 0.0)
        self._stack: list[list] = []  # [prefix, start, child time]
        self._active: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, prefix: str, fn):
        values, stack, active = self.values, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [prefix, time.perf_counter(), 0.0]
            stack.append(frame)
            active[prefix] = active.get(prefix, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                stack.pop()
                active[prefix] -= 1
                values[prefix + ".calls"] += 1
                values[prefix + ".self_s"] += elapsed - frame[2]
                if active[prefix] == 0:
                    values[prefix + ".s"] += elapsed
                elif prefix == "rate.spectrum":
                    values["rate.truncation_rerun.s"] += elapsed
                if stack:
                    stack[-1][2] += elapsed

        return wrapper

    def _extra(self, prefix: str, fn):
        values = self.values
        if prefix == "noise.validate_admissible":
            @functools.wraps(fn)
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = prefix + ".alloc_peak_mb"
                    values[key] = max(values[key], peak)
            return measured
        if prefix == "mc.sample_noise":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                values["mc.sample_noise.trajectories"] += out.n_traj
                return out
            return counted
        return fn

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, func_name, prefix in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapped = self._span(prefix, self._extra(prefix, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        return dict(self.values)
