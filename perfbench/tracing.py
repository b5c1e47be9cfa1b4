"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the package's public functions, in every ``shearstab.*``
namespace that binds them, and the library kernels the package calls, so
that nested calls (``neutral_curve`` -> ``max_growth_rate`` ->
``os_spectrum``, ``duhamel_term`` -> ``semigroup_apply``) are recorded with
their parent.  Spans are kept as ``(name, start, end, parent)`` tuples and
written out when the run ends; per-layer numbers are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PUBLIC = {
    "profiles": ("make_profile", "blasius_solve"),
    "spectral": ("build_grid",),
    "stability": ("os_spectrum", "rayleigh_spectrum", "rayleigh_resolvent",
                  "max_growth_rate", "neutral_curve", "fit_exponents"),
    "resolvent": ("semigroup_apply", "heat_green", "parabolic_green",
                  "evans_det", "evans_locate"),
    "instability": ("ode_bootstrap", "duhamel_term", "hopf_series",
                    "hopf_majorant", "euler_series"),
    "genfunc": ("bl_norm", "gen_series", "laplace_solve_1d",
                "elliptic_gen_estimate", "divfree_bilinear", "strip_norms"),
}

# kernel name -> (module, attribute) pairs patched where the package looks them up
KERNELS = {
    "qz": (("scipy.linalg", "eig"),),
    "lu_factor": (("scipy.linalg", "lu_factor"),),
    "dense_solve": (("numpy.linalg", "solve"),),
    "eig_dense": (("numpy.linalg", "eig"), ("numpy.linalg", "eigvals"),
                  ("numpy.linalg", "eigvalsh")),
    "svd": (("numpy.linalg", "svd"),),
    "ode": (("shearstab.profiles", "solve_ivp"), ("shearstab.resolvent", "solve_ivp"),
            ("shearstab.instability", "solve_ivp")),
    "sympy_diff": (("sympy", "diff"),),
    "lambdify": (("sympy", "lambdify"),),
}


class Tracer:
    """Records spans and counters while ``enabled``; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx] = (name, start, time.perf_counter(), parent)
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer.counters, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return self.span(name, fn)(*args)

    def install(self):
        """Patch the package's public functions and the kernels it calls."""
        import shearstab.cli  # noqa: F401  (binds every module the CLI imports)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "shearstab" or n.startswith("shearstab."))]
        hooks = {"stability.os_spectrum": _count_modes}
        for module, names in PUBLIC.items():
            mod = importlib.import_module(f"shearstab.{module}")
            for fn in names:
                orig = getattr(mod, fn)
                wrapped = self.span(f"{module}.{fn}", orig, hooks.get(f"{module}.{fn}"))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
        for kernel, targets in KERNELS.items():
            hook = _count_nfev if kernel == "ode" else None
            for modname, attr in targets:
                mod = importlib.import_module(modname)
                setattr(mod, attr, self.span(f"kernel.{kernel}", getattr(mod, attr), hook))

    def layer_stats(self) -> dict[str, dict]:
        """calls, busy and self time per span name.

        Busy time counts only the outermost span of each name, so recursion
        (``evans_locate`` calling itself) is not counted twice.  Self time is
        busy time minus the time covered by child spans.
        """
        child_time = [0.0] * len(self.spans)
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["busy_s"] += end - start
        return stats

    def dump(self, path):
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_modes(counters, sol):
    counters["stability.os_spectrum.accepted"] += len(sol.eigenvalues)
    counters["stability.os_spectrum.rejected"] += sol.n_rejected


def _count_nfev(counters, sol):
    counters["kernel.ode.nfev"] += sol.nfev


def layer_metrics(stats: dict, counters: dict) -> dict[str, float]:
    """Per-layer metric values from aggregated span stats and counters."""
    out = {}
    for module, names in PUBLIC.items():
        for fn in names:
            s = stats.get(f"{module}.{fn}", {})
            out[f"{module}.{fn}.calls"] = s.get("calls", 0)
            out[f"{module}.{fn}.busy_s"] = s.get("busy_s", 0.0)
            out[f"{module}.{fn}.self_s"] = s.get("self_s", 0.0)
    acc = counters.get("stability.os_spectrum.accepted", 0)
    rej = counters.get("stability.os_spectrum.rejected", 0)
    out["stability.os_spectrum.accepted"] = acc
    out["stability.os_spectrum.rejected"] = rej
    out["stability.os_spectrum.accept_frac"] = acc / (acc + rej) if acc + rej else 0.0
    for k in KERNELS:
        s = stats.get(f"kernel.{k}", {})
        out[f"kernel.{k}.calls"] = s.get("calls", 0)
        out[f"kernel.{k}.busy_s"] = s.get("busy_s", 0.0)
    out["kernel.ode.nfev"] = counters.get("kernel.ode.nfev", 0)
    return out


def merge_stats(parts):
    """Sum span stats and counters from several processes (the CLI children)."""
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    counters: dict[str, float] = defaultdict(float)
    for part_stats, part_counters in parts:
        for name, s in part_stats.items():
            for key, val in s.items():
                stats[name][key] += val
        for name, val in part_counters.items():
            counters[name] += val
    return stats, counters
