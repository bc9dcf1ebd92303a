"""Outside-in tracing of ergolab: wrap public functions where callers look them up.

:class:`Tracer` replaces module attributes such as ``ergolab.cli.simulate``
or ``ergolab.lyapunov.quad`` with timing wrappers, so the program itself is
unchanged.  Each call becomes a span (name, layer, start, end, parent span,
exception raised) kept in memory and exported once at the end; spans of one
process share the process as their run.  Work counts are computed from the
call's inputs (and, for Sinkhorn, the iteration count it reports).

:func:`layer_metrics` turns exported spans into the per-layer metrics.  A
span's self time is its duration minus the time its child spans cover, so
the self times of all layers add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = ["cli", "processes", "wasserstein", "coupling", "lyapunov",
          "lowerbound", "subordination", "rates"]
PARSE_SPANS = {"cli.load_config", "cli.parse_experiment_config", "cli.parse_process"}
DISCRETE_SPECS = {"BackwardRecurrence", "NonlinearSS"}


# ---------------------------------------------------------------------------
# work counts from call inputs
# ---------------------------------------------------------------------------


def _count_simulate(args, result, exc):
    spec, t_grid = args["spec"], [float(t) for t in args["t_grid"]]
    n_paths = int(args["n_paths"])
    if type(spec).__name__ in DISCRETE_SPECS:
        steps = int(round(t_grid[-1]))
    else:
        # the simulator's step plan: ceil(span / max_step) substeps per interval
        max_step = float(args["max_step"])
        steps = sum(max(1, math.ceil((b - a) / max_step - 1e-12)) for a, b in zip(t_grid, t_grid[1:]))
    dim = len(args["x0"])
    return {"path_steps": n_paths * steps, "path_bytes": n_paths * len(t_grid) * dim * 8}


def _support(measure) -> int:
    return int((measure.weights > 0).sum())


def _count_sinkhorn(args, result, exc):
    report = result if exc is None else getattr(exc, "report", None)
    iters = 0 if report is None else int(report.iterations)
    return {"cells": _support(args["mu"]) * _support(args["nu"]), "iters": iters}


def _count_w1d(args, result, exc):
    return {"atoms": args["mu"].size + args["nu"].size}


def _count_contraction(args, result, exc):
    return {"boot_draws": int(args["n_boot"]) * int(args["pairs"].n_paths)}


def _count_drift_check(args, result, exc):
    return {"grid_points": len(args["grid"])}


def _count_lower(args, result, exc):
    used = 0 if result is None else int(result.s.size)
    return {"levels_offered": len(set(float(s) for s in args["s_grid"])), "levels_used": used}


def _count_subordinate(args, result, exc):
    return {"samples": int(args["n_mc"])}


# (module, attribute, span name, layer, counter)
HOOKS = [
    ("ergolab.cli", "main", "cli.main", "cli", None),
    ("ergolab.cli", "_load_config", "cli.load_config", "cli", None),
    ("ergolab.cli", "parse_experiment_config", "cli.parse_experiment_config", "cli", None),
    ("ergolab.cli", "parse_process", "cli.parse_process", "cli", None),
    ("ergolab.cli", "fit_rate", "cli.fit_rate", "cli", None),
    ("ergolab.cli", "simulate", "processes.simulate", "processes", _count_simulate),
    ("ergolab.coupling", "simulate", "processes.simulate", "processes", _count_simulate),
    ("ergolab.cli", "invariant_exact", "processes.invariant_exact", "processes", None),
    ("ergolab.cli", "sinkhorn_annealed", "wasserstein.sinkhorn_annealed", "wasserstein", None),
    ("ergolab.wasserstein", "sinkhorn", "wasserstein.sinkhorn", "wasserstein", _count_sinkhorn),
    ("ergolab.cli", "w_1d", "wasserstein.w_1d", "wasserstein", _count_w1d),
    ("ergolab.cli", "synchronous_pair_sim", "coupling.synchronous_pair_sim", "coupling", None),
    ("ergolab.cli", "contraction_estimate", "coupling.contraction_estimate", "coupling",
     _count_contraction),
    ("ergolab.cli", "find_q", "coupling.find_q", "coupling", None),
    ("ergolab.cli", "prop35_cp", "coupling.prop35_cp", "coupling", None),
    ("ergolab.cli", "drift_check", "lyapunov.drift_check", "lyapunov", _count_drift_check),
    ("ergolab.lyapunov", "generator_apply", "lyapunov.generator_apply", "lyapunov", None),
    ("ergolab.lyapunov", "quad", "lyapunov.quad", "lyapunov", None),
    ("ergolab.cli", "lower_bound_curve", "lowerbound.lower_bound_curve", "lowerbound",
     _count_lower),
    ("ergolab.cli", "subordinate_rate", "subordination.subordinate_rate", "subordination",
     _count_subordinate),
    ("ergolab.lyapunov", "phi_eval", "rates.phi_eval", "rates", None),
]


# ---------------------------------------------------------------------------
# span recording
# ---------------------------------------------------------------------------


class Tracer:
    """Records one span per call of every hooked function while installed."""

    def __init__(self):
        # each span: [name, layer, start, end, parent index, exception name, counts]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, layer, counter in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, layer, counter))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, layer, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, None, None]
            spans.append(span)
            stack.append(index)
            result = exc = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span[5] = type(err).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[6] = counter(bound.arguments, result, exc)

        return wrapper

    def export(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "processes.simulate_s": "s",
    "processes.path_steps": "count",
    "processes.ns_per_path_step": "ns",
    "processes.path_bytes": "B",
    "processes.invariant_exact_s": "s",
    "processes.invariant_exact_retries": "count",
    "wasserstein.sinkhorn_s": "s",
    "wasserstein.sinkhorn_stages": "count",
    "wasserstein.sinkhorn_stages_unconverged": "count",
    "wasserstein.sinkhorn_iters": "count",
    "wasserstein.sinkhorn_iters_last2_share": "ratio",
    "wasserstein.sinkhorn_cells": "count",
    "wasserstein.ns_per_iter_cell": "ns",
    "wasserstein.w_1d_s": "s",
    "wasserstein.w_1d_atoms": "count",
    "coupling.contraction_estimate_s": "s",
    "coupling.boot_draws": "count",
    "coupling.certificate_s": "s",
    "lyapunov.drift_check_s": "s",
    "lyapunov.generator_apply_calls": "count",
    "lyapunov.quad_calls": "count",
    "lyapunov.quad_s": "s",
    "lyapunov.ms_per_grid_point": "ms",
    "lowerbound.lower_bound_curve_s": "s",
    "lowerbound.levels_qualified_share": "ratio",
    "subordination.subordinate_rate_s": "s",
    "subordination.samples": "count",
    "subordination.ns_per_sample": "ns",
    "rates.calls": "count",
    "rates.s": "s",
    "cli.parse_s": "s",
    "cli.fit_rate_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.spans": "count",
}

# metrics that must repeat exactly between two runs of the same inputs
COUNT_METRICS = [name for name, unit in LAYER_METRICS.items() if unit in ("count", "B")]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(exported: dict) -> dict:
    """Per-layer metric values (name -> number) for one traced operation."""
    spans = exported["spans"]
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[4] is not None:
            covered[span[4]] += dur[i]
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        self_s[span[1]] = self_s.get(span[1], 0.0) + dur[i] - covered[i]

    def of(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name, key=None):
        return sum(dur[i] if key is None else (spans[i][6] or {}).get(key, 0) for i in of(name))

    def absorbed(name):
        # raised by the hooked call, caught by a caller that then returned
        return sum(1 for i in of(name)
                   if spans[i][5] and spans[i][4] is not None and not spans[spans[i][4]][5])

    stages = of("wasserstein.sinkhorn")
    annealed = set(of("wasserstein.sinkhorn_annealed"))
    iters = [spans[i][6]["iters"] for i in stages]
    cells = [spans[i][6]["cells"] for i in stages]
    by_parent: dict = {}
    for i, n in zip(stages, iters):
        by_parent.setdefault(spans[i][4] if spans[i][4] in annealed else i, []).append(n)
    last2 = sum(sum(group[-2:]) for group in by_parent.values())
    stage_s = sum(dur[i] for i in stages)
    sinkhorn_s = sum(dur[i] for i in annealed) + sum(dur[i] for i in stages if spans[i][4] not in annealed)
    quads = of("lyapunov.quad")
    quad_set = set(quads)
    roots = [i for i, s in enumerate(spans) if s[4] is None]
    simulate_s = total("processes.simulate")
    path_steps = total("processes.simulate", "path_steps")
    drift_s = total("lyapunov.drift_check")
    sub_s = total("subordination.subordinate_rate")
    samples = total("subordination.subordinate_rate", "samples")
    values = {
        "processes.simulate_s": simulate_s,
        "processes.path_steps": path_steps,
        "processes.ns_per_path_step": _ratio(simulate_s, path_steps, 1e9),
        "processes.path_bytes": total("processes.simulate", "path_bytes"),
        "processes.invariant_exact_s": total("processes.invariant_exact"),
        "processes.invariant_exact_retries": absorbed("processes.invariant_exact"),
        "wasserstein.sinkhorn_s": sinkhorn_s,
        "wasserstein.sinkhorn_stages": len(stages),
        "wasserstein.sinkhorn_stages_unconverged": absorbed("wasserstein.sinkhorn"),
        "wasserstein.sinkhorn_iters": sum(iters),
        "wasserstein.sinkhorn_iters_last2_share": _ratio(last2, sum(iters)),
        "wasserstein.sinkhorn_cells": sum(cells),
        "wasserstein.ns_per_iter_cell": _ratio(stage_s, sum(n * c for n, c in zip(iters, cells)), 1e9),
        "wasserstein.w_1d_s": total("wasserstein.w_1d"),
        "wasserstein.w_1d_atoms": total("wasserstein.w_1d", "atoms"),
        "coupling.contraction_estimate_s": total("coupling.contraction_estimate"),
        "coupling.boot_draws": total("coupling.contraction_estimate", "boot_draws"),
        "coupling.certificate_s": total("coupling.find_q") + total("coupling.prop35_cp"),
        "lyapunov.drift_check_s": drift_s,
        "lyapunov.generator_apply_calls": len(of("lyapunov.generator_apply")),
        "lyapunov.quad_calls": len(quads),
        "lyapunov.quad_s": sum(dur[i] for i in quads if spans[i][4] not in quad_set),
        "lyapunov.ms_per_grid_point": _ratio(
            drift_s, total("lyapunov.drift_check", "grid_points"), 1e3),
        "lowerbound.lower_bound_curve_s": total("lowerbound.lower_bound_curve"),
        "lowerbound.levels_qualified_share": _ratio(
            total("lowerbound.lower_bound_curve", "levels_used"),
            total("lowerbound.lower_bound_curve", "levels_offered")),
        "subordination.subordinate_rate_s": sub_s,
        "subordination.samples": samples,
        "subordination.ns_per_sample": _ratio(sub_s, samples, 1e9),
        "rates.calls": len(of("rates.phi_eval")),
        "rates.s": total("rates.phi_eval"),
        "cli.parse_s": sum(dur[i] for i, s in enumerate(spans)
                           if s[0] in PARSE_SPANS and (s[4] is None or spans[s[4]][0] not in PARSE_SPANS)),
        "cli.fit_rate_s": total("cli.fit_rate"),
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        "trace.run_s": sum(dur[i] for i in roots),
        "trace.spans": len(spans),
    }
    return values
