"""Spans and counters around varexp's public functions, recorded from outside.

`Tracer.install()` replaces each function named in `TARGETS` with a wrapper
at every module binding that holds it: `luxembourg_norm`, for one, is bound
in `varexp.modular`, in `varexp` itself, and by name in `korn` and
`calculus`.  A class name wraps its constructor; `Class.method` wraps the
method on the class.  A name that no longer exists is listed in `missing`
and otherwise ignored.

Each call records a span `[name, start, end, parent]` in memory;
`self_times()` turns spans into self time per name (a span's duration minus
the durations of its direct children).  Counters are computed from
argument shapes and results, so they repeat exactly between runs.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import logging
import statistics
import sys
import time
import warnings

#: varexp module -> wrapped names
TARGETS = {
    "modular": ("luxembourg_norm", "modular", "log_holder_estimate"),
    "mollify": (
        "convolve",
        "MollifierFamily.sampled_weights",
        "maximal",
        "smooth_R",
        "smooth_Rstar",
        "sym_grad_smooth_decomposition",
        "CutoffFamily",
        "zero_extend",
    ),
    "korn": ("build_phi", "build_exponent", "build_velocity", "korn_ratio_sequence", "write_heatmaps"),
    "rothe": (
        "energy_step",
        "EpsOperator",
        "rothe_solve",
        "mms_forcing_discrete",
        "mms_varp",
        "write_diagnostics_csv",
    ),
    "calculus": ("gradient", "sym_gradient"),
    "poincare": ("poincare_verify", "riesz_rhs", "cone_params_for", "write_report_csv"),
    "fields": ("field_abs", "integrate", "write_field", "write_pgm"),
}


class _CountingHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.records = 0

    def emit(self, record):
        self.records += 1


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Span recorder and counters for one sample process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self.step_iters = []  # iterations of each converged energy step
        self.step_seconds = 0.0  # wall time of the converged energy steps
        self.missing = []
        self._stack = []
        self._kernels = []  # kernel sizes seen inside each open convolve call
        self._in_phi = 0
        self._log = _CountingHandler()

    # -- spans -------------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        return self.spans[idx][2] - self.spans[idx][1]

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[name + ".n"] += 1
            state = before(args, kwargs) if before else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                seconds = self._close(idx)
                if after:
                    after(state, args, kwargs, None, exc, seconds)
                raise
            seconds = self._close(idx)
            if after:
                after(state, args, kwargs, result, None, seconds)
            return result

        return traced

    def _before_luxembourg_norm(self, args, kwargs):
        catcher = warnings.catch_warnings(record=True)
        caught = catcher.__enter__()
        warnings.simplefilter("always")
        return catcher, caught, self._log.records

    def _after_luxembourg_norm(self, state, args, kwargs, result, exc, seconds):
        catcher, caught, logged = state
        catcher.__exit__(None, None, None)
        self.counters["luxembourg_norm.warnings"] += len(caught) + self._log.records - logged
        self.counters["luxembourg_norm.nodes"] += _first_arg(args, kwargs, "f").grid.node_count()

    def _before_convolve(self, args, kwargs):
        self._kernels.append([])

    def _after_convolve(self, state, args, kwargs, result, exc, seconds):
        kernel = max(self._kernels.pop(), default=0)
        f = _first_arg(args, kwargs, "f")
        nodes = f.grid.node_count()
        self.counters["convolve.madds"] += nodes * kernel * (f.values.size // nodes)
        self.counters["convolve.kernel_nodes_max"] = max(self.counters["convolve.kernel_nodes_max"], kernel)

    def _after_MollifierFamily_sampled_weights(self, state, args, kwargs, result, exc, seconds):
        if self._kernels and result is not None:
            self._kernels[-1].append(int(result.size))

    def _after_maximal(self, state, args, kwargs, result, exc, seconds):
        self.counters["maximal.nodes"] += _first_arg(args, kwargs, "f").grid.node_count()

    def _before_build_phi(self, args, kwargs):
        self._in_phi += 1

    def _after_build_phi(self, state, args, kwargs, result, exc, seconds):
        self._in_phi -= 1

    def _after_energy_step(self, state, args, kwargs, result, exc, seconds):
        if exc is not None:
            self.counters["energy_step.failed"] += 1
        elif isinstance(result, tuple) and "iters" in result[1]:
            self.step_iters.append(int(result[1]["iters"]))
            self.step_seconds += seconds

    def install(self, extra_modules=()):
        """Wrap every target at every binding in varexp and in `extra_modules`."""
        logger = logging.getLogger("varexp")
        logger.setLevel(logging.INFO)
        logger.addHandler(self._log)
        # `varexp.modular` is the function re-exported by the package
        modules = {name: importlib.import_module("varexp." + name) for name in TARGETS}
        holders = [m for n, m in sys.modules.items() if n == "varexp" or n.startswith("varexp.")]
        holders += list(extra_modules)
        for modname, names in TARGETS.items():
            mod = modules[modname]
            for qual in names:
                head, _, method = qual.partition(".")
                obj = getattr(mod, head, None)
                if isinstance(obj, type):
                    attr = method or "__init__"
                    if attr not in vars(obj):
                        self.missing.append(f"{modname}.{qual}")
                        continue
                    setattr(obj, attr, self._wrap(qual, vars(obj)[attr]))
                elif callable(obj) and not method:
                    wrapped = self._wrap(qual, obj)
                    for holder in holders:
                        for key, val in list(vars(holder).items()):
                            if val is obj:
                                setattr(holder, key, wrapped)
                else:
                    self.missing.append(f"{modname}.{qual}")

        import scipy.integrate

        quad = scipy.integrate.quad

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            if self._in_phi:
                self.counters["build_phi.quad_calls"] += 1
            return quad(*args, **kwargs)

        scipy.integrate.quad = counted_quad

    def record(self):
        """JSON-ready spans and counters."""
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "step_iters": self.step_iters,
            "step_seconds": self.step_seconds,
            "missing": self.missing,
        }


def self_times(spans):
    """Self time per span name, and the total duration of the root spans."""
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    per_name = collections.defaultdict(float)
    for (name, *_), t in zip(spans, own):
        per_name[name] += t
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    return dict(per_name), roots


def wrapped_names():
    return [qual for names in TARGETS.values() for qual in names]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced sample


def _share(name):
    return lambda s: s["self"].get(name, 0.0) / s["roots"]


def _count(key):
    return lambda s: s["counters"].get(key, 0)


def _rate(key, name):
    def rate(s):
        seconds = s["self"].get(name, 0.0)
        return s["counters"].get(key, 0) / seconds if seconds > 0 else 0.0

    return rate


def _iters_rate(s):
    return sum(s["step_iters"]) / s["step_seconds"] if s["step_seconds"] > 0 else 0.0


#: (name, unit, better, value of one traced sample).  Self time is reported
#: as a share of the traced sample's set-up plus pass, so a layer that a
#: workload never calls reads 0 rather than a constant time.
PER_LAYER = [
    ("luxembourg_norm.n", "count", "lower", _count("luxembourg_norm.n")),
    ("luxembourg_norm.self_share", "ratio", "lower", _share("luxembourg_norm")),
    ("luxembourg_norm.nodes", "count", "lower", _count("luxembourg_norm.nodes")),
    ("luxembourg_norm.nodes_per_s", "1/s", "higher", _rate("luxembourg_norm.nodes", "luxembourg_norm")),
    ("luxembourg_norm.warnings", "count", "lower", _count("luxembourg_norm.warnings")),
    ("modular.n", "count", "lower", _count("modular.n")),
    ("modular.self_share", "ratio", "lower", _share("modular")),
    ("log_holder_estimate.self_share", "ratio", "lower", _share("log_holder_estimate")),
    ("convolve.n", "count", "lower", _count("convolve.n")),
    ("convolve.self_share", "ratio", "lower", _share("convolve")),
    ("convolve.madds", "count", "lower", _count("convolve.madds")),
    ("convolve.madds_per_s", "1/s", "higher", _rate("convolve.madds", "convolve")),
    ("convolve.kernel_nodes_max", "count", "lower", _count("convolve.kernel_nodes_max")),
    ("MollifierFamily.sampled_weights.self_share", "ratio", "lower", _share("MollifierFamily.sampled_weights")),
    ("maximal.n", "count", "lower", _count("maximal.n")),
    ("maximal.self_share", "ratio", "lower", _share("maximal")),
    ("maximal.nodes", "count", "lower", _count("maximal.nodes")),
    ("smooth_R.self_share", "ratio", "lower", _share("smooth_R")),
    ("smooth_Rstar.self_share", "ratio", "lower", _share("smooth_Rstar")),
    ("sym_grad_smooth_decomposition.self_share", "ratio", "lower", _share("sym_grad_smooth_decomposition")),
    ("CutoffFamily.self_share", "ratio", "lower", _share("CutoffFamily")),
    ("zero_extend.self_share", "ratio", "lower", _share("zero_extend")),
    ("build_phi.n", "count", "lower", _count("build_phi.n")),
    ("build_phi.self_share", "ratio", "lower", _share("build_phi")),
    ("build_phi.quad_calls", "count", "lower", _count("build_phi.quad_calls")),
    ("build_exponent.self_share", "ratio", "lower", _share("build_exponent")),
    ("build_velocity.self_share", "ratio", "lower", _share("build_velocity")),
    ("korn_ratio_sequence.self_share", "ratio", "lower", _share("korn_ratio_sequence")),
    ("write_heatmaps.self_share", "ratio", "lower", _share("write_heatmaps")),
    ("energy_step.n", "count", "lower", _count("energy_step.n")),
    ("energy_step.self_share", "ratio", "lower", _share("energy_step")),
    ("energy_step.iters", "count", "lower", lambda s: sum(s["step_iters"])),
    ("energy_step.failed", "count", "lower", _count("energy_step.failed")),
    ("iters_per_step.p50", "count", "lower", lambda s: statistics.median(s["step_iters"] or [0])),
    ("iters_per_step.max", "count", "lower", lambda s: max(s["step_iters"], default=0)),
    ("energy_step.iters_per_s", "1/s", "higher", _iters_rate),
    ("EpsOperator.n", "count", "lower", _count("EpsOperator.n")),
    ("EpsOperator.self_share", "ratio", "lower", _share("EpsOperator")),
    ("rothe_solve.self_share", "ratio", "lower", _share("rothe_solve")),
    ("mms_forcing_discrete.self_share", "ratio", "lower", _share("mms_forcing_discrete")),
    ("mms_varp.self_share", "ratio", "lower", _share("mms_varp")),
    ("write_diagnostics_csv.self_share", "ratio", "lower", _share("write_diagnostics_csv")),
    ("gradient.n", "count", "lower", _count("gradient.n")),
    ("gradient.self_share", "ratio", "lower", _share("gradient")),
    ("sym_gradient.n", "count", "lower", _count("sym_gradient.n")),
    ("sym_gradient.self_share", "ratio", "lower", _share("sym_gradient")),
    ("poincare_verify.self_share", "ratio", "lower", _share("poincare_verify")),
    ("riesz_rhs.n", "count", "lower", _count("riesz_rhs.n")),
    ("riesz_rhs.self_share", "ratio", "lower", _share("riesz_rhs")),
    ("cone_params_for.self_share", "ratio", "lower", _share("cone_params_for")),
    ("write_report_csv.self_share", "ratio", "lower", _share("write_report_csv")),
    ("field_abs.n", "count", "lower", _count("field_abs.n")),
    ("field_abs.self_share", "ratio", "lower", _share("field_abs")),
    ("integrate.self_share", "ratio", "lower", _share("integrate")),
    ("write_field.self_share", "ratio", "lower", _share("write_field")),
    ("write_pgm.self_share", "ratio", "lower", _share("write_pgm")),
    ("bytes_written", "B", "lower", lambda s: s["bytes_written"]),
]


def layer_metrics(traced, untraced):
    """Per-layer metrics: medians over traced samples, plus the tracing overhead.

    The overhead compares pass times in reference units (`wall_s / ref_s`)
    of the traced and the untraced samples.
    """
    rows = []
    for sample in traced:
        own, roots = self_times(sample["trace"]["spans"])
        rows.append({**sample["trace"], "self": own, "roots": roots,
                     "bytes_written": sample["bytes_written"]})
    out = {name: (statistics.median(fn(r) for r in rows), unit) for name, unit, _, fn in PER_LAYER}
    traced_wall = statistics.median(s["wall_s"] / s["ref_s"] for s in traced)
    untraced_wall = statistics.median(s["wall_s"] / s["ref_s"] for s in untraced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out


def function_table(traced):
    """name -> (calls, median self seconds) over traced samples, for the report."""
    calls = collections.defaultdict(list)
    own = collections.defaultdict(list)
    for sample in traced:
        per_name, _ = self_times(sample["trace"]["spans"])
        for name in wrapped_names():
            calls[name].append(sample["trace"]["counters"].get(name + ".n", 0))
            own[name].append(per_name.get(name, 0.0))
    return {name: (statistics.median(calls[name]), statistics.median(own[name])) for name in wrapped_names()}
