"""Spans around hklab's public functions, recorded from outside the package.

``Tracer.install()`` replaces each function in ``LAYERS`` by a timing
wrapper at every hklab module attribute that refers to it
(``hklab.densities.conv_mod``, ``hklab.circle.weyl_sum_batch``,
``hklab.cli.minor_arc_decay_experiment`` and so on), so calls between
modules are seen without editing ``src/``.  Each span records its name,
start, end, parent and the work counters taken from the call's arguments
and return value.  Spans stay in memory until the job ends; the worker then
writes them out and ``layer_metrics`` turns them into per-layer numbers.
"""

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

ROOT = "job"


def _rows(a):
    return int(np.atleast_2d(a).shape[0])


def _phase_work(a, out):
    rows = _rows(a["coeffs"])
    return [rows, rows * max(0, int(a["u1"]) - int(a["u0"]) + 1)]


# module -> {function: work(bound arguments, return value) -> counters, or None}
LAYERS = {
    "kernels": {
        "phase_poly_sums": _phase_work,                                  # rows, terms
        "conv_mod": lambda a, out: [len(a["shifts"]) * np.size(a["H"])],  # shifts x m^k
        "canonical_powersum_run": lambda a, out: [len(out[1])],          # tuples
    },
    "expsums": {
        "weyl_sum_batch": lambda a, out: [_rows(a["alphas"])],           # points
    },
    "counting": dict.fromkeys(["count_mitm", "powersum_histogram", "vinogradov_count"]),
    "densities": {
        **dict.fromkeys(["complete_sum_all", "series_term", "solution_count_mod",
                         "singular_series_qsum", "singular_series_euler",
                         "singular_integral_quadrature"]),
        # two slab widths, each drawing `samples` points
        "mc_volume_oracle": lambda a, out: [2 * int(a["samples"])],
    },
    "circle": dict.fromkeys(["in_major_1d", "restricted_moment",
                             "restricted_representation_integral",
                             "minor_arc_decay_experiment",
                             "moment_majorant_experiment",
                             "dilation_containment_check"]),
    "cli": dict.fromkeys(["main"]),
}

# counters summed over spans: metric -> (span name, index into the span's work)
COUNTERS = {
    "kernels.phase_poly_sums.terms": ("kernels.phase_poly_sums", 1),
    "kernels.conv_mod.cell_updates": ("kernels.conv_mod", 0),
    "kernels.canonical_powersum_run.tuples": ("kernels.canonical_powersum_run", 0),
    "expsums.weyl_sum_batch.points": ("expsums.weyl_sum_batch", 0),
    "densities.mc_volume_oracle.samples": ("densities.mc_volume_oracle", 0),
}
# self time per unit of work, in ns: metric -> counter
RATES = {
    "kernels.phase_poly_sums.ns_per_term": "kernels.phase_poly_sums.terms",
    "kernels.conv_mod.ns_per_cell": "kernels.conv_mod.cell_updates",
    "kernels.canonical_powersum_run.ns_per_tuple": "kernels.canonical_powersum_run.tuples",
}


class Tracer:
    """In-memory span list; each span is ``[name, start, end, parent, *work]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, work=None):
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[1:3] = t0, perf_counter()
                self._stack.pop()
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span += work(bound.arguments, out)
            return out
        return wrapper

    def install(self):
        """Wrap every ``LAYERS`` function at each hklab name bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hklab" or name.startswith("hklab.")]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"hklab.{mod_name}"]
            for fname, work in funcs.items():
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig, work)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()


def layer_metrics(spans):
    """Per-layer calls, self time and work counters from one traced job.

    Self time is a span's duration minus that of its direct children, so
    the self times of all layers plus ``job.self_s`` add up to the root
    span's duration, reported as ``trace.wall_s``.
    """
    child_s = [0.0] * len(spans)
    for _, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    m = {f"{ROOT}.self_s": 0.0}
    for mod, funcs in LAYERS.items():
        for fn in funcs:
            m[f"{mod}.{fn}.calls"] = 0
            m[f"{mod}.{fn}.self_s"] = 0.0
    m.update(dict.fromkeys(COUNTERS, 0))
    m["kernels.phase_poly_sums.single_calls"] = 0
    m["kernels.phase_poly_sums.single_s"] = 0.0

    fed_by_conv = set()  # solution_count_mod spans that ran a conv_mod
    for i, (name, t0, t1, parent, *work) in enumerate(spans):
        self_s = (t1 - t0) - child_s[i]
        m[f"{name}.self_s"] += self_s
        if name == ROOT:
            m["trace.wall_s"] = t1 - t0
            continue
        m[f"{name}.calls"] += 1
        if name == "kernels.phase_poly_sums" and work[:1] == [1]:
            m["kernels.phase_poly_sums.single_calls"] += 1
            m["kernels.phase_poly_sums.single_s"] += self_s
        if name == "kernels.conv_mod":
            p = parent
            while p >= 0 and spans[p][0] != "densities.solution_count_mod":
                p = spans[p][3]
            fed_by_conv.add(p)
    for key, (name, pos) in COUNTERS.items():
        # a span whose call raised carries no work counters
        m[key] = sum(s[4 + pos] for s in spans if s[0] == name and len(s) > 4)
    for key, counter in RATES.items():
        time_key = key.rsplit(".", 1)[0] + ".self_s"
        m[key] = m[time_key] / m[counter] * 1e9 if m[counter] else 0.0
    fed_by_conv.discard(-1)
    calls = m["densities.solution_count_mod.calls"]
    m["densities.solution_count_mod.reuse_ratio"] = (
        (calls - len(fed_by_conv)) / calls if calls else 0.0)
    return m
