"""Layer spans taken from outside the package.

A ``Tracer`` replaces a function at the attribute its caller looks it up by
(``sagin_outage.sweep.simulate_op``, ``sagin_outage.mc.draw_block``, ...) with a
wrapper that records one span per call on a thread-local stack.  A span's self
time is its duration minus the durations of the spans it directly caused.
Spans are kept in memory and written out once, after the measured sweeps.
"""

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass


class TraceError(RuntimeError):
    """A wrapped attribute is missing or not callable."""


@dataclass
class Span:
    id: int
    parent: int           # -1 for a span with no traced caller
    name: str
    phase: str            # "cold" or "warm" sweep
    workload: str
    point: object         # sweep value of the grid point the work belongs to
    start_ns: int
    end_ns: int
    self_ns: int
    work: int             # trials, samples or x values handled by the call


def _arg(index, keyword):
    """Work extractor: a positional-or-keyword integer argument."""
    def get(args, kwargs, result):
        return int(kwargs[keyword] if keyword in kwargs else args[index])
    return get


def _trials_of_result(args, kwargs, result):
    return int(result.trials)


def _draw_length(args, kwargs, result):
    return len(args[0].X)


def _x_count(args, kwargs, result):
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    return len(xs) if hasattr(xs, "__len__") else 1


# (module, attribute as the caller looks it up, span name, work extractor)
TARGETS = (
    ("sagin_outage.sweep", "simulate_op", "mc.simulate_op", _trials_of_result),
    ("sagin_outage.sweep", "op_s2g_closed", "closed.op_s2g", None),
    ("sagin_outage.sweep", "op_a2a_closed", "closed.op_a2a", None),
    ("sagin_outage.sweep", "op_s2g_integral", "integral.op_s2g", None),
    ("sagin_outage.sweep", "op_a2a_integral", "integral.op_a2a", None),
    ("sagin_outage.mc", "draw_block", "mc.draw_block", _arg(2, "n")),
    ("sagin_outage.mc", "sample_satellite_distance",
     "geometry.sample_satellite_distance", _arg(2, "size")),
    ("sagin_outage.mc", "sample_gu_distance",
     "geometry.sample_gu_distance", _arg(2, "size")),
    ("sagin_outage.mc", "sample_arx_distance",
     "geometry.sample_arx_distance", _arg(2, "size")),
    ("sagin_outage.mc", "sample_shadowed_rician_power",
     "channel.sample_shadowed_rician_power", _arg(2, "size")),
    ("sagin_outage.mc", "sample_nakagami_power",
     "channel.sample_nakagami_power", _arg(2, "size")),
    ("sagin_outage.mc", "sample_rician_power",
     "channel.sample_rician_power", _arg(2, "size")),
    ("sagin_outage.mc", "snr_gu", "swipt.snr_gu", _draw_length),
    ("sagin_outage.mc", "snr_arx", "swipt.snr_arx", _draw_length),
    ("sagin_outage.analytic.closed_form", "meijer_g_log",
     "specfun.meijer_g_log", _x_count),
    ("sagin_outage.analytic.closed_form", "log_gamma_upper",
     "specfun.log_gamma_upper", None),
    ("sagin_outage.analytic.closed_form", "log_delta_gamma",
     "specfun.log_delta_gamma", None),
    ("sagin_outage.analytic.closed_form", "build_case",
     "coefficients.build_case", None),
    ("sagin_outage.analytic.direct_integral", "build_case",
     "coefficients.build_case", None),
    ("numpy.polynomial.legendre", "leggauss", "numpy.leggauss", None),
)


class _Frame:
    __slots__ = ("id", "point", "child_ns")

    def __init__(self, span_id, point):
        self.id = span_id
        self.point = point
        self.child_ns = 0


class Tracer:
    """Wraps functions in place and records one span per call."""

    def __init__(self, workload, sweep_variable, clock=time.perf_counter_ns):
        self.workload = workload
        self.sweep_variable = sweep_variable
        self.clock = clock
        self.phase = "cold"
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._ids_lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _point_of(self, args):
        for a in args:
            raw = getattr(a, "raw", None)
            if isinstance(raw, dict):
                return raw.get(self.sweep_variable)
        return None

    def wrap(self, owner, attr, name, work=None):
        """Replace ``owner.attr`` by a tracing wrapper; fail if it is not there."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            raise TraceError(f"{getattr(owner, '__name__', owner)}.{attr} is missing "
                             f"or not callable; span {name!r} cannot be traced")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._ids_lock:
                span_id = next(self._ids)
            frame = _Frame(span_id, parent.point if parent else self._point_of(args))
            stack.append(frame)
            result = None
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += end - start
                n = work(args, kwargs, result) if work and result is not None else 0
                self.spans.append(Span(span_id, parent.id if parent else -1, name,
                                       self.phase, self.workload, frame.point,
                                       start, end, end - start - frame.child_ns, n))

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)
        return traced

    def install(self, targets=TARGETS):
        for module, attr, name, work in targets:
            self.wrap(importlib.import_module(module), attr, name, work)

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: int = 0
    max_ns: int = 0
    median_ns: float = 0.0


def summarise(spans, phase):
    """Per-name call count, total and self time and work over one phase."""
    durations = {}
    out = {}
    for s in spans:
        if s.phase != phase:
            continue
        st = out.setdefault(s.name, LayerStats())
        d = s.end_ns - s.start_ns
        st.calls += 1
        st.total_ns += d
        st.self_ns += s.self_ns
        st.work += s.work
        durations.setdefault(s.name, []).append(d)
    for name, ds in durations.items():
        out[name].max_ns = max(ds)
        out[name].median_ns = statistics.median(ds)
    return out


SAMPLERS = (
    "geometry.sample_satellite_distance", "geometry.sample_gu_distance",
    "geometry.sample_arx_distance", "channel.sample_shadowed_rician_power",
    "channel.sample_nakagami_power", "channel.sample_rician_power",
)


def _nested_ns(spans, phase, parent_name, child_name):
    """Total time of ``child_name`` spans called directly from ``parent_name``."""
    parents = {s.id for s in spans if s.phase == phase and s.name == parent_name}
    return sum(s.end_ns - s.start_ns for s in spans
               if s.phase == phase and s.name == child_name and s.parent in parents)


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of a traced cold sweep followed by a warm sweep.

    Rates and counts come from the warm sweep; ``cold`` entries from the cold
    one.  The Mellin-Barnes cold cost is the node generation it triggers in
    the cold sweep beyond the warm one, timed where it happens rather than as
    a difference of two noisy sweep totals.  A layer that did no work reports 0.
    """
    warm = summarise(spans, "warm")
    cold = summarise(spans, "cold")

    def get(table, name):
        return table.get(name, LayerStats())

    sim, draw = get(warm, "mc.simulate_op"), get(warm, "mc.draw_block")
    mb = get(warm, "specfun.meijer_g_log")
    lgu, ldg = get(warm, "specfun.log_gamma_upper"), get(warm, "specfun.log_delta_gamma")
    case = get(warm, "coefficients.build_case")
    lg_warm, lg_cold = get(warm, "numpy.leggauss"), get(cold, "numpy.leggauss")
    out = {
        "mc.simulate_op.calls": sim.calls,
        "mc.draw_block.calls": draw.calls,
        "mc.trials_drawn": draw.work,
        "mc.draws_per_output_trial": _per(draw.work, sim.work),
        "mc.draw_ns_per_trial": _per(draw.total_ns, draw.work),
        "mc.simulate_op.self_ns_per_trial": _per(sim.self_ns, sim.work),
    }
    for name in SAMPLERS + ("swipt.snr_gu", "swipt.snr_arx"):
        st = get(warm, name)
        out[f"{name}.ns_per_trial"] = _per(st.total_ns, st.work)
    for path in ("closed", "integral"):
        for net in ("s2g", "a2a"):
            st = get(warm, f"{path}.op_{net}")
            out[f"{path}.op_{net}.ms_per_call"] = st.median_ns / 1e6
            if path == "closed":
                out[f"{path}.op_{net}.ms_per_call_max"] = st.max_ns / 1e6
    out["closed.self_s"] = (get(warm, "closed.op_s2g").self_ns
                            + get(warm, "closed.op_a2a").self_ns) / 1e9
    out.update({
        "coefficients.build_case.calls": case.calls,
        "coefficients.build_case.us_per_call": _per(case.total_ns, case.calls, 1e-3),
        "specfun.meijer_g_log.calls": mb.calls,
        "specfun.meijer_g_log.points": mb.work,
        "specfun.meijer_g_log.ms_per_call": _per(mb.total_ns, mb.calls, 1e-6),
        "specfun.meijer_g_log.self_s": mb.self_ns / 1e9,
        "specfun.meijer_g_log.cold_s": (_nested_ns(spans, "cold", "specfun.meijer_g_log",
                                                   "numpy.leggauss")
                                        - _nested_ns(spans, "warm", "specfun.meijer_g_log",
                                                     "numpy.leggauss")) / 1e9,
        "specfun.log_gamma_upper.calls": lgu.calls,
        "specfun.log_gamma_upper.us_per_call": _per(lgu.total_ns, lgu.calls, 1e-3),
        "specfun.log_delta_gamma.calls": ldg.calls,
        "numpy.leggauss.cold_calls": lg_cold.calls,
        "numpy.leggauss.cold_s": lg_cold.total_ns / 1e9,
        "numpy.leggauss.warm_calls": lg_warm.calls,
        "numpy.leggauss.warm_s": lg_warm.total_ns / 1e9,
    })
    return out
