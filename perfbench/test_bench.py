"""Tests of the benchmark's own code.  Run: python -m pytest perfbench -q"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sagin_outage.config import DEFAULTS, config_from_mapping  # noqa: E402


class FakeClock:
    """Each read advances time by one tick, so durations are exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now

    def spend(self, ticks):
        self.now += ticks


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = tracing.Tracer("synthetic", "x", clock=clock)
    mod = types.SimpleNamespace()
    mod.leaf = lambda: clock.spend(10)

    def middle():
        clock.spend(5)
        mod.leaf()
        mod.leaf()
        clock.spend(7)
    mod.middle = middle

    def top(cfg):
        mod.middle()
        clock.spend(100)
    mod.top = top

    for name in ("leaf", "middle", "top"):
        tracer.wrap(mod, name, name)
    mod.top(types.SimpleNamespace(raw={"x": 42.0}))
    tracer.restore()

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    # a leaf: the clock ticks once at its end; 10 spent inside
    leaf = by_name["leaf"]
    assert [s.end_ns - s.start_ns for s in leaf] == [11, 11]
    assert [s.self_ns for s in leaf] == [11, 11]
    # middle: 5 + 2 * (1 + 11) + 7 + 1, of which 22 is its leaves
    (mid,) = by_name["middle"]
    assert mid.end_ns - mid.start_ns == 37
    assert mid.self_ns == 37 - 22
    (top_span,) = by_name["top"]
    # top: middle's start tick, its 37, 100 spent, the end tick
    assert top_span.end_ns - top_span.start_ns == 1 + 37 + 100 + 1
    assert top_span.self_ns == 139 - 37
    # self times add up to the root span's duration
    assert sum(s.self_ns for s in tracer.spans) == top_span.end_ns - top_span.start_ns
    # parents and the sweep point propagate down the stack
    assert mid.parent == top_span.id and all(s.parent == mid.id for s in leaf)
    assert {s.point for s in tracer.spans} == {42.0}
    assert mod.top is top   # restored


def test_missing_attribute_fails_loudly():
    tracer = tracing.Tracer("synthetic", "x")
    with pytest.raises(tracing.TraceError, match="no_such_function"):
        tracer.wrap(types.SimpleNamespace(), "no_such_function", "gone")


def test_every_target_exists_in_the_package():
    tracer = tracing.Tracer("synthetic", "link.eta_s_db")
    try:
        tracer.install()
    finally:
        tracer.restore()


def test_idle_layers_report_zero_and_names_are_declared():
    metrics = tracing.layer_metrics([])
    assert metrics and all(v == 0 for v in metrics.values())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(metrics) <= declared


def _cells(value=0.5, se=5e-4, closed=0.5):
    row = {"sweep_variable": "link.eta_s_db", "sweep_value": 100.0,
           "op_s2g_mc": value, "se_s2g_mc": se, "op_s2g_closed": closed,
           "op_s2g_integral": 0.5, "diagnostics": ""}
    ref = {"op_s2g_integral": 0.5, "diagnostics": ""}
    return row, ref


COLUMNS = checks.op_columns(("s2g",), ("im-ic",), ("mc", "closed", "integral"))


def test_checker_passes_good_cells():
    row, ref = _cells()
    report = checks.check_cells([row], [ref], COLUMNS, trials=1_000_000)
    assert report.attempted == 3 and report.failed == 0 and not report.messages


@pytest.mark.parametrize("override, column", [
    ({"closed": 0.5 + 3e-4}, "op_s2g_closed"),      # beyond 2e-4 of the integral
    ({"closed": ""}, "op_s2g_closed"),              # blank after a NumericError
    ({"closed": 1.5}, "op_s2g_closed"),             # outside [0, 1]
    ({"value": 0.5 + 4e-3}, "op_s2g_mc"),           # 8 standard errors away
])
def test_checker_flags_injected_bad_cell(override, column):
    row, ref = _cells(**override)
    if row["op_s2g_closed"] == "":
        row["diagnostics"] = "op_s2g_closed:series lost too much precision"
    report = checks.check_cells([row], [ref], COLUMNS, trials=1_000_000)
    assert report.failed_cells == {(0, column)}
    assert report.failed_share == pytest.approx(1 / 3)
    assert column in report.messages[0]


def test_error_metrics_use_the_integral_reference():
    row, ref = _cells(value=0.5 + 1e-3, closed=0.5 + 5e-5)
    report = checks.check_cells([row], [ref], COLUMNS, trials=1_000_000)
    assert report.failed == 0
    assert report.closed_err_abs_max == pytest.approx(5e-5)
    assert report.closed_err_rel_max == pytest.approx(1e-4)
    assert report.mc_err_sigma_max == pytest.approx(1e-3 / math.sqrt(0.25 / 1e6))


def test_csv_difference_fails_the_row():
    head = "sweep_variable,sweep_value,op_s2g_mc\n"
    a = head + "v,1,0.5\nv,2,0.25\n"
    b = head + "v,1,0.5\nv,2,0.2500001\n"
    report = checks.check_identical("a vs b", a, b, COLUMNS, checks.Report())
    assert report.failed_cells == {(1, c) for c, _, _ in COLUMNS}
    assert checks.check_identical("same", a, a, COLUMNS, checks.Report()).failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_workload_mappings_are_valid_configs(name, seed):
    mapping = workloads.mapping(name, seed)
    cfg = config_from_mapping(mapping)
    grid = workloads.WORKLOADS[name]["grid"]
    values = cfg.sweep_values
    step = grid[1] - grid[0]
    assert len(values) == len(grid)
    shifts = {round(v - g, 12) for v, g in zip(values, grid)}
    assert len(shifts) == 1 and abs(shifts.pop()) <= 0.25 * step
    assert cfg.seed == seed
    assert mapping == workloads.mapping(name, seed)


def test_workloads_pin_every_key_that_changes_a_number():
    for spec in workloads.WORKLOADS.values():
        pinned = set(workloads.BASE) | set(spec["keys"]) | {"run.seed", "sweep.values"}
        assert set(DEFAULTS) - pinned <= workloads.INERT_KEYS
