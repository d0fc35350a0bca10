"""Correctness checks on a sweep's outage cells and on its CSV bytes.

Every requested outage cell is compared with an ``integral`` reference that
the benchmark computes outside the timed region.  A cell fails when it is
blank (a ``NumericError`` was recorded), lies outside [0, 1], or breaks the
agreement rule of acceptance criterion 1 for its method.  A grid point whose
CSV row differs between two runs that must be byte-identical fails every
requested cell of that row.  Failures are listed and counted, never clamped
or skipped.
"""

import math
from dataclasses import dataclass, field

ANALYTIC_TOL = 2e-4        # |closed - integral|, acceptance criterion 1
MC_TOL_FLOOR = 1e-3        # |mc - integral| <= max(MC_SIGMAS * se, 1e-3)
# Criterion 1 uses 3 standard errors on fixed seeds.  A benchmark run draws a
# new seed and checks up to 15 MC cells, where 3 sigma would fail a correct
# estimator in about one run in a hundred; 5 sigma fails one in ~100 000 and
# still flags an absolute bias above 2.5e-3 at 1e6 trials.
MC_SIGMAS = 5.0


def op_columns(networks, ic_modes, methods):
    """(csv column, reference column, method) for every requested outage cell."""
    bases = []
    if "s2g" in networks:
        bases.append("s2g")
    if "a2a" in networks:
        bases.extend("a2a_im" if m == "im-ic" else "a2a_p" for m in ic_modes)
    return [(f"op_{b}_{m}", f"op_{b}_integral", m) for b in bases for m in methods]


@dataclass
class Report:
    attempted: int = 0
    failed_cells: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    # maxima over the workload's closed and mc cells; 0 when it has none
    closed_err_abs_max: float = 0.0
    closed_err_rel_max: float = 0.0
    mc_err_sigma_max: float = 0.0

    def fail(self, cell, message):
        self.failed_cells.add(cell)
        self.messages.append(message)

    @property
    def failed(self):
        return len(self.failed_cells)

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def _diagnostic_for(row, column):
    return [d for d in str(row.get("diagnostics", "")).split(";") if d.startswith(column)]


def check_cells(rows, ref_rows, columns, trials, report=None):
    """Check every requested cell of ``rows`` against ``ref_rows``."""
    report = report or Report()
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows, strict=True)):
        where = f"point {i} ({row.get('sweep_variable')}={row.get('sweep_value')})"
        for column, ref_column, method in columns:
            report.attempted += 1
            cell = (i, column)
            value = row.get(column, "")
            ref = ref_row.get(ref_column, "")
            if value in ("", None):
                report.fail(cell, f"{where} {column}: blank {_diagnostic_for(row, column)}")
                continue
            if ref in ("", None):
                report.fail(cell, f"{where} {column}: integral reference failed "
                                  f"{_diagnostic_for(ref_row, ref_column)}")
                continue
            value, ref = float(value), float(ref)
            if not 0.0 <= value <= 1.0:
                report.fail(cell, f"{where} {column}: {value!r} outside [0, 1]")
                continue
            err = abs(value - ref)
            if method == "mc":
                var = ref * (1.0 - ref) / trials
                z = err / math.sqrt(var) if var > 0 else (math.inf if err else 0.0)
                report.mc_err_sigma_max = max(report.mc_err_sigma_max, z)
                se = float(row[column.replace("op_", "se_", 1)])
                tol = max(MC_SIGMAS * se, MC_TOL_FLOOR)
                if err > tol:
                    report.fail(cell, f"{where} {column}: |mc - integral| = {err:.3e} "
                                      f"> {tol:.3e} (mc {value!r}, integral {ref!r})")
                continue
            if method == "closed":
                report.closed_err_abs_max = max(report.closed_err_abs_max, err)
                if ref > 0:
                    report.closed_err_rel_max = max(report.closed_err_rel_max, err / ref)
            if err > ANALYTIC_TOL:
                report.fail(cell, f"{where} {column}: |{method} - integral| = {err:.3e} "
                                  f"> {ANALYTIC_TOL:g} ({value!r} vs {ref!r})")
    return report


def check_identical(label, text_a, text_b, columns, report):
    """Fail every requested cell of each CSV data row that differs."""
    if text_a == text_b:
        return report
    lines_a = text_a.splitlines()
    lines_b = text_b.splitlines()
    if len(lines_a) != len(lines_b) or lines_a[:1] != lines_b[:1]:
        n_rows = max(len(lines_a), len(lines_b)) - 1
        for i in range(n_rows):
            for column, _, _ in columns:
                report.failed_cells.add((i, column))
        report.messages.append(f"{label}: CSV shape or header differs")
        return report
    for i, (a, b) in enumerate(zip(lines_a[1:], lines_b[1:])):
        if a != b:
            for column, _, _ in columns:
                report.failed_cells.add((i, column))
            report.messages.append(f"{label}: row {i} differs:\n  {a}\n  {b}")
    return report
