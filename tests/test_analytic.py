import csv
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.special import gammaln

from sagin_outage import cli
from sagin_outage.analytic import (op_a2a_closed, op_a2a_integral, op_s2g_closed,
                                   op_s2g_integral)
from sagin_outage.analytic import closed_form as cf, coefficients, direct_integral as di
from sagin_outage.analytic.coefficients import build_case
from sagin_outage.config import METHODS, config_from_mapping
from sagin_outage.errors import ConfigError, NumericError
from sagin_outage.geometry import arx_distance_pdf, gu_distance_pdf
from sagin_outage.mc import simulate_op
from sagin_outage.specfun import log_gamma_upper, logsumexp_signed, meijer_g_log
from sagin_outage.sweep import (avg_throughput, run_sweep, simulate_throughput,
                                throughput_from_ops)
from sagin_outage.swipt import IM_IC, P_IC


def _cfg(**over):
    base = {"rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
            "link.eta_s_db": 118.0}
    base.update(over)
    return config_from_mapping(base)


class TestDegenerateBranches:
    def test_zero_threshold_means_no_outage(self):
        cfg = _cfg()
        assert op_s2g_integral(0.0, cfg) == 0.0
        assert op_s2g_closed(0.0, cfg) == 0.0
        assert op_a2a_closed(0.0, cfg) == 0.0

    def test_threshold_at_or_above_ceiling_is_exactly_one(self):
        cfg = _cfg()
        mu_p = cfg.sp.mu_prime          # 7/3 for mu=0.7
        for gamma in (mu_p, mu_p * 1.0001, 3.0):
            assert op_s2g_closed(gamma, cfg) == 1.0
            assert op_s2g_integral(gamma, cfg) == 1.0
        for gamma in (1.0 / mu_p, 0.95):
            assert op_a2a_closed(gamma, cfg, ic_mode=IM_IC) == 1.0
            assert op_a2a_integral(gamma, cfg, ic_mode=IM_IC) == 1.0

    def test_mu_one_shuts_down_a2a_but_not_s2g(self):
        cfg = _cfg(**{"swipt.mu": 1.0})
        assert op_a2a_closed(cfg.gamma_a, cfg, ic_mode=IM_IC) == 1.0
        assert op_a2a_closed(cfg.gamma_a, cfg, ic_mode=P_IC) == 1.0
        assert op_s2g_closed(cfg.gamma_s, cfg) < 1.0

    def test_pic_has_no_ceiling(self):
        # gamma above 1/mu' outages im-IC surely but not p-IC
        cfg = _cfg()
        gamma = 0.6   # > 1/mu' = 3/7
        assert op_a2a_integral(gamma, cfg, ic_mode=IM_IC) == 1.0
        assert op_a2a_integral(gamma, cfg, ic_mode=P_IC) < 1.0
        assert op_a2a_closed(gamma, cfg, ic_mode=P_IC) < 1.0

    @pytest.mark.parametrize("excess", [2e-6, 5e-7])
    def test_integral_outside_the_unit_interval(self, monkeypatch, excess):
        # the closed path's rule: beyond 1e-6 raises, within it is clamped
        cfg = _cfg(**{"swipt.p_th_dbm": "inf"})     # linear EH: no saturated branch
        monkeypatch.setattr(di, "_branch_mass", lambda case, *args: -excess)
        if excess > 1e-6:
            with pytest.raises(NumericError, match="integral outage outside"):
                op_s2g_integral(cfg.gamma_s, cfg)
        else:
            assert op_s2g_integral(cfg.gamma_s, cfg) == 1.0


class TestCrossPathAgreement:
    TOL = 2e-4

    @pytest.mark.parametrize("eta_db", [95.0, 112.0, 126.0, 142.0])
    def test_s2g(self, eta_db):
        cfg = _cfg(**{"link.eta_s_db": eta_db})
        assert abs(op_s2g_closed(cfg.gamma_s, cfg)
                   - op_s2g_integral(cfg.gamma_s, cfg)) <= self.TOL

    @pytest.mark.parametrize("mode", [IM_IC, P_IC])
    @pytest.mark.parametrize("eta_db", [100.0, 120.0, 138.0])
    def test_a2a(self, eta_db, mode):
        cfg = _cfg(**{"link.eta_s_db": eta_db})
        assert abs(op_a2a_closed(cfg.gamma_a, cfg, ic_mode=mode)
                   - op_a2a_integral(cfg.gamma_a, cfg, ic_mode=mode)) <= self.TOL

    def test_deep_outage_is_relatively_accurate(self):
        # acceptance-grid points with OP < 1e-2, where the absolute TOL would pass a
        # value off by 100%: closed must match integral to 1e-5 of the outage itself
        deep = 0
        for eta_db in np.linspace(88.0, 148.0, 15):
            cfg = _cfg(**{"link.eta_s_db": float(eta_db)})
            for network, mode in (("s2g", IM_IC), ("a2a", IM_IC), ("a2a", P_IC)):
                case = build_case(cfg, network, mode,
                                  cfg.gamma_s if network == "s2g" else cfg.gamma_a)
                integral = di._outage(case)
                if integral >= 1e-2:
                    continue
                deep += 1
                # the arbiter's last two levels must agree well inside the bound
                coarse, fine = (1.0 - sum(di._branch_mass(case, *limits, *level)
                                          for limits in di._branches(case).values())
                                for level in di._LEVELS[-2:])
                assert abs(fine - coarse) <= 1e-5 * integral, (eta_db, network, mode)
                closed = cf._closed_outage(case, cfg.cgq_n)
                assert abs(closed - integral) <= 1e-5 * integral, (eta_db, network, mode)
        assert deep >= 10

    # K_rt = 5 gives the destination series 34 terms, so the linear block's
    # diagonals are 34 rows long, the longest of the acceptance-grid cases
    @pytest.mark.parametrize("mode", [IM_IC, P_IC])
    @pytest.mark.parametrize("eta_db", [88.0, 103.0, 118.0])
    def test_a2a_on_the_longest_diagonal(self, eta_db, mode):
        cfg = _cfg(**{"link.eta_s_db": eta_db, "fading.K_rt": 5.0})
        case = build_case(cfg, "a2a", mode, cfg.gamma_a)
        assert len(case.dest_logw) == 34
        assert cf._blocks(cf._Work(case, cfg.cgq_n))[0][0][0] == "linear"
        assert abs(op_a2a_closed(cfg.gamma_a, cfg, ic_mode=mode)
                   - op_a2a_integral(cfg.gamma_a, cfg, ic_mode=mode)) <= self.TOL

    def test_moderate_saturation_threshold(self):
        cfg = _cfg(**{"swipt.p_th_dbm": 5.0, "link.eta_s_db": 112.0})
        assert abs(op_s2g_closed(cfg.gamma_s, cfg)
                   - op_s2g_integral(cfg.gamma_s, cfg)) <= self.TOL
        assert abs(op_a2a_closed(cfg.gamma_a, cfg)
                   - op_a2a_integral(cfg.gamma_a, cfg)) <= self.TOL

    def test_negative_saturation_point_branch(self):
        # boosted relay noise pushes the saturation point negative
        cfg = config_from_mapping({
            "noise.sigma_r_dbm": 8.0, "noise.sigma_rb_dbm": 8.0,
            "rates.threshold_mode": "fixed", "rates.gamma_s_db": 3.0,
            "swipt.p_th_dbm": 20.0, "link.eta_s_db": 124.0,
        })
        assert build_case(cfg, "s2g", IM_IC, cfg.gamma_s).p_sat < 0
        assert abs(op_s2g_closed(cfg.gamma_s, cfg)
                   - op_s2g_integral(cfg.gamma_s, cfg)) <= self.TOL

    def test_negative_saturation_point_branch_a2a(self):
        cfg = config_from_mapping({
            "noise.sigma_r_dbm": 8.0, "noise.sigma_rb_dbm": 8.0,
            "rates.threshold_mode": "fixed", "rates.gamma_a_db": -4.56,
            "swipt.p_th_dbm": 15.0, "link.eta_s_db": 124.0,
        })
        assert build_case(cfg, "a2a", IM_IC, cfg.gamma_a).p_sat < 0
        assert abs(op_a2a_closed(cfg.gamma_a, cfg)
                   - op_a2a_integral(cfg.gamma_a, cfg)) <= self.TOL

    def test_case2_cone_geometry(self):
        # h1/cos(phi) > h2 flips the piecewise pdf branches
        cfg = _cfg(**{"geometry.h1_m": 490.0, "link.eta_s_db": 112.0})
        assert cfg.cone.h_1 / np.cos(cfg.cone.phi) > cfg.cone.h_2
        ci = op_a2a_integral(cfg.gamma_a, cfg)
        cc = op_a2a_closed(cfg.gamma_a, cfg)
        est = simulate_op(cfg, "a2a", trials=400_000)
        assert abs(cc - ci) <= self.TOL
        assert abs(ci - est.value) < 4 * est.std_error

    def test_real_m_rd_on_integral_path(self):
        cfg = _cfg(**{"fading.m_rd": 1.6, "run.methods": "mc,integral",
                      "link.eta_s_db": 115.0})
        ci = op_s2g_integral(cfg.gamma_s, cfg)
        est = simulate_op(cfg, "s2g", trials=400_000)
        assert abs(ci - est.value) < 4 * est.std_error

    def test_real_m_rd_on_closed_path_is_a_config_error(self):
        # the config check runs only when closed is a configured method
        cfg = _cfg(**{"fading.m_rd": 1.5, "run.methods": "mc,integral",
                      "link.eta_s_db": 125.0})
        with pytest.raises(ConfigError, match="fading.m_rd"):
            op_s2g_closed(cfg.gamma_s, cfg)


class TestLimitsAndMonotonicity:
    def test_linear_eh_limit(self):
        # enormous threshold reproduces the p_th -> inf reduction
        cfg_lin = _cfg(**{"swipt.p_th_dbm": "inf", "link.eta_s_db": 112.0})
        typical = cfg_lin.eta_s * cfg_lin.sr.mean_power / (cfg_lin.orbit.w_min * 1e3) ** 2
        huge_dbm = 10.0 * np.log10(1e12 * typical * 1e3)
        cfg_huge = _cfg(**{"swipt.p_th_dbm": huge_dbm, "link.eta_s_db": 112.0})
        for fn, gamma in ((op_s2g_closed, cfg_lin.gamma_s),):
            assert abs(fn(gamma, cfg_huge) - fn(gamma, cfg_lin)) <= 1e-4
        assert abs(op_a2a_closed(cfg_lin.gamma_a, cfg_huge)
                   - op_a2a_closed(cfg_lin.gamma_a, cfg_lin)) <= 1e-4

    def test_outage_nonincreasing_in_gain(self):
        etas = np.arange(96.0, 148.0, 4.0)
        for p_th in (35.0, 5.0):
            ops = [op_s2g_integral(_cfg(**{"link.eta_s_db": e,
                                           "swipt.p_th_dbm": p_th}).gamma_s,
                                   _cfg(**{"link.eta_s_db": e, "swipt.p_th_dbm": p_th}))
                   for e in etas]
            assert all(b <= a + 1e-9 for a, b in zip(ops[:-1], ops[1:]))

    def test_pic_never_worse_than_imic_closed(self):
        for eta_db in np.linspace(96.0, 140.0, 6):
            cfg = _cfg(**{"link.eta_s_db": float(eta_db)})
            assert (op_a2a_closed(cfg.gamma_a, cfg, ic_mode=P_IC)
                    <= op_a2a_closed(cfg.gamma_a, cfg, ic_mode=IM_IC) + 1e-9)

    def test_mu_one_equals_no_sharing_evaluation(self):
        # with mu = 1 the sharing terms vanish; closed and integral paths agree
        cfg = _cfg(**{"swipt.mu": 1.0, "link.eta_s_db": 108.0})
        assert abs(op_s2g_closed(cfg.gamma_s, cfg)
                   - op_s2g_integral(cfg.gamma_s, cfg)) <= 2e-4


class TestThroughput:
    def test_both_outages_one_gives_zero(self):
        cfg = _cfg()
        assert throughput_from_ops(cfg, 1.0, 1.0) == 0.0

    def test_reference_substitution(self):
        cfg = config_from_mapping({"swipt.rho": 0.4, "swipt.block_s": 1.0,
                                   "rates.r_s": 0.02, "rates.r_a": 0.02})
        assert throughput_from_ops(cfg, 0.0, 0.0) == pytest.approx(0.012, rel=1e-12)

    def test_methods_agree(self):
        cfg = _cfg(**{"link.eta_s_db": 120.0})
        t_c = avg_throughput(cfg, method="closed")
        t_i = avg_throughput(cfg, method="integral")
        assert t_c == pytest.approx(t_i, abs=2e-4 * 0.1)

    def test_mu_one_reduces_to_s2g_term(self):
        cfg = _cfg(**{"swipt.mu": 1.0, "link.eta_s_db": 120.0})
        thr = avg_throughput(cfg, method="integral")
        op_s = op_s2g_integral(cfg.gamma_s, cfg)
        pre = (1 - cfg.sp.rho) * cfg.sp.block_s / 2
        assert thr == pytest.approx(pre * cfg.raw["rates.r_s"] * (1 - op_s), abs=1e-12)

    def test_mc_is_simulate_throughput(self):
        cfg = _cfg(**{"run.trials": 20_000})
        assert avg_throughput(cfg, "mc") == simulate_throughput(cfg)

    def test_sweep_cells_are_avg_throughput(self):
        cfg = _cfg(**{"run.networks": "s2g,a2a", "run.methods": "mc,closed,integral",
                      "run.trials": 20_000})
        row, = run_sweep(cfg).rows
        for method in METHODS:
            assert row[f"throughput_{method}"] == avg_throughput(cfg, method)

    def test_unknown_method_is_a_config_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            avg_throughput(_cfg(), "bogus")


class TestTruncatingSum:
    """closed_form._converge on synthetic terms: rel_tol 1e-12 puts the small-term
    line at ln(1e-12) = -27.6 below the peak; three small terms in a row stop."""

    def _run(self, logs):
        acc = cf._SignedSum()
        seen = []

        def term(i):
            seen.append(i)
            acc.add(1.0, logs[i])
            return logs[i]

        peak, exhausted = cf._converge(acc, range(len(logs)), term)
        return peak, exhausted, seen, acc

    def test_stops_after_consecutive_small_terms(self):
        # a large term resets the count; -inf (nothing added) counts as small
        peak, exhausted, seen, acc = self._run(
            [0.0, -40.0, -40.0, -1.0, -40.0, -np.inf, -40.0, 5.0])
        assert seen == [0, 1, 2, 3, 4, 5, 6]
        assert not exhausted and peak == 0.0 and len(acc.logs) == 6

    def test_exhausted_at_the_cap(self):
        peak, exhausted, seen, _ = self._run([0.0, -40.0, -40.0, -1.0, -40.0, 1.0])
        assert seen == [0, 1, 2, 3, 4, 5] and exhausted and peak == 1.0



class TestSeriesSkeleton:
    """closed_form._series on a synthetic term that records the (k, n, k1, k2) it visits."""

    def _visits(self, top_n, k2_top, term):
        cfg = _cfg()
        work = cf._Work(build_case(cfg, "s2g", IM_IC, cfg.gamma_s), 8)
        seen = []

        def recording(k, n, k1, k2):
            seen.append((k, n, k1, k2))
            return term(k2)

        acc = cf._series(work, top_n, k2_top, recording)
        return work, seen, acc

    @staticmethod
    def _never_small(k2):
        """A term that cancels the nest's -log k2!, so it never falls small."""
        return 1.0, float(gammaln(k2 + 1.0))

    @pytest.mark.parametrize("top_n", [0, 1])
    def test_k1_runs_over_k_plus_top_n_times_n(self, top_n):
        work, seen, _ = self._visits(top_n, 0, lambda k2: (1.0, 0.0))
        visited = {}
        for k, n, k1, _ in seen:
            visited.setdefault((k, n), set()).add(k1)
        assert {k for k, _ in visited} == {k for k, _ in work.sr_terms}
        assert all(k1s == set(range(k + top_n * n + 1)) for (k, n), k1s in visited.items())

    def test_k2_top_zero_visits_only_k2_zero(self):
        # a never-small term runs each k2 sum out at k2 = 0, with no cap error
        _, seen, acc = self._visits(1, 0, self._never_small)
        assert seen and {k2 for *_, k2 in seen} == {0}
        assert len(set(seen)) == len(seen) == len(acc.logs)

    def test_zero_term_adds_nothing_and_counts_as_small(self):
        # after a term at k2 = 0, each k2 sum ends on _CONSECUTIVE zero terms
        _, seen, acc = self._visits(1, cf._K2_CAP,
                                    lambda k2: (0.0, -np.inf) if k2 else (1.0, 0.0))
        firsts = [v for v in seen if v[3] == 0]
        assert firsts and len(acc.logs) == len(firsts)
        assert len(seen) == len(firsts) * (1 + cf._CONSECUTIVE)
        assert {k2 for *_, k2 in seen} == set(range(cf._CONSECUTIVE + 1))

    def test_k2_cap_raises(self):
        with pytest.raises(NumericError, match="k2 cap") as exc:
            self._visits(0, 16, self._never_small)
        assert exc.value.diagnostics["cap"] == 16

    def _first_log(self):
        """The work of _visits and the log the nest gives its first term at log 0."""
        work, _, acc = self._visits(0, 0, lambda k2: (1.0, 0.0))
        return work, acc.logs[0]

    @pytest.mark.parametrize("noise, trips_at", [(0.0, 3), (0.75e-5 / 3.5, 2)])
    def test_noise_gate_raises_at_the_first_term_past_it(self, noise, trips_at):
        # every term of the first k2 sum adds 1e-5/3.5 to the noise estimate, and
        # neither falls small nor reaches the cap: the gate ends the sum
        work, log0 = self._first_log()
        x = math.log(1e-5 / 3.5 / 1e-15) - log0
        seen = []

        def term(k, n, k1, k2):
            seen.append(k2)
            return 1.0, x + float(gammaln(k2 + 1.0))

        with pytest.raises(NumericError, match="lost too much precision") as exc:
            cf._series(work, 0, cf._K2_CAP, term, noise)
        assert seen == list(range(trips_at + 1))
        assert exc.value.diagnostics["noise"] > 1e-5

    def test_overflowing_block_is_a_numeric_error(self, monkeypatch):
        # a first term at log 710 would overflow the block's value to OverflowError
        work, log0 = self._first_log()
        huge = ("huge", 1.0, 0, 0, lambda k, n, k1, k2: (1.0, 710.0 - log0))
        monkeypatch.setattr(cf, "_blocks", lambda work: [[huge]])
        with pytest.raises(NumericError, match="lost too much precision"):
            cf._closed_outage(work.case, 8)


class TestTaylorBracket:
    """The rows of the ladders ("g2123", n) against their reference form, the
    end_sum of G2123 values."""

    @pytest.mark.parametrize("eta_db", [131.05, 148.19])
    @pytest.mark.parametrize("network, mode", [("s2g", IM_IC), ("a2a", IM_IC), ("a2a", P_IC)])
    def test_equals_the_end_sum_of_g2123(self, eta_db, network, mode):
        cfg = _cfg(**{"link.eta_s_db": eta_db})
        case = build_case(cfg, network, mode, cfg.gamma_s if network == "s2g" else cfg.gamma_a)
        work = cf._Work(case, cfg.cgq_n)
        _, _, top_n, k2_top, term = next(row for route in cf._blocks(work) for row in route
                                         if row[0] == "direct")
        cf._series(work, top_n, k2_top, term)
        visited = [(ladder[1], s1) for ladder, rows in work.rows.items()
                   if ladder[:1] == ("g2123",) for s1 in rows]
        assert len(visited) >= 20
        omega = case.dest_c / case.p_sat
        for n, s1 in visited:
            def g2123(e, ys):
                params = (1.0 - n - e, s1 + 1.0, s1, 0.0, -n - e)
                return meijer_g_log("G2123", params, omega * ys ** case.nu)[0][:, None]

            sign, log = work.end_sum(n, g2123)
            got_sign, got_log = work.rows["g2123", n][s1]
            assert got_sign == sign[0] and abs(got_log - log[0]) <= 1e-12, (n, s1)


class TestDestinationPieces:
    """build_case's monomial pieces coeff * u^q on [lo, hi] against the
    destination-distance pdfs they stand for."""

    @pytest.mark.parametrize("network, cone, side", [
        ("s2g", {}, -1),
        ("a2a", {}, -1),
        ("a2a", {"geometry.h1_m": 490.0}, 1),
        ("a2a", {"geometry.phi_rad": 1.2}, 1),
        ("a2a", {"geometry.h1_m": 100.0, "geometry.phi_rad": 0.05}, -1),
        ("a2a", {"geometry.h1_m": 500.0 * math.cos(math.pi / 12)}, 0),
    ], ids=["s2g", "a2a-case1", "a2a-case2", "a2a-wide", "a2a-narrow", "a2a-boundary"])
    def test_pieces_sum_to_the_distance_pdf(self, network, cone, side):
        # side: sign of h1/cos(phi) - h2, where the cone edge leaves the slab
        cfg = _cfg(**cone)
        assert np.sign(round(cfg.cone.h_1 / np.cos(cfg.cone.phi) - cfg.cone.h_2, 6)) == side
        case = build_case(cfg, network, IM_IC, cfg.gamma_a)
        pdf = gu_distance_pdf if network == "s2g" else arx_distance_pdf
        breaks = sorted({y for lo, hi, _, _ in case.dest_pieces for y in (lo, hi)})
        assert (breaks[0], breaks[-1]) == (case.dest_lo, case.dest_hi)
        # at side 0, h1/cos(phi) and h2 may differ by rounding alone: points inside
        # that ~1e-13 m interval land on its ends, where no piece counts
        u = np.concatenate([np.linspace(a, b, 9)[1:-1]
                            for a, b in zip(breaks, breaks[1:]) if b - a > 1e-6])
        pieces = sum(np.where((u > lo) & (u < hi), coeff * u ** q, 0.0)
                     for lo, hi, coeff, q in case.dest_pieces)
        want = pdf(u, cfg.cone)
        assert np.all(want > 0)
        np.testing.assert_allclose(pieces, want, rtol=1e-9)
        mass = sum(coeff * (hi ** (q + 1) - lo ** (q + 1)) / (q + 1)
                   for lo, hi, coeff, q in case.dest_pieces)
        assert mass == pytest.approx(1.0, rel=1e-12)


# Random configs whose closed path once overflowed a float in _Work.pieces_moment
# (hi ** p with p = nu r + q + 1) and ended `sagin-outage run` with exit 1.
OVERFLOW_S2G = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 2.5245693694844835,
    "link.eta_s_db": 85.61661431560472, "swipt.mu": 0.6063127256251297,
    "swipt.rho": 0.29271488965526243, "swipt.epsilon": 0.6794601820070677,
    "rates.r_s": 0.2580241771930003, "fading.m_rd": 2.0,
}
OVERFLOW_A2A = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 5.8034,
    "link.eta_s_db": 96.5801, "swipt.mu": 0.7231, "swipt.rho": 0.1684,
    "swipt.epsilon": 0.6719, "rates.r_s": 0.3372, "rates.r_a": 0.1338,
    "fading.m_rd": 1, "fading.K_rt": 3.4104, "swipt.chi": 0.568,
}


def _moment(work, r):
    """Rung r of the tail block's ladder "moment", read as its terms read it."""
    return work.row("moment", r, 1, cf._RUN, work.moment_rows)


class TestPiecesMoment:
    """Rung r of "moment", the sum over pieces of coeff (hi^p - lo^p)/p with
    p = nu r + q + 1, taken in log space over the piece ends."""

    @staticmethod
    def _work(network, mapping):
        cfg = config_from_mapping(mapping)
        gamma = cfg.gamma_s if network == "s2g" else cfg.gamma_a
        return cf._Work(build_case(cfg, network, IM_IC, gamma), 8)

    @pytest.mark.parametrize("network, mapping", [("s2g", {}), ("a2a", {})])
    @pytest.mark.parametrize("r", [0, 1, 2, 5, 10, 20, 30])
    def test_equals_the_piece_sum_where_it_is_finite(self, network, mapping, r):
        work = self._work(network, mapping)
        nu = work.case.nu
        want = sum(coeff * (hi ** (nu * r + q + 1) - lo ** (nu * r + q + 1)) / (nu * r + q + 1)
                   for lo, hi, coeff, q in work.case.dest_pieces)
        sign, log = _moment(work, r)
        assert sign * math.exp(log) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("network, mapping, r, expected", [
        # log of the sum at 50 digits (mpmath)
        ("s2g", OVERFLOW_S2G, 100, 1344.0443445159866588),
        ("s2g", OVERFLOW_S2G, 250, 3362.4941959527735455),
        ("a2a", OVERFLOW_A2A, 60, 745.49473952121057890),
        ("a2a", OVERFLOW_A2A, 150, 1868.5711625524716528),
    ])
    def test_log_form_where_a_power_overflows(self, network, mapping, r, expected):
        work = self._work(network, mapping)
        with pytest.raises(OverflowError):
            math.pow(work.case.dest_hi, work.case.nu * r + 2.0)
        assert _moment(work, r) == (1.0, pytest.approx(expected, rel=1e-13))


class TestDestinationEnds:
    """_Work.dest_groups holds one row per distinct (q, end), carrying the net
    signed coefficient of the pieces that meet there."""

    @staticmethod
    def _per_piece_end_rows(case):
        """The rows one per (piece, end), orientation +1 at hi and -1 at lo."""
        by_q = {}
        for lo, hi, coeff, q in case.dest_pieces:
            for y, orient in ((hi, 1.0), (lo, -1.0)):
                by_q.setdefault(q, []).append(
                    (y, math.log(y / case.dest_hi), orient * np.sign(coeff),
                     math.log(abs(coeff) / case.nu) + q * math.log(case.dest_hi)))
        return [(q, *(np.array(col) for col in zip(*rows))) for q, rows in by_q.items()]

    @staticmethod
    def _a2a_case():
        cfg = _cfg()
        return build_case(cfg, "a2a", IM_IC, cfg.gamma_a)

    def test_standard_cone_has_four_ends_per_group(self):
        work = cf._Work(self._a2a_case(), 8)
        assert sorted(q for q, *_ in work.dest_groups) == [1, 2]
        assert [len(ys) for _, ys, *_ in work.dest_groups] == [4, 4]
        # one row per (piece, end) would be 6 and 4
        assert [len(ys) for _, ys, *_ in self._per_piece_end_rows(work.case)] == [6, 4]

    def test_matches_the_per_piece_end_sum(self):
        case = self._a2a_case()
        work, ref = cf._Work(case, 100), cf._Work(case, 100)
        ref.dest_groups = self._per_piece_end_rows(case)
        for r in range(6):
            sign, log = _moment(work, r)
            ref_sign, ref_log = _moment(ref, r)
            assert sign == ref_sign and abs(math.expm1(log - ref_log)) <= 1e-13, r
        # the first bracket of the linear route, n = k1 = 0, s3 = 1/2, s2 = 1/2, on
        # every CGQ node ...
        cst = work.beta_bar * case.dest_c / case.a_lin

        def meijer(e, ys):
            xs = cst * ys[:, None] ** case.nu * (work.w_nodes ** 2)[None, :]
            return meijer_g_log("G2113", (0.5 - e, 0.5, -0.5, -0.5 - e), xs.ravel()).reshape(
                xs.shape)

        sign, log = work.end_sum(0.5, meijer)
        ref_sign, ref_log = ref.end_sum(0.5, meijer)
        assert len(sign) == len(work.w_nodes) and np.array_equal(sign, ref_sign)
        assert np.max(np.abs(np.expm1(log - ref_log))) <= 1e-13
        # ... and its row of CGQ integrals over k, rung n = 0 of diagonal k1 = 0,
        # fetched 2 rungs at a time
        diagonal = ("diagonal", cst, 0)
        sign, log = (np.array(v) for v in work.row(diagonal, 0, 1, 2, work.g2113_rows))
        ref_sign, ref_log = (np.array(v) for v in ref.row(diagonal, 0, 1, 2, ref.g2113_rows))
        assert np.array_equal(sign, ref_sign)
        assert np.max(np.abs(np.expm1(log - ref_log))) <= 1e-13

    def test_cancelling_coefficients_drop_the_end_and_the_group(self):
        # q = 1 pieces meet at y = 2 with equal coefficients, so that end nets to
        # 0; the two q = 2 pieces cancel at both ends, emptying their group
        a, b = 0.3, 0.05
        pieces = ((1.0, 2.0, a, 1), (2.0, 3.0, a, 1), (1.0, 2.0, b, 2), (1.0, 2.0, -b, 2))
        case = dataclasses.replace(self._a2a_case(), dest_pieces=pieces,
                                   dest_lo=1.0, dest_hi=3.0)
        work = cf._Work(case, 8)
        assert [(q, list(ys), list(sign)) for q, ys, _, sign, _ in work.dest_groups] == [
            (1, [1.0, 3.0], [-1.0, 1.0])]
        nu = case.nu
        for r in range(4):
            p = nu * r + 2.0
            sign, log = _moment(work, r)
            assert sign * math.exp(log) == pytest.approx(a * (3.0 ** p - 1.0) / p, rel=1e-13)


class TestRowStore:
    """_Work.row holds, per rung, the CGQ integrals over k that a k2 term reads:
    each equals the 1-D CGQ of that rung's bracket, bit for bit, at every k."""

    @staticmethod
    def _cgq(work, k, x, sign_f, log_f):
        expo = work.log_wts + (2 * k + 3 - 2 * x) * work.log_w - work.sat_decay + log_f
        return logsumexp_signed(expo, sign_f * work.wt_sign)

    @pytest.mark.parametrize("mapping, route", [
        # a2a im-IC at 118 dB: linear - tail + sat-above-knee is the first route
        ({"rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
          "link.eta_s_db": 118.0}, ["linear", "tail", "sat-above-knee"]),
        # the below-knee a2a case of test_negative_saturation_point_branch_a2a
        ({"noise.sigma_r_dbm": 8.0, "noise.sigma_rb_dbm": 8.0,
          "rates.threshold_mode": "fixed", "rates.gamma_a_db": -4.56,
          "swipt.p_th_dbm": 15.0, "link.eta_s_db": 124.0}, ["sat-below-knee"]),
    ], ids=["linear", "below-knee"])
    def test_rows_equal_the_1d_cgq_of_their_bracket(self, mapping, route, monkeypatch):
        cfg = config_from_mapping(mapping)
        work = cf._Work(build_case(cfg, "a2a", IM_IC, cfg.gamma_a), cfg.cgq_n)
        fetched, real = [], cf._Work.g2113_rows

        def g2113_rows(self, ladder, rungs):
            fetched.append((ladder, list(rungs)))
            return real(self, ladder, rungs)

        monkeypatch.setattr(cf._Work, "g2113_rows", g2113_rows)
        blocks = cf._blocks(work)[0]
        assert [name for name, *_ in blocks] == route
        for _, _, top_n, k2_top, term in blocks:
            cf._series(work, top_n, k2_top, term)
        case, m_sr = work.case, cfg.sr.m_sr
        # the G2113 ladders by their kind: c-ladders and diagonals
        held = {ladder: rows for ladder, rows in work.rows.items()
                if ladder[:1] in (("c",), ("diagonal",))}
        assert fetched and set(held) == {ladder for ladder, _ in fetched}
        assert sum(len(rows) for rows in held.values()) == sum(len(r) for _, r in fetched)
        # the linear block reads diagonals, the below-knee block c-ladders
        assert {ladder[0] == "diagonal" for ladder in held} == {"linear" in route}
        for ladder, rungs in fetched:
            # a c-ladder ("c", cst, s3) steps s2 at its s3; a diagonal ("diagonal",
            # cst, k1) steps n at s3 = (k1 - n + 1)/2 and s2 = n + s3
            diagonal = ladder[0] == "diagonal"
            if diagonal:
                _, cst, k1 = ladder
                s3s = [(k1 - n + 1) / 2.0 for n in rungs]
                s2s = [n + s3 for n, s3 in zip(rungs, s3s)]
            else:
                _, cst, s3 = ladder
                s3s, s2s = [s3] * len(rungs), rungs
            # the run's G2113 rows, one call per destination group on its own ends; the
            # fetch takes one grid over every end, and its rows keep these bits
            g = {}
            for q, ys, *_ in work.dest_groups:
                e = (q + 1.0) / case.nu
                xs = cst * ys[:, None] ** case.nu * (work.w_nodes ** 2)[None, :]
                g[e] = meijer_g_log("G2113", (1.0 - s2s[0] - e, s3s[0], -s3s[0], -s2s[0] - e),
                                    xs.ravel(), None, len(s2s), diagonal
                                    ).reshape(len(s2s), *xs.shape)
            for j, (at, s2, s3) in enumerate(zip(rungs, s2s, s3s)):
                sign_f, log_f = work.end_sum(s2, lambda e, ys: g[e][j])
                i_s, i_l = held[ladder][at]
                assert len(i_s) == len(i_l) == m_sr
                for k in range(m_sr):
                    assert (i_s[k], i_l[k]) == self._cgq(work, k, s3, sign_f, log_f), (s2, k)
        # the Gamma rows of the tail and saturated blocks, on the saturation-point grid
        gammas = work.rows.get("gamma", {})
        assert bool(gammas) == ("tail" in route)
        xs = work.beta_bar * work.w_nodes ** 2 * case.p_sat / case.a_lin
        for s, (g_s, g_l) in gammas.items():
            log_f = log_gamma_upper(float(s), xs)
            for k in range(m_sr):
                assert (g_s[k], g_l[k]) == self._cgq(work, k, s, 1.0, log_f), (s, k)

    def test_the_linear_block_sweeps_one_diagonal_per_k1_and_group(self, monkeypatch):
        # the 88 dB a2a im-IC case of the acceptance grid: the linear block reads
        # the diagonals k1 < m_sr, each fetched once for the whole n extent of the
        # destination series, by one G2113 run per destination group
        cfg = _cfg(**{"link.eta_s_db": 88.0})
        work = cf._Work(build_case(cfg, "a2a", IM_IC, cfg.gamma_a), cfg.cgq_n)
        runs = []

        def counted(instance, params, xs, seeds=None, run=1, diagonal=False):
            runs.append((instance, run, diagonal))
            return meijer_g_log(instance, params, xs, seeds, run, diagonal)

        monkeypatch.setattr(cf, "meijer_g_log", counted)
        name, _, top_n, k2_top, term = cf._blocks(work)[0][0]
        assert name == "linear"
        cf._series(work, top_n, k2_top, term)
        sweeps = cfg.sr.m_sr * len(work.dest_groups)
        assert sweeps == 4 and runs == [("G2113", len(work.case.dest_logw), True)] * sweeps

    def test_a_closed_case_seeds_each_grid_once(self, monkeypatch):
        # the same case through its whole first route: both destination groups
        # hold the same four ends, in different orders, and every G2113 run takes
        # one argument grid over the distinct ends, so kve seeds one grid
        cfg = _cfg(**{"link.eta_s_db": 88.0})
        work = cf._Work(build_case(cfg, "a2a", IM_IC, cfg.gamma_a), cfg.cgq_n)
        ends = [ys for _, ys, *_ in work.dest_groups]
        assert len(ends) == 2 and sorted(ends[0]) == sorted(ends[1])
        assert not np.array_equal(ends[0], ends[1])
        runs = []

        def counted(instance, params, xs, seeds=None, run=1, diagonal=False):
            runs.append((instance, run, diagonal))
            return meijer_g_log(instance, params, xs, seeds, run, diagonal)

        monkeypatch.setattr(cf, "meijer_g_log", counted)
        for _, _, top_n, k2_top, term in cf._blocks(work)[0]:
            cf._series(work, top_n, k2_top, term)
        assert len({grid for grid, _ in work.k_seeds}) == 1
        sweeps = cfg.sr.m_sr * len(work.dest_groups)
        assert runs == [("G2113", len(work.case.dest_logw), True)] * sweeps

    def test_the_gamma_ladder_starts_at_its_top_order(self, monkeypatch):
        # the 118 dB a2a im-IC case: tail and sat-above-knee read Gamma(s, .) for s
        # from m_sr (at k1 = k = m_sr - 1) down; the k = 0 terms come first and reach
        # s = 1 only, so the first run starts at m_sr, and one fetch serves both blocks
        cfg = _cfg()
        work = cf._Work(build_case(cfg, "a2a", IM_IC, cfg.gamma_a), cfg.cgq_n)
        fetched, real = [], work.gamma_rows

        def gamma_rows(ladder, ss):
            fetched.append(list(ss))
            return real(ladder, ss)

        monkeypatch.setattr(work, "gamma_rows", gamma_rows)
        blocks = cf._blocks(work)[0]
        assert [name for name, *_ in blocks] == ["linear", "tail", "sat-above-knee"]
        for _, _, top_n, k2_top, term in blocks:
            cf._series(work, top_n, k2_top, term)
        m_sr = cfg.sr.m_sr
        assert fetched == [list(range(m_sr, m_sr - cf._RUN, -1))]
        assert max(work.rows["gamma"]) == m_sr


# closed on the acceptance grid, frozen as float hex: the first route is
# linear - tail at 88 dB and, with sat-above-knee, from 118 dB up; at every point
# it is quiet enough that the Taylor route never runs
CLOSED_BITS = {
    88.0: (["linear", "tail"],
           "0x1.ffddd43771513p-1", "0x1.fff64a532a17dp-1", "0x1.ff5a27680f0c2p-1"),
    118.0: (["linear", "tail", "sat-above-knee"],
            "0x1.1e7f1981727acp-3", "0x1.09d0e40f1ea32p-2", "0x1.1f9e145d921e9p-3"),
    131.05: (["linear", "tail", "sat-above-knee"],
             "0x1.20e8a13bd11f0p-7", "0x1.dc515bd8c1454p-6", "0x1.b9fe5a314e620p-7"),
    148.19: (["linear", "tail", "sat-above-knee"],
             "0x1.71a5af769a000p-13", "0x1.cd9ec3fb63800p-10", "0x1.8026ac755f000p-11"),
}


class TestClosedBits:
    @pytest.mark.parametrize("network, mode, column", [
        ("s2g", IM_IC, 1), ("a2a", IM_IC, 2), ("a2a", P_IC, 3)])
    @pytest.mark.parametrize("eta_db", list(CLOSED_BITS))
    def test_closed_keeps_every_bit(self, eta_db, network, mode, column):
        cfg = _cfg(**{"link.eta_s_db": eta_db})
        gamma = cfg.gamma_s if network == "s2g" else cfg.gamma_a
        route = [name for name, *_ in
                 cf._blocks(cf._Work(build_case(cfg, network, mode, gamma), cfg.cgq_n))[0]]
        assert route == CLOSED_BITS[eta_db][0]
        got = (op_s2g_closed(gamma, cfg) if network == "s2g"
               else op_a2a_closed(gamma, cfg, ic_mode=mode))
        assert got.hex() == CLOSED_BITS[eta_db][column]


# A random config whose Taylor route loses too much precision for s2g and
# a2a p-IC; the linear - tail route, tried first, gives the value.
FALLBACK = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.48775079447011,
    "link.eta_s_db": 127.84896288528859, "swipt.mu": 0.7935779302034267,
    "swipt.rho": 0.5970501352420587, "swipt.epsilon": 0.4069517063120319,
    "rates.r_s": 0.42990507216779955, "rates.r_a": 0.47777668866685025,
    "fading.m_rd": 3, "fading.K_rt": 2.5624996725149414,
}
# Its a2a p-IC tail route (parameter about 42.5) loses too much precision, and
# so does its Taylor route: no route is left.
NO_ROUTE_A2A = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 0.02190757664090981,
    "link.eta_s_db": 88.45835473579115, "swipt.mu": 0.7161575900479059,
    "swipt.rho": 0.3852037902023067, "swipt.epsilon": 0.8839252739032916,
    "rates.r_s": 0.05815633432900556, "rates.r_a": 0.3964681610813414,
    "fading.m_rd": 3, "fading.K_rt": 2.076525388435109, "swipt.chi": 0.46036278072229553,
}
# Near-certain s2g outage (integral 1.0) where the Taylor parameter (255.8) is
# so large that its route fails; the tail route (29.2) is noisy against
# 1 - OP, but it is the only route left, so it gives the value.
NO_ROUTE_S2G = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 4.0406934857116354,
    "link.eta_s_db": 86.1570666690462, "swipt.mu": 0.7223455197086492,
    "swipt.rho": 0.1135063745132411, "swipt.epsilon": 0.22558559154796642,
    "rates.r_s": 0.27580604586069457, "rates.r_a": 0.252967767418389,
    "fading.m_rd": 2, "fading.K_rt": 2.858438051446899, "swipt.chi": 0.3713844647797814,
}
# Deep outage on the Taylor route, where the lower-gamma half of each G2123
# bracket is nearly equal at both piece ends: taken as a difference of end values
# it cancels to rounding noise that the noise estimate does not see (s2g reads
# -7.1e-8 for 3.7e-45), and both a2a cells land outside [0, 1].
TAYLOR_CANCELS = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": -5.228336750076526,
    "link.eta_s_db": 86.25667117696693, "swipt.mu": 0.6389173920265111,
    "swipt.rho": 0.2730187722694791, "swipt.epsilon": 0.5309027961603154,
    "rates.r_s": 0.35145689833020255, "rates.r_a": 0.14265048222944193,
    "fading.m_rd": 1, "fading.K_rt": 2.1240774357010905, "swipt.chi": 0.5870943724621813,
}
# The same cancellation where nothing reports it: the a2a p-IC cell reads
# 0.99825 against an integral of 0.9999994.
TAYLOR_WRONG = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 3.026239243535958,
    "link.eta_s_db": 94.10054593964726, "swipt.mu": 0.9332758773831097,
    "swipt.rho": 0.16789055309733197, "swipt.epsilon": 0.747528360730451,
    "rates.r_s": 0.4734375120068069, "rates.r_a": 0.2104985708009306,
    "fading.m_rd": 2, "fading.K_rt": 1.0532781519081558, "swipt.chi": 0.7114335911776285,
}
# Knee-scan configs: tools/closed_scan.scan_config(i) plus noise.sigma_r_dbm =
# random.Random(f"knee-{i}").uniform(-10, 20), which puts the saturation point
# p_sat below 0.  For knee 1 and 14, a2a p-IC, the saturated branch carries at
# most 2.4e-232 and 1.9e-155, so no branch carries mass and the outage is 1.
KNEE_1 = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 3.033662061610741,
    "link.eta_s_db": 94.48517465650218, "swipt.mu": 0.9208709609930927,
    "swipt.rho": 0.25736305951444227, "swipt.epsilon": 0.6708676766221705,
    "rates.r_s": 0.46366239754728483, "rates.r_a": 0.47609316490814485,
    "fading.m_rd": 1, "fading.K_rt": 0.8568083852899622, "swipt.chi": 0.7273433624949066,
    "noise.sigma_r_dbm": 18.513951597691857,
}
KNEE_14 = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": -4.692432428071455,
    "link.eta_s_db": 98.4838790306558, "swipt.mu": 0.7905850380155628,
    "swipt.rho": 0.7832323778579162, "swipt.epsilon": 0.6056303265432814,
    "rates.r_s": 0.4708559574144394, "rates.r_a": 0.3677510674883405,
    "fading.m_rd": 2, "fading.K_rt": 2.2214466629035226, "swipt.chi": 0.786449547738511,
    "noise.sigma_r_dbm": 17.429812509079124,
}
# Knee 21 s2g: p_sat = -1.0e-3; the satellite-fading bound of the saturated
# branch is 0.98, but the destination fade it also needs has probability 1.1e-54.
KNEE_21 = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": -4.699913136724895,
    "link.eta_s_db": 115.62387967651772, "swipt.mu": 0.8045135363886946,
    "swipt.rho": 0.1150800852206255, "swipt.epsilon": 0.13361277026074553,
    "rates.r_s": 0.4907233414106134, "rates.r_a": 0.19112883078501322,
    "fading.m_rd": 1, "fading.K_rt": 4.2370144827274085, "swipt.chi": 0.7723764673340392,
    "noise.sigma_r_dbm": 5.717837451680566,
}
# Knee 24 s2g: p_sat = -1.4e-2 with a saturated mass bound of 8.7e-15, so the
# branch stays, but its series (parameter 39.5) passes the 1e-5 noise gate in
# its first k2 sum.
KNEE_24 = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 4.650610441717577,
    "link.eta_s_db": 141.00678901472162, "swipt.mu": 0.582518429143994,
    "swipt.rho": 0.5324852706440537, "swipt.epsilon": 0.11537178593900306,
    "rates.r_s": 0.25475740531660407, "rates.r_a": 0.036212441467810164,
    "fading.m_rd": 2, "fading.K_rt": 3.3624395998454224, "swipt.chi": 0.5159627017036927,
    "noise.sigma_r_dbm": 12.475402348844895,
}


# Plain-scan configs, tools/closed_scan.scan_config(i), whose Taylor route is
# about 1e-6 off integral with a noise estimate that does not show it (269
# a2a p-IC, 1.37e-6; 158 s2g, 1.19e-6), where linear - tail is within 1e-9.
SCAN_269 = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 25.976899843012184,
    "link.eta_s_db": 119.23850770385866, "swipt.mu": 0.8777761136117261,
    "swipt.rho": 0.550129254345425, "swipt.epsilon": 0.619975709804242,
    "rates.r_s": 0.1539457972847854, "rates.r_a": 0.07054230141466787,
    "fading.m_rd": 1, "fading.K_rt": 3.4246106857853227, "swipt.chi": 0.7699814518649406,
}
SCAN_158 = {
    "rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 12.284574948519143,
    "link.eta_s_db": 104.90186648008654, "swipt.mu": 0.6905169169404946,
    "swipt.rho": 0.1866505713994182, "swipt.epsilon": 0.45876542520963237,
    "rates.r_s": 0.4067653484957225, "rates.r_a": 0.1975169999750496,
    "fading.m_rd": 3, "fading.K_rt": 0.12147883412401805, "swipt.chi": 0.7558208481105877,
}


class TestRouteTable:
    """closed_form._blocks on s2g cases: (name, sign, top_n, k2_top) of every row,
    route by route, in each regime."""

    SAT = ("sat-above-knee", 1.0, 1, cf._K2_CAP)
    DIRECT = [("direct", 1.0, 0, cf._K2_CAP)]
    LINEAR_TAIL = [("linear", 1.0, 0, 0), ("tail", -1.0, 0, cf._K2_CAP)]

    # the order does not depend on the Taylor parameter bb w_max^2 p_sat / a: it
    # is 10.3 at 131.05 dB, 208.7 at 118 dB and, with no saturated branch, 4.2e4
    # at 40 dBm and 100 dB
    @pytest.mark.parametrize("over, routes", [
        (KNEE_24, [[("sat-below-knee", 1.0, 1, cf._K2_CAP)]]),
        ({"swipt.p_th_dbm": "inf"}, [[("linear", 1.0, 0, 0)]]),
        ({"link.eta_s_db": 131.05}, [LINEAR_TAIL + [SAT], DIRECT + [SAT]]),
        ({}, [LINEAR_TAIL + [SAT], DIRECT + [SAT]]),
        ({"swipt.p_th_dbm": 40.0, "link.eta_s_db": 100.0}, [LINEAR_TAIL, DIRECT]),
    ], ids=["below-knee", "linear-eh", "small-taylor-parameter", "large-taylor-parameter",
            "no-saturated"])
    def test_rows_of_each_regime(self, over, routes):
        cfg = _cfg(**over)
        work = cf._Work(build_case(cfg, "s2g", IM_IC, cfg.gamma_s), cfg.cgq_n)
        assert [[row[:4] for row in route] for route in cf._blocks(work)] == routes


class TestRouteChoice:
    """_closed_outage takes the first route that succeeds with noise within
    _REL_NOISE of min(OP, 1 - OP), else the quietest route that succeeds."""

    @pytest.mark.parametrize("mapping, network, mode", [
        (SCAN_269, "a2a", P_IC), (SCAN_158, "s2g", IM_IC),
    ], ids=["scan-269-a2a-p-ic", "scan-158-s2g"])
    def test_scan_cells_match_the_integral(self, mapping, network, mode):
        cfg = config_from_mapping(mapping)
        case = build_case(cfg, network, mode, cfg.gamma_s if network == "s2g" else cfg.gamma_a)
        assert abs(cf._closed_outage(case, cfg.cgq_n) - di._outage(case)) <= 3e-7

    @staticmethod
    def _outage(monkeypatch, blocks):
        """Outage of the 118 dB s2g case, whose routes are linear - tail +
        sat-above-knee and direct + sat-above-knee, with the i-th block run
        reading blocks[i], (value, noise), or None to raise; and how many ran."""
        cfg = _cfg()
        case = build_case(cfg, "s2g", IM_IC, cfg.gamma_s)
        assert case.branches == ("unsaturated", "saturated")
        ran = []

        def series(work, top_n, k2_top, term, noise):
            block = blocks[len(ran)]
            ran.append(block)
            if block is None:
                raise NumericError("closed-form series lost too much precision")
            value, block_noise = block
            return SimpleNamespace(value=lambda: value, noise_estimate=lambda: block_noise)

        monkeypatch.setattr(cf, "_series", series)
        return cf._closed_outage(case, cfg.cgq_n), len(ran)

    # linear - tail + saturated reads OP = 2^-10, direct + saturated 2^-9; a noise
    # of 2^-20 is past 1e-5 of either, 2^-40 within it
    TAIL = [(1.0 - 2.0 ** -10, 2.0 ** -20), (0.0, 0.0), (0.0, 0.0)]
    QUIET_TAIL = [(1.0 - 2.0 ** -10, 2.0 ** -40), (0.0, 0.0), (0.0, 0.0)]

    @pytest.mark.parametrize("direct, want", [
        ([(1.0 - 2.0 ** -9, 2.0 ** -40), (0.0, 0.0)], 2.0 ** -9),
        ([(1.0 - 2.0 ** -9, 2.0 ** -19), (0.0, 0.0)], 2.0 ** -10),
        ([None], 2.0 ** -10),
    ], ids=["taylor-quieter", "taylor-noisier", "taylor-fails"])
    def test_a_noisy_route_runs_the_next_and_the_quieter_value_is_kept(
            self, monkeypatch, direct, want):
        assert self._outage(monkeypatch, self.TAIL + direct) == (want, 3 + len(direct))

    def test_a_quiet_first_route_never_runs_the_second(self, monkeypatch):
        assert self._outage(monkeypatch, self.QUIET_TAIL) == (2.0 ** -10, 3)


RANDOM_CONFIG = st.fixed_dictionaries({
    "rates.threshold_mode": st.just("from_rate"),
    "swipt.p_th_dbm": st.one_of(st.floats(-10.0, 40.0), st.just("inf")),
    "link.eta_s_db": st.floats(85.0, 150.0),
    "swipt.mu": st.floats(0.55, 0.95),
    "swipt.rho": st.floats(0.05, 0.8),
    "swipt.epsilon": st.floats(0.1, 0.9),
    "rates.r_s": st.floats(0.01, 0.5),
    "rates.r_a": st.floats(0.01, 0.5),
    "fading.m_rd": st.sampled_from([1, 2, 3]),
    "fading.K_rt": st.floats(0.0, 5.0),
    "swipt.chi": st.floats(0.3, 0.9),
})


class TestRandomConfigs:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @example(OVERFLOW_S2G)
    @example(OVERFLOW_A2A)
    @given(RANDOM_CONFIG)
    def test_outage_is_a_probability_or_a_numeric_error(self, mapping):
        # any exception other than NumericError fails the test
        cfg = config_from_mapping(mapping)
        cases = [(fn, cfg.gamma_s, {}) for fn in (op_s2g_closed, op_s2g_integral)]
        cases += [(fn, cfg.gamma_a, {"ic_mode": mode})
                  for fn in (op_a2a_closed, op_a2a_integral) for mode in (IM_IC, P_IC)]
        for fn, gamma, kwargs in cases:
            try:
                op = fn(gamma, cfg, **kwargs)
            except NumericError:
                continue
            assert 0.0 <= op <= 1.0

    def test_overflow_fallback_holds_for_numpy_floats(self):
        # a numpy float overflows to inf under ** where a float raises OverflowError;
        # the moments take no power outside log space, so neither reaches them
        plain = config_from_mapping(OVERFLOW_A2A)
        wide = config_from_mapping({**OVERFLOW_A2A, "geometry.h2_m": np.float64(500.0)})
        assert op_a2a_closed(wide.gamma_a, wide) == op_a2a_closed(plain.gamma_a, plain)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @example(FALLBACK)
    @given(RANDOM_CONFIG)
    def test_outage_orderings(self, mapping):
        # OP is nondecreasing in the threshold and nonincreasing in the gain, and
        # im-IC OP >= p-IC OP; a NumericError leaves its comparison vacuous
        cfg = config_from_mapping(mapping)
        louder = config_from_mapping({**mapping,
                                      "link.eta_s_db": mapping["link.eta_s_db"] + 3.0})
        for s2g, a2a, tol in ((op_s2g_closed, op_a2a_closed, 2e-4),
                              (op_s2g_integral, op_a2a_integral, 2e-6)):
            def op(network, c=cfg, scale=1.0, ic_mode=IM_IC):
                try:
                    if network == "s2g":
                        return s2g(scale * c.gamma_s, c)
                    return a2a(scale * c.gamma_a, c, ic_mode=ic_mode)
                except NumericError:
                    return None

            for network in ("s2g", "a2a"):
                base = op(network)
                pairs = [(base, op(network, scale=1.2)), (op(network, c=louder), base)]
                if network == "a2a":
                    pairs.append((op(network, ic_mode=P_IC), base))
                for lower, upper in pairs:
                    if lower is not None and upper is not None:
                        assert lower <= upper + tol, (s2g.__name__, network, lower, upper)

    @staticmethod
    def _cli_row(tmp_path, keys):
        """(exit code, {column: cell}) of `sagin-outage run` on the keys."""
        path = tmp_path / "c.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = tmp_path / "o.csv"
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        return code, dict(zip(header, row))

    @pytest.mark.parametrize("mapping, network, column", [
        (OVERFLOW_S2G, "s2g", "op_s2g"), (OVERFLOW_A2A, "a2a", "op_a2a_im"),
    ], ids=["s2g", "a2a-im-ic"])
    def test_overflowing_moment_runs_through_the_cli(self, mapping, network, column,
                                                     tmp_path):
        code, row = self._cli_row(tmp_path, {**mapping, "run.networks": network,
                                             "run.ic_mode": IM_IC,
                                             "run.methods": "closed,integral"})
        assert code == 0
        assert abs(float(row[f"{column}_closed"]) - float(row[f"{column}_integral"])) <= 2e-4

    def test_fallback_route_runs_through_the_cli(self, tmp_path):
        code, row = self._cli_row(tmp_path, {**FALLBACK, "run.networks": "s2g,a2a",
                                             "run.ic_mode": P_IC,
                                             "run.methods": "closed,integral"})
        assert code == 0 and row["diagnostics"] == ""
        for column in ("op_s2g", "op_a2a_p"):
            closed, integral = row[f"{column}_closed"], row[f"{column}_integral"]
            assert closed != "" and abs(float(closed) - float(integral)) <= 2e-4

    def test_outage_outside_the_unit_interval_is_reported(self, monkeypatch, tmp_path):
        # every block reads 2.0: linear - tail + saturated gives 1 - 2 + 2 - 2 = -1
        # and direct + saturated 1 - 2 - 2 = -3, both beyond the 1e-6 clamped as noise
        keys = {"rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
                "link.eta_s_db": 118.0}
        cfg = config_from_mapping(keys)
        case = build_case(cfg, "s2g", IM_IC, cfg.gamma_s)
        assert case.branches == ("unsaturated", "saturated")
        block = cf._SignedSum()
        block.add(1.0, math.log(2.0))
        monkeypatch.setattr(cf, "_series", lambda work, top_n, k2_top, term, noise: block)
        checked = []

        def checked_outage(val, path, details):
            checked.append(details["routes"])
            return coefficients.checked_outage(val, path, details)
        monkeypatch.setattr(cf, "checked_outage", checked_outage)
        with pytest.raises(NumericError, match="outside"):
            op_s2g_closed(cfg.gamma_s, cfg)
        assert checked == [["linear", "tail", "sat-above-knee"], ["direct", "sat-above-knee"]]
        code, row = self._cli_row(tmp_path, {**keys, "run.networks": "s2g",
                                             "run.methods": "closed,integral"})
        assert code == 0 and row["op_s2g_closed"] == ""
        assert "op_s2g_closed:" in row["diagnostics"]
        assert "outside [0, 1] by" in row["diagnostics"]
        assert float(row["op_s2g_integral"]) > 0.0

    @pytest.mark.parametrize("val", [math.nan, math.inf, -math.inf, -2e-6, 1.0 + 2e-6])
    def test_an_outage_not_within_the_tolerance_of_the_unit_interval_raises(self, val):
        with pytest.raises(NumericError, match=r"closed-form outage outside \[0, 1\] by"):
            coefficients.checked_outage(val, "closed-form", {})

    @pytest.mark.parametrize("val,want", [(-1e-6, 0.0), (0.25, 0.25), (1.0 + 1e-6, 1.0)])
    def test_an_outage_within_the_tolerance_is_clamped(self, val, want):
        assert coefficients.checked_outage(val, "closed-form", {}) == want

    @pytest.mark.parametrize("mapping, network, mode", [
        (KNEE_1, "a2a", P_IC), (KNEE_14, "a2a", P_IC), (KNEE_21, "s2g", IM_IC),
    ], ids=["knee-1", "knee-14", "knee-21"])
    def test_negligible_saturated_branch_below_the_knee_is_settled(self, mapping, network,
                                                                   mode, monkeypatch):
        cfg = config_from_mapping(mapping)
        case = build_case(cfg, network, mode, cfg.gamma_s if network == "s2g" else cfg.gamma_a)
        assert case.p_sat < 0.0 and case.branches == ()

        def no_series(*args):
            raise AssertionError("a settled case ran a series")
        monkeypatch.setattr(cf, "_series", no_series)
        assert cf._closed_outage(case, cfg.cgq_n) == 1.0
        assert di._outage(case) == 1.0

    def test_below_knee_series_guard_leaves_the_cell_to_integral(self, tmp_path,
                                                                  monkeypatch):
        # the noise gate ends the one below-knee route inside its first k2 sum,
        # after the dozen G2113 ladder calls that sum makes
        cfg = config_from_mapping(KNEE_24)
        case = build_case(cfg, "s2g", IM_IC, cfg.gamma_s)
        assert case.p_sat < 0.0 and case.branches == ("saturated",)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return meijer_g_log(*args, **kwargs)
        monkeypatch.setattr(cf, "meijer_g_log", counted)
        with pytest.raises(NumericError, match="lost too much precision") as exc:
            op_s2g_closed(cfg.gamma_s, cfg)
        assert 0 < len(calls) <= 12
        assert (exc.value.diagnostics["k"], exc.value.diagnostics["n"]) == (0, 0)
        code, row = self._cli_row(tmp_path, {**KNEE_24, "run.networks": "s2g",
                                             "run.methods": "closed,integral"})
        assert code == 0 and row["op_s2g_closed"] == ""
        assert "op_s2g_closed:closed-form series lost too much precision" in row["diagnostics"]
        # the branch's mass bound, 8.7e-15, caps how far below 1 the outage can be
        assert float(row["op_s2g_integral"]) >= 1.0 - 1e-14

    def test_unconverged_quadrature_is_reported(self, monkeypatch, tmp_path):
        # a mass of n_z * 1e-5, n_z the level's last size, moves by over 1e-3
        # between levels, far past the 5e-7 they must agree to
        monkeypatch.setattr(di, "_branch_mass", lambda case, *args: args[-1] * 1e-5)
        cfg = _cfg()
        with pytest.raises(NumericError, match="did not reach the requested tolerance"):
            op_s2g_integral(cfg.gamma_s, cfg)
        code, row = self._cli_row(tmp_path, {"rates.threshold_mode": "from_rate",
                                             "swipt.p_th_dbm": 35.0, "link.eta_s_db": 118.0,
                                             "run.networks": "s2g", "run.trials": 2000})
        assert code == 0 and row["op_s2g_integral"] == ""
        assert ("op_s2g_integral:outage quadrature did not reach the requested tolerance"
                in row["diagnostics"])
        assert float(row["op_s2g_mc"]) >= 0.0 and float(row["op_s2g_closed"]) >= 0.0

    def test_no_route_left_raises(self):
        cfg = config_from_mapping(NO_ROUTE_A2A)
        with pytest.raises(NumericError):
            op_a2a_closed(cfg.gamma_a, cfg, ic_mode=P_IC)

    def test_truncated_taylor_route_falls_back_to_the_tail_route(self):
        cfg = config_from_mapping(NO_ROUTE_S2G)
        case = build_case(cfg, "s2g", IM_IC, cfg.gamma_s)
        work = cf._Work(case, 100)
        assert len(cf._blocks(work)) == 2
        with pytest.raises(NumericError, match="lost too much precision"):
            cf._series(work, 0, cf._K2_CAP, cf._taylor_terms(work))
        assert abs(op_s2g_closed(cfg.gamma_s, cfg) - op_s2g_integral(cfg.gamma_s, cfg)) <= 1e-6

    @pytest.mark.parametrize("mapping, network, mode", [
        (TAYLOR_CANCELS, "s2g", IM_IC), (TAYLOR_CANCELS, "a2a", IM_IC),
        (TAYLOR_CANCELS, "a2a", P_IC), (TAYLOR_WRONG, "a2a", P_IC),
    ], ids=["cancels-s2g", "cancels-a2a-im-ic", "cancels-a2a-p-ic", "wrong-a2a-p-ic"])
    def test_taylor_block_matches_the_unsaturated_integral(self, mapping, network, mode):
        # the route takes no CGQ, so it must equal the integral's unsaturated
        # branch to within its own noise estimate
        cfg = config_from_mapping(mapping)
        case = build_case(cfg, network, mode, cfg.gamma_s if network == "s2g" else cfg.gamma_a)
        *_, coarse, fine = (di._branch_mass(case, *di._branches(case)["unsaturated"], *level)
                            for level in di._LEVELS)
        assert abs(fine - coarse) <= 1e-10
        work = cf._Work(case, cfg.cgq_n)
        acc = cf._series(work, 0, cf._K2_CAP, cf._taylor_terms(work))
        assert abs(acc.value() - fine) <= max(10.0 * acc.noise_estimate(), 1e-9)

    @pytest.mark.parametrize("mapping", [TAYLOR_CANCELS, TAYLOR_WRONG],
                             ids=["cancels", "wrong"])
    def test_taylor_fixture_cells_match_the_integral(self, mapping, tmp_path):
        code, row = self._cli_row(tmp_path, {**mapping, "run.networks": "s2g,a2a",
                                             "run.ic_mode": "both",
                                             "run.methods": "closed,integral"})
        assert code == 0
        for column in ("op_s2g", "op_a2a_im", "op_a2a_p"):
            closed, integral = row[f"{column}_closed"], row[f"{column}_integral"]
            assert closed != "" and abs(float(closed) - float(integral)) <= 1e-6, column


def _g2113_arguments(monkeypatch, evaluate):
    """Every argument of the G2113 calls the closed path makes while evaluate runs."""
    seen = []

    def recording(instance, params, xs, seeds=None, run=1, diagonal=False):
        if instance == "G2113":
            seen.append(np.asarray(xs, dtype=float))
        return meijer_g_log(instance, params, xs, seeds, run, diagonal)

    with monkeypatch.context() as patch:
        patch.setattr(cf, "meijer_g_log", recording)
        evaluate()
    return np.concatenate(seen) if seen else np.empty(0)


class TestG2113ArgumentRange:
    """The closed path passes G2113 only arguments in 1e-9..1e5, where
    tests/test_specfun.py checks diagonal rows against one-rung calls."""

    @staticmethod
    def _closed(cfg):
        try:
            op_s2g_closed(cfg.gamma_s, cfg)
        except NumericError:
            pass
        for mode in (IM_IC, P_IC):
            try:
                op_a2a_closed(cfg.gamma_a, cfg, ic_mode=mode)
            except NumericError:
                pass

    def test_on_the_acceptance_grid(self, monkeypatch):
        xs = _g2113_arguments(monkeypatch, lambda: [
            self._closed(_cfg(**{"link.eta_s_db": float(eta_db)}))
            for eta_db in np.linspace(88.0, 148.0, 15)])
        assert len(xs) and 1e-9 <= xs.min() and xs.max() <= 1e5

    @settings(max_examples=20, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(RANDOM_CONFIG)
    def test_on_random_configs(self, monkeypatch, mapping):
        xs = _g2113_arguments(monkeypatch, lambda: self._closed(config_from_mapping(mapping)))
        assert not len(xs) or (1e-9 <= xs.min() and xs.max() <= 1e5)
