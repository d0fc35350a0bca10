"""Closed-form outage series with the residual distance integrals by CGQ.

Both networks share one algebraic skeleton; the destination link enters only
through the collapsed tail series (weights w_n, scale c) and the monomial
pieces of its distance measure.  Four building blocks cover every regime:

  unsat_taylor     unsaturated branch, Taylor series in the satellite
                   exponential (usable while beta_bar w_max^2 p_sat / a stays
                   moderate);
  unsat_linear minus unsat_overshoot
                   the same probability written as the no-saturation value
                   minus the overshoot beyond the saturation point (usable
                   everywhere the Taylor parameter is large);
  sat_above_knee   saturated branch above a positive saturation point;
  sat_below_knee   saturated branch when the saturation point is negative.

Every index of every block runs through one truncating sum, `_converge`: it
stops after `_CONSECUTIVE` terms in a row fall below REL_TOL of the largest
term so far, and a Taylor index k2 that reaches `_K2_CAP` marks the result
truncated.  All sums run in signed log space; cancellation is monitored
against the largest term so a noisy series is reported instead of silently
returned.
"""

import math
import warnings

import numpy as np
from scipy.special import gammaln

from ..errors import NumericError
from ..channel import shadowed_rician_power_tail
from ..specfun import (CgqRule, cgq_points, log_delta_gamma, log_gamma_upper,
                       logsumexp_signed, meijer_g_log)
from ..swipt import IM_IC
from .coefficients import REL_TOL, build_case

_ROUTE_SWITCH = 25.0        # Taylor parameter above which the unsaturated branch switches route
_SERIES_BLOWUP = 250.0      # cap for the Bessel-tamed unsaturated series
_SERIES_BLOWUP_EXP = 28.0   # cap for plain alternating-exponential expansions
_CONSECUTIVE = 3            # how many small terms in a row stop a sum
_K2_CAP = 200               # last Taylor index over the exponential expansions


class _Work:
    """Per-evaluation caches and diagnostics."""

    def __init__(self, case, cgq_n):
        self.case = case
        co = case.coeff
        self.beta_bar = case.sr.beta_bar
        # (k, log zeta_k) over the positive coefficients of the satellite-fading series
        self.sr_terms = [(k, math.log(z)) for k, z in enumerate(case.sr.zeta()) if z > 0]
        self.w_nodes, self.w_wts = cgq_points(case.w_min_m, case.w_max_m, CgqRule(cgq_n))
        self.log_w = np.log(self.w_nodes)
        self.log_wts = np.log(self.w_wts)
        # exponent of the satellite-fading factor e^(-bb b w^2 / a) on the CGQ nodes
        self.sat_decay = self.beta_bar * co.b_lin * self.w_nodes ** 2 / co.a_lin
        # destination pieces grouped by q; one row per (piece, end) in the order
        # hi, lo: y, log y, orientation * sign(coeff), log(|coeff| / nu)
        by_q = {}
        for lo, hi, coeff, q in case.dest_pieces:
            for y, orient in ((hi, 1.0), (lo, -1.0)):
                by_q.setdefault(q, []).append(
                    (y, math.log(y), orient * np.sign(coeff), math.log(abs(coeff) / case.nu)))
        self.dest_groups = [(q, *(np.array(col) for col in zip(*rows)))
                            for q, rows in by_q.items()]
        self.gamma_cache = {}
        self.g2123_cache = {}
        self.g2113_cache = {}
        self.diagnostics = {"truncated": False, "routes": []}

    def k2_sum(self, acc, term):
        """_converge over the Taylor index k2 <= _K2_CAP; reaching the cap marks truncation."""
        peak, exhausted = _converge(acc, range(_K2_CAP + 1), term)
        if exhausted:
            self.diagnostics["truncated"] = True
        return peak

    # -- CGQ kernels --------------------------------------------------------

    def _cgq_w(self, w_pow, log_f, sign_f):
        """(sign, log) of int w^w_pow e^(-bb b w^2/a) f(w) dw on the CGQ nodes."""
        expo = self.log_wts + w_pow * self.log_w - self.sat_decay + log_f
        return logsumexp_signed(expo, sign_f)

    def cgq_gamma(self, s, w_pow):
        """(sign, log) of int w^w_pow e^(-bb b w^2/a) Gamma(s, bb w^2 p_sat/a) dw."""
        vals = self.gamma_cache.get(s)
        if vals is None:
            co = self.case.coeff
            xs = self.beta_bar * self.w_nodes ** 2 * co.p_sat / co.a_lin
            vals = self.gamma_cache[s] = np.array([log_gamma_upper(s, x) for x in xs])
        return self._cgq_w(w_pow, vals, np.ones_like(vals))

    def g2123_pieces(self, n, s1):
        """(sign, log) of the destination bracket of the Taylor-route series."""
        key = (n, s1)
        hit = self.g2123_cache.get(key)
        if hit is not None:
            return hit
        nu = self.case.nu
        omega = self.case.dest_c / self.case.coeff.p_sat
        signs, logs = [], []
        for q, ys, log_ys, orient, log_coef in self.dest_groups:
            e = (q + 1.0) / nu
            params = (1.0 - n - e, s1 + 1.0, s1, 0.0, -n - e)
            gs, gl = meijer_g_log("G2123", params, omega * ys ** nu)
            signs.append(orient * gs)
            logs.append(log_coef + (nu * n + q + 1.0) * log_ys + gl)
        out = logsumexp_signed(np.concatenate(logs), np.concatenate(signs))
        self.g2123_cache[key] = out
        return out

    def cgq_g2113(self, s2, s3, w_pow, cst):
        """(sign, log) of the CGQ integral whose integrand carries the
        destination bracket of G2113 terms with argument cst * y^nu * w^2."""
        nu = self.case.nu
        key = (round(s2 * 2), round(s3 * 2))
        hit = self.g2113_cache.get(key)
        if hit is None:
            signs, logs = [], []
            for q, ys, log_ys, orient, log_coef in self.dest_groups:
                e = (q + 1.0) / nu
                params = (1.0 - s2 - e, s3, -s3, -s2 - e)
                xs = (cst * ys[:, None] ** nu * self.w_nodes[None, :] ** 2).ravel()
                gs, gl = meijer_g_log("G2113", params, xs)
                shape = (len(ys), len(self.w_nodes))
                signs.append(orient[:, None] * gs.reshape(shape))
                logs.append((log_coef + (nu * s2 + q + 1.0) * log_ys)[:, None]
                            + gl.reshape(shape))
            logs = np.concatenate(logs)          # (pieces*2, n_nodes)
            signs = np.concatenate(signs)
            m = logs.max(axis=0)
            vals = np.sum(signs * np.exp(logs - m[None, :]), axis=0)
            with np.errstate(divide="ignore"):
                hit = (np.sign(vals), m + np.log(np.abs(vals)))
            self.g2113_cache[key] = hit
        bracket_sign, bracket_log = hit
        return self._cgq_w(w_pow, bracket_log, bracket_sign)

    # -- destination helpers --------------------------------------------------

    def pieces_moment(self, r):
        """(sign, log) of sum over pieces of coeff (hi^p - lo^p)/p, p = nu r + q + 1."""
        case = self.case
        logs, signs = [], []
        for lo, hi, coeff, q in case.dest_pieces:
            p = case.nu * r + q + 1.0
            val = (hi ** p - lo ** p) / p
            logs.append(math.log(abs(coeff) * abs(val)) if val != 0 else -np.inf)
            signs.append(np.sign(coeff) * np.sign(val))
        return logsumexp_signed(np.array(logs), np.array(signs))

    def pieces_dgamma(self, order, c_eff):
        """(sign, log) of sum over pieces of (coeff/nu) c_eff^(-(q+1)/nu)
        DeltaGamma(order + (q+1)/nu, c_eff lo^nu, c_eff hi^nu)."""
        case = self.case
        nu = case.nu
        logs, signs = [], []
        for lo, hi, coeff, q in case.dest_pieces:
            e = (q + 1.0) / nu
            dg_s, dg_l = log_delta_gamma(order + e, c_eff * lo ** nu, c_eff * hi ** nu)
            logs.append(math.log(abs(coeff) / nu) - e * math.log(c_eff) + dg_l)
            signs.append(np.sign(coeff) * dg_s)
        return logsumexp_signed(np.array(logs), np.array(signs))


class _SignedSum:
    """Signed log-domain accumulator that tracks the cancellation peak."""

    def __init__(self):
        self.logs = []
        self.signs = []
        self.peak = -np.inf

    def add(self, sign, log):
        if sign == 0.0 or log == -np.inf:
            return
        self.logs.append(log)
        self.signs.append(sign)
        self.peak = max(self.peak, log)

    def value(self):
        if not self.logs:
            return 0.0
        sgn, lg = logsumexp_signed(np.array(self.logs), np.array(self.signs))
        return sgn * math.exp(lg) if lg > -700 else 0.0

    def noise_estimate(self):
        if not self.logs:
            return 0.0
        return len(self.logs) * 1e-15 * math.exp(min(self.peak, 700.0))


def _log_binom(n, k):
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


_STOP = object()    # returned by a term to end its sum at once


def _converge(acc, indices, term):
    """The truncating sum every series index runs through.

    term(i) adds to acc and returns the log size of what it added, None to
    skip i without counting it, or _STOP to end the sum.  A term is small
    when its log lies below acc.peak + log(REL_TOL), read after the add; the
    sum stops after _CONSECUTIVE small terms in a row.  Returns (peak,
    exhausted): the largest log any term returned (-inf for none) and whether
    the indices ran out first.
    """
    peak = -np.inf
    small = 0
    for i in indices:
        lt = term(i)
        if lt is None:
            continue
        if lt is _STOP:
            return peak, False
        peak = max(peak, lt)
        if lt < acc.peak + math.log(REL_TOL):
            small += 1
            if small >= _CONSECUTIVE:
                return peak, False
        else:
            small = 0
    return peak, True


# ---------------------------------------------------------------------------
# the four series blocks
# ---------------------------------------------------------------------------

def _unsat_taylor(work):
    """Unsaturated branch as a Taylor series in the satellite exponential."""
    case = work.case
    co = case.coeff
    a, b, bb = co.a_lin, co.b_lin, work.beta_bar
    logw_n = case.dest_logw
    log_c = math.log(case.dest_c)
    acc = _SignedSum()
    base = math.log(case.sr.alpha * a / 2.0) - math.log(case.w_norm_m2)
    for k, log_zeta in work.sr_terms:
        for k1 in range(k + 1):
            lb = _log_binom(k, k1)

            def k2_term(k2):
                dg_s, dg_l = log_delta_gamma(k + k2 + 2.0,
                                             bb * b * case.w_min_m ** 2 / a,
                                             bb * b * case.w_max_m ** 2 / a)
                pref = (base + log_zeta + lb
                        - (k1 + k2 + 2.0) * math.log(b)
                        - (k + 2.0) * math.log(bb)
                        - float(gammaln(k2 + 1.0)) + dg_l)
                sign_k2 = (-1.0) ** k2 * dg_s

                def n_term(n):
                    s1 = 1 + k1 + k2 - n
                    g_s, g_l = work.g2123_pieces(n, s1)
                    if g_s == 0.0:
                        return None
                    lt = (pref + logw_n[n] + n * log_c
                          + s1 * math.log(co.p_sat) + g_l)
                    acc.add(sign_k2 * g_s, lt)
                    return lt

                return _converge(acc, range(len(logw_n)), n_term)[0]

            work.k2_sum(acc, k2_term)
    return acc


def _unsat_linear(work):
    """No-saturation probability (finite Bessel-K route, no Taylor index)."""
    case = work.case
    co = case.coeff
    a, b, bb = co.a_lin, co.b_lin, work.beta_bar
    logw_n = case.dest_logw
    c = case.dest_c
    cst = bb * c / a
    acc = _SignedSum()
    base = math.log(case.sr.alpha) - math.log(case.w_norm_m2)
    for k, log_zeta in work.sr_terms:
        for k1 in range(k + 1):
            lb = _log_binom(k, k1)

            def n_term(n):
                s3 = (k1 - n + 1) / 2.0
                s2p = (n + k1 + 1) / 2.0
                w_pow = 2 * k + n - k1 + 2
                i_s, i_l = work.cgq_g2113(s2p, s3, w_pow, cst)
                if i_s == 0.0:
                    return None
                lt = (base + log_zeta + lb + logw_n[n]
                      + (k - k1) * math.log(b)
                      + (n + s3) * math.log(c)
                      - s3 * math.log(bb)
                      + (-(k + 1) + s3) * math.log(a) + i_l)
                acc.add(i_s, lt)
                return lt

            _converge(acc, range(len(logw_n)), n_term)
    return acc


def _unsat_overshoot(work):
    """Unsaturated-branch integrand carried past the saturation point."""
    case = work.case
    co = case.coeff
    a, b, bb = co.a_lin, co.b_lin, work.beta_bar
    logw_n = case.dest_logw
    c = case.dest_c
    acc = _SignedSum()
    base = math.log(case.sr.alpha) - math.log(case.w_norm_m2)
    for k, log_zeta in work.sr_terms:
        for k1 in range(k + 1):
            lb = _log_binom(k, k1)

            def n_term(n):
                def k2_term(k2):
                    s = k1 - n - k2 + 1
                    m_s, m_l = work.pieces_moment(n + k2)
                    if m_s == 0.0:
                        return _STOP
                    g_s, g_l = work.cgq_gamma(s, 2 * k + 3 - 2 * s)
                    lt = (base + log_zeta + lb + logw_n[n]
                          + (k - k1) * math.log(b)
                          - (k + 1.0) * math.log(a)
                          + s * (math.log(a) - math.log(bb))
                          - float(gammaln(k2 + 1.0))
                          + (n + k2) * math.log(c) + m_l + g_l)
                    acc.add((-1.0) ** k2 * m_s * g_s, lt)
                    return lt

                return work.k2_sum(acc, k2_term)

            _converge(acc, range(len(logw_n)), n_term)
    return acc


def _sat_above_knee(work):
    """Saturated branch above a positive saturation point."""
    case = work.case
    co = case.coeff
    a, b, bb = co.a_lin, co.b_lin, work.beta_bar
    logw_n = case.dest_logw
    c_eff = case.dest_c * co.eta_s / (co.p_th * a)
    acc = _SignedSum()
    base = math.log(case.sr.alpha) - math.log(case.w_norm_m2)
    for k, log_zeta in work.sr_terms:

        def n_term(n):
            def k1_sum(k1):
                lb = _log_binom(k + n, k1)

                def k2_term(k2):
                    s = k1 - n - k2 + 1
                    d_s, d_l = work.pieces_dgamma(n + k2, c_eff)
                    if d_s == 0.0:
                        return _STOP
                    g_s, g_l = work.cgq_gamma(s, 2 * k + 3 - 2 * s)
                    lt = (base + log_zeta + logw_n[n] + lb
                          + (k + n - k1 + k2) * math.log(b)
                          - (k + 1.0) * math.log(a)
                          + s * (math.log(a) - math.log(bb))
                          - float(gammaln(k2 + 1.0)) + d_l + g_l)
                    acc.add((-1.0) ** k2 * d_s * g_s, lt)
                    return lt

                return work.k2_sum(acc, k2_term)

            return max(k1_sum(k1) for k1 in range(k + n + 1))

        _converge(acc, range(len(logw_n)), n_term)
    return acc


def _sat_below_knee(work):
    """Saturated branch when the saturation point is at or below zero."""
    case = work.case
    co = case.coeff
    a, b, bb = co.a_lin, co.b_lin, work.beta_bar
    logw_n = case.dest_logw
    c_eff = case.dest_c * co.eta_s / (co.p_th * a)
    if c_eff * case.dest_hi ** case.nu > _SERIES_BLOWUP_EXP:
        raise NumericError("saturated-branch series parameter too large "
                           "(use the integral path for this configuration)",
                           {"param": c_eff * case.dest_hi ** case.nu})
    cst = bb * c_eff * b / a
    acc = _SignedSum()
    base = math.log(case.sr.alpha) - math.log(case.w_norm_m2)
    for k, log_zeta in work.sr_terms:

        def n_term(n):
            def k1_sum(k1):
                lb = _log_binom(k + n, k1)
                s3 = (k1 - n + 1) / 2.0

                def k2_term(k2):
                    s2 = n + k2 + s3
                    w_pow = 2 * k + n - k1 + 2
                    i_s, i_l = work.cgq_g2113(s2, s3, w_pow, cst)
                    if i_s == 0.0:
                        return None
                    lt = (base + log_zeta + logw_n[n] + lb
                          + (k + n - k1 + s3) * math.log(b)
                          + (-(k + 1) + s3) * math.log(a)
                          - s3 * math.log(bb)
                          + (n + k2 + s3) * math.log(c_eff)
                          - float(gammaln(k2 + 1.0)) + i_l)
                    acc.add((-1.0) ** k2 * i_s, lt)
                    return lt

                return work.k2_sum(acc, k2_term)

            return max(k1_sum(k1) for k1 in range(k + n + 1))

        _converge(acc, range(len(logw_n)), n_term)
    return acc


# ---------------------------------------------------------------------------
# branch assembly
# ---------------------------------------------------------------------------

def _sat_bound(case):
    """Rigorous upper bound on any saturated-branch probability."""
    co = case.coeff
    if math.isinf(co.p_th):
        return 0.0
    x_min = (max(co.p_sat, 0.0) + co.b_lin) * case.w_min_m ** 2 / co.a_lin
    return float(shadowed_rician_power_tail(x_min, case.sr))


def _closed_outage(case, cgq_n):
    if case.gamma <= 0.0:
        return 0.0
    if not case.feasible:
        return 1.0
    work = _Work(case, cgq_n)
    co = case.coeff
    p1 = 0.0
    p2 = 0.0
    noise = 0.0
    if co.p_sat > 0.0:
        if math.isinf(co.p_sat):
            acc = _unsat_linear(work)
            work.diagnostics["routes"].append("linear")
            p1 = acc.value()
            noise += acc.noise_estimate()
        else:
            param_direct = case.sr.beta_bar * case.w_max_m ** 2 * co.p_sat / co.a_lin
            param_tail = case.dest_c * case.dest_hi ** case.nu / co.p_sat
            if param_direct <= _ROUTE_SWITCH or param_direct <= param_tail:
                if param_direct > _SERIES_BLOWUP:
                    raise NumericError("unsaturated-branch series parameter too large",
                                       {"param": param_direct})
                acc = _unsat_taylor(work)
                work.diagnostics["routes"].append("direct")
                p1 = acc.value()
                noise += acc.noise_estimate()
            else:
                if param_tail > _SERIES_BLOWUP_EXP:
                    raise NumericError("saturation-tail series parameter too large",
                                       {"param": param_tail})
                acc_l = _unsat_linear(work)
                acc_t = _unsat_overshoot(work)
                work.diagnostics["routes"].append("linear-minus-tail")
                p1 = acc_l.value() - acc_t.value()
                noise += acc_l.noise_estimate() + acc_t.noise_estimate()
        if not math.isinf(co.p_th) and _sat_bound(case) > 1e-18:
            acc2 = _sat_above_knee(work)
            p2 = acc2.value()
            noise += acc2.noise_estimate()
    else:
        acc3 = _sat_below_knee(work)
        work.diagnostics["routes"].append("sat-below-knee")
        p2 = acc3.value()
        noise += acc3.noise_estimate()
    if noise > 1e-5:
        raise NumericError("closed-form series lost too much precision",
                           {"noise": noise, "p1": p1, "p2": p2,
                            "routes": work.diagnostics["routes"]})
    val = 1.0 - p1 - p2
    clamped = min(max(val, 0.0), 1.0)
    if abs(clamped - val) > 1e-6:
        warnings.warn(f"closed-form outage clamped by {abs(clamped - val):.3e}; "
                      "series may be struggling", stacklevel=3)
    return float(clamped)


def op_s2g_closed(gamma_s, cfg):
    """Satellite-to-ground outage probability by the closed-form series."""
    return _closed_outage(build_case(cfg, "s2g", IM_IC, gamma_s), cfg.cgq_n)


def op_a2a_closed(gamma_a, cfg, ic_mode=IM_IC):
    """Air-to-air outage probability by the closed-form series (im-IC or p-IC)."""
    return _closed_outage(build_case(cfg, "a2a", ic_mode, gamma_a), cfg.cgq_n)
