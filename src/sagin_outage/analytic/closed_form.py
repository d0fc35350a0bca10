"""Closed-form outage series with the residual distance integrals by CGQ.

Both networks share one algebraic skeleton; the destination link enters only
through the collapsed tail series (weights w_n, scale c) and the monomial
pieces of its distance measure.  Five series blocks cover every regime:

  unsat_taylor     unsaturated branch, Taylor series in the satellite
                   exponential (usable while beta_bar w_max^2 p_sat / a stays
                   moderate);
  unsat_linear minus unsat_overshoot
                   the same probability written as the no-saturation value
                   minus the overshoot beyond the saturation point (usable
                   everywhere the Taylor parameter is large);
  sat_above_knee   saturated branch above a positive saturation point;
  sat_below_knee   saturated branch when the saturation point is negative.

When the preferred unsaturated route raises NumericError, the other one is
evaluated on the same memo if its series parameter is within its bound.

Every constant comes from the `OutageCase` of `build_case`: (a, b), p_sat,
and the saturated branch's scale sat_scale and bound point sat_x_min, where
the satellite-fading tail bounds that branch's mass.

All blocks but unsat_taylor run in one loop nest, `_series`, which adds the
factors they share; each supplies a term function built by `_g2113_terms`
(CGQ integrals of a G2113 destination bracket) or `_gamma_terms` (CGQ
integrals of Gamma(s, .) at the saturation point times a destination
factor).  unsat_taylor keeps its own k -> k1 -> k2 -> n nest of G2123
brackets: with n outermost, n would truncate on the largest term over
every (k1, k2) instead of on each k2 term's own n sum.

The destination distance measure enters through the ends of its pieces:
`_Work.end_sum` is the one signed sum over them, used by the G2123 and G2113
brackets and by the moments of unsat_overshoot, all in log space so no power
of an end overflows.  Only `pieces_dgamma` runs per piece, since its
incomplete-gamma difference needs both limits of a piece at once.

Every truncating index runs through `_converge`: it stops after
`_CONSECUTIVE` terms in a row fall below REL_TOL of the largest term so far;
a Taylor index k2 that reaches `_K2_CAP` marks the result truncated
(`_k2_sum`).  All sums run in signed log space; cancellation is monitored
against the largest term so a noisy series is reported instead of silently
returned.
"""

import math

import numpy as np
from scipy.special import gammaln

from ..errors import NumericError
from ..channel import shadowed_rician_power_tail
from ..specfun import (cgq_points, log_delta_gamma, log_gamma_upper, logsumexp_signed,
                       meijer_g_log)
from ..swipt import IM_IC
from .coefficients import REL_TOL, build_case

_ROUTE_SWITCH = 25.0        # Taylor parameter above which the unsaturated branch switches route
_SERIES_BLOWUP = 250.0      # cap for the Bessel-tamed unsaturated series
_SERIES_BLOWUP_EXP = 28.0   # cap for plain alternating-exponential expansions
_CONSECUTIVE = 3            # how many small terms in a row stop a sum
_K2_CAP = 200               # last Taylor index over the exponential expansions


def _memo(build):
    """Method decorator: one build per argument tuple, kept in the instance's memo."""
    def cached(self, *args):
        key = (build, *args)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = build(self, *args)
        return hit
    return cached


class _Work:
    """Per-evaluation memo, CGQ nodes and diagnostics."""

    def __init__(self, case, cgq_n):
        self.case = case
        self.beta_bar = case.sr.beta_bar
        # destination scale of the saturated branch; 0 for linear EH, which has none
        self.c_eff = case.dest_c * case.sat_scale
        # (k, log zeta_k) over the positive coefficients of the satellite-fading series
        self.sr_terms = [(k, math.log(z)) for k, z in enumerate(case.sr.zeta()) if z > 0]
        self.w_nodes, self.w_wts = cgq_points(case.w_min_m, case.w_max_m, cgq_n)
        self.log_w = np.log(self.w_nodes)
        self.log_wts = np.log(self.w_wts)
        # exponent of the satellite-fading factor e^(-bb b w^2 / a) on the CGQ nodes
        self.sat_decay = self.beta_bar * case.b_lin * self.w_nodes ** 2 / case.a_lin
        # destination pieces grouped by q; one row per (piece, end) in the order
        # hi, lo: y, log(y / y_max), orientation * sign(coeff), log(|coeff| / nu)
        # + q log y_max, with y_max = dest_hi.  Powers of y are taken relative to
        # y_max: the rounding of p log y then does not grow with p log y_max
        self.log_y_max = math.log(case.dest_hi)
        by_q = {}
        for lo, hi, coeff, q in case.dest_pieces:
            for y, orient in ((hi, 1.0), (lo, -1.0)):
                by_q.setdefault(q, []).append(
                    (y, math.log(y / case.dest_hi), orient * np.sign(coeff),
                     math.log(abs(coeff) / case.nu) + q * self.log_y_max))
        self.dest_groups = [(q, *(np.array(col) for col in zip(*rows)))
                            for q, rows in by_q.items()]
        self.memo = {}
        self.diagnostics = {"truncated": False, "routes": []}

    def cgq(self, w_pow, f):
        """(sign, log) of int w^w_pow e^(-bb b w^2/a) f(w) dw, f given as
        (sign, log) on the CGQ nodes."""
        sign_f, log_f = f
        expo = self.log_wts + w_pow * self.log_w - self.sat_decay + log_f
        return logsumexp_signed(expo, sign_f)

    @_memo
    def gamma_nodes(self, s):
        """(sign, log) of Gamma(s, bb w^2 p_sat/a) on the CGQ nodes."""
        case = self.case
        xs = self.beta_bar * self.w_nodes ** 2 * case.p_sat / case.a_lin
        logs = np.array([log_gamma_upper(s, x) for x in xs])
        return np.ones_like(logs), logs

    def end_sum(self, m, f):
        """(sign, log) arrays of the signed sum over piece ends y of
        orientation (coeff/nu) y^(nu m + q + 1) F(e, y), e = (q + 1)/nu, with
        f(e, ys) returning F as (sign, log) arrays of shape (len(ys), columns)
        or broadcast to it; one sum per column."""
        nu = self.case.nu
        signs, logs = [], []
        for q, ys, log_rel, orient, log_coef in self.dest_groups:
            fs, fl = f((q + 1.0) / nu, ys)
            signs.append(orient[:, None] * fs)
            logs.append((log_coef + (nu * m + q + 1.0) * log_rel)[:, None] + fl)
        logs = np.concatenate(logs)          # (pieces*2, columns)
        signs = np.concatenate(signs)
        top = logs.max(axis=0)
        vals = np.sum(signs * np.exp(logs - top[None, :]), axis=0)
        with np.errstate(divide="ignore"):
            return np.sign(vals), top + np.log(np.abs(vals)) + (nu * m + 1.0) * self.log_y_max

    def _bracket(self, instance, m, params, scale, cols):
        """end_sum with F = G(params(e) | scale y^nu col), for each col in cols."""
        def meijer(e, ys):
            xs = scale * ys[:, None] ** self.case.nu * cols[None, :]
            gs, gl = meijer_g_log(instance, params(e), xs.ravel())
            return gs.reshape(xs.shape), gl.reshape(xs.shape)

        return self.end_sum(m, meijer)

    @_memo
    def g2123_pieces(self, n, s1):
        """(sign, log) of the destination bracket of the Taylor-route series."""
        omega = self.case.dest_c / self.case.p_sat
        sign, log = self._bracket("G2123", n, lambda e: (1.0 - n - e, s1 + 1.0, s1, 0.0, -n - e),
                                  omega, np.ones(1))
        return float(sign[0]), float(log[0])

    @_memo
    def g2113_nodes(self, s2, s3, cst):
        """(sign, log) on the CGQ nodes of the G2113 destination bracket at
        argument cst y^nu w^2."""
        return self._bracket("G2113", s2, lambda e: (1.0 - s2 - e, s3, -s3, -s2 - e),
                             cst, self.w_nodes ** 2)

    @_memo
    def pieces_moment(self, r):
        """(sign, log) of sum over pieces of coeff (hi^p - lo^p)/p, p = nu r + q + 1:
        end_sum with F = nu/p = 1/(r + e), in log space, where no power overflows."""
        sign, log = self.end_sum(r, lambda e, ys: (1.0, np.full((1, 1), -math.log(r + e))))
        return float(sign[0]), float(log[0])

    @_memo
    def pieces_dgamma(self, order):
        """(sign, log) of sum over pieces of (coeff/nu) c_eff^(-(q+1)/nu)
        DeltaGamma(order + (q+1)/nu, c_eff lo^nu, c_eff hi^nu).

        Not an end_sum: log_delta_gamma takes both limits of a piece together,
        which keeps the difference of two nearly equal Gamma values accurate."""
        case = self.case
        nu, c_eff = case.nu, self.c_eff
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


def _k2_sum(acc, term, diagnostics):
    """_converge over the Taylor index k2 <= _K2_CAP; reaching the cap marks truncation."""
    peak, exhausted = _converge(acc, range(_K2_CAP + 1), term)
    if exhausted:
        diagnostics["truncated"] = True
    return peak


# ---------------------------------------------------------------------------
# the series blocks
# ---------------------------------------------------------------------------

def _series(work, top_n, term):
    """The n -> k1 -> k2 nest, for every k, of all blocks but unsat_taylor.

    n runs through _converge over the destination weights, k1 over all of
    0..k + top_n n, and k2 through _k2_sum.  The nest adds the factors every
    block shares, log(alpha / w_norm) + log zeta_k + log C(k + top_n n, k1)
    + log w_n - log k2!, and the sign (-1)^k2; term(k, n, k1, k2) returns the
    rest as (sign, log), None to skip the index, or _STOP to end the k2 sum.
    """
    logw_n = work.case.dest_logw
    acc = _SignedSum()
    base = math.log(work.case.sr.alpha) - math.log(work.case.w_norm_m2)
    for k, log_zeta in work.sr_terms:

        def n_term(n):
            def k1_sum(k1):
                pref = base + log_zeta + _log_binom(k + top_n * n, k1) + logw_n[n]

                def k2_term(k2):
                    got = term(k, n, k1, k2)
                    if got is None or got is _STOP:
                        return got
                    lt = pref + got[1] - float(gammaln(k2 + 1.0))
                    acc.add((-1.0) ** k2 * got[0], lt)
                    return lt

                return _k2_sum(acc, k2_term, work.diagnostics)

            return max(k1_sum(k1) for k1 in range(k + top_n * n + 1))

        _converge(acc, range(len(logw_n)), n_term)
    return acc


def _g2113_terms(work, c, taylor=None):
    """Terms of the G2113 blocks: the CGQ integral of the destination bracket
    with argument bb c y^nu w^2 / a, s3 = (k1 - n + 1)/2, s2 = n + k2 + s3.
    k2 runs only with a Taylor scale, which enters as taylor^k2."""
    case = work.case
    log_a, log_b, log_bb, log_c = (math.log(v) for v in (case.a_lin, case.b_lin, work.beta_bar, c))
    log_t = 0.0 if taylor is None else math.log(taylor)
    cst = work.beta_bar * c / case.a_lin

    def term(k, n, k1, k2):
        if k2 and taylor is None:
            return _STOP
        s3 = (k1 - n + 1) / 2.0
        i_s, i_l = work.cgq(2 * k + n - k1 + 2, work.g2113_nodes(n + k2 + s3, s3, cst))
        if i_s == 0.0:
            return None
        return i_s, ((k - k1) * log_b + (n + s3) * log_c - s3 * log_bb
                     + (s3 - k - 1.0) * log_a + k2 * log_t + i_l)

    return term


def _gamma_terms(work, dest, scale):
    """Terms of the saturation-point blocks: the CGQ integral of
    Gamma(s, bb w^2 p_sat / a), s = k1 - n - k2 + 1, times the destination
    factor dest(n + k2) scale^(n + k2); a zero factor ends the k2 sum."""
    case = work.case
    log_a, log_b, log_scale = math.log(case.a_lin), math.log(case.b_lin), math.log(scale)
    log_a_bb = log_a - math.log(work.beta_bar)

    def term(k, n, k1, k2):
        d_s, d_l = dest(n + k2)
        if d_s == 0.0:
            return _STOP
        s = k1 - n - k2 + 1
        g_s, g_l = work.cgq(2 * k + 3 - 2 * s, work.gamma_nodes(s))
        return d_s * g_s, ((k - k1) * log_b - (k + 1.0) * log_a + s * log_a_bb
                           + (n + k2) * log_scale + d_l + g_l)

    return term


def _unsat_taylor(work):
    """Unsaturated branch as a Taylor series in the satellite exponential."""
    case = work.case
    a, b, bb = case.a_lin, case.b_lin, work.beta_bar
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
                          + s1 * math.log(case.p_sat) + g_l)
                    acc.add(sign_k2 * g_s, lt)
                    return lt

                return _converge(acc, range(len(logw_n)), n_term)[0]

            _k2_sum(acc, k2_term, work.diagnostics)
    return acc


def _unsat_linear(work):
    """No-saturation probability (finite Bessel-K route, no Taylor index)."""
    return _series(work, 0, _g2113_terms(work, work.case.dest_c))


def _unsat_overshoot(work):
    """Unsaturated-branch integrand carried past the saturation point."""
    return _series(work, 0, _gamma_terms(work, work.pieces_moment, work.case.dest_c))


def _sat_above_knee(work):
    """Saturated branch above a positive saturation point."""
    return _series(work, 1, _gamma_terms(work, work.pieces_dgamma, work.case.b_lin))


def _sat_below_knee(work):
    """Saturated branch when the saturation point is at or below zero."""
    case = work.case
    param = work.c_eff * case.dest_hi ** case.nu
    if param > _SERIES_BLOWUP_EXP:
        raise NumericError("saturated-branch series parameter too large "
                           "(use the integral path for this configuration)",
                           {"param": param})
    return _series(work, 1, _g2113_terms(work, work.c_eff * case.b_lin, work.c_eff))


# ---------------------------------------------------------------------------
# branch assembly
# ---------------------------------------------------------------------------

def _blocks(case):
    """Routes in preference order, each a list of (route, sign, block) whose signed
    sum is the success probability.  An unsaturated route is listed only when its
    series parameter is within its bound; NumericError is raised when neither is."""
    if case.p_sat <= 0.0:
        return [[("sat-below-knee", 1.0, _sat_below_knee)]]
    if math.isinf(case.p_sat):
        routes = [[("linear", 1.0, _unsat_linear)]]
    else:
        param_direct = case.sr.beta_bar * case.w_max_m ** 2 * case.p_sat / case.a_lin
        param_tail = case.dest_c * case.dest_hi ** case.nu / case.p_sat
        routes = []
        if param_direct <= _SERIES_BLOWUP:
            routes.append([("direct", 1.0, _unsat_taylor)])
        if param_tail <= _SERIES_BLOWUP_EXP:
            routes.append([("linear", 1.0, _unsat_linear), ("tail", -1.0, _unsat_overshoot)])
        if param_direct > _ROUTE_SWITCH and param_direct > param_tail:
            routes.reverse()        # the tail route is preferred
        if not routes:
            raise NumericError("unsaturated-branch series parameters too large",
                               {"direct": param_direct, "tail": param_tail})
    if shadowed_rician_power_tail(case.sat_x_min, case.sr) > 1e-18:
        routes = [r + [("sat-above-knee", 1.0, _sat_above_knee)] for r in routes]
    return routes


def _route_outage(work, blocks):
    val, noise = 1.0, 0.0
    for route, sign, block in blocks:
        acc = block(work)
        work.diagnostics["routes"].append(route)
        val -= sign * acc.value()
        noise += acc.noise_estimate()
    if noise > 1e-5:
        raise NumericError("closed-form series lost too much precision",
                           {"noise": noise, "outage": val,
                            "routes": work.diagnostics["routes"]})
    clamped = min(max(val, 0.0), 1.0)
    if abs(clamped - val) > 1e-6:
        raise NumericError(f"closed-form outage outside [0, 1] by {abs(clamped - val):.3e}",
                           {"outage": val, "routes": work.diagnostics["routes"]})
    return float(clamped)


def _closed_outage(case, cgq_n):
    """Outage by the first route that succeeds; else the first route's NumericError."""
    if case.gamma <= 0.0:
        return 0.0
    if not case.feasible:
        return 1.0
    routes = _blocks(case)
    work = _Work(case, cgq_n)
    first = None
    for blocks in routes:
        try:
            return _route_outage(work, blocks)
        except NumericError as exc:
            first = first or exc
    raise first


def op_s2g_closed(gamma_s, cfg):
    """Satellite-to-ground outage probability by the closed-form series."""
    return _closed_outage(build_case(cfg, "s2g", IM_IC, gamma_s), cfg.cgq_n)


def op_a2a_closed(gamma_a, cfg, ic_mode=IM_IC):
    """Air-to-air outage probability by the closed-form series (im-IC or p-IC)."""
    return _closed_outage(build_case(cfg, "a2a", ic_mode, gamma_a), cfg.cgq_n)
