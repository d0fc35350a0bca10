"""Closed-form outage series with the residual distance integrals by CGQ.

Both networks share one algebraic skeleton; the destination link enters only
through the collapsed tail series (weights w_n, scale c) and the monomial
pieces of its distance measure.  Five series blocks cover every regime, each
a row of the route table `_blocks`:

  direct           unsaturated branch, Taylor series in the satellite
                   exponential (usable while beta_bar w_max^2 p_sat / a stays
                   moderate);
  linear minus tail
                   the same probability written as the no-saturation value
                   minus the overshoot beyond the saturation point (usable
                   everywhere the Taylor parameter is large);
  sat-above-knee   saturated branch above a positive saturation point;
  sat-below-knee   saturated branch when the saturation point is negative.

Both unsaturated routes are listed whenever the saturation point is finite
and positive; `_closed_outage` runs the routes in order and, when one raises
NumericError, evaluates the next on the same memo.  Every constant comes from
the `OutageCase` of `build_case`.

Every block is one call of the loop nest `_series`, which adds the factors
the blocks share, over its row's k2 extent (0 for `linear`, which has no Taylor
index, else `_K2_CAP`) and with a term function of its own that returns (sign,
log), a zero as (0, -inf): `_taylor_terms` takes an incomplete-gamma difference
times a G2123 destination bracket, `_g2113_terms` integrate a G2113 bracket by
CGQ and `_gamma_terms` Gamma(s, .) at the saturation point times a destination
factor.  `_Work.end_sum` is the one signed sum over the ends of the destination
pieces, each distinct end once and in log space so no power of an end
overflows; `_piece_dgammas` takes both limits of a piece at once, so its
incomplete-gamma differences do not cancel to rounding noise.

Every truncating index runs through `_converge`: it stops after
`_CONSECUTIVE` terms in a row fall below REL_TOL of the largest term so far;
all sums run in signed log space.  `_series` raises NumericError, and so ends
its route at once, when a Taylor index k2 reaches `_K2_CAP` or the route's
noise estimate passes 1e-5; no series parameter is bounded.
"""

import math

import numpy as np
from scipy.special import gammaln

from ..errors import ConfigError, NumericError
from ..specfun import (cgq_points, log_delta_gamma, log_gamma_upper, logsumexp_signed,
                       meijer_g_log)
from ..swipt import IM_IC
from .coefficients import REL_TOL, build_case, checked_outage, settled_outage

_ROUTE_SWITCH = 25.0        # Taylor parameter above which the unsaturated branch switches route
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
    """Per-evaluation memo, Bessel-K seeds of the G2113 ladder and CGQ nodes."""

    def __init__(self, case, cgq_n):
        self.case = case
        self.beta_bar = case.sr.beta_bar
        # destination scale of the saturated branch; 0 for linear EH, which has none
        self.c_eff = case.dest_c * case.sat_scale
        # (k, log zeta_k) over the positive coefficients of the satellite-fading series
        self.sr_terms = [(k, math.log(z)) for k, z in enumerate(case.sr.zeta()) if z > 0]
        # the CGQ rule is the midpoint rule in theta, w = cos(theta) mapped to
        # [w_min, w_max]; its leading Euler-Maclaurin error, -(w_max - w_min)
        # pi^2 / (48 n^2) (h(w_max) + h(w_min)), enters as two endpoint nodes
        nodes, wts = cgq_points(case.w_min_m, case.w_max_m, cgq_n)
        end_wt = -(case.w_max_m - case.w_min_m) * math.pi ** 2 / (48.0 * cgq_n ** 2)
        self.w_nodes = np.append(nodes, [case.w_max_m, case.w_min_m])
        wts = np.append(wts, [end_wt, end_wt])
        self.wt_sign = np.sign(wts)
        self.log_w = np.log(self.w_nodes)
        self.log_wts = np.log(np.abs(wts))
        # exponent of the satellite-fading factor e^(-bb b w^2 / a) on the CGQ nodes
        self.sat_decay = self.beta_bar * case.b_lin * self.w_nodes ** 2 / case.a_lin
        # destination pieces grouped by q, one row per distinct end y: pieces of
        # one q that meet at y share its row, with the net coefficient
        # sum(orientation * coeff), orientation +1 at hi and -1 at lo.  An end
        # whose net is exactly 0 is dropped, and so is a group left with no end.
        # A row holds y, log(y / y_max), sign(net), log(|net| / nu) + q log y_max,
        # with y_max = dest_hi.  Powers of y are taken relative to y_max: the
        # rounding of p log y then does not grow with p log y_max
        self.log_y_max = math.log(case.dest_hi)
        by_q = {}
        for lo, hi, coeff, q in case.dest_pieces:
            ends = by_q.setdefault(q, {})
            for y, orient in ((hi, 1.0), (lo, -1.0)):
                ends[y] = ends.get(y, 0.0) + orient * coeff
        self.dest_groups = []
        for q, ends in by_q.items():
            rows = [(y, math.log(y / case.dest_hi), np.sign(net),
                     math.log(abs(net) / case.nu) + q * self.log_y_max)
                    for y, net in ends.items() if net != 0.0]
            if rows:
                self.dest_groups.append((q, *(np.array(col) for col in zip(*rows))))
        self.memo = {}
        # Bessel-K seeds and ratios of meijer_g_log's G2113 ladder, one entry per
        # argument grid: the G2113 calls of a case share grids, and no grid
        # recurs in another case (cst moves with it)
        self.k_seeds = {}

    def cgq(self, w_pow, f):
        """(sign, log) of int w^w_pow e^(-bb b w^2/a) f(w) dw, f given as
        (sign, log) on the CGQ nodes."""
        sign_f, log_f = f
        expo = self.log_wts + w_pow * self.log_w - self.sat_decay + log_f
        return logsumexp_signed(expo, sign_f * self.wt_sign)

    @_memo
    def gamma_nodes(self, s):
        """(sign, log) of Gamma(s, bb w^2 p_sat/a) on the CGQ nodes."""
        xs = self.beta_bar * self.w_nodes ** 2 * self.case.p_sat / self.case.a_lin
        return np.ones(xs.shape), log_gamma_upper(s, xs)

    def end_sum(self, m, f):
        """(sign, log) arrays of the signed sum over the distinct piece ends y of
        (net/nu) y^(nu m + q + 1) F(e, y), e = (q + 1)/nu, net the end's signed
        coefficient (see dest_groups), with f(e, ys) returning F as (sign, log)
        arrays of shape (len(ys), columns) or broadcast to it; one sum per column."""
        nu = self.case.nu
        signs, logs = [], []
        for q, ys, log_rel, sign, log_coef in self.dest_groups:
            fs, fl = f((q + 1.0) / nu, ys)
            signs.append(sign[:, None] * fs)
            logs.append((log_coef + (nu * m + q + 1.0) * log_rel)[:, None] + fl)
        logs = np.concatenate(logs)          # (ends, columns)
        signs = np.concatenate(signs)
        top = logs.max(axis=0)
        vals = np.sum(signs * np.exp(logs - top[None, :]), axis=0)
        with np.errstate(divide="ignore"):
            return np.sign(vals), top + np.log(np.abs(vals)) + (nu * m + 1.0) * self.log_y_max

    @_memo
    def taylor_dgamma(self, order):
        """(sign, log) of DeltaGamma(order, bb b w_min^2/a, bb b w_max^2/a)."""
        case, bb = self.case, self.beta_bar
        return log_delta_gamma(order, bb * case.b_lin * case.w_min_m ** 2 / case.a_lin,
                               bb * case.b_lin * case.w_max_m ** 2 / case.a_lin)

    @_memo
    def g2123_pieces(self, n, s1):
        """(sign, log) of the Taylor route's destination bracket, the end_sum of
        G2123 at x = omega y^nu, omega = dest_c / p_sat, c = n + e, taken as its
        halves [x^s1 Gamma(-s1, x) + x^-c gamma(c, x)] / (c + s1).  The lower half
        runs per piece, (coeff/nu) omega^-c DeltaGamma(c, omega lo^nu, omega hi^nu)
        / (c + s1), since the power of y cancels in it."""
        omega = self.case.dest_c / self.case.p_sat

        def upper(e, ys):
            xs = omega * ys ** self.case.nu
            return 1.0, (s1 * np.log(xs) + log_gamma_upper(-s1, xs)
                         - math.log(n + e + s1))[:, None]

        up_s, up_l = self.end_sum(n, upper)
        es, signs, logs = self._piece_dgammas(n, omega)
        return logsumexp_signed(np.append(logs - n * math.log(omega) - np.log(n + es + s1), up_l),
                                np.append(signs, up_s))

    @_memo
    def g2113_nodes(self, s2, s3, cst):
        """(sign, log) on the CGQ nodes of the G2113 destination bracket at
        argument cst y^nu w^2: end_sum of G2113((1 - s2 - e, s3, -s3, -s2 - e) | .)."""
        def meijer(e, ys):
            xs = cst * ys[:, None] ** self.case.nu * (self.w_nodes ** 2)[None, :]
            gs, gl = meijer_g_log("G2113", (1.0 - s2 - e, s3, -s3, -s2 - e), xs.ravel(),
                                  tables=self.k_seeds)
            return gs.reshape(xs.shape), gl.reshape(xs.shape)

        return self.end_sum(s2, meijer)

    @_memo
    def pieces_moment(self, r):
        """(sign, log) of sum over pieces of coeff (hi^p - lo^p)/p, p = nu r + q + 1:
        end_sum with F = nu/p = 1/(r + e), in log space, where no power overflows."""
        sign, log = self.end_sum(r, lambda e, ys: (1.0, np.full((1, 1), -math.log(r + e))))
        return float(sign[0]), float(log[0])

    @_memo
    def _piece_dgammas(self, order, scale):
        """Per destination piece: arrays e = (q+1)/nu and (sign, log) of (coeff/nu)
        scale^-e DeltaGamma(order + e, scale lo^nu, scale hi^nu), the difference taken
        by log_delta_gamma from both limits at once, so it does not cancel."""
        nu = self.case.nu
        es, logs, signs = [], [], []
        for lo, hi, coeff, q in self.case.dest_pieces:
            e = (q + 1.0) / nu
            dg_s, dg_l = log_delta_gamma(order + e, scale * lo ** nu, scale * hi ** nu)
            es.append(e)
            logs.append(math.log(abs(coeff) / nu) - e * math.log(scale) + dg_l)
            signs.append(np.sign(coeff) * dg_s)
        return np.array(es), np.array(signs), np.array(logs)

    @_memo
    def pieces_dgamma(self, order):
        """(sign, log) of the sum over pieces of _piece_dgammas at scale c_eff."""
        _, signs, logs = self._piece_dgammas(order, self.c_eff)
        return logsumexp_signed(logs, signs)


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


def _converge(acc, indices, term):
    """The truncating sum every series index runs through.

    term(i) adds to acc and returns the log size of what it added.  A term is
    small when its log lies below acc.peak + log(REL_TOL), read after the add;
    the sum stops after _CONSECUTIVE small terms in a row.  Returns (peak,
    exhausted): the largest log any term returned (-inf for none) and whether
    the indices ran out first.
    """
    peak = -np.inf
    small = 0
    for i in indices:
        lt = term(i)
        peak = max(peak, lt)
        if lt < acc.peak + math.log(REL_TOL):
            small += 1
            if small >= _CONSECUTIVE:
                return peak, False
        else:
            small = 0
    return peak, True


# ---------------------------------------------------------------------------
# the series blocks
# ---------------------------------------------------------------------------

def _series(work, top_n, k2_top, term, noise=0.0):
    """The n -> k1 -> k2 nest, for every k, of every block.

    n runs through _converge over the destination weights, k1 over all of
    0..k + top_n n, and k2 through _converge over 0..k2_top; with k2_top > 0,
    a k2 sum that reaches it raises NumericError.  The nest adds the factors
    every block shares, log(alpha / w_norm) + log zeta_k + log C(k + top_n n, k1)
    + log w_n - log k2!, and the sign (-1)^k2; term(k, n, k1, k2) returns the
    rest as (sign, log), a zero as (0, -inf), which adds nothing and is small
    once the sum holds a term.  NumericError is raised at the first term that
    takes noise, the estimate of the route's earlier blocks, plus the nest's own
    past 1e-5; an estimate never falls as terms are added, so a route that ends
    under 1e-5 never trips it.
    """
    logw_n = work.case.dest_logw
    acc = _SignedSum()
    base = math.log(work.case.sr.alpha) - math.log(work.case.w_norm_m2)
    for k, log_zeta in work.sr_terms:

        def n_term(n):
            kn = k + top_n * n

            def k1_sum(k1):
                log_binom = float(gammaln(kn + 1) - gammaln(k1 + 1) - gammaln(kn - k1 + 1))
                pref = base + log_zeta + log_binom + logw_n[n]

                def k2_term(k2):
                    sign, log = term(k, n, k1, k2)
                    lt = pref + log - float(gammaln(k2 + 1.0))
                    acc.add((-1.0) ** k2 * sign, lt)
                    total = noise + acc.noise_estimate()
                    if total > 1e-5:
                        raise NumericError("closed-form series lost too much precision",
                                           {"noise": total, "k": k, "n": n, "k1": k1})
                    return lt

                peak, exhausted = _converge(acc, range(k2_top + 1), k2_term)
                if exhausted and k2_top:
                    raise NumericError("closed-form series truncated at the k2 cap",
                                       {"k": k, "n": n, "k1": k1, "cap": k2_top})
                return peak

            return max(k1_sum(k1) for k1 in range(kn + 1))

        _converge(acc, range(len(logw_n)), n_term)
    return acc


def _g2113_terms(work, c, taylor):
    """Terms of the G2113 blocks: the CGQ integral of the destination bracket
    with argument bb c y^nu w^2 / a, s3 = (k1 - n + 1)/2, s2 = n + k2 + s3,
    times the Taylor scale as taylor^k2."""
    case = work.case
    log_a, log_b, log_bb, log_c, log_t = (
        math.log(v) for v in (case.a_lin, case.b_lin, work.beta_bar, c, taylor))
    cst = work.beta_bar * c / case.a_lin

    def term(k, n, k1, k2):
        s3 = (k1 - n + 1) / 2.0
        i_s, i_l = work.cgq(2 * k + n - k1 + 2, work.g2113_nodes(n + k2 + s3, s3, cst))
        return i_s, ((k - k1) * log_b + (n + s3) * log_c - s3 * log_bb
                     + (s3 - k - 1.0) * log_a + k2 * log_t + i_l)

    return term


def _gamma_terms(work, dest, scale):
    """Terms of the saturation-point blocks: the CGQ integral of
    Gamma(s, bb w^2 p_sat / a), s = k1 - n - k2 + 1, times the destination
    factor dest(n + k2) scale^(n + k2)."""
    case = work.case
    log_a, log_b, log_scale = math.log(case.a_lin), math.log(case.b_lin), math.log(scale)
    log_a_bb = log_a - math.log(work.beta_bar)

    def term(k, n, k1, k2):
        d_s, d_l = dest(n + k2)
        s = k1 - n - k2 + 1
        g_s, g_l = work.cgq(2 * k + 3 - 2 * s, work.gamma_nodes(s))
        return d_s * g_s, ((k - k1) * log_b - (k + 1.0) * log_a + s * log_a_bb
                           + (n + k2) * log_scale + d_l + g_l)

    return term


def _taylor_terms(work):
    """Terms of the Taylor route: the satellite distance integral is
    DeltaGamma(k + k2 + 2) in closed form, times the G2123 destination bracket
    at s1 = 1 + k1 + k2 - n."""
    case = work.case
    log_half_a, log_b, log_bb, log_c, log_p = (
        math.log(v) for v in (case.a_lin / 2.0, case.b_lin, work.beta_bar, case.dest_c,
                              case.p_sat))

    def term(k, n, k1, k2):
        s1 = 1 + k1 + k2 - n
        g_s, g_l = work.g2123_pieces(n, s1)
        dg_s, dg_l = work.taylor_dgamma(k + k2 + 2.0)
        return dg_s * g_s, (log_half_a - (k1 + k2 + 2.0) * log_b - (k + 2.0) * log_bb
                            + dg_l + n * log_c + s1 * log_p + g_l)

    return term


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def _blocks(work):
    """Routes in preference order for a case settled_outage leaves open, each a
    list of block rows (name, sign, top_n, k2_top, term) with term bound to work:
    the route's success probability is the signed sum over its rows of
    _series(work, top_n, k2_top, term).  Both unsaturated routes are listed, the
    Taylor one first unless its parameter is past both _ROUTE_SWITCH and the tail
    route's, each with the saturated block when case.branches lists it; below
    the knee, the saturated block alone."""
    case = work.case
    if case.p_sat <= 0.0:
        return [[("sat-below-knee", 1.0, 1, _K2_CAP,
                  _g2113_terms(work, work.c_eff * case.b_lin, work.c_eff))]]
    # the no-saturation probability, a finite Bessel-K route with no Taylor index
    linear = ("linear", 1.0, 0, 0, _g2113_terms(work, case.dest_c, 1.0))
    if math.isinf(case.p_sat):
        routes = [[linear]]
    else:
        param_direct = case.sr.beta_bar * case.w_max_m ** 2 * case.p_sat / case.a_lin
        param_tail = case.dest_c * case.dest_hi ** case.nu / case.p_sat
        # the unsaturated integrand carried past the saturation point
        tail = ("tail", -1.0, 0, _K2_CAP, _gamma_terms(work, work.pieces_moment, case.dest_c))
        routes = [[("direct", 1.0, 0, _K2_CAP, _taylor_terms(work))], [linear, tail]]
        if param_direct > _ROUTE_SWITCH and param_direct > param_tail:
            routes.reverse()        # the tail route is preferred
    if "saturated" in case.branches:
        sat = ("sat-above-knee", 1.0, 1, _K2_CAP,
               _gamma_terms(work, work.pieces_dgamma, case.b_lin))
        routes = [r + [sat] for r in routes]
    return routes


def _closed_outage(case, cgq_n):
    """Outage by the first route that succeeds, 1 minus the signed sum of its
    blocks, each one _series on the shared memo, given the noise estimate of
    the blocks before it.  A route fails when a block raises NumericError, as
    _series does at its k2 cap or when the route's noise passes 1e-5, or when
    checked_outage rejects its value; with no route left, the first route's
    NumericError is raised."""
    if case.dest_logw is None:
        raise ConfigError("fading.m_rd: the closed-form series requires an integer order")
    settled = settled_outage(case)
    if settled is not None:
        return settled
    work = _Work(case, cgq_n)
    first = None
    for blocks in _blocks(work):
        names = [name for name, *_ in blocks]
        val, noise = 1.0, 0.0
        try:
            for _, sign, top_n, k2_top, term in blocks:
                acc = _series(work, top_n, k2_top, term, noise)
                val -= sign * acc.value()
                noise += acc.noise_estimate()
            return checked_outage(val, "closed-form", {"routes": names})
        except NumericError as exc:
            first = first or exc
    raise first


def op_s2g_closed(gamma_s, cfg):
    """Satellite-to-ground outage probability by the closed-form series."""
    return _closed_outage(build_case(cfg, "s2g", IM_IC, gamma_s), cfg.cgq_n)


def op_a2a_closed(gamma_a, cfg, ic_mode=IM_IC):
    """Air-to-air outage probability by the closed-form series (im-IC or p-IC)."""
    return _closed_outage(build_case(cfg, "a2a", ic_mode, gamma_a), cfg.cgq_n)
