"""Closed-form outage series with the residual satellite-distance integrals by
the `run.cgq_n`-point Gauss-Legendre rule (`specfun.gauss_legendre`).

Both networks share one algebraic skeleton; the destination link enters only
through the collapsed tail series (weights w_n, scale c) and the monomial
pieces of its distance measure.  Five series blocks cover every regime, each
a row of the route table `_blocks`:

  linear minus tail
                   unsaturated branch as the no-saturation value minus the
                   overshoot beyond the saturation point;
  direct           the same probability as a Taylor series in the satellite
                   exponential, which takes no quadrature in w;
  sat-above-knee   saturated branch above a positive saturation point;
  sat-below-knee   saturated branch when the saturation point is negative.

Both unsaturated routes are listed whenever the saturation point is finite
and positive, linear minus tail first.  `_closed_outage` runs the routes in
order on the same `_Work` and stops at the first that succeeds with a noise
estimate of at most _REL_NOISE * min(OP, 1 - OP); a route that raises
NumericError, or is noisier, hands over to the next, and the quietest value
wins.  Every constant comes from the `OutageCase` of `build_case`.

Every block is one call of the loop nest `_series`, which adds the factors
the blocks share, over its row's k2 extent (0 for `linear`, which has no Taylor
index, else `_K2_CAP`) and with a term function of its own that returns (sign,
log), a zero as (0, -inf).  Every term reads `_Work.row`, which a miss fills a
run of rungs at a time by one fetch: the Gauss-Legendre integral in w over
every k (`_Work.quad`) of a G2113 bracket (`_g2113_terms`) or of Gamma(s, .)
at the saturation point times a destination moment or incomplete-gamma
difference (`_gamma_terms`), or an incomplete-gamma difference times a G2123
bracket (`_taylor_terms`); one G2113 run serves the whole n extent of a
`linear` diagonal.  `_Work.end_sum` is the one signed sum over the ends of the
destination pieces, each distinct end once and in log space so no power of an
end overflows; `_piece_dgammas` takes both limits of a piece at once, so its
incomplete-gamma differences do not cancel.

Every truncating index runs through `_converge`: it stops after
`_CONSECUTIVE` terms in a row fall below REL_TOL of the largest term so far;
all sums run in signed log space.  `_series` raises NumericError, and so ends
its route at once, when a Taylor index k2 reaches `_K2_CAP` or the route's
noise estimate passes 1e-5; no series parameter is bounded.
"""

import math
from itertools import takewhile

import numpy as np
from scipy.special import gammaln

from ..errors import ConfigError, NumericError
from ..specfun import (gauss_legendre, log_delta_gamma, log_gamma_upper, logsumexp_signed,
                       meijer_g_log)
from ..swipt import IM_IC
from .coefficients import REL_TOL, build_case, checked_outage, settled_outage

_CONSECUTIVE = 3            # how many small terms in a row stop a sum
_K2_CAP = 200               # last Taylor index over the exponential expansions
_RUN = 12                   # rungs one row fetch takes along a k2 sum
_REL_NOISE = 1e-5           # route noise, relative to min(OP, 1 - OP), that ends the search
_LOG_REL_TOL = math.log(REL_TOL)


class _Work:
    """Per-evaluation row store, Bessel-K seeds, Gauss-Legendre nodes and log k! table."""

    def __init__(self, case, cgq_n):
        self.case = case
        self.beta_bar = case.sr.beta_bar
        # destination scale of the saturated branch; 0 for linear EH, which has none
        self.c_eff = case.dest_c * case.sat_scale
        # (k, log zeta_k) over the positive coefficients of the satellite-fading series
        self.sr_terms = [(k, math.log(z)) for k, z in enumerate(case.sr.zeta()) if z > 0]
        # the cgq_n-point Gauss-Legendre rule in the satellite distance w on
        # [w_min, w_max]; every weight is positive
        self.w_nodes, wts = gauss_legendre(case.w_min_m, case.w_max_m, cgq_n)
        self.log_w = np.log(self.w_nodes)
        self.log_wts = np.log(wts)
        # exponent of the satellite-fading factor e^(-bb b w^2 / a) on the nodes
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
        # every distinct end, sorted: one G2113 argument grid per cst for all groups
        self.ends = np.unique([y for _, ys, *_ in self.dest_groups for y in ys])
        # log k! for every k + top_n n (k < m_sr, n < the destination terms) and k2
        self.log_fact = gammaln(np.arange(1.0, case.sr.m_sr + len(case.dest_logw)
                                          + _K2_CAP)).tolist()
        # Bessel-K seeds and ratios of the G2113 ladder, one entry per grid, so per cst
        self.k_seeds = {}
        # what the terms read, {ladder: {rung: row}}, each ladder filled by one fetch,
        # a *_rows method (g2123_rows also fills ("ends", e) and "lower")
        self.rows = {}

    def quad(self, x, sign_f, log_f):
        """Per rung, (sign, log) lists over k < m_sr of the Gauss-Legendre integral of
        w^(2k + 3 - 2x) e^(-bb b w^2/a) f(w), x a number or one per rung, f given as
        log_f of shape (rungs, nodes) on the nodes and sign_f broadcast to it: one
        contraction, signed by f alone."""
        w_pow = 2.0 * np.arange(self.case.sr.m_sr) + 3.0 - 2.0 * x
        expo = self.log_wts + w_pow[..., None] * self.log_w - self.sat_decay + log_f[:, None, :]
        signs, logs = logsumexp_signed(expo, sign_f[..., None, :])
        return zip(signs.tolist(), logs.tolist())

    def row(self, ladder, at, step, run, fetch):
        """Row `at` of a ladder whose k2 sums step its rungs by step, kept by ladder
        and rung.  A miss calls fetch(ladder, rungs) once, rungs up to run from at that
        way, short of the first held, and keeps the row it returns for each."""
        rows = self.rows.setdefault(ladder, {})
        if at not in rows:
            ats = list(takewhile(lambda r: r not in rows, (at + j * step for j in range(run))))
            rows.update(zip(ats, fetch(ladder, ats)))
        return rows[at]

    def gamma_rows(self, _ladder, ss):
        """quad rows at x = s of Gamma(s, bb w^2 p_sat/a) per s of ss: one log_gamma_upper call."""
        orders = np.array(ss, dtype=float)[:, None]
        xs = self.beta_bar * self.w_nodes ** 2 * self.case.p_sat / self.case.a_lin
        return self.quad(orders, np.ones(1), log_gamma_upper(orders, xs))

    def g2113_rows(self, ladder, rungs):
        """quad rows at x = s3 of the bracket at argument cst y^nu w^2, the end_sum of
        G2113((1 - s2 - e, s3, -s3, -s2 - e) | .), per rung: s2 at a fixed s3 on a
        c-ladder ("c", cst, s3), n on the linear block's ("diagonal", cst, k1), where
        s3 = (k1 - n + 1)/2 and s2 = n + s3 keep s2 + s3 = k1 + 1.  One meijer_g_log
        run per destination group on the grid over every end, which seeds its Bessel
        K once, then one end_sum with s2 per column."""
        kind, cst, fixed = ladder           # k1 on a diagonal, s3 on a c-ladder
        diagonal = kind == "diagonal"
        rungs = np.array(rungs, dtype=float)
        s3s = (fixed + 1.0 - rungs) / 2.0 if diagonal else np.full(len(rungs), fixed)
        s2s = rungs + s3s if diagonal else rungs
        xs = cst * self.ends[:, None] ** self.case.nu * (self.w_nodes ** 2)[None, :]

        def meijer(e, ys):
            got = meijer_g_log("G2113", (1.0 - s2s[0] - e, s3s[0], -s3s[0], -s2s[0] - e),
                               xs.ravel(), self.k_seeds, len(s2s), diagonal)
            got = got.reshape(len(s2s), len(self.ends), -1)[:, np.searchsorted(self.ends, ys)]
            return got.swapaxes(0, 1).reshape(len(ys), -1)

        bracket = self.end_sum(np.repeat(s2s, len(self.w_nodes)), meijer)
        return self.quad(s3s[:, None], *(v.reshape(len(s2s), -1) for v in bracket))

    def end_sum(self, m, f, pairwise=False):
        """(sign, log) arrays, an entry per column, of the signed sum over the
        distinct piece ends y of (net/nu) y^(nu m + q + 1) F(e, y), e = (q + 1)/nu,
        net the end's signed coefficient (see dest_groups), F > 0, m a number or one
        per column, and f(e, ys) log F as an array (len(ys), columns) or broadcast;
        with pairwise, a column is summed alone, to the bits of a one-column call."""
        nu = self.case.nu
        logs = np.concatenate([log_coef[:, None] + (nu * m + q + 1.0) * log_rel[:, None]
                               + f((q + 1.0) / nu, ys)
                               for q, ys, log_rel, _, log_coef in self.dest_groups]).T
        signs = np.concatenate([sign for *_, sign, _ in self.dest_groups])
        sign, log = logsumexp_signed(np.ascontiguousarray(logs) if pairwise else logs, signs)
        return sign, log + (nu * m + 1.0) * self.log_y_max

    def taylor_rows(self, _ladder, orders):
        """(sign, log) per order of DeltaGamma(order, sat_decay at w_min, at w_max)."""
        case = self.case
        lo, hi = (self.beta_bar * case.b_lin * w ** 2 / case.a_lin
                  for w in (case.w_min_m, case.w_max_m))
        return [log_delta_gamma(order, lo, hi) for order in orders]

    def g2123_rows(self, ladder, s1s):
        """(sign, log) per s1 of the Taylor route's bracket on ("g2123", n), the end_sum
        of G2123 at x = omega y^nu, omega = dest_c / p_sat, c = n + e, as its halves
        [x^s1 Gamma(-s1, x) + x^-c gamma(c, x)] / (c + s1): the upper one end_sum with a
        column per s1 over the Gamma rows ("ends", e) that every n reads; the lower per
        piece, (coeff/nu) omega^-c DeltaGamma(c, omega lo^nu, omega hi^nu) / (c + s1),
        kept on "lower" by n, as the power of y cancels in it; one 2-D sum joins them."""
        _, n = ladder
        omega = self.case.dest_c / self.case.p_sat
        cols = np.array(s1s, dtype=float)

        def upper(e, ys):
            xs = omega * ys ** self.case.nu
            lg = [self.row(("ends", e), -s1, -1, _RUN, lambda _, a: log_gamma_upper(np.c_[a], xs))
                  for s1 in s1s]
            return (np.log(xs)[:, None] * cols + np.array(lg).T
                    - np.array([math.log(n + e + s1) for s1 in s1s]))

        up_s, up_l = self.end_sum(n, upper, pairwise=True)
        es, signs, logs = self.row("lower", n, 1, 1, lambda _, a: [self._piece_dgammas(n, omega)])
        lower = logs - n * math.log(omega) - np.log(n + es + cols[:, None])
        sign, log = logsumexp_signed(np.c_[lower, up_l],
                                     np.c_[np.broadcast_to(signs, lower.shape), up_s])
        return zip(sign.tolist(), log.tolist())

    def moment_rows(self, _ladder, rs):
        """(sign, log) per r of rs of the sum over pieces of coeff (hi^p - lo^p)/p with
        p = nu r + q + 1: one end_sum, F = nu/p = 1/(r + e), a column per r, in log space."""
        sign, log = self.end_sum(np.array(rs, dtype=float), lambda e, ys: -np.array(
            [[math.log(r + e) for r in rs]]), pairwise=True)
        return zip(sign.tolist(), log.tolist())

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

    def dgamma_rows(self, _ladder, orders):
        """(sign, log) per order of the sum over pieces of _piece_dgammas at scale
        c_eff: one 2-D logsumexp_signed."""
        signs, logs = zip(*(self._piece_dgammas(order, self.c_eff)[1:] for order in orders))
        return zip(*(v.tolist() for v in logsumexp_signed(np.array(logs), np.array(signs))))


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
        sgn, lg = logsumexp_signed(np.array(self.logs), np.array(self.signs))
        return sgn * math.exp(lg) if lg > -700 else 0.0

    def noise_estimate(self):
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
        if lt < acc.peak + _LOG_REL_TOL:
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
    logw_n, log_fact = work.case.dest_logw, work.log_fact
    acc = _SignedSum()
    base = math.log(work.case.sr.alpha) - math.log(work.case.w_norm_m2)
    for k, log_zeta in work.sr_terms:

        def n_term(n):
            kn = k + top_n * n

            def k1_sum(k1):
                log_binom = log_fact[kn] - log_fact[k1] - log_fact[kn - k1]
                pref = base + log_zeta + log_binom + logw_n[n]

                def k2_term(k2):
                    sign, log = term(k, n, k1, k2)
                    lt = pref + log - log_fact[k2]
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


def _g2113_terms(work, c, taylor, k2_top):
    """Terms of the G2113 blocks: the Gauss-Legendre integral of the destination bracket
    with argument bb c y^nu w^2 / a, s3 = (k1 - n + 1)/2, s2 = n + k2 + s3,
    times the Taylor scale as taylor^k2, for a block of k2 extent k2_top."""
    case = work.case
    log_a, log_b, log_bb, log_c, log_t = (
        math.log(v) for v in (case.a_lin, case.b_lin, work.beta_bar, c, taylor))
    cst = work.beta_bar * c / case.a_lin

    def term(k, n, k1, k2):
        s3 = (k1 - n + 1) / 2.0
        if k2_top:
            i_s, i_l = work.row(("c", cst, s3), n + k2 + s3, 1, _RUN, work.g2113_rows)
        else:       # the whole n extent of diagonal k1 in one fetch
            i_s, i_l = work.row(("diagonal", cst, k1), n, 1, len(case.dest_logw),
                                work.g2113_rows)
        return i_s[k], ((k - k1) * log_b + (n + s3) * log_c - s3 * log_bb
                        + (s3 - k - 1.0) * log_a + k2 * log_t + i_l[k])

    return term


def _gamma_terms(work, dest, fetch, scale):
    """Terms of the saturation-point blocks: the Gauss-Legendre integral of
    Gamma(s, bb w^2 p_sat / a), s = k1 - n - k2 + 1, times the destination
    factor scale^(n + k2) and rung n + k2 of ladder dest, which fetch fills."""
    case = work.case
    log_a, log_b, log_scale = math.log(case.a_lin), math.log(case.b_lin), math.log(scale)
    log_a_bb = log_a - math.log(work.beta_bar)

    def term(k, n, k1, k2):
        d_s, d_l = work.row(dest, n + k2, 1, _RUN, fetch)
        s = k1 - n - k2 + 1
        if "gamma" not in work.rows:    # start the first run at the top s, m_sr, not k = 0's
            work.row("gamma", case.sr.m_sr, -1, _RUN, work.gamma_rows)
        g_s, g_l = work.row("gamma", s, -1, _RUN, work.gamma_rows)
        return d_s * g_s[k], ((k - k1) * log_b - (k + 1.0) * log_a + s * log_a_bb
                              + (n + k2) * log_scale + d_l + g_l[k])

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
        g_s, g_l = work.row(("g2123", n), s1, 1, _RUN, work.g2123_rows)
        dg_s, dg_l = work.row("taylor", k + k2 + 2.0, 1, _RUN, work.taylor_rows)
        return dg_s * g_s, (log_half_a - (k1 + k2 + 2.0) * log_b - (k + 2.0) * log_bb
                            + dg_l + n * log_c + s1 * log_p + g_l)

    return term


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def _blocks(work):
    """Routes in the order _closed_outage tries them, for a case settled_outage
    leaves open, each a list of block rows (name, sign, top_n, k2_top, term) with
    term bound to work: the route's success probability is the signed sum over
    its rows of _series(work, top_n, k2_top, term).  Both unsaturated routes are
    listed, linear - tail first and the Taylor one second, each with the
    saturated block when case.branches lists it; below the knee, the saturated
    block alone."""
    case = work.case
    if case.p_sat <= 0.0:
        return [[("sat-below-knee", 1.0, 1, _K2_CAP,
                  _g2113_terms(work, work.c_eff * case.b_lin, work.c_eff, _K2_CAP))]]
    # the no-saturation probability, a finite Bessel-K route with no Taylor index
    linear = ("linear", 1.0, 0, 0, _g2113_terms(work, case.dest_c, 1.0, 0))
    if math.isinf(case.p_sat):
        routes = [[linear]]
    else:
        # the unsaturated integrand carried past the saturation point
        tail = ("tail", -1.0, 0, _K2_CAP,
                _gamma_terms(work, "moment", work.moment_rows, case.dest_c))
        routes = [[linear, tail], [("direct", 1.0, 0, _K2_CAP, _taylor_terms(work))]]
    if "saturated" in case.branches:
        sat = ("sat-above-knee", 1.0, 1, _K2_CAP,
               _gamma_terms(work, "dgamma", work.dgamma_rows, case.b_lin))
        routes = [r + [sat] for r in routes]
    return routes


def _closed_outage(case, cgq_n):
    """Outage by the routes of _blocks, each 1 minus the signed sum of its
    blocks, each one _series on the shared _Work, given the noise estimate of
    the blocks before it.  A route fails when a block raises NumericError, as
    _series does at its k2 cap or when the route's noise passes 1e-5, or when
    checked_outage rejects its value.  The first route that succeeds with noise
    at most _REL_NOISE * min(OP, 1 - OP) gives the outage; when none does, the
    successful route with the least noise; with no route left, the first
    route's NumericError is raised."""
    if case.dest_logw is None:
        raise ConfigError("fading.m_rd: the closed-form series requires an integer order")
    settled = settled_outage(case)
    if settled is not None:
        return settled
    work = _Work(case, cgq_n)
    first, quietest = None, None
    for blocks in _blocks(work):
        names = [name for name, *_ in blocks]
        val, noise = 1.0, 0.0
        try:
            for _, sign, top_n, k2_top, term in blocks:
                acc = _series(work, top_n, k2_top, term, noise)
                val -= sign * acc.value()
                noise += acc.noise_estimate()
            val = checked_outage(val, "closed-form", {"routes": names})
        except NumericError as exc:
            first = first or exc
            continue
        if noise <= _REL_NOISE * min(val, 1.0 - val):
            return val
        if quietest is None or noise < quietest[0]:
            quietest = noise, val
    if quietest is None:
        raise first
    return quietest[1]


def op_s2g_closed(gamma_s, cfg):
    """Satellite-to-ground outage probability by the closed-form series."""
    return _closed_outage(build_case(cfg, "s2g", IM_IC, gamma_s), cfg.cgq_n)


def op_a2a_closed(gamma_a, cfg, ic_mode=IM_IC):
    """Air-to-air outage probability by the closed-form series (im-IC or p-IC)."""
    return _closed_outage(build_case(cfg, "a2a", ic_mode, gamma_a), cfg.cgq_n)
