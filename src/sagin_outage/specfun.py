"""Special functions backing the closed-form and integration paths.

Everything the outage series need lives here: the log upper incomplete gamma,
elementwise over orders and points broadcast together (the Lentz continued
fraction as one masked array run over every point it takes, so a batch of
orders costs each step once; the downward recurrence once per fractional part
of the order over every x < 1; the ascending series per point), its
cancellation-safe differences, ln I0 through scipy's scaled ``i0e``, Meijer-G
in the one family b3 = a1 - 1 the series use (G2113 by a downward recurrence
in c over Bessel K, every term positive, one sweep giving the rows of a run
of c, or along the diagonal c + s3 = const from one such row, its K orders
from two kve seeds per argument grid by the upward ratio recurrence, kept
only in a dict the caller passes; G2123, which the closed
path takes apart itself, as two incomplete gammas for the oracle table and
tests; G0110 and G2002 by identities the oracle table checks), and the
Gauss-Legendre rule both analytic paths integrate with.  The heavy machinery is
evaluated in the log domain with explicit signs because the series couple
enormous and tiny factors whose product is O(1).
"""

import math
from functools import lru_cache

import numpy as np
from scipy.special import exp1, gammaln, i0e, jv, kv, kve

from .errors import ConfigError, DomainError, NumericError


# ---------------------------------------------------------------------------
# signed log-domain helpers
# ---------------------------------------------------------------------------

def logsumexp_signed(logs, signs):
    """Sum of signs*exp(logs) over the last axis, (sign, log|sum|), floats for 1-D logs.
    A -inf log adds nothing (all -inf or none: (0, -inf)); NaN or +inf raises NumericError."""
    logs = np.asarray(logs, dtype=float)
    m = logs.max(axis=-1, initial=-np.inf, keepdims=True)
    if not (m < np.inf).all():
        raise NumericError("signed log sum of a NaN or +inf log", {"max_log": float(m.max())})
    m[m == -np.inf] = 0.0           # an all -inf sum is 0 below
    s = np.sum(signs * np.exp(logs - m), axis=-1)
    with np.errstate(divide="ignore"):
        sign, log = np.sign(s), m[..., 0] + np.log(np.abs(s))
    return (float(sign), float(log)) if logs.ndim == 1 else (sign, log)


# ---------------------------------------------------------------------------
# incomplete gamma, log domain
# ---------------------------------------------------------------------------

def _log_lower_series(a, x):
    """log of lower incomplete gamma(a, x) via the ascending series; x <= a+1."""
    # gamma_lower = x^a e^-x sum_j x^j / (a (a+1) ... (a+j))
    term = 1.0 / a
    total = term
    for j in range(1, 10000):
        term *= x / (a + j)
        total += term
        if term < total * 1e-17:
            break
    else:
        raise NumericError("lower incomplete gamma series did not converge",
                           {"a": a, "x": x})
    return a * np.log(x) - x + np.log(total)


def _log_upper_cf(a, x):
    """log Gamma(a, x) by the Lentz continued fraction, for _log_gamma_pair's a > 0."""
    tiny = 1e-300
    b0 = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / max(b0, tiny)
    h = d
    for i in range(1, 20000):
        an = -i * (i - a)
        b0 += 2.0
        d = an * d + b0
        if abs(d) < tiny:
            d = tiny
        c = b0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise NumericError("upper incomplete gamma CF did not converge",
                           {"a": a, "x": x})
    return a * np.log(x) - x + np.log(h)


def _log_upper_cf_array(a, x):
    """_log_upper_cf over arrays of orders a and points x of one shape, one array
    step per term for all of them: the same arithmetic, and a point's h is frozen
    once it converges, so each value is bit-identical to _log_upper_cf's."""
    tiny = 1e-300
    b0 = x + 1.0 - a
    c = np.full(x.shape, 1.0 / tiny)
    h = d = 1.0 / np.maximum(b0, tiny)
    live = np.ones(x.shape, dtype=bool)
    for i in range(1, 20000):
        an = -i * (i - a)
        b0 += 2.0
        d = an * d + b0
        d[np.abs(d) < tiny] = tiny
        c = b0 + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = np.where(live, h * delta, h)
        live &= ~(np.abs(delta - 1.0) < 1e-16)
        if not live.any():
            return a * np.log(x) - x + np.log(h)
    raise NumericError("upper incomplete gamma CF did not converge",
                       {"a": a[live].tolist(), "x": x[live].tolist()})


def _log_upper_recurrence(a, x):
    """log Gamma(a, x) over arrays of orders a <= 0 and points 0 < x < 1 of one
    shape by downward recurrence from Gamma(a - floor(a), x).

    Gamma(s, x) = (x^s e^-x - Gamma(s+1, x)) / (-s); the boundary term
    dominates for x < 1 so each subtraction is benign.  Orders with one
    a - floor(a) share a run down to the lowest of them: each step runs once
    over all their x and records the points of the order it reaches.
    """
    out = np.empty(x.shape)
    frac = a - np.floor(a)
    for f in np.unique(frac).tolist():
        idx = np.flatnonzero(frac == f)
        xs, orders = x[idx], a[idx]
        s0 = f or 1.0
        lg = -xs if s0 == 1.0 else log_gamma_upper(s0, xs)    # Gamma(1, x) = e^-x
        lnx = np.log(xs)
        s = s0 - 1.0
        while s >= orders.min() - 0.5:
            if s == 0.0:
                lg = np.log(exp1(xs))
            else:
                lt = s * lnx - xs
                lg = lt + np.log1p(-np.exp(np.minimum(lg - lt, -1e-300))) - np.log(-s)
            at = np.abs(orders - s) < 0.5
            out[idx[at]] = lg[at]
            s -= 1.0
    return out


def _log_gamma_pair(a, x):
    """(log gamma(a, x), log Gamma(a, x)) for a > 0, x > 0, each expansion run once.

    The ascending series gives the lower function for x <= a+1 and the
    continued fraction the upper one for x > a+1 or (a < 0.2 and x > 0.3).  A
    side that no expansion covers is the complement to Gamma(a), or its own
    expansion where that complement would cancel to nothing.
    """
    ll = float(_log_lower_series(a, x)) if x <= a + 1.0 else None
    lu = float(_log_upper_cf(a, x)) if x > a + 1.0 or (a < 0.2 and x > 0.3) else None
    if ll is None or lu is None:
        lg = float(gammaln(a))
        ratio = (ll if lu is None else lu) - lg
        if ratio > -1e-12:   # the known side ~ Gamma(a): the complement underflows
            other = float(_log_upper_cf(a, x) if lu is None else _log_lower_series(a, x))
        else:
            other = lg + np.log1p(-np.exp(ratio))
        if lu is None:
            lu = other
        else:
            ll = other
    return ll, lu


def log_gamma_upper(a, x):
    """log Gamma(a, x) for real orders a (any sign) and x >= 0 (x > 0 where
    a <= 0), elementwise over a and x broadcast together: a float when both are
    scalars, else an array of the broadcast shape.

    Three branches: the Lentz continued fraction, one masked run over all its
    (a, x) points: a <= 0 at x >= 1, where it converges for any |a| (DLMF 8.9),
    and a > 0 at x > a + 1, where _log_gamma_pair takes it too; the downward
    recurrence from Gamma(a - floor(a), x) at a <= 0, x < 1; and
    _log_gamma_pair for the other a > 0, point by point on Python floats.  A
    batch of orders costs each array step once, not once per order.
    """
    orders, xs = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise DomainError("upper incomplete gamma needs x >= 0")
    if np.any((orders <= 0) & (xs == 0)):
        raise DomainError("Gamma(a, 0) diverges for a <= 0")
    orders, flat = orders.ravel(), xs.ravel()
    rec = (orders <= 0) & (flat < 1.0)
    cf = ~rec & ((orders <= 0) | (flat > orders + 1.0))
    pair = ~(rec | cf)
    lg = np.empty(flat.shape)
    lg[pair] = [gammaln(o) if v == 0 else _log_gamma_pair(o, v)[1]
                for o, v in zip(orders[pair].tolist(), flat[pair].tolist())]
    if cf.any():
        lg[cf] = _log_upper_cf_array(orders[cf], flat[cf])
    if rec.any():
        lg[rec] = _log_upper_recurrence(orders[rec], flat[rec])
    return float(lg[0]) if xs.ndim == 0 else lg.reshape(xs.shape)


def log_delta_gamma(a, b, c):
    """(sign, log|Gamma(a,b) - Gamma(a,c)|), cancellation-safe.

    The difference equals the integral of t^(a-1) e^-t over [b, c]; whichever
    of the upper/lower representations is better conditioned is used, with a
    direct quadrature fallback when b and c nearly coincide.
    """
    if a <= 0:
        raise DomainError("delta_gamma needs a > 0")
    if b < 0 or c < 0:
        raise DomainError("delta_gamma needs b, c >= 0")
    if b == c:
        return 0.0, -np.inf
    sign = 1.0
    if b > c:
        b, c = c, b
        sign = -1.0
    if np.isinf(c):
        if b == 0:
            return sign, float(gammaln(a))
        return sign, log_gamma_upper(a, b)
    if b == 0:
        return sign, _log_gamma_pair(a, c)[0]
    if c <= 1.0000001 * b:
        # nearly coincident limits: integrate directly on [b, c]
        t, wts = gauss_legendre(b, c, 64)
        logf = (a - 1.0) * np.log(t) - t
        m = logf.max()
        return sign, m + np.log(float(np.sum(wts * np.exp(logf - m))))
    llb, lub = _log_gamma_pair(a, b)
    llc, luc = _log_gamma_pair(a, c)
    r_upper = luc - lub
    r_lower = llb - llc
    if r_upper <= r_lower:
        return sign, lub + np.log1p(-np.exp(min(r_upper, -1e-300)))
    return sign, llc + np.log1p(-np.exp(min(r_lower, -1e-300)))


def delta_gamma(a, b, c):
    """Gamma(a, b) - Gamma(a, c) on the linear scale."""
    sign, lg = log_delta_gamma(a, b, c)
    return sign * np.exp(lg)


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _legendre_rule(n):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(lo, hi, n):
    """n-point Gauss-Legendre rule on [lo, hi] as (nodes, weights); exact for
    polynomials of degree <= 2n - 1.  The rule on [-1, 1] is built once per n."""
    x, w = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    return half * (x + 1.0) + lo, w * half


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def log_bessel_i0(x):
    """ln I0(x) = x + ln i0e(x) over scipy's exponentially scaled I0; finite for any x."""
    x = np.asarray(x, dtype=float)
    return x + np.log(i0e(x))


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

# the ladder starts this many nats of damping above sqrt(x_max): a start of
# G = 0 there is off by less than e^-39 of G at the bottom rung
_LADDER_DAMPING = 39.0
# a rung rescales its points once the bound on their largest value passes this
_LADDER_RESCALE = 1e280
# the ladder's e^-X scaling stops here, short of underflow
_LADDER_CLAMP = 600.0
# rungs whose inhomogeneous terms are built as one array
_LADDER_CHUNK = 64


def _k_ratios(xs, nu, seeds):
    """(X, log kve_nu(X), (K_(nu-1) + K_(nu+1)) / K_nu) arrays at X = 2 sqrt(xs), nu >= 0.

    The orders are nu0 + j, nu0 = nu - floor(nu), with K_(nu0-1) = K_(1-nu0):
    kve seeds K_(nu0-1) and K_nu0, and the ratios r_j = K_(nu0+j+1) / K_(nu0+j)
    come upward from r_j = 1 / r_(j-1) + 2 (nu0 + j) / X, where every term is
    positive; no order is formed, only its log, so none overflows.  The seeds
    and the ratios found so far are kept in seeds, a dict keyed by (xs bytes,
    nu0), when one is given; they are a pure function of that key.
    """
    m = math.floor(nu)
    nu0 = nu - m
    key = (xs.tobytes(), nu0)
    ladder = None if seeds is None else seeds.get(key)
    if ladder is None:
        big_x = 2.0 * np.sqrt(xs)
        k0 = kve(nu0, big_x)
        # X, log kve_(nu0+j) for j = 0..J, and r_(j-1) for j = 0..J
        ladder = (big_x, [np.log(k0)], [k0 / kve(1.0 - nu0, big_x)])
        if seeds is not None:
            seeds[key] = ladder
    big_x, logk, ratios = ladder
    while len(ratios) < m + 2:
        j = len(ratios) - 1
        ratios.append(1.0 / ratios[-1] + 2.0 * (nu0 + j) / big_x)
        logk.append(logk[-1] + np.log(ratios[-1]))
    return big_x, logk[m], 1.0 / ratios[m] + ratios[m + 1]


def _ladder_rungs(c, s3, x_max):
    """Rungs n above c where the ladder starts: the product of x_max / (c'^2 - s3^2)
    over the rungs c' = c + j >= sqrt(x_max), j < n, is below e^-_LADDER_DAMPING."""
    j = max(0, math.ceil(math.sqrt(x_max) - c))
    log_x, damped = math.log(x_max), 0.0
    while damped > -_LADDER_DAMPING:
        damped += log_x - math.log((c + j - s3) * (c + j + s3))
        j += 1
    return j


def _g2113_ladder_log(s3, c, xs, seeds, run):
    """log G2113 of the family, G_c(x) = 4 X^-2c int_0^X t^(2c-1) K_nu(t) dt with
    X = 2 sqrt(x), nu = 2 s3, at the run c, c + 1, ..., c + run - 1, as rows of
    a (run, len(xs)) array, by one sweep of the downward recurrence in c

        G_c = [X^2 G_(c+1) + 2X (K_(nu-1) + K_(nu+1)) + 8c K_nu] / (4 (c^2 - s3^2))

    from G = 0 at the rung _ladder_rungs puts above the run's top rung.  Every
    term is positive, so nothing cancels, and the start's error damps by the
    product that picks the rung, for lower rows by more.  The ladder carries
    H = G / kve_nu(X) per point, so its inhomogeneous term is e^-X (2X rho + 8c)
    with rho = (K_(nu-1) + K_(nu+1)) / K_nu (e^-X stops at e^-_LADDER_CLAMP and
    the rest goes to the log); a point is rescaled to 1, with its inhomogeneous
    term, only at a rung where the bound on the largest H, grown at
    X_max^2 / (4 (c'^2 - s3^2)) per rung, says it could overflow.  The terms of
    _LADDER_CHUNK rungs are built at once.  A row is a one-rung call at its c to
    rounding: that call may start lower, and steps (c + i) + j, not c + (i + j)."""
    nu = abs(2.0 * s3)
    big_x, logk, rho = _k_ratios(xs, nu, seeds)
    x4 = big_x * big_x
    scale = np.exp(-np.minimum(big_x, _LADDER_CLAMP))
    inhom = 2.0 * big_x * rho * scale
    eight = 8.0 * scale
    x4_max, inhom_max, eight_max = float(x4.max()), float(inhom.max()), float(eight.max())
    h = np.zeros(xs.shape)
    shift = logk - np.maximum(big_x - _LADDER_CLAMP, 0.0)
    bound = 0.0
    logs = np.empty((run,) + xs.shape)
    top = run - 1 + _ladder_rungs(c + (run - 1), s3, 0.25 * x4_max)
    while top > 0:
        cs = c + np.arange(top - 1, max(top - _LADDER_CHUNK, 0) - 1, -1.0)
        rows = inhom + np.multiply.outer(cs, eight)
        invs = 0.25 / ((cs - s3) * (cs + s3))
        for i, (cj, inv) in enumerate(zip(cs.tolist(), invs.tolist())):
            bound = (x4_max * bound + inhom_max + eight_max * cj) * inv
            if bound > _LADDER_RESCALE:
                big = np.maximum(h, 1.0)
                h /= big
                inhom /= big
                eight /= big
                rows[i:] /= big
                shift += np.log(big)
                bound = (x4_max + inhom_max + eight_max * cj) * inv
            h *= x4
            h += rows[i]
            h *= inv
            if top - i <= run:
                logs[top - 1 - i] = np.log(h) + shift
        top -= len(cs)
    return logs


def _g2113_diagonal_log(s3, c, xs, seeds, run):
    """log G2113 of the family at (s3 - j/2, c + j/2), j < run, as rows of a
    (run, len(xs)) array: the top row by a one-rung _g2113_ladder_log call, the
    rows below it by meijer_g_log's diagonal link, on the linear scale (the log
    scale would add the rounding of a log per row) as H = G / (4 kve_|2 s3|(X)),
    which stays in range where G tracks K (small X) or falls as a power of X
    (large X), with e^-X as the inhomogeneous term; the rows' logs are taken in
    one call at the end.  The K orders come from the lists _k_ratios keeps in
    seeds, a local dict when None is given."""
    top = run - 1
    logs = np.empty((run,) + xs.shape)
    logs[top] = _g2113_ladder_log(s3 - 0.5 * top, c + 0.5 * top, xs, seeds, 1)[0]
    seeds, grid = {} if seeds is None else seeds, xs.tobytes()
    nus = np.abs(2.0 * s3 - np.arange(run)).tolist()
    for nu in {nu - math.floor(nu): nu for nu in sorted(nus)}.values():   # top order per nu0
        big_x, _, _ = _k_ratios(xs, nu, seeds)
    frame = math.log(4.0) + np.array([seeds[grid, nu - math.floor(nu)][1][math.floor(nu)]
                                      for nu in nus])
    steps, scale = big_x * np.exp(frame[1:] - frame[:-1]), np.exp(-big_x)
    hs = np.empty((top,) + xs.shape)
    h = np.exp(logs[top] - frame[top])
    for j in range(top - 1, -1, -1):
        h = np.multiply(steps[j], h, out=hs[j])
        h += scale
        h /= 2.0 * (c - s3 + j)
    logs[:top] = np.log(hs) + frame[:top]
    return logs


def _g2123_log(s1, c, xs):
    """log G2123 of the family: Gamma(s) / ((s + s1)(c - s)) is (Gamma(s) / (s + s1)
    + Gamma(s) / (c - s)) / (c + s1), the Mellin transforms of x^s1 Gamma(-s1, x)
    and x^-c gamma(c, x) (DLMF 8.14.4-5), both positive."""
    lnx = np.log(xs)
    upper = s1 * lnx + log_gamma_upper(-s1, xs)
    lower = np.array([_log_gamma_pair(c, x)[0] for x in xs]) - c * lnx
    return np.logaddexp(upper, lower) - np.log(c + s1)


def meijer_g_log(instance, params, xs, seeds=None, run=1, diagonal=False):
    """log G, every such G positive, of G2123 or G2113 where b3 = a1 - 1 =: -c,
    the one family the outage series use, as rows of a (run, len(xs)) array at
    c, c + 1, ..., c + run - 1: Gamma(1 - a1 - s) / Gamma(1 - b3 - s) in the
    Mellin-Barnes integrand is 1 / (c - s), with c read as 1 - a1.

    G2123 (a1, a2, b1, b2, b3) = (1 - c, s1 + 1, s1, 0, -c) is two incomplete
    gammas per row (_g2123_log); G2113 (a1, b1, b2, b3) = (1 - c, s3, -s3, -c)
    takes the run from one sweep of the Bessel-K ladder (_g2113_ladder_log).
    With diagonal, a G2113 run has its rows at (s3 - j/2, c + j/2) instead,
    where c + s3 stays fixed: the ladder gives the top row, and the link
    G_(s3, c) = [X G_(s3 - 1/2, c + 1/2) + 4 K_(2 s3)(X)] / (2 (c - s3)),
    X = 2 sqrt(x), the rows below it (_g2113_diagonal_log).  It holds where
    c > |s3|, so on every row of a run whose first row is in the family, as
    c + s3 stays and c - s3 grows; every term is positive and c - s3 > 0, so
    the downward direction never amplifies a relative error.  Diagonal rows are
    checked against one-rung calls for x in 1e-9..1e5, where every argument of
    the closed path lies (both are tests); at 1e8 the two part by about 1e-11.
    Other parameters raise DomainError, and an empty strip max(-b1, -b2) < Re s
    < c, c not above |s3| or max(-s1, 0), raises NumericError.  G2113 calls that
    pass one dict as seeds share the ladder's Bessel-K seeds and ratios, one
    entry per argument grid (see _k_ratios), a pure function of its key; nothing
    else is kept, and with None nothing is.
    """
    p = tuple(float(v) for v in params)
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("Meijer-G evaluation needs x > 0")
    family = len(p) > 1 and abs(p[-1] - (p[0] - 1.0)) <= 1e-12 * max(1.0, abs(p[0]))
    if family and instance == "G2123" and len(p) == 5 and p[1] == p[2] + 1 and p[3] == 0:
        lo, bound = max(-p[2], 0.0), "max(-s1, 0)"
    elif family and instance == "G2113" and len(p) == 4 and p[2] == -p[1]:
        lo, bound = abs(p[1]), "|s3|"
    else:
        raise DomainError(f"Meijer-G {instance} {p} is outside the family b3 = a1 - 1")
    hi = 1.0 - p[0]
    if hi - lo < 1e-9:
        raise NumericError(f"{instance} needs c = 1 - a1 above {bound}",
                           {"instance": instance, "params": p})
    if instance == "G2123":
        if diagonal:
            raise DomainError("a diagonal run is a G2113 run")
        return np.array([_g2123_log(p[2], hi + j, xs) for j in range(run)])
    if diagonal and run > 1:
        return _g2113_diagonal_log(p[1], hi, xs, seeds, run)
    return _g2113_ladder_log(p[1], hi, xs, seeds, run)


def meijer_g(instance, params, x):
    """Meijer-G at scalar x > 0: 'G0110' (params (a1,)), 'G2002' (params (b1, b2)),
    or 'G2123' and 'G2113' in the family of meijer_g_log."""
    if x <= 0:
        raise DomainError("meijer_g needs x > 0")
    if instance == "G0110":
        (a1,) = params
        return float(x ** (a1 - 1.0) * np.exp(-1.0 / x))
    if instance == "G2002":
        b1, b2 = params
        v = b1 - b2
        z = 2.0 * np.sqrt(x)
        return float(2.0 * x ** ((b1 + b2) / 2.0) * kve(v, z) * np.exp(-z))
    return float(np.exp(meijer_g_log(instance, params, np.array([x]))[0, 0]))


# ---------------------------------------------------------------------------
# oracle fixture suite
# ---------------------------------------------------------------------------

def _fixture_eval(kind, params, x):
    if kind == "delta_gamma":
        return delta_gamma(*params)  # params (a, b, c); x unused (0)
    if kind == "bessel_j":
        return float(jv(params[0], x))
    if kind == "bessel_i0":
        return float(np.exp(log_bessel_i0(x)))
    if kind == "bessel_k":
        return float(kv(params[0], x))
    if kind in ("G0110", "G2002", "G2123", "G2113"):
        return meijer_g(kind, params, x)
    raise DomainError(f"unknown fixture kind {kind!r}")


def run_oracle_suite(path):
    """Compare library values against the committed high-precision table.

    Row format: kind<space>comma-separated-params<space>x<space>oracle-value.
    Returns (n_pass, failures, max_rel) where failures is a list of lines; a
    table that cannot be read as UTF-8 text, or a row that is not four fields of
    numbers, raises ConfigError.
    """
    n_pass, failures, max_rel = 0, [], 0.0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read oracle table {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kind, p_str, x_str, val_str = line.split()
            params = tuple(float(v) for v in p_str.split(",")) if p_str != "-" else ()
            x, oracle = float(x_str), float(val_str)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: expected 'kind params x value': {exc}") from exc
        tol = 1e-8 if kind.startswith("G21") else 1e-10
        try:
            got = _fixture_eval(kind, params, x)
            rel = abs(got - oracle) / max(abs(oracle), 1e-300)
        except Exception as exc:  # pragma: no cover - surfaced in report
            failures.append(f"{line}  -> raised {exc!r}")
            continue
        max_rel = max(max_rel, rel)
        if rel <= tol:
            n_pass += 1
        else:
            failures.append(f"{line}  -> got {got!r} rel {rel:.3e} (tol {tol:g})")
    return n_pass, failures, max_rel
