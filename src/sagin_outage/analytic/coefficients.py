"""Composite coefficients shared by the closed-form and integration paths.

Both outage problems (satellite-to-ground and air-to-air) have the same
algebraic shape once the destination link is abstracted:

  success  <=>  T * (a X w^-2 - b) > gamma sigma^2 u^nu * r(X, w)

with (a, b) built from the sharing factor, the harvester constants and the
threshold, and the destination tail expanded as
sum_n wgt_n (c u^nu / z)^n exp(-c u^nu / z).  The destination distance
measure enters as a short list of monomial pieces coeff * u^q on [lo, hi],
taken from `geometry.ConeGeometry`.  `build_case` puts all of these, and the
saturated-branch constants, in one frozen `OutageCase` that both paths read.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaln

from ..channel import (ShadowedRicianParams, nakagami_power_tail, rician_power_tail,
                       shadowed_rician_power_tail)
from ..errors import NumericError
from ..swipt import shares


REL_TOL = 1e-12         # relative term size that counts as converged in every series
SAT_NEGLIGIBLE = 1e-18  # a saturated branch with no more mass than this is left out
_RANGE_TOL = 1e-6       # an outage this far outside [0, 1] is clamped as noise
_DEST_CAP = 80          # last index of the collapsed destination tail series


@dataclass(frozen=True)
class OutageCase:
    """Every constant either evaluation path reads for one (network, mode, gamma).

    branches lists the outage branches that carry success mass, and both paths
    take it from here: "unsaturated" when the case is feasible and p_sat > 0, and
    "saturated" when its mass bound Pr[satellite fading > (max(p_sat, 0) + b)
    w_min^2 / a] exceeds SAT_NEGLIGIBLE; below the knee (p_sat <= 0) the bound is
    multiplied by Pr[destination fade > sigma2 gamma sat_scale dest_lo^nu].  The
    saturated branch scales the destination threshold by sat_scale, 0 for linear
    EH and an infeasible case.
    """

    network: str
    gamma: float
    a_lin: float
    b_lin: float
    p_sat: float               # p_th a / eta - b, the saturation point (inf: linear EH)
    branches: tuple            # names of the branches with mass, "unsaturated" first
    sat_scale: float           # eta / (p_th a)
    # satellite fading and distance (metres)
    sr: ShadowedRicianParams
    w_min_m: float
    w_max_m: float
    w_norm_m2: float           # w_er * w_min in m^2 (pdf normalisation)
    # destination link
    sigma2: float
    nu: float
    dest_pieces: tuple         # ((lo, hi, coeff, upower), ...)
    dest_lo: float
    dest_hi: float
    dest_tail: object = field(repr=False)   # callable t -> Pr[fade > t]
    dest_c: float = 0.0        # c multiplying u^nu / z in the tail series
    dest_logw: np.ndarray = None   # log weights of the collapsed tail series


def _dest_series_rician(K):
    # tail = sum_n P[Pois(K) >= n] ((1+K)t)^n e^-((1+K)t) / n!; the Poisson
    # tail collapses the textbook double sum exactly and keeps terms positive
    n = np.arange(_DEST_CAP + 1)
    pois_tail = np.empty(_DEST_CAP + 1)
    pois_tail[0] = 1.0
    pois_tail[1:] = gammainc(n[1:], K)
    with np.errstate(divide="ignore"):
        logw = np.log(pois_tail) - gammaln(n + 1.0)
    keep = pois_tail > REL_TOL * 1e-4
    return logw[keep]


def build_case(cfg, network, ic_mode, gamma):
    """Assemble the OutageCase for a network/mode at threshold gamma."""
    sp = cfg.sp
    chi = sp.chi_rho_eps
    eta = cfg.eta_s
    signal, interference = shares(sp, network, ic_mode)
    a = chi * eta * (signal - interference * gamma)
    b = cfg.noise.mu_eps(sp) * chi * gamma
    linear_eh = math.isinf(sp.p_th)
    p_sat = math.inf if linear_eh else sp.p_th * a / eta - b
    # thresholds landing exactly on the SNR ceiling leave roundoff dust in a
    feasible = bool(a > 1e-12 * chi * eta * (1.0 + gamma))
    orbit = cfg.orbit
    w_min_m = orbit.w_min * 1e3
    sat_scale, sat_x_min = 0.0, math.inf
    if feasible and not linear_eh:      # a may be 0 or negative when infeasible
        sat_scale = eta / (sp.p_th * a)
        sat_x_min = (max(p_sat, 0.0) + b) * w_min_m ** 2 / a

    if network == "s2g":
        sigma2 = cfg.noise.sigma_d2
        nu = cfg.nak.nu_rd
        m_rd = cfg.nak.m_rd
        pieces = cfg.cone.gu_pieces()
        tail = lambda t: nakagami_power_tail(t, cfg.nak)
        c = m_rd * sigma2 * gamma
        # the tail series exists for an integer order only; the integral path needs none
        logw = -gammaln(np.arange(int(m_rd)) + 1.0) if float(m_rd).is_integer() else None
    else:       # "a2a": shares() rejected every other network
        sigma2 = cfg.noise.sigma_t2
        nu = cfg.ric.nu_rt
        pieces = cfg.cone.arx_pieces()
        tail = lambda t: rician_power_tail(t, cfg.ric)
        c = (1.0 + cfg.ric.K_rt) * sigma2 * gamma
        logw = _dest_series_rician(cfg.ric.K_rt)

    branches = ("unsaturated",) if feasible and p_sat > 0 else ()
    sat_mass = shadowed_rician_power_tail(sat_x_min, cfg.sr)
    if p_sat <= 0.0:
        # below the knee success also needs a destination fade above
        # sigma2 gamma sat_scale u^nu (z + b)/z >= sigma2 gamma sat_scale dest_lo^nu
        sat_mass *= tail(sigma2 * gamma * sat_scale * pieces[0][0] ** nu)
    if sat_mass > SAT_NEGLIGIBLE:
        branches += ("saturated",)

    return OutageCase(
        network=network, gamma=gamma, a_lin=a, b_lin=b, p_sat=p_sat, branches=branches,
        sat_scale=sat_scale, sr=cfg.sr, w_min_m=w_min_m, w_max_m=orbit.w_max * 1e3,
        w_norm_m2=(orbit.w_er * 1e3) * w_min_m,
        sigma2=sigma2, nu=nu, dest_pieces=pieces, dest_lo=pieces[0][0],
        dest_hi=pieces[-1][1], dest_tail=tail, dest_c=c, dest_logw=logw,
    )


def settled_outage(case):
    """0 at a threshold gamma <= 0; 1 when no branch carries mass (case.branches is
    empty: an infeasible case, or one below the knee whose saturated branch is
    negligible); else None, and the path evaluates the listed branches."""
    return 0.0 if case.gamma <= 0.0 else None if case.branches else 1.0


def checked_outage(val, path, details):
    """val clamped into [0, 1]; NumericError naming the path beyond _RANGE_TOL or at a NaN."""
    clamped = min(max(val, 0.0), 1.0)
    if not abs(clamped - val) <= _RANGE_TOL:
        raise NumericError(f"{path} outage outside [0, 1] by {abs(clamped - val):.3e}",
                           {"outage": val, **details})
    return float(clamped)
