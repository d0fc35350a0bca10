"""Composite coefficients shared by the closed-form and integration paths.

Both outage problems (satellite-to-ground and air-to-air) have the same
algebraic shape once the destination link is abstracted:

  success  <=>  T * (a X w^-2 - b) > gamma sigma^2 u^nu * r(X, w)

with (a, b) built from the sharing factor, the harvester constants and the
threshold, and the destination tail expanded as
sum_n wgt_n (c u^nu / z)^n exp(-c u^nu / z).  The destination distance
measure enters as a short list of monomial pieces coeff * u^q on [lo, hi].
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaln

from ..channel import ShadowedRicianParams, nakagami_power_tail, rician_power_tail
from ..swipt import shares


REL_TOL = 1e-12     # relative term size that counts as converged in every series
_DEST_CAP = 80      # last index of the collapsed destination tail series


@dataclass(frozen=True)
class DerivedCoefficients:
    """The composite constants of one outage case.

    a_lin > 0 is the feasibility condition (threshold below the SNR ceiling);
    p_sat = p_th a / eta - b separates the unsaturated/saturated integration
    ranges of the satellite fading variable.
    """

    a_lin: float
    b_lin: float
    p_sat: float
    eta_s: float
    p_th: float
    a_floor: float = 0.0   # feasibility needs a_lin above this roundoff scale

    @classmethod
    def for_case(cls, cfg, network, ic_mode, gamma):
        sp = cfg.sp
        chi = sp.chi_rho_eps
        eta = cfg.eta_s
        signal, interference = shares(sp, network, ic_mode)
        a = chi * eta * (signal - interference * gamma)
        b = cfg.noise.mu_eps(sp) * chi * gamma
        p_sat = math.inf if math.isinf(sp.p_th) else sp.p_th * a / eta - b
        # thresholds landing exactly on the SNR ceiling leave roundoff dust in a
        a_floor = 1e-12 * chi * eta * (1.0 + gamma)
        return cls(a_lin=a, b_lin=b, p_sat=p_sat, eta_s=eta, p_th=sp.p_th,
                   a_floor=a_floor)


@dataclass
class OutageCase:
    """Everything either evaluation path needs for one (network, mode, gamma)."""

    network: str
    ic_mode: str
    gamma: float
    coeff: DerivedCoefficients
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

    @property
    def feasible(self):
        return self.coeff.a_lin > self.coeff.a_floor


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
    coeff = DerivedCoefficients.for_case(cfg, network, ic_mode, gamma)
    orbit = cfg.orbit
    cone = cfg.cone
    w_min_m = orbit.w_min * 1e3
    w_max_m = orbit.w_max * 1e3
    w_norm_m2 = (orbit.w_er * 1e3) * w_min_m

    if network == "s2g":
        sigma2 = cfg.noise.sigma_d2
        nu = cfg.nak.nu_rd
        m_rd = cfg.nak.m_rd
        lo, hi = cone.h_0, cone.gu_max
        pieces = ((lo, hi, 2.0 / cone.l ** 2, 1),)
        tail = lambda t: nakagami_power_tail(t, cfg.nak)
        c = m_rd * sigma2 * gamma
        # the tail series exists for an integer order only; the integral path needs none
        logw = -gammaln(np.arange(int(m_rd)) + 1.0) if float(m_rd).is_integer() else None
    else:       # "a2a": shares() in for_case rejected every other network
        sigma2 = cfg.noise.sigma_t2
        nu = cfg.ric.nu_rt
        c_phi = math.cos(cone.phi)
        norm = math.tan(cone.phi) ** 2 * (cone.h_2 ** 3 - cone.h_1 ** 3)
        h1, h2 = cone.h_1, cone.h_2
        lo, hi = h1, h2 / c_phi
        if cone.case1:
            pieces = (
                (h1, h1 / c_phi, 6.0 / norm, 2),
                (h1, h1 / c_phi, -6.0 * h1 / norm, 1),
                (h1 / c_phi, h2, 6.0 * (1.0 - c_phi) / norm, 2),
                (h2, h2 / c_phi, 6.0 * h2 / norm, 1),
                (h2, h2 / c_phi, -6.0 * c_phi / norm, 2),
            )
        else:
            pieces = (
                (h1, h2, 6.0 / norm, 2),
                (h1, h2, -6.0 * h1 / norm, 1),
                (h2, h1 / c_phi, 6.0 * (h2 - h1) / norm, 1),
                (h1 / c_phi, h2 / c_phi, 6.0 * h2 / norm, 1),
                (h1 / c_phi, h2 / c_phi, -6.0 * c_phi / norm, 2),
            )
        tail = lambda t: rician_power_tail(t, cfg.ric)
        c = (1.0 + cfg.ric.K_rt) * sigma2 * gamma
        logw = _dest_series_rician(cfg.ric.K_rt)

    return OutageCase(
        network=network, ic_mode=ic_mode, gamma=gamma, coeff=coeff,
        sr=cfg.sr, w_min_m=w_min_m, w_max_m=w_max_m, w_norm_m2=w_norm_m2,
        sigma2=sigma2, nu=nu, dest_pieces=pieces, dest_lo=lo, dest_hi=hi,
        dest_tail=tail, dest_c=c, dest_logw=logw,
    )
