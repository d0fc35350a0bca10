"""Outage probabilities by adaptive nested quadrature of the exact integrals.

This path evaluates the pre-simplification probability integrals directly:
destination fading tail analytic, satellite fading and both distances by
tensor Gauss-Legendre rules (log-spaced in the satellite-fading variable).
It is the arbiter the closed-form series is validated against and supports
non-integer destination fading orders.
"""

import math

import numpy as np

from ..channel import shadowed_rician_power_pdf
from ..errors import NumericError
from ..specfun import gauss_legendre
from ..swipt import IM_IC
from .coefficients import build_case, checked_outage, settled_outage

_TAIL_CUT = 800.0      # exp(-x) below ~1e-300: integrand support cut-off
_LEVELS = ((64, 64, 160), (96, 96, 288), (144, 144, 512))
_ABS_TOL = 1e-6        # two successive levels closer than half this have converged


def _dest_nodes(case, n_per_piece):
    us, ws = [], []
    for lo, hi, coeff, q in case.dest_pieces:
        u, w = gauss_legendre(lo, hi, n_per_piece)
        us.append(u)
        ws.append(coeff * u ** q * w)
    return np.concatenate(us), np.concatenate(ws)


def _sat_factor(case, z, n_w):
    """F(z) = int f_w (w^2/a) f_X((z+b) w^2 / a) dw on the z grid, by n_w nodes in w."""
    a, b = case.a_lin, case.b_lin
    w_nodes, w = gauss_legendre(case.w_min_m, case.w_max_m, n_w)
    w_wts = (w_nodes / case.w_norm_m2) * w       # f_w dw
    w2a = w_nodes ** 2 / a                       # (nw,)
    x = np.outer(z + b, w2a)                     # (nz, nw)
    with np.errstate(over="ignore", under="ignore"):
        vals = shadowed_rician_power_pdf(x, case.sr)
    return (vals * (w2a * w_wts)[None, :]).sum(axis=1)


def _branches(case):
    """{name: (z_lo, z_hi, ratio, thr_scale)} for each branch in case.branches, the
    _branch_mass arguments of z = a X w^-2 - b up to the support cut-off."""
    cut = _TAIL_CUT * case.a_lin / (case.sr.beta_bar * case.w_min_m ** 2)
    limits = {}
    if "unsaturated" in case.branches:      # z in (0, p_sat]
        z_hi = min(case.p_sat, max(cut - case.b_lin, 0.0))
        z_lo = case.dest_c * case.dest_lo ** case.nu / _TAIL_CUT * 1e-3
        z_lo = max(min(z_lo, z_hi * 1e-2), z_hi * 1e-18)
        limits["unsaturated"] = (z_lo, z_hi, lambda z: 1.0 / z, case.sigma2 * case.gamma)
    if "saturated" in case.branches:        # z in (max(p_sat, 0), inf)
        z0 = max(case.p_sat, 0.0)
        z_cut = z0 + cut
        if z0 > 0:
            z_lo = z0
        else:
            z_lo = (case.dest_c * case.sat_scale * case.dest_lo ** case.nu * case.b_lin
                    / _TAIL_CUT * 1e-3)
            z_lo = max(z_lo, z_cut * 1e-18)
        z_hi = max(z_cut, z_lo * (1.0 + 1e-9))
        # T = sigma2 gamma u^nu (z + b)/z * sat_scale
        limits["saturated"] = (z_lo, z_hi, lambda z: (z + case.b_lin) / z,
                               case.sigma2 * case.gamma * case.sat_scale)
    return limits


def _branch_mass(case, z_lo, z_hi, ratio, thr_scale, n_dest, n_w, n_z):
    """int_{z_lo}^{z_hi} F(z) E_u[tail(ratio(z) thr_scale u^nu)] dz on one level."""
    if not z_hi > 0:        # the support cut-off leaves the branch no range
        return 0.0
    u, uw = _dest_nodes(case, n_dest)
    s, w = gauss_legendre(math.log(z_lo), math.log(z_hi), n_z)
    z = np.exp(s)           # log-spaced in z; the jacobian is z ds
    thr = np.outer(ratio(z), thr_scale * u ** case.nu)     # (nz, nu)
    dest = (np.asarray(case.dest_tail(thr)) * uw[None, :]).sum(axis=1)
    return float(np.sum(w * z * _sat_factor(case, z, n_w) * dest))


def _outage(case):
    settled = settled_outage(case)
    if settled is not None:
        return settled
    branches = _branches(case)
    prev = None
    for level in _LEVELS:
        val = 1.0
        for limits in branches.values():     # "unsaturated" first, as build_case lists them
            val -= _branch_mass(case, *limits, *level)
        if prev is not None and abs(val - prev) < 0.5 * _ABS_TOL:
            return checked_outage(val, "integral", {"network": case.network,
                                                    "gamma": case.gamma})
        prev = val
    raise NumericError("outage quadrature did not reach the requested tolerance",
                       {"network": case.network, "gamma": case.gamma, "last": prev})


def op_s2g_integral(gamma_s, cfg):
    """Satellite-to-ground outage probability by direct integration."""
    return _outage(build_case(cfg, "s2g", IM_IC, gamma_s))


def op_a2a_integral(gamma_a, cfg, ic_mode=IM_IC):
    """Air-to-air outage probability by direct integration (im-IC or p-IC)."""
    return _outage(build_case(cfg, "a2a", ic_mode, gamma_a))
