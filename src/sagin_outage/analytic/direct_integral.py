"""Outage probabilities by adaptive nested quadrature of the exact integrals.

This path evaluates the pre-simplification probability integrals directly:
destination fading tail analytic, satellite fading and both distances by
tensor Gauss-Legendre rules (log-spaced in the satellite-fading variable).
It is the arbiter the closed-form series is validated against and supports
non-integer destination fading orders.
"""

import math

import numpy as np

from ..errors import NumericError
from ..specfun import _leggauss_cached
from ..swipt import IM_IC
from .coefficients import build_case

_TAIL_CUT = 800.0      # exp(-x) below ~1e-300: integrand support cut-off
_LEVELS = ((64, 64, 160), (96, 96, 288), (144, 144, 512))


def _dest_nodes(case, n_per_piece):
    us, ws = [], []
    x, w = _leggauss_cached(n_per_piece)
    for lo, hi, coeff, q in case.dest_pieces:
        half = 0.5 * (hi - lo)
        u = half * (x + 1.0) + lo
        us.append(u)
        ws.append(coeff * u ** q * w * half)
    return np.concatenate(us), np.concatenate(ws)


def _sat_nodes(case, n_w):
    x, w = _leggauss_cached(n_w)
    half = 0.5 * (case.w_max_m - case.w_min_m)
    wm = half * (x + 1.0) + case.w_min_m
    return wm, (wm / case.w_norm_m2) * w * half


def _sr_poly(case, x):
    out = np.zeros_like(x)
    for k in range(case.m_sr - 1, -1, -1):
        out = out * x + case.zeta[k]
    return out


def _sat_factor(case, z, w_nodes, w_wts):
    """F(z) = int f_w (w^2/a) f_X((z+b) w^2 / a) dw evaluated on the z grid."""
    a, b = case.coeff.a_lin, case.coeff.b_lin
    w2a = w_nodes ** 2 / a                       # (nw,)
    x = np.outer(z + b, w2a)                     # (nz, nw)
    with np.errstate(over="ignore", under="ignore"):
        vals = case.alpha * _sr_poly(case, x) * np.exp(-case.beta_bar * x)
    return (vals * (w2a * w_wts)[None, :]).sum(axis=1)


def _log_grid(z_lo, z_hi, n_z):
    x, w = _leggauss_cached(n_z)
    s_lo, s_hi = math.log(z_lo), math.log(z_hi)
    half = 0.5 * (s_hi - s_lo)
    s = half * (x + 1.0) + s_lo
    z = np.exp(s)
    return z, w * half * z      # jacobian z ds


def _branch1(case, n_dest, n_w, n_z):
    """Pr[success, unsaturated]: z = a X w^-2 - b in (0, p_sat]."""
    co = case.coeff
    p_hi = co.p_sat
    if not p_hi > 0:
        return 0.0
    z_cut = _TAIL_CUT * co.a_lin / (case.beta_bar * case.w_min_m ** 2) - co.b_lin
    z_hi = min(p_hi, max(z_cut, 0.0))
    if not z_hi > 0:
        return 0.0
    z_lo = case.dest_c * case.dest_lo ** case.nu / _TAIL_CUT * 1e-3
    z_lo = max(min(z_lo, z_hi * 1e-2), z_hi * 1e-18)
    u, uw = _dest_nodes(case, n_dest)
    wn, ww = _sat_nodes(case, n_w)
    z, zw = _log_grid(z_lo, z_hi, n_z)
    thr = np.outer(1.0 / z, case.sigma2 * case.gamma * u ** case.nu)   # (nz, nu)
    dest = (np.asarray(case.dest_tail(thr)) * uw[None, :]).sum(axis=1)
    sat = _sat_factor(case, z, wn, ww)
    return float(np.sum(zw * sat * dest))


def _branch2(case, n_dest, n_w, n_z):
    """Pr[success, saturated]: z in (max(p_sat, 0), inf)."""
    co = case.coeff
    if math.isinf(co.p_th):
        return 0.0
    z0 = max(co.p_sat, 0.0)
    # the branch mass is bounded by the SR tail beyond the saturation point
    x_min = (z0 + co.b_lin) * case.w_min_m ** 2 / co.a_lin
    if case.beta_bar * x_min > _TAIL_CUT:
        return 0.0
    z_cut = z0 + _TAIL_CUT * co.a_lin / (case.beta_bar * case.w_min_m ** 2)
    scale2 = co.eta_s / (co.p_th * co.a_lin)      # T = sigma2 gamma u^nu (z+b)/z * scale2
    if z0 > 0:
        z_lo = z0
    else:
        z_lo = case.dest_c * scale2 * case.dest_lo ** case.nu * co.b_lin / _TAIL_CUT * 1e-3
        z_lo = max(z_lo, z_cut * 1e-18)
    z_hi = max(z_cut, z_lo * (1.0 + 1e-9))
    u, uw = _dest_nodes(case, n_dest)
    wn, ww = _sat_nodes(case, n_w)
    z, zw = _log_grid(z_lo, z_hi, n_z)
    ratio = (z + co.b_lin) / z
    thr = np.outer(ratio, case.sigma2 * case.gamma * scale2 * u ** case.nu)
    dest = (np.asarray(case.dest_tail(thr)) * uw[None, :]).sum(axis=1)
    sat = _sat_factor(case, z, wn, ww)
    return float(np.sum(zw * sat * dest))


def _outage(case, abs_tol=1e-6):
    if case.gamma <= 0.0:
        return 0.0
    if not case.feasible:
        return 1.0
    prev = None
    for n_dest, n_w, n_z in _LEVELS:
        p1 = _branch1(case, n_dest, n_w, n_z)
        p2 = _branch2(case, n_dest, n_w, n_z)
        val = 1.0 - p1 - p2
        if prev is not None and abs(val - prev) < 0.5 * abs_tol:
            return float(min(max(val, 0.0), 1.0))
        prev = val
    raise NumericError("outage quadrature did not reach the requested tolerance",
                       {"network": case.network, "gamma": case.gamma, "last": prev})


def op_s2g_integral(gamma_s, cfg, ctx=None):
    """Satellite-to-ground outage probability by direct integration."""
    case = build_case(cfg, "s2g", IM_IC, gamma_s, ctx)
    return _outage(case)


def op_a2a_integral(gamma_a, cfg, ic_mode=IM_IC, ctx=None):
    """Air-to-air outage probability by direct integration (im-IC or p-IC)."""
    case = build_case(cfg, "a2a", ic_mode, gamma_a, ctx)
    return _outage(case)
