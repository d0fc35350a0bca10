"""Hybrid time/power-splitting energy harvesting and the relayed-link SNRs.

The harvested power is linear in the received satellite power up to the
saturation threshold and flat above it.  All SNR evaluators are vectorised:
fields of FadingDraw may be scalars or equal-length arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

IM_IC = "im-ic"
P_IC = "p-ic"


@dataclass(frozen=True)
class SwiptParams:
    chi: float        # conversion efficiency
    rho: float        # time-split fraction
    epsilon: float    # power-split fraction
    mu: float         # spectrum-sharing factor
    p_th: float       # saturation threshold power, W (may be inf for linear EH)
    block_s: float = 1.0

    def __post_init__(self):
        if not 0 < self.chi < 1:
            raise ConfigError("swipt.chi must lie in (0, 1)")
        if not 0 <= self.rho < 1:
            raise ConfigError("swipt.rho must lie in [0, 1)")
        if not 0 < self.epsilon < 1:
            raise ConfigError("swipt.epsilon must lie in (0, 1)")
        if not 0 < self.mu <= 1:
            raise ConfigError("swipt.mu must lie in (0, 1]")
        if not self.p_th > 0:
            raise ConfigError("swipt.p_th must be positive (inf selects linear EH)")
        if not self.block_s > 0:
            raise ConfigError("swipt.block_s must be positive")

    @property
    def chi_rho_eps(self):
        return self.chi * (2.0 * self.rho / (1.0 - self.rho) + self.epsilon)

    @property
    def mu_prime(self):
        if self.mu >= 1.0:
            return np.inf
        return self.mu / (1.0 - self.mu)


@dataclass(frozen=True)
class NoiseParams:
    """Receiver noise powers in watts."""

    sigma_r2: float
    sigma_rb2: float
    sigma_d2: float
    sigma_t2: float

    def __post_init__(self):
        for name in ("sigma_r2", "sigma_rb2", "sigma_d2", "sigma_t2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"noise.{name} must be positive")

    def mu_eps(self, sp):
        """Relay-noise weight mu (sigma_r^2 + sigma_rb^2/(1-epsilon))."""
        return sp.mu * (self.sigma_r2 + self.sigma_rb2 / (1.0 - sp.epsilon))


@dataclass
class FadingDraw:
    """One joint realisation: channel powers and distances (w_sr km, others m)."""

    X: np.ndarray       # |g_sr|^2
    Y: np.ndarray       # |g_rd|^2
    Z: np.ndarray       # |g_rt|^2
    w_sr_km: np.ndarray
    w_rd_m: np.ndarray
    w_rt_m: np.ndarray


def harvested_power(X, w_sr_m, eta_s, sp):
    """Relay transmit power: chi_(rho,eps) * min(eta_s X / w^2, p_th)."""
    X = np.asarray(X, dtype=float)
    if np.any(X < 0):
        raise DomainError("channel power must be nonnegative")
    recv = eta_s * X / np.asarray(w_sr_m, dtype=float) ** 2
    return sp.chi_rho_eps * np.minimum(recv, sp.p_th)


def shares(sp, network, ic_mode):
    """(signal, interference) shares of the relay's power in one outage case.

    The ground user decodes the primary share mu against the relay's own 1 - mu;
    the aerial receiver decodes 1 - mu against mu (im-IC) or nothing (p-IC).
    """
    if ic_mode not in (IM_IC, P_IC):
        raise ConfigError(f"ic_mode must be {IM_IC!r} or {P_IC!r}")
    if network == "s2g":
        return sp.mu, 1.0 - sp.mu
    if network == "a2a":
        return 1.0 - sp.mu, (sp.mu if ic_mode == IM_IC else 0.0)
    raise ConfigError(f"unknown network {network!r}")


def snr_gu(draw, eta_s, sp, noise, nu_rd=2.0):
    """End-to-end SNR at the ground user through the relay."""
    return _snr(draw, draw.Y, draw.w_rd_m, nu_rd, eta_s, sp, noise,
                noise.sigma_d2, shares(sp, "s2g", IM_IC))


def snr_arx(draw, eta_s, sp, noise, ic_mode=IM_IC, nu_rt=2.0):
    """SNR of the relay's own transmission at the aerial receiver."""
    return _snr(draw, draw.Z, draw.w_rt_m, nu_rt, eta_s, sp, noise,
                noise.sigma_t2, shares(sp, "a2a", ic_mode))


def _snr(draw, G, dist_m, nu, eta_s, sp, noise, s2, share):
    """signal chi lin g / (relay noise + interference chi lin g + s2), with
    g = G dist_m^-nu the destination gain and lin the harvester input."""
    signal, interference = share
    X = np.asarray(draw.X, dtype=float)
    G = np.asarray(G, dtype=float)
    w_m = np.asarray(draw.w_sr_km, dtype=float) * 1e3
    chi = sp.chi_rho_eps
    me = noise.mu_eps(sp)
    g_sat = eta_s * X / w_m ** 2
    g = G * np.asarray(dist_m, dtype=float) ** (-nu)
    lin = np.minimum(g_sat, sp.p_th)
    with np.errstate(divide="ignore", invalid="ignore"):
        relay_noise = np.where(g_sat > 0, me * chi * lin * g / g_sat, 0.0)
    # p-IC adds a scalar 0.0: no array pass, and the sum keeps its value to the bit
    return signal * chi * lin * g / (
        relay_noise + (interference * chi * lin * g if interference else 0.0) + s2)


def gamma_from_rate(rate, rho):
    """Outage threshold 2^(2 r / (1 - rho)) - 1 for the two-hop half block."""
    if not 0 <= rho < 1:
        raise DomainError("rho must lie in [0, 1) to leave transmission time")
    if rate < 0:
        raise DomainError("rate must be nonnegative")
    return float(2.0 ** (2.0 * rate / (1.0 - rho)) - 1.0)
