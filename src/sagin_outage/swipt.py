"""Hybrid time/power-splitting energy harvesting and the relayed-link SNRs.

The harvested power is linear in the received satellite power up to the
saturation threshold and flat above it: the ``min(g_sat, p_th)`` of
``case_snrs`` (the analytic paths carry it as the saturation point of
``analytic.coefficients.build_case``).  All SNR evaluators are vectorised:
fields of FadingDraw may be scalars or equal-length arrays.  ``case_snrs`` is
the one SNR formula: it forms every requested case's SNR in one in-place pass,
and ``snr_gu`` and ``snr_arx`` are its one-case calls.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

IM_IC = "im-ic"
P_IC = "p-ic"
NETWORKS = ("s2g", "a2a")


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
            raise ConfigError("swipt.p_th_dbm must give a positive power (inf: linear EH)")
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
        for name in ("sigma_r", "sigma_rb", "sigma_d", "sigma_t"):
            if getattr(self, name + "2") <= 0:
                raise ConfigError(f"noise.{name}_dbm must give a positive power")

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
    (_, snr), = case_snrs(draw, eta_s, sp, noise, [("s2g", IM_IC)], nu_rd=nu_rd)
    return snr[()]


def snr_arx(draw, eta_s, sp, noise, ic_mode=IM_IC, nu_rt=2.0):
    """SNR of the relay's own transmission at the aerial receiver."""
    (_, snr), = case_snrs(draw, eta_s, sp, noise, [("a2a", ic_mode)], nu_rt=nu_rt)
    return snr[()]


def case_snrs(draw, eta_s, sp, noise, cases, nu_rd=2.0, nu_rt=2.0, scratch=None):
    """Yield ``(case, snr)`` for every (network, ic_mode) case, in one pass over ``draw``.

    Each SINR is  signal chi lin g / (relay noise + interference chi lin g + s2),
    with g = G dist^-nu the destination gain, lin = min(g_sat, p_th) the
    harvester input and relay noise = mu_eps chi lin g / g_sat (0 where
    g_sat = eta_s X / w_sr^2 is not positive).  g_sat and lin are formed once;
    g, the relay noise and the numerator once per network; the interference
    term and the division once per case.  Every product and sum keeps the
    order of the expression above, so an snr is the same to the bit whichever
    cases share the pass.  Cases come grouped by network, in request order
    within one.  The work is done in place in six float buffers and one bool
    mask of the SNRs' shape: ``scratch``, a pair (six float arrays, mask), when
    it is given, else fresh ones.  A yielded array is one of those buffers and
    is overwritten by the next case, so read it before asking for the next.
    """
    per_net = {"s2g": (draw.Y, draw.w_rd_m, nu_rd, noise.sigma_d2),
               "a2a": (draw.Z, draw.w_rt_m, nu_rt, noise.sigma_t2)}
    by_net = {}      # network -> (signal share, [(ic_mode, interference share)])
    for network, ic_mode in cases:
        signal, interference = shares(sp, network, ic_mode)
        by_net.setdefault(network, (signal, []))[1].append((ic_mode, interference))
    X = np.asarray(draw.X, dtype=float)
    w_m = np.asarray(draw.w_sr_km, dtype=float)
    if scratch is None:
        shape = np.broadcast_shapes(X.shape, w_m.shape, *(
            np.shape(a) for net in by_net for a in per_net[net][:2]))
        scratch = [np.empty(shape) for _ in range(6)], np.empty(shape, dtype=bool)
    (g_sat, lin, g, relay_noise, num, snr), zero = scratch
    chi, me = sp.chi_rho_eps, noise.mu_eps(sp)
    np.multiply(w_m, 1e3, out=lin)
    np.square(lin, out=lin)
    np.multiply(X, eta_s, out=g_sat)
    g_sat /= lin
    np.minimum(g_sat, sp.p_th, out=lin)
    np.greater(g_sat, 0, out=zero)
    np.logical_not(zero, out=zero)
    for network, (signal, modes) in by_net.items():
        G, dist_m, nu, s2 = per_net[network]
        np.power(np.asarray(dist_m, dtype=float), -nu, out=g)
        g *= G
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(lin, me * chi, out=relay_noise)
            relay_noise *= g
            relay_noise /= g_sat
        np.copyto(relay_noise, 0.0, where=zero)
        np.multiply(lin, signal * chi, out=num)
        num *= g
        for ic_mode, interference in modes:
            if interference:
                np.multiply(lin, interference * chi, out=snr)
                snr *= g
                snr += relay_noise
                snr += s2
            else:
                # p-IC: adding a zero interference term would change no bit
                np.add(relay_noise, s2, out=snr)
            np.divide(num, snr, out=snr)
            yield (network, ic_mode), snr


def gamma_from_rate(rate, rho):
    """Outage threshold 2^(2 r / (1 - rho)) - 1 for the two-hop half block."""
    if not 0 <= rho < 1:
        raise DomainError("rho must lie in [0, 1) to leave transmission time")
    if rate < 0:
        raise DomainError("rate must be nonnegative")
    return float(2.0 ** (2.0 * rate / (1.0 - rho)) - 1.0)
