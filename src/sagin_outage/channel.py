"""Fading models (shadowed-Rician, Nakagami-m, Rician) and the satellite link budget."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, gammaincc, gammaln, jv, poch

from .errors import ConfigError, DomainError
from .specfun import log_bessel_i0

BOLTZMANN = 1.380649e-23  # J/K


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watt(x_dbm):
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# shadowed-Rician satellite channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShadowedRicianParams:
    """Land-mobile-satellite power fading: Nakagami LOS over Rayleigh scatter.

    m_sr must be a positive integer; the finite-sum pdf and every series built
    on it assume it.
    """

    m_sr: int
    b_sr: float
    omega_sr: float

    def __post_init__(self):
        if not (isinstance(self.m_sr, (int, np.integer)) and self.m_sr >= 1):
            raise ConfigError("fading.m_sr must be a positive integer (series form of the pdf)")
        if self.b_sr <= 0:
            raise ConfigError("fading.b_sr must be positive")
        if self.omega_sr < 0:
            raise ConfigError("fading.omega_sr must be nonnegative")

    @property
    def alpha(self):
        two_b = 2.0 * self.b_sr
        return (two_b * self.m_sr / (two_b * self.m_sr + self.omega_sr)) ** self.m_sr / two_b

    @property
    def beta(self):
        return 1.0 / (2.0 * self.b_sr)

    @property
    def delta(self):
        two_b = 2.0 * self.b_sr
        return self.omega_sr / (two_b * (two_b * self.m_sr + self.omega_sr))

    @property
    def beta_bar(self):
        return self.beta - self.delta

    @property
    def mean_power(self):
        return 2.0 * self.b_sr + self.omega_sr

    def zeta(self):
        """Series coefficients zeta(k) = (-1)^k (1-m)_k delta^k / (k!)^2, k < m_sr."""
        k = np.arange(self.m_sr)
        fact = np.array([float(math.factorial(int(i))) for i in k])
        return (-1.0) ** k * poch(1 - self.m_sr, k) * self.delta ** k / fact ** 2


def shadowed_rician_power_pdf(x, p):
    """pdf alpha * sum_k zeta(k) x^k exp(-beta_bar x) on x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("channel power must be nonnegative")
    zk = p.zeta()
    poly = np.zeros_like(x)
    for k in range(p.m_sr - 1, -1, -1):
        poly = poly * x + zk[k]
    out = p.alpha * poly * np.exp(-p.beta_bar * x)
    return out if out.ndim else float(out)


def shadowed_rician_power_tail(x, p):
    """Pr[|g|^2 > x], exact finite sum: alpha * sum_k zeta(k) Gamma(k+1, bb x)/bb^(k+1)."""
    x = np.asarray(x, dtype=float)
    zk = p.zeta()
    bb = p.beta_bar
    out = np.zeros_like(x)
    for k in range(p.m_sr):
        out += zk[k] * gamma_fn(k + 1) * gammaincc(k + 1, bb * np.maximum(x, 0.0)) / bb ** (k + 1)
    out = p.alpha * out
    return np.clip(out, 0.0, 1.0) if out.ndim else float(np.clip(out, 0.0, 1.0))


def sample_shadowed_rician_power(rng, p, size=None, out=None, scratch=(None, None)):
    """|A + Z|^2 with A^2 ~ Gamma(m_sr, omega/m_sr) and Z complex with variance 2 b_sr.

    A is formed in ``scratch[0]`` and the power in ``out`` when they are given
    (``_los_scatter_power``); a scalar draw returns a float.
    """
    a = 0.0
    if p.omega_sr > 0:
        a = _gamma(rng, p.m_sr, p.omega_sr / p.m_sr, size, scratch[0])
        np.sqrt(a, out=a)
    return _los_scatter_power(rng, a, np.sqrt(p.b_sr), size, out, scratch[0])


def _gamma(rng, k, theta, size, out):
    """``rng.gamma(k, theta, size)`` to the bit, drawn into ``out`` when it is given.

    numpy forms a gamma variate as theta times a standard one, the product
    taken here in place.  Returns an array, 0-d for a scalar draw.
    """
    g = np.asarray(rng.standard_gamma(k, size, out=out))
    g *= theta
    return g


def _los_scatter_power(rng, los, s, size, out=None, tmp=None):
    """(los + s z1)^2 + (s z2)^2 for standard normals z1, then z2, formed in place.

    z1 is drawn into ``out`` and z2 into ``tmp`` when they are given, else into
    fresh arrays; ``los`` is added before z2 is drawn, so it may live in ``tmp``.
    The values are those of (los + rng.normal(0, s))^2 + rng.normal(0, s)^2 to
    the bit: ``normal`` draws the same z and returns 0 + s z, which differs
    from s z at most in the sign of a zero, and the square drops that sign.
    """
    re = np.asarray(rng.standard_normal(size, out=out))
    re *= s
    re += los
    np.square(re, out=re)
    im = np.asarray(rng.standard_normal(size, out=tmp))
    im *= s
    np.square(im, out=im)
    re += im
    return re[()]


# ---------------------------------------------------------------------------
# Nakagami-m ground channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NakagamiParams:
    m_rd: float
    nu_rd: float

    def __post_init__(self):
        if self.m_rd < 0.5:
            raise ConfigError("fading.m_rd must be >= 0.5")
        if self.nu_rd <= 0:
            raise ConfigError("fading.nu_rd must be positive")


def nakagami_power_pdf(x, p):
    """Unit-mean gamma density with shape m_rd."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("channel power must be nonnegative")
    m = p.m_rd
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = m * np.log(m) - gammaln(m) + (m - 1.0) * np.log(x) - m * x
        out = np.where(x > 0, np.exp(logpdf),
                       1.0 if m == 1 else (np.inf if m < 1 else 0.0))
    return out if out.ndim else float(out)


def nakagami_power_tail(x, p):
    x = np.asarray(x, dtype=float)
    out = gammaincc(p.m_rd, p.m_rd * np.maximum(x, 0.0))
    return out if out.ndim else float(out)


def sample_nakagami_power(rng, p, size=None, out=None):
    """Unit-mean Gamma(m_rd, 1/m_rd) power, drawn into ``out`` when it is given."""
    return _gamma(rng, p.m_rd, 1.0 / p.m_rd, size, out)[()]


# ---------------------------------------------------------------------------
# Rician aerial channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RicianParams:
    K_rt: float
    nu_rt: float

    def __post_init__(self):
        if self.K_rt < 0:
            raise ConfigError("fading.K_rt must be nonnegative")
        if self.nu_rt <= 0:
            raise ConfigError("fading.nu_rt must be positive")


def rician_power_pdf(x, p):
    """(1+K) exp(-K - (1+K)x) I0(2 sqrt(K(1+K)x)), the exponentials folded in log space."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("channel power must be nonnegative")
    K = p.K_rt
    arg = 2.0 * np.sqrt(K * (1.0 + K) * x)
    out = (1.0 + K) * np.exp(-K - (1.0 + K) * x + log_bessel_i0(arg))
    return out if out.ndim else float(out)


def rician_power_tail(x, p):
    """Pr[|g|^2 > x] through the noncentral-chi-square survival function."""
    # imported here, not at the top: scipy.stats more than doubles the import time
    # of the package, and only the a2a integral path and the below-knee mass
    # bound of build_case read this tail
    from scipy.stats import ncx2
    x = np.asarray(x, dtype=float)
    K = p.K_rt
    out = ncx2.sf(2.0 * (1.0 + K) * np.maximum(x, 0.0), 2, 2.0 * K)
    return out if out.ndim else float(out)


def sample_rician_power(rng, p, size=None, out=None, scratch=(None, None)):
    """|mu_los + Z|^2 with |mu_los|^2 = K/(1+K) and E|Z|^2 = 1/(1+K); unit mean.

    Formed in ``out``, with ``scratch[0]`` as its one temporary, when they are given.
    """
    K = p.K_rt
    return _los_scatter_power(rng, np.sqrt(K / (1.0 + K)), np.sqrt(0.5 / (1.0 + K)), size,
                              out, scratch[0])


# ---------------------------------------------------------------------------
# satellite link budget
# ---------------------------------------------------------------------------

def beam_gain(theta_sr, theta_3db, gain_r):
    """Satellite beam gain toward the relay.

    gain_r * (J1(rho)/(2 rho) + 36 J3(rho)/rho^3) with
    rho = 2.07123 sin(theta_sr)/sin(theta_3db); the rho -> 0 limit is gain_r.
    """
    if theta_sr < 0 or theta_3db <= 0:
        raise DomainError("beam_gain needs theta_sr >= 0 and theta_3db > 0")
    rho = 2.07123 * np.sin(theta_sr) / np.sin(theta_3db)
    if rho < 0:
        raise DomainError(f"beam_gain needs sin(theta_sr) / sin(theta_3db) >= 0, got "
                          f"theta_sr = {theta_sr!r} rad and theta_3db = {theta_3db!r} rad")
    if rho == 0.0:
        return float(gain_r)
    j_part = jv(1, rho) / (2.0 * rho) + 36.0 * jv(3, rho) / rho ** 3
    return float(gain_r * j_part)


@dataclass(frozen=True)
class SatelliteLink:
    """Physical constants that set the free-space scale and the effective gain.

    dB-valued inputs (rain attenuation, antenna gains) are converted as
    10^(x/10); angles are radians.
    """

    P_s: float
    xi_db: float
    wavelength: float
    T_noise: float
    bandwidth: float
    gain_s_db: float
    gain_r_db: float
    theta_sr: float
    theta_3db: float

    def __post_init__(self):
        if self.T_noise <= 0 or self.bandwidth <= 0:
            raise ConfigError("link.T_noise_k and link.bandwidth_hz must be positive")
        if self.P_s <= 0 or self.wavelength <= 0:
            raise ConfigError("link.P_s_w and link.lambda_m must be positive")

    @property
    def free_space_scale(self):
        xi = db_to_linear(self.xi_db)
        return float(xi ** 2 * self.wavelength ** 2
                     / ((4.0 * np.pi) ** 2 * BOLTZMANN * self.T_noise * self.bandwidth))


def effective_gain(link):
    """eta_s = P_s * C * gain_s * beam_gain(theta_sr)."""
    g_s = db_to_linear(link.gain_s_db)
    g_r = db_to_linear(link.gain_r_db)
    try:
        bg = beam_gain(link.theta_sr, link.theta_3db, g_r)
    except DomainError as exc:
        raise ConfigError(f"link.theta_sr_deg, link.theta_3db_deg: {exc}") from exc
    if not bg > 0:
        raise ConfigError(f"link.theta_sr_deg, link.theta_3db_deg and link.gain_sr_db give "
                          f"the beam gain {bg:.3g} toward the relay; it must be positive")
    eta = link.P_s * link.free_space_scale * g_s * bg
    if not (np.isfinite(eta) and eta > 0):
        raise ConfigError(f"link.P_s_w, link.xi_db, link.lambda_m, link.T_noise_k, "
                          f"link.bandwidth_hz, link.gain_s_db and link.gain_sr_db give the "
                          f"effective gain {eta:.3g}; it must be positive and finite")
    return float(eta)
