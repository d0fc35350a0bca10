"""Distance distributions for the satellite shell, ground-user disc and aerial cone.

Satellite distances are handled in km, aerial/ground distances in metres;
conversion to a single unit happens where SNRs are formed, not here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class OrbitGeometry:
    """Shell geometry for the satellite position, all lengths in km."""

    w_e: float      # Earth radius
    h_0: float      # relay altitude above ground
    w_min: float    # minimum satellite-relay distance

    def __post_init__(self):
        if not (self.w_e > 0 and self.w_min > 0 and self.h_0 >= 0):
            raise ConfigError("geometry.w_e_km, geometry.w_min_km must be > 0, geometry.h0_m >= 0")

    @property
    def w_er(self):
        return self.w_e + self.h_0

    @property
    def w_max(self):
        return float(np.sqrt(self.w_min ** 2 + 2.0 * self.w_er * self.w_min))


@dataclass(frozen=True)
class ConeGeometry:
    """Relay-centred geometry for ground users and the aerial receiver, in metres.

    The ground users live on a disc of radius l a depth h_0 below the relay;
    the aerial receiver is uniform in the cone of half-angle phi truncated by
    the planes at depths h_1 and h_2.
    """

    h_0: float
    l: float
    h_1: float
    h_2: float
    phi: float

    def __post_init__(self):
        if not (0 < self.h_1 < self.h_2):
            raise ConfigError("geometry.h1_m and geometry.h2_m need 0 < h1_m < h2_m")
        if not (0 < self.phi < np.pi / 2):
            raise ConfigError("geometry.phi_rad must lie in (0, pi/2)")
        if not (self.h_0 > 0 and self.l > 0):
            raise ConfigError("geometry.h0_m and geometry.l_m must be positive")

    @property
    def gu_max(self):
        """Largest relay to ground-user distance."""
        return float(np.hypot(self.h_0, self.l))

    @property
    def arx_max(self):
        """Largest relay to aerial-receiver distance, h_2 / cos(phi)."""
        return self.h_2 / np.cos(self.phi)

    def gu_pieces(self):
        """gu_distance_pdf as monomial pieces ((lo, hi, coeff, q),): coeff v^q on (lo, hi)."""
        return ((self.h_0, self.gu_max, 2.0 / self.l ** 2, 1),)

    def arx_pieces(self):
        """arx_distance_pdf as monomial pieces ((lo, hi, coeff, q), ...).

        Between breakpoints in {h_1, h_1/cos phi, h_2, h_2/cos phi}, the pdf's
        min(u, h_2) and max(u cos phi, h_1) are each one of their arguments, so
        each adds one u^2 or u term (min first); terms of one power share a piece.
        """
        c = math.cos(self.phi)
        norm = _cone_norm(self)
        breaks = sorted({self.h_1, self.h_1 / c, self.h_2, self.h_2 / c})
        pieces = []
        for lo, hi in zip(breaks, breaks[1:]):
            mid = 0.5 * (lo + hi)
            # (k, q): min(u, h_2) and max(u cos phi, h_1) as k u^(q-1)
            top = (1.0, 2) if mid < self.h_2 else (self.h_2, 1)
            bottom = (c, 2) if mid > self.h_1 / c else (self.h_1, 1)
            if top[1] == bottom[1]:
                terms = ((top[0] - bottom[0], top[1]),)
            else:
                terms = (top, (-bottom[0], bottom[1]))
            pieces += [(lo, hi, 6.0 * k / norm, q) for k, q in terms]
        return tuple(pieces)


# ---------------------------------------------------------------------------
# satellite-to-relay distance
# ---------------------------------------------------------------------------

def satellite_distance_pdf(w, geom):
    """pdf of the satellite distance: w / (w_er w_min) on [w_min, w_max]."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError("satellite_distance_pdf needs finite distances")
    out = np.where((w >= geom.w_min) & (w <= geom.w_max),
                   w / (geom.w_er * geom.w_min), 0.0)
    return out if out.ndim else float(out)


def satellite_distance_cdf(w, geom):
    """CDF (w^2 - w_min^2) / (2 w_er w_min), clipped to [0, 1]."""
    w = np.asarray(w, dtype=float)
    cdf = (w ** 2 - geom.w_min ** 2) / (2.0 * geom.w_er * geom.w_min)
    out = np.clip(cdf, 0.0, 1.0)
    out = np.where(w < geom.w_min, 0.0, out)
    return out if out.ndim else float(out)


def sample_satellite_distance(rng, geom, size=None, out=None):
    """Inverse-CDF sampler: sqrt(w_min^2 + 2 w_er w_min U), formed in place in U.

    U is drawn into ``out`` when it is given, else into a fresh array; a scalar
    draw (``size`` None) returns a float.
    """
    w = np.asarray(rng.random(size, out=out))
    w *= 2.0 * geom.w_er * geom.w_min
    w += geom.w_min ** 2
    return np.sqrt(w, out=w)[()]


# ---------------------------------------------------------------------------
# relay-to-ground-user distance
# ---------------------------------------------------------------------------

def gu_distance_pdf(v, geom):
    """pdf 2v / l^2 on [h_0, sqrt(h_0^2 + l^2)]."""
    v = np.asarray(v, dtype=float)
    out = np.where((v >= geom.h_0) & (v <= geom.gu_max), 2.0 * v / geom.l ** 2, 0.0)
    return out if out.ndim else float(out)


def gu_distance_cdf(v, geom):
    v = np.asarray(v, dtype=float)
    out = np.clip((v ** 2 - geom.h_0 ** 2) / geom.l ** 2, 0.0, 1.0)
    out = np.where(v < geom.h_0, 0.0, out)
    return out if out.ndim else float(out)


def sample_gu_distance(rng, geom, size=None, out=None):
    """Inverse-CDF sampler: sqrt(h_0^2 + l^2 U), formed in place in U (``out`` as above)."""
    v = np.asarray(rng.random(size, out=out))
    v *= geom.l ** 2
    v += geom.h_0 ** 2
    return np.sqrt(v, out=v)[()]


# ---------------------------------------------------------------------------
# relay-to-aerial-receiver distance (truncated cone)
# ---------------------------------------------------------------------------

def _cone_norm(geom):
    # pdf normalisation: uniform density over the truncated-cone volume leaves
    # a tan^2(phi) that the three-branch piecewise form must carry
    return math.tan(geom.phi) ** 2 * (geom.h_2 ** 3 - geom.h_1 ** 3)


def arx_distance_pdf(u, geom):
    """pdf of the relay to aerial-receiver distance.

    Equivalent to the per-case three-branch piecewise form: the spherical
    shell of radius u intersects the axial slab [h_1, h_2] between depths
    max(u cos phi, h_1) and min(u, h_2), giving
        f(u) = 6 u (min(u, h_2) - max(u cos phi, h_1)) / (tan^2 phi (h_2^3 - h_1^3)).
    Branch boundaries are continuous so the closed/open convention at the
    boundary (left-closed here) cannot be observed.
    """
    u = np.asarray(u, dtype=float)
    c = np.cos(geom.phi)
    dz = np.minimum(u, geom.h_2) - np.maximum(u * c, geom.h_1)
    out = np.where((u >= geom.h_1) & (u <= geom.h_2 / c),
                   6.0 * u * np.maximum(dz, 0.0) / _cone_norm(geom), 0.0)
    return out if out.ndim else float(out)


def arx_distance_cdf(u, geom):
    """CDF via the in-ball volume of the truncated cone.

    Vol(u)/Vol with Vol(u) built from the full-disc part (z <= u cos phi) and
    the spherical-cap part (z in [u cos phi, min(u, h_2)]).
    """
    u = np.asarray(u, dtype=float)
    c = np.cos(geom.phi)
    t2 = np.tan(geom.phi) ** 2
    h1, h2 = geom.h_1, geom.h_2

    z_full = np.clip(u * c, h1, h2)          # below: full discs inside ball
    disc_part = t2 * (z_full ** 3 - h1 ** 3) / 3.0
    disc_part = np.maximum(disc_part, 0.0)

    z_hi = np.clip(u, h1, h2)                # cap region z in [z_full, z_hi]
    lo = np.minimum(z_full, z_hi)
    cap_part = u ** 2 * (z_hi - lo) - (z_hi ** 3 - lo ** 3) / 3.0
    cap_part = np.maximum(cap_part, 0.0)

    vol = t2 * (h2 ** 3 - h1 ** 3) / 3.0
    out = np.clip((disc_part + cap_part) / vol, 0.0, 1.0)
    out = np.where(u < h1, 0.0, out)
    out = np.where(u >= h2 / c, 1.0, out)
    return out if out.ndim else float(out)


def sample_arx_distance(rng, geom, size=None, out=None, scratch=(None, None)):
    """Constructive sampler: depth z with density ~ z^2, uniform point on its disc.

    z = cbrt(h_1^3 + (h_2^3 - h_1^3) U1) is formed in place in U1, which is
    drawn into ``out`` when it is given; sqrt(U2) and the radius
    (z tan phi) sqrt(U2) go to ``scratch[0]`` and ``scratch[1]`` when they are
    given.  A scalar draw returns a float.
    """
    z = np.asarray(rng.random(size, out=out))
    s = np.asarray(rng.random(size, out=scratch[0]))
    z *= geom.h_2 ** 3 - geom.h_1 ** 3
    z += geom.h_1 ** 3
    np.cbrt(z, out=z)
    np.sqrt(s, out=s)
    r = np.multiply(z, np.tan(geom.phi), out=scratch[1])
    r *= s
    return np.hypot(z, r, out=z)[()]
