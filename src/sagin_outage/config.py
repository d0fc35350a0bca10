"""Scenario configuration: flat dotted-key files, defaults, and figure presets.

The file format is line-oriented ``section.key = value`` with ``#`` comments.
Absent keys fall back to the default network instance (heavy shadowing,
mu = 0.7, rho = 0.4, epsilon = 0.4, chi = 0.6, and the standard link/geometry
constants).  Distances are accepted in the units of the key name and
normalised internally (satellite legs km, aerial legs m).
"""

import math
import warnings
from dataclasses import dataclass, field

from .channel import (NakagamiParams, RicianParams, SatelliteLink,
                      ShadowedRicianParams, db_to_linear, dbm_to_watt,
                      effective_gain)
from .errors import ConfigError
from .geometry import ConeGeometry, OrbitGeometry
from .swipt import IM_IC, P_IC, NoiseParams, SwiptParams, gamma_from_rate

DEFAULTS = {
    "geometry.w_e_km": 6371.0,
    "geometry.w_min_km": 400.0,
    "geometry.h0_m": 800.0,
    "geometry.l_m": 250.0,
    "geometry.l_prime_m": 200.0,
    "geometry.h1_m": 400.0,
    "geometry.h2_m": 500.0,
    "geometry.phi_rad": math.pi / 12.0,
    "fading.m_sr": 2,
    "fading.b_sr": 0.063,
    "fading.omega_sr": 0.0005,
    "fading.m_rd": 2.0,
    "fading.nu_rd": 2.0,
    "fading.K_rt": 1.0,
    "fading.nu_rt": 2.0,
    "link.eta_s_db": None,          # direct override; wins over the physical chain
    "link.P_s_w": 1.0,
    "link.xi_db": 2.0,
    "link.lambda_m": 0.15,
    "link.T_noise_k": 300.0,
    "link.bandwidth_hz": 15e6,
    "link.gain_s_db": 53.45,
    "link.gain_sr_db": 4.8,
    "link.theta_sr_deg": 0.8,
    "link.theta_3db_deg": 0.3,
    "swipt.chi": 0.6,
    "swipt.rho": 0.4,
    "swipt.epsilon": 0.4,
    "swipt.mu": 0.7,
    "swipt.p_th_dbm": 5.0,          # "inf" selects the linear harvester
    "swipt.block_s": 1.0,
    "noise.sigma_r_dbm": -50.0,
    "noise.sigma_rb_dbm": -50.0,
    "noise.sigma_d_dbm": -50.0,
    "noise.sigma_t_dbm": -50.0,
    "rates.r_s": 0.1,
    "rates.r_a": 0.1,
    "rates.gamma_s_db": 5.0,
    "rates.gamma_a_db": 5.0,
    "rates.threshold_mode": "fixed",   # or "from_rate"
    "run.ic_mode": IM_IC,              # im-ic | p-ic | both
    "run.networks": "s2g,a2a",
    "run.methods": "mc,closed,integral",
    "run.trials": 1_000_000,
    "run.seed": 1,
    "run.cgq_n": 100,
    "sweep.variable": None,
    "sweep.start": None,
    "sweep.stop": None,
    "sweep.step": None,
    "sweep.values": None,
}

_INT_KEYS = {"fading.m_sr", "run.trials", "run.seed", "run.cgq_n"}
_STR_KEYS = {"rates.threshold_mode", "run.ic_mode", "run.networks",
             "run.methods", "sweep.variable", "sweep.values"}

# keys the sweep machinery may drive
SWEEPABLE = {
    "link.eta_s_db", "swipt.rho", "swipt.mu", "swipt.chi", "swipt.epsilon",
    "swipt.p_th_dbm", "rates.gamma_s_db", "rates.gamma_a_db", "fading.K_rt",
    "geometry.h0_m", "geometry.l_m", "geometry.w_min_km",
}


def _parse_scalar(key, text):
    text = text.strip()
    if key in _STR_KEYS:
        return text
    low = text.lower()
    if low in ("inf", "+inf", "infinity"):
        return math.inf
    if low in ("none", ""):
        return None
    try:
        if key in _INT_KEYS:
            return int(float(text))
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {text!r}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated parameter bundle for one network instance plus run/sweep settings."""

    raw: dict = field(repr=False)
    orbit: OrbitGeometry = field(init=False)
    cone: ConeGeometry = field(init=False)
    sr: ShadowedRicianParams = field(init=False)
    nak: NakagamiParams = field(init=False)
    ric: RicianParams = field(init=False)
    sp: SwiptParams = field(init=False)
    noise: NoiseParams = field(init=False)

    def __post_init__(self):
        raw = self.raw

        def g(key):
            return raw[key]

        def _set(name, value):
            object.__setattr__(self, name, value)

        try:
            _set("orbit", OrbitGeometry(w_e=g("geometry.w_e_km"),
                                        h_0=g("geometry.h0_m") / 1e3,
                                        w_min=g("geometry.w_min_km")))
            _set("cone", ConeGeometry(h_0=g("geometry.h0_m"), l=g("geometry.l_m"),
                                      h_1=g("geometry.h1_m"), h_2=g("geometry.h2_m"),
                                      phi=g("geometry.phi_rad")))
            m_sr = g("fading.m_sr")
            if not float(m_sr).is_integer() or m_sr < 1:
                raise ConfigError("fading.m_sr: the series form needs a positive integer")
            _set("sr", ShadowedRicianParams(m_sr=int(m_sr), b_sr=g("fading.b_sr"),
                                            omega_sr=g("fading.omega_sr")))
            _set("nak", NakagamiParams(m_rd=g("fading.m_rd"), nu_rd=g("fading.nu_rd")))
            _set("ric", RicianParams(K_rt=g("fading.K_rt"), nu_rt=g("fading.nu_rt")))
            p_th_dbm = g("swipt.p_th_dbm")
            p_th = math.inf if math.isinf(p_th_dbm) else float(dbm_to_watt(p_th_dbm))
            _set("sp", SwiptParams(chi=g("swipt.chi"), rho=g("swipt.rho"),
                                   epsilon=g("swipt.epsilon"), mu=g("swipt.mu"),
                                   p_th=p_th, block_s=g("swipt.block_s")))
            _set("noise", NoiseParams(sigma_r2=float(dbm_to_watt(g("noise.sigma_r_dbm"))),
                                      sigma_rb2=float(dbm_to_watt(g("noise.sigma_rb_dbm"))),
                                      sigma_d2=float(dbm_to_watt(g("noise.sigma_d_dbm"))),
                                      sigma_t2=float(dbm_to_watt(g("noise.sigma_t_dbm")))))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

        if g("rates.threshold_mode") not in ("fixed", "from_rate"):
            raise ConfigError("rates.threshold_mode must be 'fixed' or 'from_rate'")
        if g("rates.r_s") < 0 or g("rates.r_a") < 0:
            raise ConfigError("rates.r_s / rates.r_a must be nonnegative")
        if g("run.ic_mode") not in (IM_IC, P_IC, "both"):
            raise ConfigError("run.ic_mode must be 'im-ic', 'p-ic' or 'both'")
        for net in self.networks:
            if net not in ("s2g", "a2a"):
                raise ConfigError(f"run.networks: unknown network {net!r}")
        for meth in self.methods:
            if meth not in ("mc", "closed", "integral"):
                raise ConfigError(f"run.methods: unknown method {meth!r}")
        if g("run.trials") < 1:
            raise ConfigError("run.trials must be >= 1")
        # grid point i draws from seed run.seed + i, a 64-bit Philox key
        if not 0 <= g("run.seed") <= 2 ** 64 - self._grid_size():
            raise ConfigError("run.seed must be a nonnegative integer with "
                              "run.seed + (grid points - 1) below 2**64")
        if g("run.cgq_n") < 4:
            raise ConfigError("run.cgq_n must be >= 4")
        if self.methods and "closed" in self.methods and not float(g("fading.m_rd")).is_integer():
            raise ConfigError("fading.m_rd: the closed-form series requires an integer "
                              "order; use the integral/mc methods for real m_rd")
        if g("sweep.variable") is not None and g("sweep.variable") not in SWEEPABLE:
            raise ConfigError(f"sweep.variable: {g('sweep.variable')!r} is not sweepable "
                              f"(choose from {sorted(SWEEPABLE)})")

    # -- resolved quantities ------------------------------------------------

    @property
    def eta_s(self):
        """Effective satellite gain: direct dB override wins over the link chain."""
        direct = self.raw["link.eta_s_db"]
        if direct is not None:
            return float(db_to_linear(direct))
        link = SatelliteLink(P_s=self.raw["link.P_s_w"], xi_db=self.raw["link.xi_db"],
                             wavelength=self.raw["link.lambda_m"],
                             T_noise=self.raw["link.T_noise_k"],
                             bandwidth=self.raw["link.bandwidth_hz"],
                             gain_s_db=self.raw["link.gain_s_db"],
                             gain_r_db=self.raw["link.gain_sr_db"],
                             theta_sr=math.radians(self.raw["link.theta_sr_deg"]),
                             theta_3db=math.radians(self.raw["link.theta_3db_deg"]))
        return effective_gain(link)

    @property
    def gamma_s(self):
        if self.raw["rates.threshold_mode"] == "from_rate":
            return gamma_from_rate(self.raw["rates.r_s"], self.sp.rho)
        return float(db_to_linear(self.raw["rates.gamma_s_db"]))

    @property
    def gamma_a(self):
        if self.raw["rates.threshold_mode"] == "from_rate":
            return gamma_from_rate(self.raw["rates.r_a"], self.sp.rho)
        return float(db_to_linear(self.raw["rates.gamma_a_db"]))

    @property
    def networks(self):
        return tuple(s.strip() for s in self.raw["run.networks"].split(",") if s.strip())

    @property
    def methods(self):
        return tuple(s.strip() for s in self.raw["run.methods"].split(",") if s.strip())

    @property
    def ic_modes(self):
        mode = self.raw["run.ic_mode"]
        return (IM_IC, P_IC) if mode == "both" else (mode,)

    @property
    def trials(self):
        return self.raw["run.trials"]

    @property
    def seed(self):
        return self.raw["run.seed"]

    @property
    def cgq_n(self):
        return self.raw["run.cgq_n"]

    @property
    def sweep_values(self):
        """Grid for the configured sweep variable, or None for a single point."""
        raw = self.raw
        if raw["sweep.variable"] is None:
            return None
        if raw["sweep.values"]:
            return [float(v) for v in str(raw["sweep.values"]).split(",")]
        start, stop, step = raw["sweep.start"], raw["sweep.stop"], raw["sweep.step"]
        if start is None or stop is None or step is None:
            raise ConfigError("sweep: provide sweep.values or start/stop/step")
        n = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(n)]

    def _grid_size(self):
        """Number of sweep points; 1 when there is no grid or it is incomplete."""
        raw = self.raw
        if raw["sweep.variable"] is None:
            return 1
        if raw["sweep.values"]:
            return len(str(raw["sweep.values"]).split(","))
        try:
            n = int(round((raw["sweep.stop"] - raw["sweep.start"]) / raw["sweep.step"])) + 1
        except (TypeError, ValueError, ArithmeticError):
            return 1    # reported by sweep_values when the grid is read
        return max(n, 1)

    def with_overrides(self, overrides):
        """New config with the given flat keys replaced."""
        merged = dict(self.raw)
        for key, val in overrides.items():
            if key not in merged:
                raise ConfigError(f"unknown key {key!r}")
            merged[key] = val
        return ScenarioConfig(raw=merged)


def config_from_mapping(mapping):
    """Build a validated config from a {flat_key: value} mapping."""
    raw = dict(DEFAULTS)
    for key, val in mapping.items():
        if key not in raw:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = _parse_scalar(key, val) if isinstance(val, str) else val
    if raw["geometry.l_prime_m"] is not None and "geometry.l_prime_m" in mapping:
        warnings.warn("geometry.l_prime_m is accepted but unused by every expression",
                      stacklevel=2)
    if raw["link.eta_s_db"] is not None and "link.P_s_w" in mapping:
        warnings.warn("link.eta_s_db overrides the physical link constants",
                      stacklevel=2)
    return ScenarioConfig(raw=raw)


def load_config(path):
    """Parse a dotted-key file; unknown keys and bad values raise ConfigError."""
    mapping = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = text.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            mapping[key] = val.strip()
    return config_from_mapping(mapping)


def default_config():
    return config_from_mapping({})


# ---------------------------------------------------------------------------
# figure-style sweep presets
# ---------------------------------------------------------------------------

def _eta_grid(lo=80.0, hi=140.0, step=4.0):
    return {"sweep.variable": "link.eta_s_db", "sweep.start": lo,
            "sweep.stop": hi, "sweep.step": step}


FIGURE_PRESETS = {
    # outage of the satellite-to-ground leg vs effective gain
    "fig4": {**_eta_grid(), "run.networks": "s2g"},
    "fig5": {"sweep.variable": "swipt.rho", "sweep.start": 0.05, "sweep.stop": 0.90,
             "sweep.step": 0.05, "run.networks": "s2g",
             "rates.threshold_mode": "from_rate", "link.eta_s_db": 120.0},
    "fig7": {**_eta_grid(), "run.networks": "s2g"},
    "fig8": {**_eta_grid(), "run.networks": "s2g"},
    "fig9": {"sweep.variable": "swipt.mu", "sweep.start": 0.05, "sweep.stop": 0.95,
             "sweep.step": 0.05, "run.networks": "s2g",
             "rates.threshold_mode": "fixed", "rates.gamma_s_db": 0.0},
    # aerial network
    "fig10": {**_eta_grid(), "run.networks": "a2a", "run.ic_mode": "both"},
    "fig11": {**_eta_grid(), "run.networks": "a2a", "run.ic_mode": "both"},
    "fig12": {"sweep.variable": "swipt.rho", "sweep.start": 0.05, "sweep.stop": 0.90,
              "sweep.step": 0.05, "run.networks": "a2a", "run.ic_mode": "both",
              "rates.threshold_mode": "from_rate", "link.eta_s_db": 120.0},
    "fig14": {**_eta_grid(), "run.networks": "a2a", "run.ic_mode": "both"},
    # system throughput
    "fig15": {**_eta_grid(), "run.networks": "s2g,a2a",
              "rates.threshold_mode": "from_rate", "rates.r_s": 0.02, "rates.r_a": 0.02},
    "fig16": {**_eta_grid(), "run.networks": "s2g,a2a",
              "rates.threshold_mode": "from_rate", "rates.r_s": 0.02, "rates.r_a": 0.02},
}


def apply_preset(cfg, name):
    preset = FIGURE_PRESETS.get(name)
    if preset is None:
        raise ConfigError(f"unknown figure preset {name!r} "
                          f"(available: {', '.join(sorted(FIGURE_PRESETS))})")
    return cfg.with_overrides(preset)
