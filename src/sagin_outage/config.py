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

import numpy as np

from .channel import (NakagamiParams, RicianParams, SatelliteLink,
                      ShadowedRicianParams, db_to_linear, dbm_to_watt,
                      effective_gain)
from .errors import ConfigError
from .geometry import ConeGeometry, OrbitGeometry
from .swipt import IM_IC, NETWORKS, P_IC, NoiseParams, SwiptParams, gamma_from_rate

DEFAULTS = {
    "geometry.w_e_km": 6371.0,
    "geometry.w_min_km": 400.0,
    "geometry.h0_m": 800.0,
    "geometry.l_m": 250.0,
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
# a start/stop/step sweep longer than this is taken for a mistyped step
MAX_GRID_POINTS = 10_000
_STR_KEYS = {"rates.threshold_mode", "run.ic_mode", "run.networks",
             "run.methods", "sweep.variable", "sweep.values"}
# the evaluation paths, in the order a sweep runs them
METHODS = ("mc", "closed", "integral")

# keys the sweep machinery may drive
SWEEPABLE = {
    "link.eta_s_db", "swipt.rho", "swipt.mu", "swipt.chi", "swipt.epsilon",
    "swipt.p_th_dbm", "rates.r_s", "rates.r_a", "rates.gamma_s_db", "rates.gamma_a_db",
    "fading.K_rt",
    "geometry.h0_m", "geometry.l_m", "geometry.w_min_km",
}


def _parse_scalar(key, text):
    text = text.strip()
    # "none" or nothing unsets a key without a default; a number key with one needs a number
    if text.lower() in ("none", "") and DEFAULTS[key] is None:
        return None
    if key in _STR_KEYS:
        return text
    if key in _INT_KEYS:
        try:
            return int(text)        # exact: a seed above 2**53 is not rounded
        except ValueError:
            pass                    # integral float forms such as 1e6
    try:
        return float(text)          # also reads "inf" (swipt.p_th_dbm = inf: linear EH)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {text!r}") from exc


def _finite(key, value):
    """``value`` unless it is a non-finite number; only swipt.p_th_dbm takes +inf (linear EH).
    An integer key takes an integral float as its int and rejects any other float."""
    if key in _INT_KEYS and isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"{key}: {value!r} is not an integer")
        return int(value)
    if (isinstance(value, float) and not math.isfinite(value)
            and not (key == "swipt.p_th_dbm" and value == math.inf)):
        raise ConfigError(f"{key}: {value!r} is not a finite number")
    return value


def _merged(raw, mapping):
    """Copy of ``raw`` with ``mapping`` applied; text values are parsed as in a file."""
    merged = dict(raw)
    for key, val in mapping.items():
        if key not in merged:
            raise ConfigError(f"unknown key {key!r}")
        merged[key] = _finite(key, _parse_scalar(key, val) if isinstance(val, str) else val)
    return merged


def _sweep_grid(raw):
    """Grid for the configured sweep variable, or None for a single point.

    A start/stop/step grid is counted before it is built, so a mistyped step
    raises instead of filling memory, and its last point must land on sweep.stop.
    """
    if raw["sweep.variable"] is None:
        return None
    if raw["sweep.values"]:
        try:
            return [_finite(raw["sweep.variable"], float(v))
                    for v in str(raw["sweep.values"]).split(",")]
        except ValueError as exc:
            raise ConfigError(f"sweep.values: {exc}") from exc
    start, stop, step = raw["sweep.start"], raw["sweep.stop"], raw["sweep.step"]
    if start is None or stop is None or step is None:
        raise ConfigError("sweep: provide sweep.values or start/stop/step")
    try:
        n = int(round((stop - start) / step)) + 1
    except (TypeError, ValueError, ArithmeticError):
        n = 0
    if n < 1 or abs(start + (n - 1) * step - stop) > 1e-9 * abs(step):
        raise ConfigError("sweep.step: start/stop/step must be finite, with a nonzero step "
                          "that leads from sweep.start to sweep.stop in whole steps")
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"sweep: start/stop/step give {n} points, more than "
                          f"{MAX_GRID_POINTS}; check sweep.step")
    return [start + i * step for i in range(n)]


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated parameter bundle for one network instance plus run/sweep settings.

    Every derived quantity is computed and checked once, at construction.
    """

    raw: dict = field(repr=False)
    orbit: OrbitGeometry = field(init=False)
    cone: ConeGeometry = field(init=False)
    sr: ShadowedRicianParams = field(init=False)
    nak: NakagamiParams = field(init=False)
    ric: RicianParams = field(init=False)
    sp: SwiptParams = field(init=False)
    noise: NoiseParams = field(init=False)
    eta_s: float = field(init=False)            # effective satellite gain, linear
    gamma_s: float = field(init=False)          # outage thresholds, linear
    gamma_a: float = field(init=False)
    networks: tuple = field(init=False)
    methods: tuple = field(init=False)
    ic_modes: tuple = field(init=False)
    sweep_values: list = field(init=False)      # None for a single point

    def __post_init__(self):
        raw = self.raw

        def g(key):
            return raw[key]

        def linear(key, convert=db_to_linear):
            """convert(raw[key]), which must come out a finite float."""
            try:
                with np.errstate(over="ignore"):
                    value = float(convert(raw[key]))
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{key}: {raw[key]!r} gives a linear value beyond "
                                  "the float range")
            return value

        def names(key):
            if not isinstance(raw[key], str):
                raise ConfigError(f"{key}: expected comma-separated text, got {raw[key]!r}")
            out = tuple(s.strip() for s in raw[key].split(",") if s.strip())
            if not out:
                raise ConfigError(f"{key}: names nothing to compute")
            return out

        def _set(name, value):
            object.__setattr__(self, name, value)

        try:
            _set("orbit", OrbitGeometry(w_e=g("geometry.w_e_km"),
                                        h_0=g("geometry.h0_m") / 1e3,
                                        w_min=g("geometry.w_min_km")))
            _set("cone", ConeGeometry(h_0=g("geometry.h0_m"), l=g("geometry.l_m"),
                                      h_1=g("geometry.h1_m"), h_2=g("geometry.h2_m"),
                                      phi=g("geometry.phi_rad")))
            _set("sr", ShadowedRicianParams(m_sr=g("fading.m_sr"), b_sr=g("fading.b_sr"),
                                            omega_sr=g("fading.omega_sr")))
            _set("nak", NakagamiParams(m_rd=g("fading.m_rd"), nu_rd=g("fading.nu_rd")))
            _set("ric", RicianParams(K_rt=g("fading.K_rt"), nu_rt=g("fading.nu_rt")))
            p_th_dbm = g("swipt.p_th_dbm")
            p_th = math.inf if math.isinf(p_th_dbm) else linear("swipt.p_th_dbm", dbm_to_watt)
            _set("sp", SwiptParams(chi=g("swipt.chi"), rho=g("swipt.rho"),
                                   epsilon=g("swipt.epsilon"), mu=g("swipt.mu"),
                                   p_th=p_th, block_s=g("swipt.block_s")))
            _set("noise", NoiseParams(sigma_r2=linear("noise.sigma_r_dbm", dbm_to_watt),
                                      sigma_rb2=linear("noise.sigma_rb_dbm", dbm_to_watt),
                                      sigma_d2=linear("noise.sigma_d_dbm", dbm_to_watt),
                                      sigma_t2=linear("noise.sigma_t_dbm", dbm_to_watt)))
            if g("link.eta_s_db") is not None:     # a direct override wins over the link chain
                _set("eta_s", linear("link.eta_s_db"))
                ignored = [key for key in raw if key.startswith("link.")
                           and key != "link.eta_s_db" and raw[key] != DEFAULTS[key]]
                if ignored:
                    warnings.warn(f"link.eta_s_db overrides the physical link constants "
                                  f"{ignored}", stacklevel=4)
            else:       # a gain past the float range is effective_gain's ConfigError
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    _set("eta_s", effective_gain(SatelliteLink(
                        P_s=g("link.P_s_w"), xi_db=g("link.xi_db"),
                        wavelength=g("link.lambda_m"), T_noise=g("link.T_noise_k"),
                        bandwidth=g("link.bandwidth_hz"), gain_s_db=g("link.gain_s_db"),
                        gain_r_db=g("link.gain_sr_db"),
                        theta_sr=math.radians(g("link.theta_sr_deg")),
                        theta_3db=math.radians(g("link.theta_3db_deg")))))
            threshold_mode = g("rates.threshold_mode")
            if threshold_mode not in ("fixed", "from_rate"):
                raise ConfigError("rates.threshold_mode must be 'fixed' or 'from_rate'")
            if g("rates.r_s") < 0 or g("rates.r_a") < 0:
                raise ConfigError("rates.r_s / rates.r_a must be nonnegative")
            if threshold_mode == "from_rate":
                rate = lambda r: gamma_from_rate(r, self.sp.rho)
                _set("gamma_s", linear("rates.r_s", rate))
                _set("gamma_a", linear("rates.r_a", rate))
            else:
                _set("gamma_s", linear("rates.gamma_s_db"))
                _set("gamma_a", linear("rates.gamma_a_db"))
            ic_mode = g("run.ic_mode")
            if ic_mode not in (IM_IC, P_IC, "both"):
                raise ConfigError("run.ic_mode must be 'im-ic', 'p-ic' or 'both'")
            _set("ic_modes", (IM_IC, P_IC) if ic_mode == "both" else (ic_mode,))
            _set("networks", names("run.networks"))
            for net in self.networks:
                if net not in NETWORKS:
                    raise ConfigError(f"run.networks: unknown network {net!r}")
            _set("methods", names("run.methods"))
            for meth in self.methods:
                if meth not in METHODS:
                    raise ConfigError(f"run.methods: unknown method {meth!r}")
            if g("run.trials") < 1:
                raise ConfigError("run.trials must be >= 1")
            if g("run.cgq_n") < 4:
                raise ConfigError("run.cgq_n must be >= 4")
            if "closed" in self.methods and not float(g("fading.m_rd")).is_integer():
                raise ConfigError("fading.m_rd: the closed-form series requires an integer "
                                  "order; use the integral/mc methods for real m_rd")
            if g("sweep.variable") is not None and g("sweep.variable") not in SWEEPABLE:
                raise ConfigError(f"sweep.variable: {g('sweep.variable')!r} is not sweepable "
                                  f"(choose from {sorted(SWEEPABLE)})")
            if threshold_mode == "from_rate" and g("sweep.variable") in ("rates.gamma_s_db",
                                                                         "rates.gamma_a_db"):
                raise ConfigError(f"sweep.variable: {g('sweep.variable')} sets no threshold under "
                                  "rates.threshold_mode = from_rate, so its sweep would be flat")
            _set("sweep_values", _sweep_grid(raw))
            # grid point i draws from seed run.seed + i, a 64-bit Philox key
            if not 0 <= g("run.seed") <= 2 ** 64 - len(self.sweep_values or [None]):
                raise ConfigError("run.seed must be a nonnegative integer with "
                                  "run.seed + (grid points - 1) below 2**64")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def trials(self):
        return self.raw["run.trials"]

    @property
    def seed(self):
        return self.raw["run.seed"]

    @property
    def cgq_n(self):
        return self.raw["run.cgq_n"]

    def with_overrides(self, overrides):
        """New config with the given flat keys replaced; text is parsed as in a file."""
        return ScenarioConfig(raw=_merged(self.raw, overrides))


def config_from_mapping(mapping):
    """Build a validated config from a {flat_key: value} mapping."""
    return ScenarioConfig(raw=_merged(DEFAULTS, mapping))


def load_config(path):
    """Parse a dotted-key file; unknown keys and bad values raise ConfigError."""
    mapping = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
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
    "fig9": {"sweep.variable": "swipt.mu", "sweep.start": 0.05, "sweep.stop": 0.95,
             "sweep.step": 0.05, "run.networks": "s2g",
             "rates.threshold_mode": "fixed", "rates.gamma_s_db": 0.0},
    # aerial network
    "fig10": {**_eta_grid(), "run.networks": "a2a", "run.ic_mode": "both"},
    "fig12": {"sweep.variable": "swipt.rho", "sweep.start": 0.05, "sweep.stop": 0.90,
              "sweep.step": 0.05, "run.networks": "a2a", "run.ic_mode": "both",
              "rates.threshold_mode": "from_rate", "link.eta_s_db": 120.0},
    # system throughput
    "fig15": {**_eta_grid(), "run.networks": "s2g,a2a",
              "rates.threshold_mode": "from_rate", "rates.r_s": 0.02, "rates.r_a": 0.02},
}


def apply_preset(cfg, name):
    preset = FIGURE_PRESETS.get(name)
    if preset is None:
        raise ConfigError(f"unknown figure preset {name!r} "
                          f"(available: {', '.join(sorted(FIGURE_PRESETS))})")
    return cfg.with_overrides(preset)
