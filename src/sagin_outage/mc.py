"""Monte Carlo outage and throughput estimation.

Trials are drawn in fixed-size blocks, each from its own Philox substream
keyed by (seed, block index) through the counter words.  Estimates are
therefore bit-identical for a given (config, trials, seed) no matter how the
blocks are scheduled across workers, and no matter which other (network,
IC mode) cases are counted on the same draws: one pass over the blocks
serves every requested case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic.throughput import throughput_from_ops
from .errors import ConfigError
from .geometry import (sample_arx_distance, sample_gu_distance,
                       sample_satellite_distance)
from .channel import (sample_nakagami_power, sample_rician_power,
                      sample_shadowed_rician_power)
from .swipt import IM_IC, P_IC, FadingDraw, snr_arx, snr_gu

BLOCK = 1 << 16

# outage below ~10 successes-worth of resolution is flagged, not trusted
RESOLUTION_FACTOR = 10.0


@dataclass(frozen=True)
class OutageEstimate:
    """One outage probability with its provenance."""

    value: float
    std_error: float
    trials: int
    method: str
    seed: int = 0
    flags: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ConfigError("outage estimate outside [0, 1]")


@dataclass(frozen=True)
class SharedDrawEstimates:
    """Outage estimates of several (network, ic_mode) cases on one set of draws."""

    trials: int
    seed: int
    estimates: dict          # (network, ic_mode) -> OutageEstimate, in request order
    im_only: int = None      # trials in a2a outage under im-IC but not p-IC,
                             # counted when both modes are requested

    def __getitem__(self, case):
        return self.estimates[case]


def _block_rng(seed, block_index):
    # Philox counter words: (0, 0, block, brand); key from the user seed
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=[0, 0, np.uint64(block_index), np.uint64(0x5A61)])
    return np.random.Generator(bitgen)


def draw_block(cfg, rng, n):
    """One independent block-fading realisation per trial."""
    w_sr = sample_satellite_distance(rng, cfg.orbit, n)      # km
    w_rd = sample_gu_distance(rng, cfg.cone, n)              # m
    w_rt = sample_arx_distance(rng, cfg.cone, n)             # m
    X = sample_shadowed_rician_power(rng, cfg.sr, n)
    Y = sample_nakagami_power(rng, cfg.nak, n)
    Z = sample_rician_power(rng, cfg.ric, n)
    return FadingDraw(X=X, Y=Y, Z=Z, w_sr_km=w_sr, w_rd_m=w_rd, w_rt_m=w_rt)


def _snr_for(cfg, draw, network, ic_mode):
    eta = cfg.eta_s
    if network == "s2g":
        return snr_gu(draw, eta, cfg.sp, cfg.noise, nu_rd=cfg.nak.nu_rd)
    if network == "a2a":
        return snr_arx(draw, eta, cfg.sp, cfg.noise, ic_mode=ic_mode,
                       nu_rt=cfg.ric.nu_rt)
    raise ConfigError(f"unknown network {network!r}")


def _gamma_for(cfg, network):
    return cfg.gamma_s if network == "s2g" else cfg.gamma_a


def _estimate(failures, trials, seed):
    value = failures / trials
    se = math.sqrt(value * (1.0 - value) / trials)
    flags = ("resolution_floor",) if 0 < value < RESOLUTION_FACTOR / trials else ()
    return OutageEstimate(value=value, std_error=se, trials=trials,
                          method="mc", seed=seed, flags=flags)


def simulate_op(cfg, network, ic_mode=IM_IC, trials=None, seed=None):
    """Outage frequency over exact per-trial SNRs, with binomial standard error.

    ``network`` is "s2g" or "a2a" for one ``OutageEstimate``, or a sequence of
    (network, ic_mode) cases counted on one pass over the Philox blocks and
    returned as a ``SharedDrawEstimates``.  Each case's estimate is
    bit-identical to the single-case call with the same (config, trials, seed).
    """
    if isinstance(network, str):
        return simulate_op(cfg, [(network, ic_mode)], trials=trials, seed=seed)[network, ic_mode]
    trials = cfg.trials if trials is None else int(trials)
    seed = cfg.seed if seed is None else int(seed)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must lie in [0, 2**64)")
    failures = dict.fromkeys(map(tuple, network), 0)
    gammas = {case: _gamma_for(cfg, case[0]) for case in failures}
    paired = ("a2a", IM_IC) in failures and ("a2a", P_IC) in failures
    im_only = 0
    for block_index, start in enumerate(range(0, trials, BLOCK)):
        draw = draw_block(cfg, _block_rng(seed, block_index), min(BLOCK, trials - start))
        out = {case: _snr_for(cfg, draw, *case) < g for case, g in gammas.items()}
        for case, o in out.items():
            failures[case] += int(np.count_nonzero(o))
        if paired:
            im_only += int(np.count_nonzero(out["a2a", IM_IC] & ~out["a2a", P_IC]))
    return SharedDrawEstimates(
        trials=trials, seed=seed,
        estimates={case: _estimate(f, trials, seed) for case, f in failures.items()},
        im_only=im_only if paired else None)


def simulate_throughput(cfg, trials=None, seed=None, ic_mode=IM_IC):
    """Average throughput with both outage terms estimated on the same draws."""
    res = simulate_op(cfg, [("s2g", IM_IC), ("a2a", ic_mode)], trials=trials, seed=seed)
    return throughput_from_ops(cfg, res["s2g", IM_IC].value, res["a2a", ic_mode].value)


def common_random_numbers_compare(cfg, trials=None, seed=None):
    """Paired im-IC / p-IC outage on identical draws.

    Returns (est_im, est_p, diff, diff_se); the per-trial SNR ordering makes
    the paired difference nonnegative for every seed.
    """
    res = simulate_op(cfg, [("a2a", IM_IC), ("a2a", P_IC)], trials=trials, seed=seed)
    d = res.im_only / res.trials
    return res["a2a", IM_IC], res["a2a", P_IC], d, math.sqrt(d * (1.0 - d) / res.trials)
