"""Monte Carlo outage estimation.

Trials are drawn in fixed-size blocks, each from its own Philox substream
keyed by (seed, block index) through the counter words.  The calling thread,
and idle workers of an executor when one is given, claim block indices from
one iterator and add each block's integer failure counts to per-case totals.
Estimates are therefore bit-identical for a given (config, trials, seed) no
matter how the blocks are scheduled across workers, and no matter which other
(network, IC mode) cases are counted on the same draws: one pass over the
blocks serves every requested case, and one in-place SNR pass
(``swipt.case_snrs``) counts every case of a block.  A variate that no
requested case reads is not drawn; the stream is advanced past it instead, so
every variate that is drawn keeps its value bit for bit.
"""

import math
import threading
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (sample_arx_distance, sample_gu_distance,
                       sample_satellite_distance)
from .channel import (sample_nakagami_power, sample_rician_power,
                      sample_shadowed_rician_power)
from .swipt import IM_IC, NETWORKS, P_IC, FadingDraw, case_snrs
from .swipt import snr_arx, snr_gu  # noqa: F401  perfbench/tracing.py wraps these names here

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


def _skip_doubles(rng, k):
    """Advance rng as ``rng.random(k)`` would, drawing nothing; returns None.

    ``Generator.random`` takes one 64-bit output per double.  Philox makes its
    outputs four at a time and ``advance`` counts those blocks and discards the
    buffer, so the buffered outputs are read out first, and a skip that they
    cover does not advance at all.
    """
    bitgen = rng.bit_generator
    held = min(k, 4 - bitgen.state["buffer_pos"])
    bitgen.random_raw(held)
    if k > held:
        bitgen.advance((k - held) // 4)
        bitgen.random_raw((k - held) % 4)


def draw_block(cfg, rng, n, networks=NETWORKS):
    """One independent block-fading realisation per trial.

    Only the variates that ``networks`` read are drawn; the others are None.
    A skipped uniform draw is stepped over and the trailing Z is not made, but
    Y is drawn for a2a alone: its rejection sampler uses a varying number of
    outputs, and Z follows it.
    """
    s2g, a2a = "s2g" in networks, "a2a" in networks
    w_sr = sample_satellite_distance(rng, cfg.orbit, n)                           # km
    w_rd = sample_gu_distance(rng, cfg.cone, n) if s2g else _skip_doubles(rng, n)  # m
    w_rt = sample_arx_distance(rng, cfg.cone, n) if a2a else _skip_doubles(rng, 2 * n)
    X = sample_shadowed_rician_power(rng, cfg.sr, n)
    Y = sample_nakagami_power(rng, cfg.nak, n)
    Z = sample_rician_power(rng, cfg.ric, n) if a2a else None
    return FadingDraw(X=X, Y=Y, Z=Z, w_sr_km=w_sr, w_rd_m=w_rd, w_rt_m=w_rt)


def _estimate(failures, trials, seed):
    value = failures / trials
    se = math.sqrt(value * (1.0 - value) / trials)
    flags = ("resolution_floor",) if 0 < value < RESOLUTION_FACTOR / trials else ()
    return OutageEstimate(value=value, std_error=se, trials=trials,
                          method="mc", seed=seed, flags=flags)


def simulate_op(cfg, network, ic_mode=IM_IC, trials=None, seed=None, executor=None):
    """Outage frequency over exact per-trial SNRs, with binomial standard error.

    ``network`` is "s2g" or "a2a" for one ``OutageEstimate``, or a sequence of
    (network, ic_mode) cases counted on one pass over the Philox blocks and
    returned as a ``SharedDrawEstimates``.  Each case's estimate is
    bit-identical to the single-case call with the same (config, trials, seed).

    With a ``ThreadPoolExecutor`` as ``executor``, up to ``max_workers - 1``
    helper tasks on it claim blocks beside the calling thread, so workers that
    are idle share the blocks; the counts, and so every estimate, are the same
    for any executor and any schedule.
    """
    if isinstance(network, str):
        return simulate_op(cfg, [(network, ic_mode)], trials=trials, seed=seed,
                           executor=executor)[network, ic_mode]
    trials = cfg.trials if trials is None else int(trials)
    seed = cfg.seed if seed is None else int(seed)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must lie in [0, 2**64)")
    cases = tuple(dict.fromkeys(map(tuple, network)))
    failures = dict.fromkeys(cases, 0)
    gammas = {case: cfg.gamma_s if case[0] == "s2g" else cfg.gamma_a for case in cases}
    networks = {net for net, _ in cases}
    n_blocks = -(-trials // BLOCK)
    blocks = iter(range(n_blocks))
    lock = threading.Lock()

    def count_blocks():
        # one critical section per block: add its counts, claim the next index
        counts = {}
        try:
            while True:
                with lock:
                    for case, f in counts.items():
                        failures[case] += f
                    block_index = next(blocks, None)
                if block_index is None:
                    return
                start = block_index * BLOCK
                draw = draw_block(cfg, _block_rng(seed, block_index),
                                  min(BLOCK, trials - start), networks)
                counts = {case: int(np.count_nonzero(snr < gammas[case]))
                          for case, snr in case_snrs(draw, cfg.eta_s, cfg.sp, cfg.noise,
                                                     cases, cfg.nak.nu_rd,
                                                     cfg.ric.nu_rt)}
        except BaseException:
            with lock:
                for _ in blocks:        # leave nothing for the other threads
                    pass
            raise

    workers = executor._max_workers if executor is not None else 1
    _with_helpers(count_blocks, executor, min(workers, n_blocks) - 1)
    # p-IC replaces a nonnegative interference term of the im-IC SINR by 0.0, so
    # snr_p >= snr_im bit for bit: every p-IC outage trial is an im-IC one
    paired = ("a2a", IM_IC) in failures and ("a2a", P_IC) in failures
    return SharedDrawEstimates(
        trials=trials, seed=seed,
        estimates={case: _estimate(f, trials, seed) for case, f in failures.items()},
        im_only=failures["a2a", IM_IC] - failures["a2a", P_IC] if paired else None)


def _with_helpers(task, executor, helpers):
    """Run ``task`` on this thread and in ``helpers`` tasks on ``executor``.

    ``task`` claims its work piece by piece and returns when none is left, so
    a helper that has not started by then has nothing to do: it is cancelled,
    not waited on, and a worker that calls this never blocks on a task queued
    behind it.  A helper that has started is waited on; an exception of any
    run reaches the caller.
    """
    futures = [executor.submit(task) for _ in range(helpers)]
    try:
        task()
    finally:
        started = [f for f in futures if not f.cancel()]
        wait(started)           # none is left running after the call
    for f in started:
        f.result()


def common_random_numbers_compare(cfg, trials=None, seed=None):
    """Paired im-IC / p-IC outage on identical draws.

    Returns (est_im, est_p, diff, diff_se); the per-trial SNR ordering makes
    the paired difference nonnegative for every seed.
    """
    res = simulate_op(cfg, [("a2a", IM_IC), ("a2a", P_IC)], trials=trials, seed=seed)
    d = res.im_only / res.trials
    return res["a2a", IM_IC], res["a2a", P_IC], d, math.sqrt(d * (1.0 - d) / res.trials)
