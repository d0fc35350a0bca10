"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy cross-path grid
(criterion 1) uses 1e7 Monte Carlo trials per point and takes several
minutes; everything is deterministic for the fixed seeds used here.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from sagin_outage import channel as ch
from sagin_outage import geometry as geo
from sagin_outage.analytic import (op_a2a_closed, op_a2a_integral,
                                   op_s2g_closed, op_s2g_integral)
from sagin_outage.config import config_from_mapping
from sagin_outage.mc import common_random_numbers_compare, simulate_op
from sagin_outage.sweep import avg_throughput, throughput_from_ops
from sagin_outage.swipt import IM_IC, P_IC

SEED = 20240808


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def _grid_cfg(eta_db, **over):
    base = {"rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
            "link.eta_s_db": eta_db, "run.seed": SEED}
    base.update(over)
    return config_from_mapping(base)


ETA_GRID = np.linspace(88.0, 148.0, 15)


@pytest.fixture(scope="module")
def cross_path_grid():
    """closed / integral / MC@1e7 on the 15-point gain grid, all networks."""
    rows = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for eta_db in ETA_GRID:
            cfg = _grid_cfg(float(eta_db))
            # one pass over shared draws, its blocks split with a second thread:
            # each case's estimate is bit-identical to its serial single-case call
            # with the same (config, trials, seed)
            mc = simulate_op(cfg, [("s2g", IM_IC), ("a2a", IM_IC), ("a2a", P_IC)],
                             trials=10_000_000, seed=SEED, executor=pool)
            entry = {"eta_db": float(eta_db)}
            entry["s2g"] = (op_s2g_closed(cfg.gamma_s, cfg),
                            op_s2g_integral(cfg.gamma_s, cfg),
                            mc["s2g", IM_IC])
            entry["a2a_im"] = (op_a2a_closed(cfg.gamma_a, cfg, ic_mode=IM_IC),
                               op_a2a_integral(cfg.gamma_a, cfg, ic_mode=IM_IC),
                               mc["a2a", IM_IC])
            entry["a2a_p"] = (op_a2a_closed(cfg.gamma_a, cfg, ic_mode=P_IC),
                              op_a2a_integral(cfg.gamma_a, cfg, ic_mode=P_IC),
                              mc["a2a", P_IC])
            rows.append(entry)
    return rows


def test_criterion_1_cross_path_agreement(cross_path_grid):
    t0 = time.time()
    worst_ci = 0.0
    worst_mc = 0.0
    mc_values = []
    for entry in cross_path_grid:
        for key in ("s2g", "a2a_im", "a2a_p"):
            closed, integral, mc = entry[key]
            mc_values.append(mc.value)
            worst_ci = max(worst_ci, abs(closed - integral))
            tol_mc = max(3.0 * mc.std_error, 1e-3)
            dev = max(abs(closed - mc.value), abs(integral - mc.value))
            worst_mc = max(worst_mc, dev - tol_mc)
    spans = min(mc_values) <= 1e-3 and max(mc_values) >= 0.999
    ok = worst_ci <= 2e-4 and worst_mc <= 0.0 and spans
    _report(1, ok,
            f"15-point gain grid: max|closed-integral|={worst_ci:.2e} (tol 2e-4), "
            f"max MC excess={worst_mc:+.2e} (<=0), OP span "
            f"[{min(mc_values):.2e}, {max(mc_values):.4f}]")


def test_criterion_2_exact_degenerate_branches():
    cfg = config_from_mapping({"run.seed": SEED})   # defaults: gamma at 5 dB linear
    assert cfg.gamma_s >= cfg.sp.mu_prime and cfg.gamma_a >= 1.0 / cfg.sp.mu_prime
    vals = (op_s2g_closed(cfg.gamma_s, cfg), op_s2g_integral(cfg.gamma_s, cfg),
            op_a2a_closed(cfg.gamma_a, cfg, ic_mode=IM_IC),
            op_a2a_integral(cfg.gamma_a, cfg, ic_mode=IM_IC))
    mc_s = simulate_op(cfg, "s2g", trials=1_000_000, seed=SEED)
    mc_a = simulate_op(cfg, "a2a", ic_mode=IM_IC, trials=1_000_000, seed=SEED)
    ok = all(v == 1.0 for v in vals) and mc_s.value == 1.0 and mc_a.value == 1.0
    _report(2, ok, "threshold at/above the SNR ceiling: OP exactly 1 on both "
                   f"networks and zero MC successes over 1e6 trials ({vals})")


def test_criterion_3_critical_sharing_factor():
    base = {"rates.threshold_mode": "fixed", "rates.gamma_s_db": 0.0,
            "link.eta_s_db": 125.0, "swipt.p_th_dbm": 35.0, "run.seed": SEED}
    at_one = []
    for mu in (0.10, 0.30, 0.45, 0.5 - 1e-9):
        cfg = config_from_mapping({**base, "swipt.mu": mu})
        at_one.append(op_s2g_closed(cfg.gamma_s, cfg) == 1.0)
        at_one.append(op_s2g_integral(cfg.gamma_s, cfg) == 1.0)
        at_one.append(simulate_op(cfg, "s2g", trials=200_000, seed=SEED).value == 1.0)
    cfg = config_from_mapping({**base, "swipt.mu": 0.55})
    ops = (op_s2g_closed(cfg.gamma_s, cfg), op_s2g_integral(cfg.gamma_s, cfg),
           simulate_op(cfg, "s2g", trials=1_000_000, seed=SEED).value)
    ok = all(at_one) and all(v < 1.0 for v in ops)
    _report(3, ok, f"gamma_s=1: OP=1 through mu=0.5, below one at mu=0.55 "
                   f"({', '.join(f'{v:.4f}' for v in ops)}) on all three methods")


def test_criterion_4_optimal_time_split():
    rhos = [round(0.05 * i, 2) for i in range(1, 19)]
    base = {"rates.threshold_mode": "from_rate", "link.eta_s_db": 120.0,
            "run.seed": SEED}
    ops_s, ops_a = [], []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for rho in rhos:
            cfg = config_from_mapping({**base, "swipt.rho": rho})
            # both cases on one pass over shared draws, each bit-identical to
            # its single-case call with the same (config, trials, seed)
            mc = simulate_op(cfg, [("s2g", IM_IC), ("a2a", IM_IC)],
                             trials=2_000_000, seed=SEED, executor=pool)
            ops_s.append(mc["s2g", IM_IC].value)
            ops_a.append(mc["a2a", IM_IC].value)
    rho_s = rhos[int(np.argmin(ops_s))]
    rho_a = rhos[int(np.argmin(ops_a))]
    interior_s = 0.05 < rho_s < 0.90 and abs(rho_s - 0.61) <= 0.05
    interior_a = 0.05 < rho_a < 0.90 and abs(rho_a - 0.30) <= 0.05
    unity_tail = all(op == 1.0 for rho, op in zip(rhos, ops_a) if rho >= 0.67)
    ok = interior_s and interior_a and unity_tail
    _report(4, ok, f"MC grid search: rho*_s2g={rho_s} (target 0.61+-0.05), "
                   f"rho*_a2a={rho_a} (target 0.30+-0.05), "
                   f"a2a outage pinned at 1 for rho>=0.67: {unity_tail}")


def test_criterion_5_saturation_floor():
    heavy = {"fading.m_sr": 2, "fading.b_sr": 0.063, "fading.omega_sr": 0.0005}
    light = {"fading.m_sr": 5, "fading.b_sr": 0.251, "fading.omega_sr": 0.279}
    base = {"rates.threshold_mode": "from_rate", "link.eta_s_db": 112.0,
            "run.seed": SEED}
    sat = {}
    lin = {}
    # the configs differ in p_th, so they share no draws; each call's blocks are
    # split with a second thread, which leaves its estimate unchanged
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, fad in (("heavy", heavy), ("light", light)):
            cfg_sat = config_from_mapping({**base, **fad, "swipt.p_th_dbm": -60.0})
            cfg_lin = config_from_mapping({**base, **fad, "swipt.p_th_dbm": "inf"})
            sat[name] = simulate_op(cfg_sat, "s2g", trials=10_000_000, seed=SEED,
                                    executor=pool).value
            lin[name] = simulate_op(cfg_lin, "s2g", trials=10_000_000, seed=SEED,
                                    executor=pool).value
        # the unsaturated branch must be dead: bound Pr[branch 1] analytically
        x_max = cfg_sat.sp.p_th * (cfg_sat.orbit.w_max * 1e3) ** 2 / cfg_sat.eta_s
        pr_branch1 = 1.0 - ch.shadowed_rician_power_tail(x_max, cfg_sat.sr)
        assert pr_branch1 < 1e-6
    gap_sat = abs(sat["heavy"] - sat["light"])
    gap_lin = abs(lin["heavy"] - lin["light"])
    ok = gap_sat < 5e-3 and gap_lin > 5e-2
    _report(5, ok, f"saturated harvester merges shadowing classes "
                   f"(|{sat['heavy']:.4f}-{sat['light']:.4f}|={gap_sat:.1e} < 5e-3) "
                   f"while linear EH separates them ({gap_lin:.3f} > 5e-2)")


def test_criterion_6_ic_ordering():
    ok = True
    details = []
    for eta_db in (100.0, 112.0, 124.0, 136.0, 148.0):
        for seed in (SEED, SEED + 1, SEED + 2):
            cfg = _grid_cfg(eta_db)
            _, _, d, _ = common_random_numbers_compare(cfg, trials=200_000, seed=seed)
            ok = ok and d >= 0.0
            details.append(d)
    _report(6, ok, f"paired im-IC minus p-IC outage nonnegative at every "
                   f"grid point and seed (min diff {min(details):.2e})")


def test_criterion_7_throughput_identities():
    base = {"rates.threshold_mode": "from_rate", "swipt.p_th_dbm": 35.0,
            "link.eta_s_db": 140.0, "run.seed": SEED}
    cfg_mono = config_from_mapping({**base, "swipt.mu": 1.0})
    thr_mono = avg_throughput(cfg_mono, method="integral")
    op_s = op_s2g_integral(cfg_mono.gamma_s, cfg_mono)
    pre = (1 - cfg_mono.sp.rho) * cfg_mono.sp.block_s / 2
    standalone = pre * cfg_mono.raw["rates.r_s"] * (1 - op_s)
    ident = abs(thr_mono - standalone) <= 1e-12
    cfg_share = config_from_mapping(base)   # mu = 0.7
    thr_share = avg_throughput(cfg_share, method="integral")
    ok = ident and thr_share > thr_mono
    _report(7, ok, f"mu=1 equals the standalone formula to 1e-12 and sharing "
                   f"beats it at high gain ({thr_share:.5f} > {thr_mono:.5f})")


def test_criterion_8_distribution_suite():
    orbit = geo.OrbitGeometry(w_e=6371.0, h_0=0.8, w_min=400.0)
    cone = geo.ConeGeometry(h_0=800.0, l=250.0, h_1=400.0, h_2=500.0, phi=math.pi / 12)
    heavy = ch.ShadowedRicianParams(m_sr=2, b_sr=0.063, omega_sr=0.0005)
    nak = ch.NakagamiParams(m_rd=2.0, nu_rd=2.0)
    ric = ch.RicianParams(K_rt=1.0, nu_rt=2.0)
    n = 1_000_000
    rng = np.random.default_rng(SEED)

    norms = []
    norms.append(quad(geo.satellite_distance_pdf, orbit.w_min, orbit.w_max,
                      args=(orbit,))[0])
    norms.append(quad(geo.gu_distance_pdf, cone.h_0, cone.gu_max, args=(cone,))[0])
    cuts = sorted({cone.h_1, cone.h_1 / math.cos(cone.phi), cone.h_2, cone.arx_max})
    norms.append(sum(quad(geo.arx_distance_pdf, a, b, args=(cone,), limit=200)[0]
                     for a, b in zip(cuts[:-1], cuts[1:])))
    norms.append(quad(ch.shadowed_rician_power_pdf, 0, np.inf, args=(heavy,),
                      limit=300)[0])
    norms.append(quad(ch.nakagami_power_pdf, 0, np.inf, args=(nak,), limit=200)[0])
    norms.append(quad(ch.rician_power_pdf, 0, np.inf, args=(ric,), limit=200)[0])
    norm_ok = all(abs(v - 1.0) <= 1e-9 for v in norms)

    ks_crit = 1.63 / math.sqrt(n)
    ks_ok = True
    for sampler, cdf in (
        (lambda: geo.sample_satellite_distance(rng, orbit, n),
         lambda d: geo.satellite_distance_cdf(d, orbit)),
        (lambda: geo.sample_gu_distance(rng, cone, n),
         lambda d: geo.gu_distance_cdf(d, cone)),
        (lambda: geo.sample_arx_distance(rng, cone, n),
         lambda d: geo.arx_distance_cdf(d, cone)),
    ):
        draws = np.sort(sampler())
        emp = np.arange(1, n + 1) / n
        ks_ok = ks_ok and np.max(np.abs(emp - cdf(draws))) < ks_crit

    chi2_crit = chi2.ppf(0.99, 49)
    moments_ok = True
    chi2_ok = True
    for sampler, tail, mean in (
        (lambda: ch.sample_shadowed_rician_power(rng, heavy, n),
         lambda e: ch.shadowed_rician_power_tail(e, heavy), heavy.mean_power),
        (lambda: ch.sample_nakagami_power(rng, nak, n),
         lambda e: ch.nakagami_power_tail(e, nak), 1.0),
        (lambda: ch.sample_rician_power(rng, ric, n),
         lambda e: ch.rician_power_tail(e, ric), 1.0),
    ):
        draws = sampler()
        se = draws.std() / math.sqrt(n)
        moments_ok = moments_ok and abs(draws.mean() - mean) < 3 * se
        qs = np.linspace(0.0, 1.0, 51)
        edges = np.quantile(draws, qs)
        edges[0], edges[-1] = 0.0, np.inf
        counts, _ = np.histogram(draws, edges)
        probs = np.maximum(-np.diff([tail(e) for e in edges]), 1e-300)
        stat = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        chi2_ok = chi2_ok and stat < chi2_crit

    ok = norm_ok and ks_ok and moments_ok and chi2_ok
    _report(8, ok, f"pdf normalisations within 1e-9 (max dev "
                   f"{max(abs(v - 1) for v in norms):.1e}), KS and chi-square "
                   f"at the 1% level over 1e6 draws, means within 3 SE")


def test_criterion_9_special_function_oracles():
    from importlib import resources
    from sagin_outage.specfun import run_oracle_suite
    ref = resources.files("sagin_outage").joinpath("data/specfun_oracle.txt")
    t0 = time.time()
    with resources.as_file(ref) as path:
        n_pass, failures, max_rel = run_oracle_suite(str(path))
    elapsed = time.time() - t0
    ok = not failures and n_pass >= 200 and elapsed < 60.0
    _report(9, ok, f"{n_pass} oracle fixtures reproduced "
                   f"(worst rel {max_rel:.2e}) in {elapsed:.1f}s")
