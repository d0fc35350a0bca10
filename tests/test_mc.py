import math

import numpy as np
import pytest

from sagin_outage import mc
from sagin_outage.config import config_from_mapping
from sagin_outage.errors import ConfigError
from sagin_outage.mc import (OutageEstimate, common_random_numbers_compare,
                             simulate_op, simulate_throughput)
from sagin_outage.analytic import op_s2g_integral
from sagin_outage.sweep import run_sweep
from sagin_outage.swipt import IM_IC, P_IC


def _cfg(**over):
    base = {"rates.threshold_mode": "from_rate", "link.eta_s_db": 112.0,
            "swipt.p_th_dbm": 35.0}
    base.update(over)
    return config_from_mapping(base)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        cfg = _cfg()
        a = simulate_op(cfg, "s2g", trials=300_000, seed=42)
        b = simulate_op(cfg, "s2g", trials=300_000, seed=42)
        assert a.value == b.value and a.std_error == b.std_error

    def test_seed_changes_estimate(self):
        cfg = _cfg()
        a = simulate_op(cfg, "s2g", trials=300_000, seed=42)
        b = simulate_op(cfg, "s2g", trials=300_000, seed=43)
        assert a.value != b.value

    def test_crosses_block_boundaries_deterministically(self):
        # trials that do not divide the block size still reproduce
        cfg = _cfg()
        a = simulate_op(cfg, "s2g", trials=70_001, seed=9)
        b = simulate_op(cfg, "s2g", trials=70_001, seed=9)
        assert a.value == b.value


class TestDegenerateThresholds:
    def test_zero_threshold(self):
        cfg = _cfg(**{"rates.threshold_mode": "fixed", "rates.gamma_s_db": -400.0})
        # gamma ~ 1e-40, every trial succeeds
        est = simulate_op(cfg, "s2g", trials=100_000)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_threshold_above_ceiling_gives_certain_outage(self):
        # defaults: gamma_s = 10^(0.5) = 3.16 above mu' = 7/3
        cfg = config_from_mapping({})
        est = simulate_op(cfg, "s2g", trials=1_000_000)
        assert est.value == 1.0
        est_a = simulate_op(cfg, "a2a", trials=1_000_000)
        assert est_a.value == 1.0


class TestStatistics:
    def test_se_scaling_with_trials(self):
        cfg = _cfg()
        small = simulate_op(cfg, "s2g", trials=250_000, seed=3)
        large = simulate_op(cfg, "s2g", trials=1_000_000, seed=3)
        ratio = large.std_error / small.std_error
        assert abs(ratio - 0.5) < 0.1   # quadrupling trials halves the SE

    def test_binomial_se_formula(self):
        cfg = _cfg()
        est = simulate_op(cfg, "s2g", trials=200_000)
        assert est.std_error == pytest.approx(
            math.sqrt(est.value * (1 - est.value) / est.trials), rel=1e-12)

    def test_matches_integral_within_4_se(self):
        cfg = _cfg(**{"link.eta_s_db": 118.0})
        est = simulate_op(cfg, "s2g", trials=1_000_000)
        ref = op_s2g_integral(cfg.gamma_s, cfg)
        assert abs(est.value - ref) < 4 * est.std_error

    def test_resolution_floor_flag(self):
        cfg = _cfg(**{"link.eta_s_db": 150.0, "swipt.p_th_dbm": "inf"})
        est = simulate_op(cfg, "s2g", trials=200_000)
        if 0 < est.value < 10.0 / est.trials:
            assert "resolution_floor" in est.flags


class TestPairedComparison:
    def test_ordering_for_every_seed(self):
        cfg = _cfg(**{"link.eta_s_db": 118.0})
        for seed in (1, 2, 3, 4, 5):
            est_im, est_p, d, d_se = common_random_numbers_compare(
                cfg, trials=150_000, seed=seed)
            assert d >= 0.0
            assert est_im.value - est_p.value == pytest.approx(d, abs=1e-12)

    def test_positive_gap_at_moderate_gain(self):
        cfg = _cfg(**{"link.eta_s_db": 115.0})
        _, _, d, d_se = common_random_numbers_compare(cfg, trials=400_000, seed=7)
        assert d > 5 * d_se > 0

    def test_mu_one_degenerate(self):
        cfg = _cfg(**{"swipt.mu": 1.0})
        est_im, est_p, d, _ = common_random_numbers_compare(cfg, trials=50_000)
        assert est_im.value == 1.0 and est_p.value == 1.0 and d == 0.0


class TestThroughput:
    def test_rho_near_one_kills_throughput(self):
        cfg = _cfg(**{"swipt.rho": 0.99, "rates.threshold_mode": "fixed"})
        thr = simulate_throughput(cfg, trials=20_000)
        assert thr == pytest.approx(0.0, abs=0.01 * 0.05)

    def test_mu_one_reduces_to_s2g_term(self):
        cfg = _cfg(**{"swipt.mu": 1.0})
        thr = simulate_throughput(cfg, trials=200_000, seed=5)
        op_s = simulate_op(cfg, "s2g", trials=200_000, seed=5)
        pre = (1 - cfg.sp.rho) * cfg.sp.block_s / 2
        expected = pre * cfg.raw["rates.r_s"] * (1 - op_s.value)
        assert thr == pytest.approx(expected, abs=1e-12)


CASES = [("s2g", IM_IC), ("a2a", IM_IC), ("a2a", P_IC)]


class TestSharedDraws:
    def test_multi_case_matches_single_case_calls(self):
        cfg = _cfg(**{"link.eta_s_db": 115.0})
        shared = simulate_op(cfg, CASES, trials=70_001, seed=9)
        assert shared.trials == 70_001 and shared.seed == 9
        for net, mode in CASES:
            single = simulate_op(cfg, net, ic_mode=mode, trials=70_001, seed=9)
            assert shared[net, mode] == single
        paired = common_random_numbers_compare(cfg, trials=70_001, seed=9)
        assert shared.im_only / 70_001 == paired[2]

    def test_one_draw_per_block_for_all_cases(self, monkeypatch):
        calls = []
        real = mc.draw_block

        def counting(cfg, rng, n):
            calls.append(n)
            return real(cfg, rng, n)

        monkeypatch.setattr(mc, "draw_block", counting)
        simulate_op(_cfg(), CASES, trials=200_001, seed=4)
        assert len(calls) == math.ceil(200_001 / mc.BLOCK)
        assert sum(calls) == 200_001

    def test_sweep_mc_cells_match_single_case_calls(self):
        cfg = _cfg(**{"sweep.variable": "link.eta_s_db", "sweep.values": "106,118,130",
                      "run.networks": "s2g,a2a", "run.ic_mode": "both",
                      "run.methods": "mc", "run.trials": 70_001, "run.seed": 21})
        rows = run_sweep(cfg).rows
        for i, (row, eta) in enumerate(zip(rows, cfg.sweep_values)):
            point = cfg.with_overrides({"link.eta_s_db": eta})
            for stem, net, mode in (("s2g", "s2g", IM_IC), ("a2a_im", "a2a", IM_IC),
                                    ("a2a_p", "a2a", P_IC)):
                est = simulate_op(point, net, ic_mode=mode, seed=cfg.seed + i)
                assert row[f"op_{stem}_mc"] == est.value
                assert row[f"se_{stem}_mc"] == est.std_error

    def test_paired_estimates_carry_resolution_flag(self):
        cfg = _cfg(**{"link.eta_s_db": 170.0, "swipt.p_th_dbm": "inf"})
        est_im, est_p, _, _ = common_random_numbers_compare(cfg, trials=200_000, seed=1)
        assert est_im == simulate_op(cfg, "a2a", ic_mode=IM_IC, trials=200_000, seed=1)
        assert est_p == simulate_op(cfg, "a2a", ic_mode=P_IC, trials=200_000, seed=1)
        assert "resolution_floor" in est_im.flags and "resolution_floor" in est_p.flags


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            simulate_op(_cfg(), "s2g", trials=1_000, seed=seed)

    def test_largest_seed_runs(self):
        est = simulate_op(_cfg(), "s2g", trials=1_000, seed=2 ** 64 - 1)
        assert est.seed == 2 ** 64 - 1


class TestEstimateType:
    def test_range_validation(self):
        with pytest.raises(Exception):
            OutageEstimate(value=1.5, std_error=0.0, trials=10, method="mc")
