import itertools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagin_outage import mc
from sagin_outage.config import config_from_mapping
from sagin_outage.errors import ConfigError
from sagin_outage.mc import (OutageEstimate, _block_rng, _skip_doubles,
                             common_random_numbers_compare, simulate_op)
from sagin_outage.analytic import op_s2g_integral
from sagin_outage.sweep import emit_csv, run_sweep, simulate_throughput
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

        def counting(cfg, rng, n, networks=mc.NETWORKS):
            calls.append(n)
            return real(cfg, rng, n, networks)

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


class TestBlockSharing:
    TRIALS = 5 * mc.BLOCK + 7

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_executor_of_any_size_equals_the_serial_call(self, workers):
        cfg = _cfg(**{"link.eta_s_db": 115.0})
        serial = simulate_op(cfg, CASES, trials=self.TRIALS, seed=9)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shared = simulate_op(cfg, CASES, trials=self.TRIALS, seed=9, executor=pool)
            single = simulate_op(cfg, "a2a", ic_mode=P_IC, trials=self.TRIALS, seed=9,
                                 executor=pool)
        assert shared == serial
        assert single == serial["a2a", P_IC]

    def test_more_workers_than_cores_under_fast_thread_switching(self):
        # a lost update of the shared counts or a block claimed twice changes a count
        cfg = _cfg(**{"link.eta_s_db": 115.0})
        trials = 12 * mc.BLOCK + 5
        serial = simulate_op(cfg, CASES, trials=trials, seed=13)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2 * (os.cpu_count() or 1) + 2) as pool:
                runs = [pool.submit(simulate_op, cfg, CASES, trials=trials, seed=13,
                                    executor=pool) for _ in range(3)]
                done, _ = wait(runs, timeout=120.0)
                assert len(done) == len(runs), "a shared-block run did not finish in 120 s"
        finally:
            sys.setswitchinterval(interval)
        assert all(run.result() == serial for run in runs)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        caller, helper_failed = threading.get_ident(), threading.Event()
        real = mc.draw_block

        def draw(cfg, rng, n, networks=mc.NETWORKS):
            if threading.get_ident() != caller:
                helper_failed.set()
                raise RuntimeError("helper failed")
            helper_failed.wait(10.0)    # let the helper claim a block first
            return real(cfg, rng, n, networks)

        monkeypatch.setattr(mc, "draw_block", draw)
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="helper failed"):
                simulate_op(_cfg(), CASES, trials=3 * mc.BLOCK, seed=2, executor=pool)
        assert helper_failed.is_set()

    def test_helper_that_has_not_started_is_cancelled(self):
        # the pool's only worker is busy, so the helper stays queued: the call
        # must cancel it and return rather than wait for it
        cfg = _cfg()
        release, submitted = threading.Event(), []
        with ThreadPoolExecutor(max_workers=1) as busy:
            blocker = busy.submit(release.wait, 30.0)

            class Pool:
                _max_workers = 2

                def submit(self, fn, *args):
                    submitted.append(busy.submit(fn, *args))
                    return submitted[-1]

            try:
                est = simulate_op(cfg, CASES, trials=2 * mc.BLOCK, seed=3, executor=Pool())
                assert not blocker.done()
            finally:
                release.set()
        assert len(submitted) == 1 and submitted[0].cancelled()
        assert est == simulate_op(cfg, CASES, trials=2 * mc.BLOCK, seed=3)

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_mc_sweep_csv_byte_identical_across_worker_counts(self, threads, tmp_path,
                                                              monkeypatch):
        # five equal points: the last ones run while other workers have no point
        # left and take blocks of theirs instead
        cfg = _cfg(**{"sweep.variable": "link.eta_s_db",
                      "sweep.values": "100,109,118,127,136",
                      "run.networks": "s2g,a2a", "run.ic_mode": "both",
                      "run.methods": "mc", "run.trials": 4 * mc.BLOCK + 3, "run.seed": 5})
        texts = []
        for n in ("1", threads):
            monkeypatch.setenv("SAGIN_THREADS", n)
            out = tmp_path / f"threads{n}.csv"
            done = []
            runner = threading.Thread(target=lambda: done.append(run_sweep(cfg)),
                                      daemon=True)
            runner.start()
            runner.join(timeout=120.0)
            assert done, f"the {n}-worker sweep did not finish within 120 s"
            emit_csv(done[0], out)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestGoldenValues:
    # failure counts recorded with the engine that drew every variate on every
    # trial; 70 001 trials leave the last block part of a Philox output block
    @pytest.mark.parametrize("case, failures", [
        (("s2g", IM_IC), 16_495), (("a2a", IM_IC), 26_810), (("a2a", P_IC), 15_566)])
    def test_single_case_failure_counts(self, case, failures):
        est = simulate_op(_cfg(**{"link.eta_s_db": 115.0}), *case, trials=70_001, seed=9)
        assert est.value == failures / 70_001


class TestSkippedDraws:
    @pytest.mark.parametrize("used", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 8, 13, 4 * 1000 + 1])
    def test_skip_lands_where_real_draws_do(self, used, k):
        skipped, drawn = _block_rng(5, 3), _block_rng(5, 3)
        for rng in (skipped, drawn):
            rng.random(used)        # leaves 4 - used outputs of a Philox block held
        _skip_doubles(skipped, k)
        drawn.random(k)
        a, b = skipped.bit_generator.state, drawn.bit_generator.state
        assert a["buffer_pos"] == b["buffer_pos"]
        np.testing.assert_array_equal(a["state"]["counter"], b["state"]["counter"])
        np.testing.assert_array_equal(skipped.random(9), drawn.random(9))
        np.testing.assert_array_equal(skipped.gamma(2.0, 1.0, 9), drawn.gamma(2.0, 1.0, 9))

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(trials=st.integers(1, 3 * mc.BLOCK + 3), seed=st.integers(0, 2 ** 64 - 1))
    def test_every_case_subset_matches_the_all_case_call(self, trials, seed):
        cfg = _cfg(**{"link.eta_s_db": 115.0})
        full = simulate_op(cfg, CASES, trials=trials, seed=seed)
        for size in (1, 2, 3):
            for subset in itertools.combinations(CASES, size):
                part = simulate_op(cfg, list(subset), trials=trials, seed=seed)
                assert all(part[case] == full[case] for case in subset)
        # variate by variate in the last block, which leaves a part-used Philox buffer
        block, n = divmod(trials - 1, mc.BLOCK)
        every = vars(mc.draw_block(cfg, _block_rng(seed, block), n + 1))
        for net in mc.NETWORKS:
            some = vars(mc.draw_block(cfg, _block_rng(seed, block), n + 1, (net,)))
            for name, value in some.items():
                if value is not None:
                    np.testing.assert_array_equal(value, every[name])

    @pytest.mark.parametrize("cases, unused", [
        ([("s2g", IM_IC)], ("sample_arx_distance", "sample_rician_power")),
        ([("a2a", IM_IC), ("a2a", P_IC)], ("sample_gu_distance",))])
    def test_unread_variates_are_not_sampled(self, cases, unused, monkeypatch):
        calls = dict.fromkeys(("sample_gu_distance", "sample_arx_distance",
                               "sample_rician_power"), 0)
        for name in calls:
            def spy(*args, _name=name, _real=getattr(mc, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mc, name, spy)
        simulate_op(_cfg(), cases, trials=2 * mc.BLOCK + 1, seed=4)
        assert all(calls[name] == 0 for name in unused)
        assert all(calls[name] == 3 for name in calls if name not in unused)


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
