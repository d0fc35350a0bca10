import itertools
import math

import numpy as np
import pytest

from sagin_outage import swipt
from sagin_outage.config import config_from_mapping
from sagin_outage.errors import ConfigError, DomainError
from sagin_outage.mc import _block_rng, draw_block

SP = swipt.SwiptParams(chi=0.6, rho=0.4, epsilon=0.4, mu=0.7, p_th=3.16e-3)
NOISE = swipt.NoiseParams(sigma_r2=1e-8, sigma_rb2=1e-8, sigma_d2=1e-8, sigma_t2=1e-8)


def _draw(X, Y=1.0, Z=1.0, w_km=1000.0, v=800.0, u=450.0):
    return swipt.FadingDraw(X=np.asarray(X), Y=np.asarray(Y), Z=np.asarray(Z),
                            w_sr_km=np.asarray(w_km), w_rd_m=np.asarray(v),
                            w_rt_m=np.asarray(u))


class TestHarvestedPower:
    def test_chi_rho_eps_value(self):
        sp = swipt.SwiptParams(chi=0.6, rho=0.4, epsilon=0.4, mu=0.7, p_th=1.0)
        assert sp.chi_rho_eps == pytest.approx(0.6 * (0.8 / 0.6 + 0.4), rel=1e-14)  # 1.04


class TestSnrGu:
    def test_large_x_limit_is_mu_prime(self):
        # the ceiling belongs to the unsaturated branch: keep it active via p_th=inf
        sp = swipt.SwiptParams(chi=0.6, rho=0.4, epsilon=0.4, mu=0.7, p_th=math.inf)
        lam = swipt.snr_gu(_draw(X=1e18), 1.0, sp, NOISE)
        assert lam == pytest.approx(sp.mu_prime, rel=1e-6)

    def test_zero_destination_fade(self):
        assert swipt.snr_gu(_draw(X=1.0, Y=0.0), 1e12, SP, NOISE) == 0.0

    def test_monotone_in_y(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = rng.exponential(0.2)
            y = rng.exponential(1.0)
            d1 = _draw(X=x, Y=y)
            d2 = _draw(X=x, Y=y * 1.3)
            assert swipt.snr_gu(d2, 1e12, SP, NOISE) >= swipt.snr_gu(d1, 1e12, SP, NOISE)

    def test_supremum_bound_over_draws(self):
        cfg = config_from_mapping({"link.eta_s_db": 130.0})
        rng = _block_rng(5, 0)
        d = draw_block(cfg, rng, 200_000)
        lam = swipt.snr_gu(d, cfg.eta_s, cfg.sp, cfg.noise)
        assert np.max(lam) < cfg.sp.mu_prime


class TestSnrArx:
    @pytest.mark.parametrize("p_th_dbm", [5.0, 35.0, math.inf])
    def test_pic_dominates_imic_pointwise(self, p_th_dbm):
        # bit for bit: simulate_op's im_only count relies on it
        cfg = config_from_mapping({"link.eta_s_db": 120.0, "swipt.p_th_dbm": p_th_dbm})
        rng = _block_rng(6, 0)
        d = draw_block(cfg, rng, 200_000)
        lam_im = swipt.snr_arx(d, cfg.eta_s, cfg.sp, cfg.noise, ic_mode=swipt.IM_IC)
        lam_p = swipt.snr_arx(d, cfg.eta_s, cfg.sp, cfg.noise, ic_mode=swipt.P_IC)
        assert np.all(lam_p >= lam_im)

    def test_large_x_imic_limit(self):
        sp = swipt.SwiptParams(chi=0.6, rho=0.4, epsilon=0.4, mu=0.7, p_th=math.inf)
        lam = swipt.snr_arx(_draw(X=1e18), 1.0, sp, NOISE, ic_mode=swipt.IM_IC)
        assert lam == pytest.approx(1.0 / sp.mu_prime, rel=1e-6)

    def test_imic_supremum_bound_over_draws(self):
        cfg = config_from_mapping({"link.eta_s_db": 130.0})
        rng = _block_rng(7, 0)
        d = draw_block(cfg, rng, 200_000)
        lam = swipt.snr_arx(d, cfg.eta_s, cfg.sp, cfg.noise, ic_mode=swipt.IM_IC)
        assert np.max(lam) < 1.0 / cfg.sp.mu_prime

    def test_mu_one_kills_both_modes(self):
        sp = swipt.SwiptParams(chi=0.6, rho=0.4, epsilon=0.4, mu=1.0, p_th=1.0)
        for mode in (swipt.IM_IC, swipt.P_IC):
            assert swipt.snr_arx(_draw(X=3.0), 1e12, sp, NOISE, ic_mode=mode) == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            swipt.snr_arx(_draw(X=1.0), 1.0, SP, NOISE, ic_mode="oracle")


class TestShares:
    def test_signal_and_interference_of_each_case(self):
        mu = SP.mu
        assert swipt.shares(SP, "s2g", swipt.IM_IC) == (mu, 1.0 - mu)
        assert swipt.shares(SP, "a2a", swipt.IM_IC) == (1.0 - mu, mu)
        assert swipt.shares(SP, "a2a", swipt.P_IC) == (1.0 - mu, 0.0)

    @pytest.mark.parametrize("network, mode", [
        ("s2g", "oracle"), ("a2a", "oracle"), ("g2g", swipt.IM_IC)])
    def test_unknown_case_rejected(self, network, mode):
        with pytest.raises(ConfigError):
            swipt.shares(SP, network, mode)

    def test_snrs_equal_the_written_out_expressions(self):
        # each case's SINR spelled out, same operation order: equal to the bit
        cfg = config_from_mapping({"link.eta_s_db": 120.0, "swipt.p_th_dbm": 20.0})
        d = draw_block(cfg, _block_rng(8, 0), 50_000)
        sp, noise, eta = cfg.sp, cfg.noise, cfg.eta_s
        chi, mu, me = sp.chi_rho_eps, sp.mu, noise.mu_eps(sp)
        g_sat = eta * d.X / (d.w_sr_km * 1e3) ** 2
        lin = np.minimum(g_sat, sp.p_th)
        yv = d.Y * d.w_rd_m ** (-cfg.nak.nu_rd)
        zu = d.Z * d.w_rt_m ** (-cfg.ric.nu_rt)
        gu = mu * chi * lin * yv / (me * chi * lin * yv / g_sat
                                    + (1.0 - mu) * chi * lin * yv + noise.sigma_d2)
        im = (1.0 - mu) * chi * lin * zu / (me * chi * lin * zu / g_sat
                                            + mu * chi * lin * zu + noise.sigma_t2)
        p = (1.0 - mu) * chi * lin * zu / (me * chi * lin * zu / g_sat + noise.sigma_t2)
        assert np.all(g_sat > 0)
        assert np.array_equal(swipt.snr_gu(d, eta, sp, noise, nu_rd=cfg.nak.nu_rd), gu)
        for mode, want in ((swipt.IM_IC, im), (swipt.P_IC, p)):
            got = swipt.snr_arx(d, eta, sp, noise, ic_mode=mode, nu_rt=cfg.ric.nu_rt)
            assert np.array_equal(got, want)


CASES = [("s2g", swipt.IM_IC), ("a2a", swipt.IM_IC), ("a2a", swipt.P_IC)]


def _orders():
    """Every nonempty subset of CASES in every order."""
    for size in (1, 2, 3):
        yield from itertools.permutations(CASES, size)


def _one_case(draw, eta, sp, noise, case, nu_rd, nu_rt):
    network, mode = case
    if network == "s2g":
        return swipt.snr_gu(draw, eta, sp, noise, nu_rd=nu_rd)
    return swipt.snr_arx(draw, eta, sp, noise, ic_mode=mode, nu_rt=nu_rt)


class TestCaseSnrs:
    @staticmethod
    def _block_with_zero_x():
        cfg = config_from_mapping({"link.eta_s_db": 118.0, "swipt.p_th_dbm": 35.0,
                                   "fading.nu_rd": 2.5, "fading.nu_rt": 1.5})
        d = draw_block(cfg, _block_rng(11, 2), 20_000)
        d.X[::7] = 0.0
        return cfg, d

    @pytest.mark.parametrize("cases", list(_orders()), ids=str)
    def test_every_subset_and_order_equals_the_one_case_calls(self, cases):
        cfg, d = self._block_with_zero_x()
        args = (d, cfg.eta_s, cfg.sp, cfg.noise)
        nus = (cfg.nak.nu_rd, cfg.ric.nu_rt)
        got = {case: snr.copy() for case, snr in swipt.case_snrs(*args, cases, *nus)}
        assert sorted(got) == sorted(cases)
        for case in cases:
            assert np.array_equal(got[case], _one_case(*args, case, *nus))

    def test_zero_satellite_power_matches_the_masked_expression(self):
        # X = 0 gives g_sat = 0 and a 0/0 relay noise, which counts as 0
        cfg, d = self._block_with_zero_x()
        sp, noise, eta = cfg.sp, cfg.noise, cfg.eta_s
        chi, me = sp.chi_rho_eps, noise.mu_eps(sp)
        g_sat = eta * d.X / (d.w_sr_km * 1e3) ** 2
        lin = np.minimum(g_sat, sp.p_th)
        zu = d.Z * d.w_rt_m ** (-cfg.ric.nu_rt)
        with np.errstate(divide="ignore", invalid="ignore"):
            relay = np.where(g_sat > 0, me * chi * lin * zu / g_sat, 0.0)
        want = (1.0 - sp.mu) * chi * lin * zu / (relay + sp.mu * chi * lin * zu
                                                 + noise.sigma_t2)
        got = swipt.snr_arx(d, eta, sp, noise, nu_rt=cfg.ric.nu_rt)
        assert np.count_nonzero(d.X == 0.0) > 1000
        assert np.array_equal(got, want)
        assert np.all(got[d.X == 0.0] == 0.0)

    @pytest.mark.parametrize("x", [0.0, 2e-3, 1.0])
    def test_scalar_draws(self, x):
        d = _draw(X=x, Y=0.7, Z=1.3)
        for cases in _orders():
            got = {case: snr.copy()
                   for case, snr in swipt.case_snrs(d, 1e12, SP, NOISE, cases, 2.0, 2.0)}
            for case in cases:
                want = _one_case(d, 1e12, SP, NOISE, case, 2.0, 2.0)
                assert np.ndim(want) == 0
                assert got[case] == want
                assert (want == 0.0) == (x == 0.0)

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError):
            list(swipt.case_snrs(_draw(X=1.0), 1.0, SP, NOISE, [("g2g", swipt.IM_IC)]))


class TestGammaFromRate:
    def test_zero_rate(self):
        assert swipt.gamma_from_rate(0.0, 0.4) == 0.0

    def test_reference_value(self):
        assert swipt.gamma_from_rate(0.5, 0.4) == pytest.approx(2 ** (5 / 3) - 1, rel=1e-13)

    def test_monotone_in_rho(self):
        gammas = [swipt.gamma_from_rate(0.1, r) for r in (0.0, 0.3, 0.6, 0.9)]
        assert gammas == sorted(gammas)

    def test_domain(self):
        with pytest.raises(DomainError):
            swipt.gamma_from_rate(0.1, 1.0)
        with pytest.raises(DomainError):
            swipt.gamma_from_rate(-0.1, 0.4)


class TestParamValidation:
    def test_ranges(self):
        with pytest.raises(ConfigError):
            swipt.SwiptParams(chi=0.6, rho=1.2, epsilon=0.4, mu=0.7, p_th=1.0)
        with pytest.raises(ConfigError):
            swipt.SwiptParams(chi=0.6, rho=0.4, epsilon=0.4, mu=0.0, p_th=1.0)
        with pytest.raises(ConfigError):
            swipt.NoiseParams(sigma_r2=0.0, sigma_rb2=1e-8, sigma_d2=1e-8, sigma_t2=1e-8)

    def test_mu_eps(self):
        assert NOISE.mu_eps(SP) == pytest.approx(0.7 * (1e-8 + 1e-8 / 0.6), rel=1e-14)

    def test_mu_prime_at_one(self):
        sp = swipt.SwiptParams(chi=0.6, rho=0.4, epsilon=0.4, mu=1.0, p_th=1.0)
        assert math.isinf(sp.mu_prime)
