import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from sagin_outage import channel as ch
from sagin_outage.config import config_from_mapping
from sagin_outage.errors import ConfigError, DomainError

HEAVY = ch.ShadowedRicianParams(m_sr=2, b_sr=0.063, omega_sr=0.0005)
LIGHT = ch.ShadowedRicianParams(m_sr=5, b_sr=0.251, omega_sr=0.279)
NAK = ch.NakagamiParams(m_rd=2.0, nu_rd=2.0)
RIC = ch.RicianParams(K_rt=1.0, nu_rt=2.0)

CHI2_99_49 = chi2.ppf(0.99, 49)   # 50 bins at the 1% level


def _chi2_gof(draws, cdf, bins=50):
    qs = np.linspace(0.0, 1.0, bins + 1)
    edges = np.quantile(draws, qs)
    edges[0], edges[-1] = 0.0, np.inf
    counts, _ = np.histogram(draws, edges)
    probs = np.diff([cdf(e) for e in edges])
    expected = len(draws) * np.maximum(probs, 1e-300)
    return float(np.sum((counts - expected) ** 2 / expected))


class TestShadowedRician:
    def test_pdf_at_zero_is_alpha(self):
        assert ch.shadowed_rician_power_pdf(0.0, HEAVY) == pytest.approx(HEAVY.alpha, rel=1e-14)

    @pytest.mark.parametrize("p", [HEAVY, LIGHT])
    def test_normalisation(self, p):
        val, _ = quad(ch.shadowed_rician_power_pdf, 0, np.inf, args=(p,), limit=300)
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p,mean", [(HEAVY, 0.1265), (LIGHT, 0.781)])
    def test_mean_power(self, p, mean):
        val, _ = quad(lambda x: x * ch.shadowed_rician_power_pdf(x, p), 0, np.inf, limit=300)
        assert val == pytest.approx(mean, rel=1e-8)
        assert p.mean_power == pytest.approx(mean, rel=1e-12)

    def test_tail_matches_quadrature(self):
        for x0 in (0.01, 0.1265, 0.9):
            val, _ = quad(ch.shadowed_rician_power_pdf, x0, np.inf, args=(HEAVY,), limit=300)
            assert ch.shadowed_rician_power_tail(x0, HEAVY) == pytest.approx(val, rel=1e-9)

    def test_rejects_non_integer_order(self):
        with pytest.raises(ConfigError):
            ch.ShadowedRicianParams(m_sr=2.5, b_sr=0.063, omega_sr=0.0005)

    def test_sampler_mean(self):
        rng = np.random.default_rng(21)
        draws = ch.sample_shadowed_rician_power(rng, HEAVY, 1_000_000)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - HEAVY.mean_power) < 3 * se

    def test_sampler_pure_rayleigh_limit(self):
        # omega = 0: exponential with mean 2 b
        p = ch.ShadowedRicianParams(m_sr=2, b_sr=0.063, omega_sr=0.0)
        rng = np.random.default_rng(22)
        draws = ch.sample_shadowed_rician_power(rng, p, 500_000)
        assert draws.mean() == pytest.approx(2 * 0.063, rel=0.01)
        # exponential: var = mean^2
        assert draws.var() == pytest.approx((2 * 0.063) ** 2, rel=0.02)

    @pytest.mark.parametrize("p", [HEAVY, LIGHT])
    def test_sampler_chi2(self, p):
        rng = np.random.default_rng(23)
        draws = ch.sample_shadowed_rician_power(rng, p, 1_000_000)
        stat = _chi2_gof(draws, lambda e: 1.0 - ch.shadowed_rician_power_tail(e, p))
        assert stat < CHI2_99_49

    def test_approaches_rician_for_large_m(self):
        # L1 distance between the SR pdf (Omega fixed) and its large-m Rician
        # limit shrinks as m grows
        omega, b = 1.0, 0.126 / 2
        grid = np.linspace(1e-6, 6.0, 2000)

        def l1(m):
            p = ch.ShadowedRicianParams(m_sr=m, b_sr=b, omega_sr=omega)
            mean = 2 * b + omega
            ric = ch.RicianParams(K_rt=omega / (2 * b), nu_rt=2.0)
            ric_pdf = ch.rician_power_pdf(grid / mean, ric) / mean
            return np.trapezoid(np.abs(ch.shadowed_rician_power_pdf(grid, p) - ric_pdf), grid)

        dists = [l1(m) for m in (2, 5, 12, 30)]
        assert dists == sorted(dists, reverse=True)


class TestNakagami:
    def test_exponential_case_at_zero(self):
        p = ch.NakagamiParams(m_rd=1.0, nu_rd=2.0)
        assert ch.nakagami_power_pdf(0.0, p) == pytest.approx(1.0)

    def test_normalisation(self):
        val, _ = quad(ch.nakagami_power_pdf, 0, np.inf, args=(NAK,), limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_sampler_mean_and_gof(self):
        rng = np.random.default_rng(24)
        draws = ch.sample_nakagami_power(rng, NAK, 1_000_000)
        se = draws.std() / 1000.0
        assert abs(draws.mean() - 1.0) < 3 * se
        stat = _chi2_gof(draws, lambda e: 1.0 - ch.nakagami_power_tail(e, NAK))
        assert stat < CHI2_99_49


class TestRician:
    def test_k_zero_is_exponential(self):
        p = ch.RicianParams(K_rt=0.0, nu_rt=2.0)
        xs = np.array([0.0, 0.5, 2.0])
        np.testing.assert_allclose(ch.rician_power_pdf(xs, p), np.exp(-xs), rtol=1e-12)

    def test_normalisation(self):
        val, _ = quad(ch.rician_power_pdf, 0, np.inf, args=(RIC,), limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_tail_matches_quadrature(self):
        for x0 in (0.05, 0.5, 2.5):
            val, _ = quad(ch.rician_power_pdf, x0, np.inf, args=(RIC,), limit=200)
            assert ch.rician_power_tail(x0, RIC) == pytest.approx(val, rel=1e-9)

    def test_sampler_mean_and_gof(self):
        rng = np.random.default_rng(25)
        draws = ch.sample_rician_power(rng, RIC, 1_000_000)
        se = draws.std() / 1000.0
        assert abs(draws.mean() - 1.0) < 3 * se
        stat = _chi2_gof(draws, lambda e: 1.0 - ch.rician_power_tail(e, RIC))
        assert stat < CHI2_99_49


class TestSamplerValues:
    """The in-place samplers against the two-temporary formulas they replace."""

    @staticmethod
    def _shadowed(rng, p, size):
        a = np.sqrt(rng.gamma(p.m_sr, p.omega_sr / p.m_sr, size)) if p.omega_sr > 0 else 0.0
        zr = rng.normal(0.0, np.sqrt(p.b_sr), size)
        zi = rng.normal(0.0, np.sqrt(p.b_sr), size)
        return (a + zr) ** 2 + zi ** 2

    @staticmethod
    def _rician(rng, p, size):
        K = p.K_rt
        s = np.sqrt(0.5 / (1.0 + K))
        zr = rng.normal(0.0, s, size)
        zi = rng.normal(0.0, s, size)
        return (np.sqrt(K / (1.0 + K)) + zr) ** 2 + zi ** 2

    PARAMS = [
        ("shadowed", HEAVY), ("shadowed", LIGHT),
        ("shadowed", ch.ShadowedRicianParams(m_sr=1, b_sr=0.2, omega_sr=0.0)),
        ("rician", RIC), ("rician", ch.RicianParams(K_rt=0.0, nu_rt=2.0)),
    ]

    @pytest.mark.parametrize("kind, p", PARAMS)
    def test_blocks_bit_identical_to_the_formula(self, kind, p):
        new = {"shadowed": ch.sample_shadowed_rician_power,
               "rician": ch.sample_rician_power}[kind]
        old = {"shadowed": self._shadowed, "rician": self._rician}[kind]
        for block, size in enumerate((1, 3, 4096, 65_536, 70_001)):
            a = np.random.Generator(np.random.Philox(key=block + 1))
            b = np.random.Generator(np.random.Philox(key=block + 1))
            assert np.array_equal(new(a, p, size), old(b, p, size))
            # both leave the stream at the same place
            assert np.array_equal(a.random(4), b.random(4))
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        assert new(rng_a, p) == old(rng_b, p, None)


class TestLinkBudget:
    def test_boresight_limit(self):
        assert ch.beam_gain(0.0, math.radians(0.3), 3.02) == pytest.approx(3.02)

    def test_reference_beam_scaling(self):
        # J1(r)/(2r) + 36 J3(r)/r^3 at r = 2.07123 sin(0.8 deg)/sin(0.3 deg) = 5.52313,
        # the default link angles (mpmath at 50 digits)
        got = ch.beam_gain(math.radians(0.8), math.radians(0.3), 1.0)
        assert got == pytest.approx(0.022661186173737496812, rel=1e-12)

    def test_beam_angles_with_a_negative_ratio_raise(self):
        # theta_sr = 200 deg: sin(theta_sr) < 0; the message names both angles
        with pytest.raises(DomainError, match="theta_sr.*theta_3db"):
            ch.beam_gain(math.radians(200.0), math.radians(0.3), 1.0)
        with pytest.raises(ConfigError, match="theta_sr"):
            config_from_mapping({"link.theta_sr_deg": 200.0})

    def test_gain_below_boresight_on_grid(self):
        g0 = ch.beam_gain(0.0, math.radians(0.3), 1.0)
        for theta in np.linspace(1e-4, math.radians(3.0), 60):
            assert ch.beam_gain(theta, math.radians(0.3), 1.0) <= g0 + 1e-12

    def test_effective_gain_linear_in_power(self):
        def eta(ps):
            link = ch.SatelliteLink(P_s=ps, xi_db=2.0, wavelength=0.15, T_noise=300.0,
                                    bandwidth=15e6, gain_s_db=53.45, gain_r_db=4.8,
                                    theta_sr=math.radians(0.8), theta_3db=math.radians(0.3))
            return ch.effective_gain(link)

        assert eta(2.0) == pytest.approx(2 * eta(1.0), rel=1e-12)
        assert eta(1.0) > 0

    def test_db_identity(self):
        assert ch.db_to_linear(0.0) == 1.0
        assert ch.dbm_to_watt(30.0) == pytest.approx(1.0)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            ch.SatelliteLink(P_s=1.0, xi_db=2.0, wavelength=0.15, T_noise=-1.0,
                             bandwidth=15e6, gain_s_db=53.45, gain_r_db=4.8,
                             theta_sr=0.01, theta_3db=0.005)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            ch.shadowed_rician_power_pdf(-0.1, HEAVY)
