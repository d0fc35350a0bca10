import numpy as np
import pytest
from scipy.integrate import quad

from sagin_outage import geometry as geo
from sagin_outage.errors import ConfigError, DomainError

ORBIT = geo.OrbitGeometry(w_e=6371.0, h_0=0.8, w_min=400.0)
CONE = geo.ConeGeometry(h_0=800.0, l=250.0, h_1=400.0, h_2=500.0, phi=np.pi / 12)
CONE_CASE2 = geo.ConeGeometry(h_0=800.0, l=250.0, h_1=490.0, h_2=500.0, phi=np.pi / 12)

KS_CRITICAL = 1.63  # 1% level, scaled by 1/sqrt(N)


class TestSatelliteDistance:
    def test_pdf_at_w_min(self):
        # w_er = 6371.8 km -> 1/6371.8 per km
        assert geo.satellite_distance_pdf(400.0, ORBIT) == pytest.approx(1 / 6371.8, rel=1e-12)

    def test_pdf_outside_support(self):
        assert geo.satellite_distance_pdf(399.0, ORBIT) == 0.0
        assert geo.satellite_distance_pdf(ORBIT.w_max + 1.0, ORBIT) == 0.0

    def test_pdf_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            geo.satellite_distance_pdf(np.nan, ORBIT)

    def test_normalisation(self):
        val, _ = quad(geo.satellite_distance_pdf, ORBIT.w_min, ORBIT.w_max, args=(ORBIT,))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_cdf_exact_at_endpoints(self):
        assert geo.satellite_distance_cdf(ORBIT.w_min, ORBIT) == 0.0
        assert geo.satellite_distance_cdf(ORBIT.w_max, ORBIT) == pytest.approx(1.0, abs=1e-15)

    def test_w_max_value(self):
        assert ORBIT.w_max == pytest.approx(np.sqrt(400.0 ** 2 + 2 * 6371.8 * 400.0), rel=1e-14)

    def test_sampler_limits(self):
        class _U:
            def __init__(self, u):
                self.u = u

            def random(self, size=None, out=None):
                return np.full(size, self.u) if size else self.u

        assert geo.sample_satellite_distance(_U(0.0), ORBIT) == pytest.approx(ORBIT.w_min)
        near_max = geo.sample_satellite_distance(_U(1.0 - 1e-12), ORBIT)
        assert near_max == pytest.approx(ORBIT.w_max, rel=1e-9)

    def test_sampler_ks(self):
        rng = np.random.default_rng(11)
        n = 1_000_000
        draws = np.sort(geo.sample_satellite_distance(rng, ORBIT, n))
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(emp - geo.satellite_distance_cdf(draws, ORBIT)))
        assert ks < KS_CRITICAL / np.sqrt(n)


class TestGuDistance:
    def test_pdf_at_h0(self):
        assert geo.gu_distance_pdf(800.0, CONE) == pytest.approx(2 * 800 / 250.0 ** 2, rel=1e-14)

    def test_pdf_outside(self):
        assert geo.gu_distance_pdf(CONE.gu_max + 1e-9, CONE) == 0.0

    def test_normalisation(self):
        val, _ = quad(geo.gu_distance_pdf, CONE.h_0, CONE.gu_max, args=(CONE,))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_sampler_limits(self):
        class _U:
            def __init__(self, u):
                self.u = u

            def random(self, size=None, out=None):
                return self.u

        assert geo.sample_gu_distance(_U(0.0), CONE) == pytest.approx(CONE.h_0)
        assert geo.sample_gu_distance(_U(1.0), CONE) == pytest.approx(
            np.sqrt(800.0 ** 2 + 250.0 ** 2))

    def test_sampler_ks(self):
        rng = np.random.default_rng(12)
        n = 1_000_000
        draws = np.sort(geo.sample_gu_distance(rng, CONE, n))
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(emp - geo.gu_distance_cdf(draws, CONE)))
        assert ks < KS_CRITICAL / np.sqrt(n)


class TestArxDistance:
    def test_case_selection(self):
        assert CONE.h_1 / np.cos(CONE.phi) < CONE.h_2                # 414.1 < 500
        assert CONE_CASE2.h_1 / np.cos(CONE_CASE2.phi) > CONE_CASE2.h_2  # 507.3 > 500

    def test_pdf_zero_at_h1(self):
        assert geo.arx_distance_pdf(CONE.h_1, CONE) == 0.0

    @pytest.mark.parametrize("cone", [CONE, CONE_CASE2])
    def test_normalisation(self, cone):
        breaks = sorted({cone.h_1, cone.h_1 / np.cos(cone.phi), cone.h_2, cone.arx_max})
        total = 0.0
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if hi > lo:
                val, _ = quad(geo.arx_distance_pdf, lo, hi, args=(cone,), limit=200)
                total += val
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_pdf_continuous_at_branch_boundaries(self):
        c = np.cos(CONE.phi)
        for b in (CONE.h_1 / c, CONE.h_2):
            left = geo.arx_distance_pdf(b - 1e-9, CONE)
            right = geo.arx_distance_pdf(b + 1e-9, CONE)
            assert left == pytest.approx(right, rel=1e-6)

    def test_cases_agree_at_degenerate_geometry(self):
        # h_1/cos(phi) = h_2 exactly: both case formulas describe the same pdf
        phi = 0.25
        h2 = 500.0
        h1 = h2 * np.cos(phi)
        cone = geo.ConeGeometry(h_0=800.0, l=250.0, h_1=h1, h_2=h2, phi=phi)
        u = np.linspace(h1 * 1.0001, cone.arx_max * 0.9999, 101)
        c = np.cos(phi)
        norm = np.tan(phi) ** 2 * (h2 ** 3 - h1 ** 3)
        case1 = np.where(u < h1 / c, 6 * u * (u - h1),
                         np.where(u < h2, 6 * u * u * (1 - c), 6 * u * (h2 - u * c))) / norm
        case2 = np.where(u < h2, 6 * u * (u - h1),
                         np.where(u < h1 / c, 6 * u * (h2 - h1), 6 * u * (h2 - u * c))) / norm
        np.testing.assert_allclose(case1, case2, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(geo.arx_distance_pdf(u, cone), case1, rtol=1e-9)

    def test_cdf_matches_pdf_quadrature(self):
        for cone in (CONE, CONE_CASE2):
            kinks = (cone.h_1 / np.cos(cone.phi), cone.h_2)
            for u in np.linspace(cone.h_1, cone.arx_max, 9):
                cuts = sorted({cone.h_1, u, *[k for k in kinks if cone.h_1 < k < u]})
                val = sum(quad(geo.arx_distance_pdf, lo, hi, args=(cone,), limit=200)[0]
                          for lo, hi in zip(cuts[:-1], cuts[1:]))
                assert geo.arx_distance_cdf(u, cone) == pytest.approx(val, abs=1e-9)

    def test_sampler_support(self):
        rng = np.random.default_rng(13)
        draws = geo.sample_arx_distance(rng, CONE, 100_000)
        assert draws.min() >= CONE.h_1
        assert draws.max() <= CONE.arx_max

    def test_sampler_histogram_against_pdf(self):
        # binned counts within 3 sigma of the binomial expectation
        rng = np.random.default_rng(14)
        n = 1_000_000
        draws = geo.sample_arx_distance(rng, CONE, n)
        edges = np.linspace(CONE.h_1, CONE.arx_max, 41)
        counts, _ = np.histogram(draws, edges)
        probs = np.diff([geo.arx_distance_cdf(e, CONE) for e in edges])
        expected = n * probs
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - expected) < 3.5 * sigma + 1.0)

    def test_sampler_ks(self):
        rng = np.random.default_rng(15)
        n = 1_000_000
        draws = np.sort(geo.sample_arx_distance(rng, CONE, n))
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(emp - geo.arx_distance_cdf(draws, CONE)))
        assert ks < KS_CRITICAL / np.sqrt(n)

    def test_degenerate_phi_limit(self):
        # phi -> 0: distance reduces to the depth with z^3 uniform
        cone = geo.ConeGeometry(h_0=800.0, l=250.0, h_1=400.0, h_2=500.0, phi=1e-8)

        class _U:
            def __init__(self, u1, u2):
                self.vals = [u1, u2]

            def random(self, size=None, out=None):
                return self.vals.pop(0)

        u = geo.sample_arx_distance(_U(0.3, 0.7), cone)
        z = np.cbrt(400.0 ** 3 + (500.0 ** 3 - 400.0 ** 3) * 0.3)
        assert u == pytest.approx(z, rel=1e-12)


class TestValidation:
    def test_bad_cone(self):
        with pytest.raises(ConfigError):
            geo.ConeGeometry(h_0=800.0, l=250.0, h_1=500.0, h_2=400.0, phi=0.2)
        with pytest.raises(ConfigError):
            geo.ConeGeometry(h_0=800.0, l=250.0, h_1=400.0, h_2=500.0, phi=2.0)

    def test_bad_orbit(self):
        with pytest.raises(ConfigError):
            geo.OrbitGeometry(w_e=-1.0, h_0=0.8, w_min=400.0)
