import math
import re

import numpy as np
import pytest
from scipy.special import gamma, gammainc, gammaincc, kve

from sagin_outage import specfun as sf
from sagin_outage.analytic import closed_form as cf
from sagin_outage.config import config_from_mapping
from sagin_outage.errors import DomainError, NumericError


class TestDeltaGamma:
    def test_equal_limits_is_zero(self):
        assert sf.delta_gamma(3.3, 2.0, 2.0) == 0.0

    def test_full_range_unit_shape(self):
        # Gamma(1, 0) - Gamma(1, inf) = 1
        assert sf.delta_gamma(1.0, 0.0, np.inf) == pytest.approx(1.0, rel=1e-14)

    def test_antisymmetric(self):
        a, b, c = 2.5, 1.0, 3.0
        assert sf.delta_gamma(a, b, c) == pytest.approx(-sf.delta_gamma(a, c, b), rel=1e-14)

    def test_against_frozen_oracle(self):
        # mpmath.gammainc(3.5, 1.2, 4.7) at 50 digits
        expected = 2.357048151086020596227209
        assert sf.delta_gamma(3.5, 1.2, 4.7) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(DomainError):
            sf.delta_gamma(0.0, 1.0, 2.0)

    @pytest.mark.parametrize("a,b,c,expected", [
        # hi <= 1.0000001 lo: the Gauss-Legendre branch; log of mpmath.quad at 50 digits
        (3.5, 2.0, 2.0 * (1 + 5e-8), -16.385227688695036424),
        (0.5, 7.0, 7.0 * (1 + 1e-9), -26.750310683428387235),
        (40.0, 30.0, 30.0 * (1 + 9e-8), 89.824439503397941630),
    ])
    def test_nearly_coincident_limits(self, a, b, c, expected):
        assert sf.log_delta_gamma(a, b, c) == (1.0, pytest.approx(expected, rel=1e-14))
        assert sf.log_delta_gamma(a, c, b) == (-1.0, pytest.approx(expected, rel=1e-14))

    @pytest.mark.parametrize("x", [0.1, 1.0, 7.0, 40.0])
    @pytest.mark.parametrize("a", [0.5, 3.0, 12.5])
    def test_one_sided_limits_match_scipy(self, a, x):
        # c = inf leaves the upper gamma Gamma(a, x), b = 0 the lower gamma(a, x)
        upper = gammaincc(a, x) * gamma(a)
        lower = gammainc(a, x) * gamma(a)
        assert sf.delta_gamma(a, x, np.inf) == pytest.approx(upper, rel=1e-12)
        assert sf.delta_gamma(a, np.inf, x) == pytest.approx(-upper, rel=1e-12)
        assert sf.delta_gamma(a, 0.0, x) == pytest.approx(lower, rel=1e-12)
        assert sf.delta_gamma(a, x, 0.0) == pytest.approx(-lower, rel=1e-12)

    def test_log_form_handles_extreme_shapes(self):
        # shapes around 200 with tiny limits: linear scale would underflow
        sgn, lg = sf.log_delta_gamma(180.0, 1e-6, 1e-4)
        assert sgn == 1.0 and np.isfinite(lg) and lg < -700


class TestLogGammaUpper:
    # frozen 50-digit references (mpmath.gammainc(a, x, inf))
    CASES = [
        (-120.0, 180.0, -808.86060124913336),
        (-35.5, 0.004, 192.43821395272132),
        (-2.0, 0.8, -1.489408779295028),
        (0.5, 7.0, -8.0346947904144854),
        (60.0, 23.0, 184.53382886134999),
        (200.0, 260.0, 847.97889159878314),
        # limits of the closed path's traffic, references at mp.dps = 200
        # (at 50 digits mpmath.gammainc(-200, 250) is off by 112 nats)
        (-279.0, 1.0, -6.6348024035765182),
        (-200.0, 250.0, -1360.4026646550456),
        (-150.0, 3e4, -31556.656872299654),
        (0.0, 1.0, -1.5169319590020456),
    ]

    @pytest.mark.parametrize("a,x,expected", CASES)
    def test_values(self, a, x, expected):
        assert sf.log_gamma_upper(a, x) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_recurrence_consistency(self):
        # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x across the dispatch regions
        for s in (-40.0, -7.5, -0.5, 2.5, 30.0):
            for x in (0.05, 0.9, 3.0, 40.0):
                g_s = math.exp(sf.log_gamma_upper(s, x))
                g_s1 = math.exp(sf.log_gamma_upper(s + 1.0, x))
                assert g_s1 == pytest.approx(s * g_s + x ** s * math.exp(-x), rel=1e-9)

    @pytest.mark.parametrize("a,x,expected", CASES)
    def test_values_as_one_element_array(self, a, x, expected):
        got = sf.log_gamma_upper(a, np.array([x]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(expected, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("a", [-40.0, -7.5, -0.5, 0.0, 2.5, 30.0])
    def test_array_matches_scalar_calls_bit_for_bit(self, a):
        # the grid crosses the recurrence (x < 1), the fraction and the pair
        xs = [0.05, 0.9, 1.0, 3.0, 40.0, 3e4] + ([0.0] if a > 0 else [])
        got = sf.log_gamma_upper(a, np.array(xs))
        assert got.tolist() == [sf.log_gamma_upper(a, x) for x in xs]
        assert all(type(sf.log_gamma_upper(a, x)) is float for x in xs)

    def test_array_keeps_its_shape(self):
        xs = np.array([[0.05, 0.9, 3.0], [40.0, 1.0, 0.3]])
        got = sf.log_gamma_upper(-7.5, xs)
        assert got.shape == xs.shape
        assert got.ravel().tolist() == sf.log_gamma_upper(-7.5, xs.ravel()).tolist()
        assert sf.log_gamma_upper(-7.5, np.empty((0,))).shape == (0,)
        assert sf.log_gamma_upper(2.5, np.empty((2, 0))).shape == (2, 0)

    @pytest.mark.parametrize("a,xs", [(2.5, [3.0, -1e-9, 0.5]), (-7.5, [0.5, -2.0]),
                                      (-7.5, [0.5, 0.0, 3.0]), (0.0, [0.0])])
    def test_array_domain(self, a, xs):
        with pytest.raises(DomainError):
            sf.log_gamma_upper(a, np.array(xs))


class TestGaussLegendre:
    def test_exact_for_degree_up_to_2n_minus_1(self):
        lo, hi, n = 2.0, 5.0, 6
        t, w = sf.gauss_legendre(lo, hi, n)
        assert np.all((t > lo) & (t < hi))
        for k in range(2 * n):
            exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            assert float(np.sum(w * t ** k)) == pytest.approx(exact, rel=1e-13)

    def test_rule_is_built_once_per_n(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        sf._legendre_rule.cache_clear()
        for lo, hi in ((0.0, 1.0), (-3.0, 7.0), (0.0, 1.0)):
            sf.gauss_legendre(lo, hi, 9)
        assert calls == [9]


def _cgq(f, a, b, n):
    """The CGQ sum the closed path forms: np.sum(w * f(x)) on cgq_points."""
    x, w = sf.cgq_points(a, b, n)
    return float(np.sum(w * f(x)))


class TestCgq:
    def test_constant_on_0_2_with_ten_nodes(self):
        val = _cgq(np.ones_like, 0.0, 2.0, 10)
        assert val == pytest.approx(2.008, abs=5e-4)   # within 1% of exact 2
        assert abs(val - 2.0) / 2.0 < 0.01

    def test_zero_integrand(self):
        assert _cgq(np.zeros_like, 0.0, 2.0, 16) == 0.0

    def test_odd_integrand_cancels_by_symmetry(self):
        assert _cgq(lambda x: x, -1.0, 1.0, 24) == pytest.approx(0.0, abs=1e-14)

    def test_error_decreases_as_n_doubles(self):
        exact = math.e - 1.0
        errs = [abs(_cgq(np.exp, 0.0, 1.0, n) - exact) for n in (25, 50, 100, 200)]
        assert errs[1] < errs[0] and errs[2] < errs[1] and errs[3] < errs[2]

    def test_nodes_symmetric_weights_positive(self):
        nodes, weights = sf.cgq_points(-1.0, 1.0, 31)
        assert np.all(weights > 0)
        assert np.all(np.abs(nodes) < 1)
        assert np.allclose(np.sort(nodes), -np.sort(nodes)[::-1])
        with pytest.raises(DomainError):
            sf.cgq_points(-1.0, 1.0, 0)


class TestBessel:
    def test_i0_at_zero(self):
        assert sf.log_bessel_i0(0.0) == 0.0


class TestKRatios:
    """The ladder's Bessel-K orders, from two kve seeds and the upward ratio
    recurrence, against kve at every order."""

    # fractions nu0 + order keeps exactly, so every order finds the one entry
    @pytest.mark.parametrize("nu0", [0.0, 0.125, 0.25, 0.5, 0.875])
    def test_orders_match_kve_up_to_20(self, nu0):
        xs = np.geomspace(1e-3, 1e5, 41)
        big_x = 2.0 * np.sqrt(xs)
        seeds = {}
        for order in range(21):
            nu = nu0 + order
            got_x, logk, rho = sf._k_ratios(xs, nu, seeds)
            assert got_x is next(iter(seeds.values()))[0]
            want = (kve(nu - 1.0, big_x) + kve(nu + 1.0, big_x)) / kve(nu, big_x)
            assert np.max(np.abs(np.expm1(logk - np.log(kve(nu, big_x))))) <= 1e-13
            assert np.max(np.abs(rho / want - 1.0)) <= 1e-13
        assert len(seeds) == 1


class TestMeijerG:
    def test_exponential_instance(self):
        assert sf.meijer_g("G0110", (1.0,), 2.0) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_bessel_instance(self):
        # G^{2,0}_{0,2}[1/4 | 1/4, -1/4] = 2 K_{1/2}(1)
        expected = 2.0 * math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert sf.meijer_g("G2002", (0.25, -0.25), 0.25) == pytest.approx(expected, rel=1e-12)

    def test_g2123_against_frozen_oracle(self):
        # series-generated G^{2,1}_{2,3} point, 60-digit mpmath reference
        params = (1.0 - 1 - 1.0, 4.0, 3.0, 0.0, -2.0)   # n=1, s1=3, nu=2, q=1
        expected = 0.04226892032968818153711155
        assert sf.meijer_g("G2123", params, 1.7) == pytest.approx(expected, rel=1e-8)

    # G2123 where the oracle table has no rows (its s1 lies in [4, 43], c in
    # [0.74, 4.5]): s1 = 0, where Gamma(0, x) = E1(x), and the negative s1 and
    # large c the a2a Taylor route reaches.  References are
    # mpmath.meijerg([[1 - c], [s1 + 1]], [[s1, 0], [-c]], x) at 50 digits.
    @pytest.mark.parametrize("s1,c,x,expected", [
        (0.0, 1.5, 0.003, 3.933595352195477893344521),
        (0.0, 1.5, 120.0, 0.0004494504427212266791759319),
        (-3.0, 5.5, 0.02, 99999.94015786286744865196),
        (-3.0, 5.5, 300.0, 4.974504830295430152331154e-13),
        (-40.0, 42.0, 0.5, 1.121385426514015177525407e+58),
        (-40.0, 42.0, 250.0, 3.235329852319940041079022e-52),
    ])
    def test_g2123_beyond_the_oracle_rows(self, s1, c, x, expected):
        params = (1.0 - c, s1 + 1.0, s1, 0.0, -c)
        assert sf.meijer_g("G2123", params, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("instance,params", [
        ("G2123", (-1.0, 3.0, 2.0, 0.0, -2.0)),
        ("G2113", (-1.5, 0.5, -0.5, -2.5)),
    ])
    def test_vectorised_log_matches_scalar(self, instance, params):
        xs = np.array([0.02, 1.7, 260.0])
        sgn, lg = sf.meijer_g_log(instance, params, xs)
        for i, x in enumerate(xs):
            assert sgn[i] * np.exp(lg[i]) == pytest.approx(
                sf.meijer_g(instance, params, float(x)), rel=1e-9)

    def test_g2113_against_frozen_oracle(self):
        # s2=2.5, s3=0.5, q=1, nu=2: mpmath reference at 60 digits
        params = (1.0 - 2.5 - 1.0, 0.5, -0.5, -3.5)
        expected = 0.01534924397644671491078151
        assert sf.meijer_g("G2113", params, 4.0) == pytest.approx(expected, rel=1e-8)

    def test_needs_positive_argument(self):
        with pytest.raises(DomainError):
            sf.meijer_g("G0110", (1.0,), 0.0)

    @pytest.mark.parametrize("instance,params", [
        ("G2113", (1.0, 0.0, -0.0, 0.0)),         # |s3| = 0 = c
        ("G2123", (0.0, -1.0, -2.0, 0.0, -1.0)),  # -s1 = 2 > c = 1
    ])
    def test_zero_width_strip_raises(self, instance, params):
        # the strip max(-b1, -b2) < Re s < c between the two pole sequences is empty
        bound = {"G2113": "|s3|", "G2123": "max(-s1, 0)"}[instance]
        message = f"{instance} needs c = 1 - a1 above {bound}"
        with pytest.raises(NumericError, match=re.escape(message)):
            sf.meijer_g_log(instance, params, [1.5])

    @pytest.mark.parametrize("instance,params", [
        ("G2113", (1.0, 0.0, 0.5, 0.2)),          # b2 != -b1, b3 != a1 - 1
        ("G2113", (-1.5, 0.5, -0.5, -2.0)),       # b3 != a1 - 1
        ("G2123", (-1.0, 3.5, 2.0, 0.0, -2.0)),   # a2 != b1 + 1
        ("G2123", (-1.0, 3.0, 2.0, 0.5, -2.0)),   # b2 != 0
        ("G2123", (-1.0, 3.0, 2.0, 0.0, -2.5)),   # b3 != a1 - 1
        ("G2123", (-1.5, 0.5, -0.5, -2.5)),       # the G2113 layout
        ("G3333", (-1.5, 0.5, -0.5, -2.5)),
    ])
    def test_parameters_outside_the_family_raise(self, instance, params):
        with pytest.raises(DomainError):
            sf.meijer_g_log(instance, params, [1.5])

    # G2113 where the oracle table has no rows (its |nu| = 2 |s3| <= 5, all
    # integers): |nu| = 16 at small and large x, c - |s3| = 0.01, and non-integer
    # nu, below 1 and above.  References are mpmath.meijerg([[1 - c], []],
    # [[s3, -s3], [-c]], x) at 50 digits.
    @pytest.mark.parametrize("s3,c,x,expected", [
        (8.0, 9.5, 1e-3, 8.717480415730765143264574e+35),
        (-8.0, 9.5, 1e4, 7.589202014034828568304483e-25),
        (8.0, 8.01, 2.5, 85564412053.00484374376671),
        (-1.5, 1.51, 1e-3, 6324524.018509442714607197),
        (1.5, 1.51, 300.0, 0.03648562565210697712889784),
        (0.35, 1.2, 3.0, 0.2333260490126619629596982),
        (-3.3, 5.0, 400.0, 8.2357741619967942416054e-10),
    ])
    def test_g2113_beyond_the_oracle_rows(self, s3, c, x, expected):
        params = (1.0 - c, s3, -s3, -c)
        assert sf.meijer_g("G2113", params, x) == pytest.approx(expected, rel=1e-13)

    def test_g2113_rescaled_points_keep_their_values(self, monkeypatch):
        # a grid from 1e-3 to 1.5e5 grows the ladder's bound past _LADDER_RESCALE:
        # each point reads as it does alone, and as it does when the ladder
        # rescales at 1e100, where each rescale adds the rounding of one log
        xs = np.geomspace(1e-3, 1.5e5, 9)
        params = (0.0, 0.5, -0.5, -1.0)
        sign, log = sf.meijer_g_log("G2113", params, xs)
        alone = [sf.meijer_g_log("G2113", params, xs[i:i + 1])[1][0] for i in range(len(xs))]
        assert np.all(sign == 1.0)
        assert np.max(np.abs(np.expm1(log - alone))) <= 1e-15
        monkeypatch.setattr(sf, "_LADDER_RESCALE", 1e100)
        assert np.max(np.abs(np.expm1(log - sf.meijer_g_log("G2113", params, xs)[1]))) <= 5e-14

    def test_g2113_value_does_not_depend_on_the_tables_dict(self):
        # no dict, a fresh one, and one that a call of lower order filled on
        # the same grid: the second call extends its ratios in place
        xs = np.array([0.02, 1.7, 260.0])
        params = (-8.5, 4.0, -4.0, -9.5)
        filled = {}
        sf.meijer_g_log("G2113", (-1.5, 0.5, -0.5, -2.5), xs, filled)
        fresh = {}
        want = sf.meijer_g_log("G2113", params, xs)
        for tables in (fresh, filled):
            sign, log = sf.meijer_g_log("G2113", params, xs, tables)
            assert np.array_equal(sign, want[0]) and np.array_equal(log, want[1])
        assert fresh.keys() == filled.keys() and len(fresh) == 1

    def test_a_closed_case_seeds_each_grid_once(self, monkeypatch):
        # the 88 dB a2a im-IC case of the acceptance grid: every argument grid
        # its G2113 calls use gets its two kve seeds once, into the case's one dict
        cfg = config_from_mapping({"rates.threshold_mode": "from_rate",
                                   "swipt.p_th_dbm": 35.0, "link.eta_s_db": 88.0})
        seeded, dicts = [], {}
        real = sf._k_ratios

        def counting(xs, nu, seeds):
            dicts[id(seeds)] = seeds
            if (xs.tobytes(), nu - math.floor(nu)) not in seeds:
                seeded.append(xs.tobytes())
            return real(xs, nu, seeds)

        monkeypatch.setattr(sf, "_k_ratios", counting)
        cf.op_a2a_closed(cfg.gamma_a, cfg)
        (seeds,) = dicts.values()
        assert seeded and len(seeded) == len(set(seeded)) == len(seeds)
        assert {grid for grid, _ in seeds} == set(seeded)

    @pytest.mark.parametrize("network,eta_db", [("a2a", 88.0), ("s2g", 103.0)])
    def test_a_higher_ladder_top_moves_nothing(self, network, eta_db, monkeypatch):
        # every G2113 call of one closed case on the acceptance-grid thresholds,
        # against the same calls started 10 rungs higher
        cfg = config_from_mapping({"rates.threshold_mode": "from_rate",
                                   "swipt.p_th_dbm": 35.0, "link.eta_s_db": eta_db})
        calls = []

        def recording(instance, params, xs, tables=None):
            got = sf.meijer_g_log(instance, params, xs, tables)
            if instance == "G2113":
                calls.append((params, np.array(xs), got))
            return got

        monkeypatch.setattr(cf, "meijer_g_log", recording)
        if network == "s2g":
            cf.op_s2g_closed(cfg.gamma_s, cfg)
        else:
            cf.op_a2a_closed(cfg.gamma_a, cfg)
        assert calls
        real = sf._ladder_rungs
        monkeypatch.setattr(sf, "_ladder_rungs", lambda *args: real(*args) + 10)
        for params, xs, (sign, log) in calls:
            ref_sign, ref_log = sf.meijer_g_log("G2113", params, xs)
            assert np.array_equal(sign, ref_sign)
            assert np.max(np.abs(np.expm1(log - ref_log))) <= 1e-15
