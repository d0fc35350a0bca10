import math

import numpy as np
import pytest
from scipy.special import gamma, gammainc, gammaincc

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


class TestMbPowerSum:
    """The contour's power sum against the direct complex-exp matrix sum it replaced."""

    @staticmethod
    def _direct(c, lnx, t0, h):
        t = t0 + h * np.arange(len(c))
        return np.sum(c[:, None] * np.exp(-1j * np.outer(t, lnx)), axis=0).real

    @pytest.mark.parametrize("n,points,t_hi,midpoints", [
        (64, 1, 640.0, False),      # one point, as meijer_g evaluates; one block
        (64, 300, 640.0, True),     # a level of exactly 64 nodes
        (128, 300, 200.0, True),
        (1024, 300, 640.0, False),
        (4096, 40, 640.0, True),
    ])
    def test_matches_direct_exp_sum(self, n, points, t_hi, midpoints):
        rng = np.random.default_rng(n + points)
        lnx = rng.uniform(-60.0, 60.0, points)
        c = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        h = t_hi / n
        t0 = 0.5 * h if midpoints else 0.0
        got = sf._mb_power_sum(c, lnx, t0, h, None)
        # relative to sum |c_k|, the largest value the sum can take
        err = np.max(np.abs(got - self._direct(c, lnx, t0, h)))
        assert err <= 1e-12 * np.sum(np.abs(c))

    def test_cold_and_warm_calls_agree_bit_for_bit(self):
        rng = np.random.default_rng(7)
        lnx = rng.uniform(-60.0, 60.0, 300)
        c = rng.uniform(0.0, 1.0, 256) * np.exp(1j * rng.uniform(-np.pi, np.pi, 256))
        tables = {}
        cold = sf._mb_power_sum(c, lnx, 0.0, 2.5, tables)
        assert len(tables) == 1
        table = next(iter(tables.values()))
        warm = sf._mb_power_sum(c, lnx, 0.0, 2.5, tables)
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, sf._mb_power_sum(c, lnx, 0.0, 2.5, None))
        assert sf._mb_powers(lnx.copy(), 2.5, tables) is table and len(tables) == 1

    def test_kept_table_is_read_only(self):
        tables = {}
        table = sf._mb_powers(np.linspace(-5.0, 5.0, 11), 0.5, tables)
        assert table is next(iter(tables.values()))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1, 0] = 0.0


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
        with pytest.raises(NumericError, match="no valid Mellin-Barnes contour"):
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

    def test_g2113_value_does_not_depend_on_the_tables_dict(self):
        # no dict, a fresh one, and one that another parameter set filled on the
        # same grid with every table this call needs
        xs = np.array([0.02, 1.7, 260.0])
        params = (-1.5, 0.5, -0.5, -2.5)
        filled = {}
        sf.meijer_g_log("G2113", (-0.5, 0.5, -0.5, -1.5), xs, filled)
        kept = dict(filled)
        fresh = {}
        want = sf.meijer_g_log("G2113", params, xs)
        for tables in (fresh, filled):
            sign, log = sf.meijer_g_log("G2113", params, xs, tables)
            assert np.array_equal(sign, want[0]) and np.array_equal(log, want[1])
        assert fresh and fresh.keys() <= kept.keys()
        assert all(filled[key] is table for key, table in kept.items())
        assert len(filled) == len(kept)

    def test_a_closed_case_builds_each_table_once(self, monkeypatch):
        # the 88 dB a2a im-IC case of the acceptance grid: every (grid, step)
        # table its G2113 calls use is built once, into the case's one dict
        cfg = config_from_mapping({"rates.threshold_mode": "from_rate",
                                   "swipt.p_th_dbm": 35.0, "link.eta_s_db": 88.0})
        built, dicts = [], {}
        real = sf._mb_powers

        def counting(lnx, h, tables):
            if tables is None:
                built.append((lnx.tobytes(), h))
            else:
                dicts[id(tables)] = tables
            return real(lnx, h, tables)

        monkeypatch.setattr(sf, "_mb_powers", counting)
        cf.op_a2a_closed(cfg.gamma_a, cfg)
        (tables,) = dicts.values()
        assert built and len(built) == len(set(built)) == len(tables)
        assert set(built) == tables.keys()

    @pytest.mark.parametrize("network,eta_db", [("a2a", 88.0), ("s2g", 103.0)])
    def test_stop_rule_matches_a_later_stop(self, network, eta_db, monkeypatch):
        # every G2113 call of one closed case on the acceptance-grid thresholds,
        # against the same calls run on to two levels agreeing to 1e-9
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
        monkeypatch.setattr(sf, "_MB_AGREE", 1e-9)
        for params, xs, (sign, log) in calls:
            ref_sign, ref_log = sf.meijer_g_log("G2113", params, xs)
            assert np.array_equal(sign, ref_sign)
            assert np.max(np.abs(np.expm1(log - ref_log))) <= 1e-10

    def test_contour_unconverged_at_the_last_level_raises(self, monkeypatch):
        # this point needs 256 intervals; stop the halving one level short
        params = (-22.0, 0.5, -0.5, -23.0)
        monkeypatch.setattr(sf, "_MB_MAX_INTERVALS", 128)
        with pytest.raises(NumericError, match="did not converge") as err:
            sf.meijer_g_log("G2113", params, [0.38343216138618902])
        assert err.value.diagnostics["n"] == 128
