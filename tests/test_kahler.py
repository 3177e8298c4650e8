import math

import numpy as np
import pytest

from rigidlab import domain as dm
from rigidlab import kahler as kh
from rigidlab import riemann as rm
from rigidlab.errors import PositiveCurvatureUnsupported, RadiusOutOfRange


PO = kh.poincare_kahler()
FLAT = kh.flat_kahler(1)
BERG = kh.bergman_kahler(2)


def apply_j(v) -> np.ndarray:
    """The standard complex structure on interleaved real coordinates."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[0::2] = -v[1::2]
    out[1::2] = v[0::2]
    return out


def hol_sectional(k, x, X) -> float:
    """Sectional curvature of the J-invariant plane spanned by X and JX."""
    return rm.christoffel_curvature(k.metric, x).sectional(X, apply_j(X))


class TestHolomorphicSectional:
    def test_poincare_equals_gaussian(self):
        for x in ([0, 0], [0.3, -0.2], [0.7, 0.1]):
            assert hol_sectional(PO, x, [1, 0.4]) == pytest.approx(-1.0, abs=1e-6)

    def test_bergman_constant(self):
        vals = [hol_sectional(BERG, x, v) for x, v in (
            ([0, 0, 0, 0], [1, 0, 0, 0]),
            ([0.2, 0.1, -0.1, 0.3], [0.5, 0.2, -0.3, 0.1]),
            ([0.5, 0, 0, 0], [0, 0, 1, 0]))]
        assert max(vals) - min(vals) < 1e-5

    def test_flat_zero(self):
        assert hol_sectional(FLAT, [0.1, 0.2], [1, 0]) == 0.0

    def test_complex_scaling_invariance(self):
        # H(cX) = H(X): the plane span(X, JX) is unchanged by complex scalars
        x = [0.2, 0.1, -0.1, 0.3]
        X = np.array([0.5, 0.2, -0.3, 0.1])
        base = hol_sectional(BERG, x, X)
        for c in (2.0, -1.0):
            assert hol_sectional(BERG, x, c * X) == pytest.approx(base, rel=1e-9)
        # multiplication by i acts as J on the real picture
        assert hol_sectional(BERG, x, apply_j(X)) == pytest.approx(base, rel=1e-9)


class TestJInvariance:
    def test_models(self):
        # g(JX, JY) = g(X, Y) at seeded points and vectors
        rng = np.random.default_rng(23)
        for k, points in ((PO, [[0, 0], [0.4, -0.3]]), (BERG, [[0, 0, 0, 0], [0.2, 0.1, -0.1, 0.3]])):
            for x in points:
                gx = k.metric.g(np.asarray(x, dtype=float))
                for _ in range(4):
                    X, Y = rng.standard_normal((2, 2 * k.complex_dim))
                    rhs = float(X @ gx @ Y)
                    lhs = float(apply_j(X) @ gx @ apply_j(Y))
                    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


class TestPropertyBG:
    def test_poincare_passes(self):
        rep = kh.property_bg_estimate(PO, dm.disk(), n_points=25)
        assert rep.passed and rep.complete
        # closed forms: sqrt(g(v,v)) delta / |v| = 2 (1 - |z|) / (1 - |z|^2) <= 2
        assert rep.A_est <= 2.0 + 1e-9
        assert rep.a_est >= 2.0 - 1e-9
        assert rep.kappa_est == pytest.approx(1.0, abs=1e-5)

    def test_flat_upper_bound_but_incomplete(self):
        rep = kh.property_bg_estimate(FLAT, dm.disk(), n_points=15)
        assert rep.passed           # the 1/delta upper bound holds trivially
        assert not rep.complete     # rays reach the boundary in finite length
        assert rep.A_est <= 1.0 + 1e-9

    def test_bergman_ball_passes(self):
        rep = kh.property_bg_estimate(BERG, dm.ball(2), n_points=25)
        assert rep.passed and rep.complete
        assert 0 < rep.a_est < rep.A_est < math.inf
        assert rep.kappa_est == pytest.approx(2.0 / 3.0, abs=1e-4)


class TestSqueezing:
    def test_ball_center(self):
        assert kh.squeezing_lower_bound(dm.ball(2), [0, 0]) == 1.0

    def test_disk_offset(self):
        assert kh.squeezing_lower_bound(dm.disk(), [0.5]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ellipsoid_center(self):
        # inradius 1; circumradius sqrt(5)/2 at |z2|^2 = 1/2 on the boundary
        val = kh.squeezing_lower_bound(dm.ellipsoid((1, 2)), [0, 0])
        assert val == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-6)

    @pytest.mark.parametrize("dom", [
        dm.modulus_polynomial([(1.0, (1, 0)), (1.0, (0, 2)), (0.5, (1, 1))], 2),
        dm.ellipsoid((1, 2, 3)),
    ], ids=["readme-polynomial", "ellipsoid123"])
    def test_moduli_circumradius_is_at_least_the_sampled_max(self, dom):
        # the sampled max: the farthest of the boundary points where 4096
        # seeded rays from the center leave the domain
        d = dom.dimension
        w = np.random.default_rng(37).standard_normal((4096, 2, d))
        u = w[:, 0] + 1j * w[:, 1]
        u /= np.linalg.norm(u, axis=1)[:, None]
        lo, hi = dm.ray_exit(dom, np.zeros(d), u[:, None, :])
        exits = 0.5 * (lo + hi)[:, None] * u
        for z in dm.sample_ball(dom, np.zeros(d), 0.9, 8, np.random.default_rng(8)):
            sampled = float(np.max(np.linalg.norm(exits - z, axis=1)))
            assert kh.circumradius(dom, z) >= sampled - 1e-12

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            s = kh.squeezing_lower_bound(dm.disk(), [z])
            assert 0 < s <= 1.0


class TestModelVolume:
    def test_flat_disk(self):
        assert kh.model_volume(2, 0.0, 1.0) == pytest.approx(math.pi, rel=1e-12)

    def test_hyperbolic_area(self):
        assert kh.model_volume(2, -1.0, 1.0) == pytest.approx(
            2 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-10)

    def test_flat_four_ball(self):
        assert kh.model_volume(4, 0.0, 2.0) == pytest.approx(math.pi**2 / 2 * 16, rel=1e-12)

    def test_monotone(self):
        v = [kh.model_volume(2, lam, r) for lam, r in ((-1, 1), (-1, 2), (-2, 2))]
        assert v[0] < v[1] < v[2]
        assert kh.model_volume(2, 0.0, 1.0) < kh.model_volume(2, -1.0, 1.0)

    def test_positive_curvature_rejected(self):
        with pytest.raises(PositiveCurvatureUnsupported):
            kh.model_volume(2, 1.0, 1.0)


class TestCGTBound:
    def test_large_volume_limit(self):
        assert kh.cgt_inj_lower(1e15, 1.0, 0.5, 1) == pytest.approx(0.25, abs=1e-9)

    def test_equal_volume(self):
        vm = kh.model_volume(2, -1.0, 1.0)
        assert kh.cgt_inj_lower(vm, 1.0, 0.5, 1) == pytest.approx(0.125, rel=1e-14)

    def test_worked_example(self):
        expected = 0.25 / (1.0 + 2 * math.pi * (math.cosh(1.0) - 1.0))
        assert kh.cgt_inj_lower(1.0, 1.0, 0.5, 1) == pytest.approx(expected, rel=1e-10)

    def test_radius_guard(self):
        with pytest.raises(RadiusOutOfRange):
            kh.cgt_inj_lower(1.0, 1.0, 0.8, 1)  # pi/4 < 0.8


class TestThreshold:
    def test_reference_values(self):
        assert kh.rigidity_threshold(1, 1, 1, math.pi / 2, False) == 7.0
        assert kh.rigidity_threshold(1, 1, 1, math.pi / 2, True) == 3.0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            lam = rng.uniform(0.01, 100.0)
            k, A, th = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0), rng.uniform(0.1, math.pi / 2)
            a = kh.rigidity_threshold(2, lam * k, A / math.sqrt(lam), th)
            b = kh.rigidity_threshold(2, k, A, th)
            assert a == pytest.approx(b, rel=1e-12)

    def test_quarter_curvature_half_A(self):
        assert kh.rigidity_threshold(1, 4.0, 0.5, math.pi / 2) == pytest.approx(
            kh.rigidity_threshold(1, 1.0, 1.0, math.pi / 2), rel=1e-14)
