import math

import numpy as np
import pytest

from rigidlab import domain as dm
from rigidlab import kahler as kh
from rigidlab import riemann as rm
from rigidlab.errors import ConfigInvalid, PositiveCurvatureUnsupported, RadiusOutOfRange


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


def sampled_bg(k, dom, n_points: int = 40):
    """The reference: sampled bounded-geometry constants ``(kappa, A, a)`` over
    the origin and seeded points of ``B(0, 0.995)``, each probed along six
    seeded random directions and every coordinate 2-plane."""
    rng = np.random.default_rng(31)
    d = k.complex_dim
    m = k.metric
    pts = [np.zeros(2 * d)] + [dm.c2r(z) for z in dm.sample_ball(dom, np.zeros(d), 0.995, n_points - 1, rng)]
    kappa, A, a = 0.0, 0.0, math.inf
    for x in pts:
        delta = dm.boundary_distance(dom, dm.r2c(x))
        cd = rm.christoffel_curvature(m, x)
        for _ in range(6):
            v, w = rng.standard_normal((2, 2 * d))
            gnorm = math.sqrt(float(v @ cd.gx @ v))
            A = max(A, gnorm * delta / np.linalg.norm(v))
            a = min(a, gnorm / np.linalg.norm(v))
            kappa = max(kappa, abs(cd.sectional(v, w)))
        eye = np.eye(2 * d)
        for i in range(2 * d):
            for j in range(i + 1, 2 * d):
                kappa = max(kappa, abs(cd.sectional(eye[i], eye[j])))
    return kappa, A, a


class TestPropertyBG:
    def test_poincare_passes(self):
        rep = kh.property_bg_estimate(PO, dm.disk())
        assert rep.passed and rep.complete
        # closed forms: sqrt(g(v,v)) delta / |v| = 2 (1 - |z|) / (1 - |z|^2) <= 2
        assert rep.kappa_est == 1.0
        assert rep.A_est == rep.a_est == 2.0

    def test_flat_upper_bound_but_incomplete(self):
        for d in (1, 2):
            rep = kh.property_bg_estimate(kh.flat_kahler(d), dm.ball(d))
            assert rep.passed           # the 1/delta upper bound holds trivially
            assert (rep.kappa_est, rep.A_est, rep.a_est, rep.complete) == (0.0, 1.0, 1.0, False)

    def test_bergman_ball_passes(self):
        rep = kh.property_bg_estimate(BERG, dm.ball(2))
        assert rep.passed and rep.complete
        assert rep.a_est == rep.A_est == math.sqrt(6.0)
        assert abs(rep.kappa_est - 2.0 / 3.0) <= 2 * math.ulp(2.0 / 3.0)

    @pytest.mark.parametrize("k", [PO, FLAT, kh.flat_kahler(2), kh.bergman_kahler(1), BERG,
                                   kh.bergman_kahler(3)], ids=lambda k: f"{k.name}-{k.complex_dim}")
    def test_samples_stay_within_the_exact_constants(self, k):
        # a relative 1e-9 absorbs the rounding of the sampled values
        rep = kh.property_bg_estimate(k, dm.ball(k.complex_dim))
        kappa, A, a = sampled_bg(k, dm.ball(k.complex_dim))
        assert kappa <= rep.kappa_est * (1 + 1e-9)
        assert A <= rep.A_est * (1 + 1e-9)
        assert a >= rep.a_est * (1 - 1e-9)

    @pytest.mark.parametrize("k, dom", [(BERG, dm.polydisk(2)), (BERG, dm.ball(3)), (PO, dm.ball(2)),
                                        (BERG, dm.ellipsoid((1, 2)))],
                             ids=["polydisk", "ball3", "poincare-ball2", "ellipsoid"])
    def test_other_pairs_are_refused(self, k, dom):
        with pytest.raises(ConfigInvalid):
            kh.property_bg_estimate(k, dom)


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
