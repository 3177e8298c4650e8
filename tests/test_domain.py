import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import domain as dm
from rigidlab.errors import ApexNotOnBoundary, BoundaryDataUnavailable, PointOutsideDomain


DISK = dm.disk()
BALL2 = dm.ball(2)
POLY2 = dm.polydisk(2)
ELL12 = dm.ellipsoid((1, 2))


def ellipsoid_boundary_distance_oracle(z2: complex, n: int = 10**6) -> float:
    """Dense sampling of the boundary section {x^2 + y^4 = 1, phases aligned}.

    For a point (0, z2) the nearest boundary point has first coordinate of
    arbitrary phase and second aligned with z2, so the 1-D real section
    suffices; sampling it densely gives an independent minimizer.
    """
    y = np.linspace(0.0, 1.0, n)
    x = np.sqrt(np.clip(1.0 - y**4, 0.0, None))
    d2 = x**2 + (y - abs(z2)) ** 2
    return math.sqrt(float(d2.min()))


class TestBoundaryDistance:
    def test_disk_center(self):
        assert dm.boundary_distance(DISK, [0]) == 1.0

    def test_ball_radial(self):
        assert dm.boundary_distance(BALL2, [0.5, 0]) == pytest.approx(0.5, abs=1e-14)

    def test_polydisk(self):
        assert dm.boundary_distance(POLY2, [0.5, 0.25j]) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [[5e-324, 0], [1e-320 + 1e-320j, 0], [0, -5e-324j]])
    def test_polydisk_projection_of_subnormal_coordinates(self, z):
        p = POLY2.project_to_boundary(z)
        assert np.all(np.isfinite(p))
        assert np.max(np.abs(p)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [[5e-324, 0], [1e-320 + 1e-320j, 0], [0, -5e-324j]])
    def test_ellipsoid_projection_of_subnormal_coordinates(self, z):
        p = ELL12.project_to_boundary(z)
        assert np.all(np.isfinite(p))
        assert abs(ELL12.defining(p)) < 1e-12

    def test_ellipsoid_against_dense_sampling(self):
        # frozen from the densely sampled oracle: the flat |z2|^4 direction
        # puts the nearest boundary point straight above (0, 0.5)
        oracle = ellipsoid_boundary_distance_oracle(0.5)
        assert oracle == pytest.approx(0.5, abs=1e-6)
        val = dm.boundary_distance(ELL12, [0, 0.5])
        assert val == pytest.approx(oracle, abs=1e-6)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_outside_raises(self):
        with pytest.raises(PointOutsideDomain):
            dm.boundary_distance(DISK, [1.5])

    def test_lipschitz_on_sampled_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.uniform(-0.6, 0.6, 2) @ np.array([1, 1j])
            w = rng.uniform(-0.6, 0.6, 2) @ np.array([1, 1j])
            z, w = np.array([z]), np.array([w])
            if not (DISK.contains(z) and DISK.contains(w)):
                continue
            dz = dm.boundary_distance(DISK, z)
            dw = dm.boundary_distance(DISK, w)
            assert abs(dz - dw) <= np.linalg.norm(z - w) + 1e-12

    def test_bounded_by_bounding_radius(self):
        rng = np.random.default_rng(1)
        for dom in (DISK, BALL2, ELL12):
            for _ in range(50):
                w = rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)
                z = 0.7 * w / np.linalg.norm(dm.c2r(w)) * rng.uniform()
                if dom.contains(z):
                    d = dm.boundary_distance(dom, z)
                    assert 0 < d <= dom.bounding_radius + 1e-12


class TestBoundaryData:
    def test_ball_pole(self):
        bd = dm.boundary_data(BALL2, [1, 0])
        assert np.allclose(bd.inward_normal, [-1, 0])
        assert bd.strongly_convex
        assert bd.tangent_hyperplane.contains([1, 0.3j])  # {z1 = 1}

    def test_ellipsoid_flat_direction(self):
        # restricted Hessian of |z1|^2 + |z2|^4 at (1,0) is diag(2, 0, 0)
        bd = dm.boundary_data(ELL12, [1, 0])
        assert not bd.strongly_convex
        assert abs(bd.convexity_margin) < 1e-12
        assert bd.tangent_hyperplane.contains([1, 0.5])

    def test_disk_angle(self):
        xi = np.exp(1j * math.pi / 4)
        bd = dm.boundary_data(DISK, [xi])
        assert np.allclose(bd.inward_normal, [-xi])

    def test_normal_points_inward(self):
        for dom, xi in ((BALL2, [1, 0]), (ELL12, [0, 1]), (DISK, [1])):
            bd = dm.boundary_data(dom, xi)
            assert dom.contains(bd.point + 1e-3 * bd.inward_normal)

    def test_off_boundary_raises(self):
        with pytest.raises(ApexNotOnBoundary):
            dm.boundary_data(BALL2, [0.5, 0])

    @pytest.mark.parametrize("dom", [BALL2, ELL12, POLY2], ids=["ball", "ellipsoid", "polydisk"])
    def test_nonfinite_point_is_not_on_the_boundary(self, dom):
        with pytest.raises(ApexNotOnBoundary):
            dm.boundary_data(dom, [math.nan, 0])

    def test_boundary_data_shares_the_normal(self):
        xi = np.array([0.6, (1 - 0.36) ** 0.25 * 1j])
        normal, gnorm = dm.boundary_normal(ELL12, xi)
        bd = dm.boundary_data(ELL12, xi)
        assert np.array_equal(bd.inward_normal, -normal)
        assert gnorm == pytest.approx(np.linalg.norm(ELL12.grad_c(xi)), rel=1e-15)

    def test_tangent_basis_failure_is_typed(self):
        with pytest.raises(BoundaryDataUnavailable):
            dm._orthonormal_complement(np.array([math.nan, 0.0, 0.0, 0.0]))


class TestConeCertificate:
    def test_disk_inward_cone(self):
        cone = dm.Cone(apex=np.array([1.0 + 0j]), direction=np.array([-1.0 + 0j]),
                       aperture=math.pi / 4, length=0.5)
        cert = dm.cone_certificate(DISK, cone, grid=20)
        assert cert.ok and cert.margin > 0
        assert cert.delta_bound_ok

    def test_ball_wide_cone_needs_short_length(self):
        # at a sphere point a cone of aperture pi/2 - 0.01 fits only with
        # length below ~2 sin(0.01); length 0.1 pokes outside
        apex = np.array([1.0, 0.0], dtype=complex)
        v = np.array([-1.0, 0.0], dtype=complex)
        ok = dm.cone_certificate(BALL2, dm.Cone(apex, v, math.pi / 2 - 0.01, 0.01), grid=14)
        assert ok.ok
        bad = dm.cone_certificate(BALL2, dm.Cone(apex, v, math.pi / 2 - 0.01, 0.1), grid=14)
        assert not bad.ok

    def test_outward_cone_fails(self):
        cone = dm.Cone(apex=np.array([1.0 + 0j]), direction=np.array([1.0 + 0j]),
                       aperture=math.pi / 4, length=0.5)
        assert not dm.cone_certificate(DISK, cone, grid=10).ok

    def test_aperture_monotonicity(self):
        apex = np.array([1.0 + 0j])
        v = np.array([-1.0 + 0j])
        apertures = [math.pi / 3, math.pi / 4, math.pi / 6, math.pi / 12]
        results = [dm.cone_certificate(DISK, dm.Cone(apex, v, a, 0.5), grid=12).ok
                   for a in apertures]
        # once true, smaller apertures stay true
        seen_true = False
        for ok in results:
            if seen_true:
                assert ok
            seen_true = seen_true or ok
        assert results[0]

    def test_apex_must_sit_on_boundary(self):
        with pytest.raises(ApexNotOnBoundary):
            dm.cone_certificate(DISK, dm.Cone(np.array([0.5 + 0j]), np.array([-1.0 + 0j]),
                                              math.pi / 4, 0.2))


class TestLineType:
    def test_ellipsoid_flat_point(self):
        assert dm.line_type(ELL12, [1, 0]) == 4

    def test_ellipsoid_round_point(self):
        assert dm.line_type(ELL12, [0, 1]) == 2

    def test_ball(self):
        assert dm.line_type(BALL2, [1, 0]) == 2

    def test_disk_convention(self):
        assert dm.line_type(DISK, [1]) == 2

    def test_polydisk_flat_face(self):
        assert dm.line_type(POLY2, [1, 0.2]) == math.inf

    def test_numeric_estimator_matches_closed_form(self):
        # same ellipsoid but exposed only through oracles
        ell = dm.ellipsoid((1, 2))
        implicit = dm.implicit_convex(ell.defining, 2, ell.bounding_radius,
                                      grad=ell.grad_c, hess=ell.hessian_real)
        assert dm.line_type(implicit, [1, 0]) == 4
        assert dm.line_type(implicit, [0, 1]) == 2


class TestConfig:
    def test_roundtrip_kinds(self):
        assert dm.domain_from_config({"kind": "disk"}).kind == "disk"
        assert dm.domain_from_config({"kind": "ball", "dimension": 3}).dimension == 3
        e = dm.domain_from_config({"kind": "ellipsoid", "exponents": [1, 2]})
        assert e.exponents == (1, 2)

    def test_unknown_keys_rejected(self):
        from rigidlab.errors import ConfigInvalid
        with pytest.raises(ConfigInvalid):
            dm.domain_from_config({"kind": "disk", "radius": 2})

    def test_modulus_polynomial_matches_ellipsoid(self):
        imp = dm.domain_from_config(
            {"kind": "implicit", "dimension": 2, "terms": [[1.0, [1, 0]], [1.0, [0, 2]]]})
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= rng.uniform(0, 0.8) / np.linalg.norm(dm.c2r(z))
            assert imp.contains(z) == ELL12.contains(z)

    def test_modulus_polynomial_stack_equals_points(self):
        # a three-term polynomial, so products over several coordinates are covered
        imp = dm.modulus_polynomial([(1.0, (1, 0)), (1.0, (0, 2)), (0.5, (1, 1))], 2)
        rng = np.random.default_rng(4)
        zs = rng.uniform(0, 1.2, (40, 1)) * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
        stacked = imp.defining_many(zs)
        assert stacked.shape == (40,)
        assert list(stacked) == [imp.defining(z) for z in zs]


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 2 * math.pi), st.floats(0.0, 0.95), st.floats(0, 2 * math.pi),
       st.floats(0.0, 0.95), st.floats(0, 1))
def test_convexity_of_models(a1, r1, a2, r2, t):
    z = np.array([r1 * np.exp(1j * a1)])
    w = np.array([r2 * np.exp(1j * a2)])
    p = (1 - t) * z + t * w
    assert DISK.contains(p) or not (DISK.contains(z) and DISK.contains(w))
