import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import cgeo
from rigidlab import domain as dm
from rigidlab import kobayashi as kb
from rigidlab.errors import CoincidentPoints, DegenerateGradient

DISK = dm.disk()
BALL2 = dm.ball(2)
ELL12 = dm.ellipsoid((1, 2))


def translation(t: float, z: complex) -> complex:
    """The hyperbolic translation group of the disk fixing +/-1: the disk
    automorphism taking 0 to tanh(t)."""
    return cgeo.disk_automorphism(math.tanh(t))(z)


class TestMobiusFlow:
    def test_origin_moves_by_tanh(self):
        for t in (-1.3, 0.0, 0.4, 2.0):
            assert translation(t, 0.0) == pytest.approx(math.tanh(t), abs=1e-15)

    def test_identity_at_zero(self):
        for z in (0.3, -0.5 + 0.2j, 0.9j):
            assert translation(0.0, z) == pytest.approx(z, abs=1e-15)

    def test_group_law_roundtrip(self):
        z = translation(1.0, translation(-1.0, 0.3))
        assert z == pytest.approx(0.3, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 0.9), st.floats(0, 2 * math.pi))
    def test_group_law(self, s, t, r, a):
        z = r * np.exp(1j * a)
        lhs = translation(s + t, z)
        rhs = translation(s, translation(t, z))
        assert abs(lhs - rhs) < 1e-10

    def test_flow_orbit_is_invariant_geodesic(self):
        # t -> tanh(t) traverses (-1, 1) with unit invariant speed
        for t in (0.3, 1.0, -0.7):
            assert kb.disk_distance(0.0, math.tanh(t)) == pytest.approx(abs(t), abs=1e-12)


class TestComplexGeodesics:
    def test_disk_through_origin(self):
        geo = cgeo.complex_geodesic(DISK, [0], [0.5])
        assert geo.tag == "PolydiskMax"   # the disk is the polydisk of dimension 1
        assert geo.defect < 1e-10
        assert np.allclose(geo(0), [0])
        assert np.allclose(geo(0.5), [0.5])

    def test_disk_geodesic_is_the_moebius_map_of_the_polydisk_construction(self):
        # the one coordinate has scale 1, so the disc is the Moebius map through z
        # in the direction of t = (w - z) / (1 - conj(z) w), bit for bit
        for z, w in ((0.1 + 0.2j, -0.5 + 0.3j), (0.0, 0.5), (-0.7j, 0.69 - 0.1j)):
            geo = cgeo.complex_geodesic(DISK, [z], [w])
            t = (w - z) / (1.0 - np.conj(z) * w)
            mob = cgeo.disk_automorphism(z, t / abs(t))
            assert geo.tag == "PolydiskMax"
            for zeta in (0.0, 0.3 - 0.4j, -0.95, abs(t)):
                assert np.array_equal(geo(zeta), [mob(zeta)])
            assert np.allclose(geo(abs(t)), [w], rtol=0, atol=1e-15)

    def test_ball_axis_slice(self):
        geo = cgeo.complex_geodesic(BALL2, [0, 0], [0.5, 0])
        assert geo.tag == "BallAffineSlice"
        assert geo.defect < 1e-10
        assert np.allclose(geo(0.3), [0.3, 0])

    def test_ball_generic_slice_isometry(self):
        geo = cgeo.complex_geodesic(BALL2, [0.2 + 0.1j, 0.3], [0.1, -0.2j])
        assert geo.defect < 1e-10
        rng = np.random.default_rng(2)
        for _ in range(40):
            a, b = 0.9 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * math.pi * rng.uniform(size=2))
            assert kb.model_dist(BALL2, geo(a), geo(b)) == pytest.approx(
                kb.disk_distance(a, b), abs=1e-10)

    def test_polydisk_distinct_max(self):
        geo = cgeo.complex_geodesic(POLY2 := dm.polydisk(2), [0.1, 0.0], [0.6, 0.2])
        assert geo.defect < 1e-10

    def test_ellipsoid_axis_slice_has_zero_gap(self):
        geo = cgeo.complex_geodesic(ELL12, [0, 0], [0, 0.5])
        assert geo.tag == "ConvexNumeric"
        assert np.linalg.norm(geo(1) - geo(0)) == pytest.approx(1.0, abs=1e-6)   # the disc radius
        assert geo.defect <= 1e-6  # slice distance equals disk distance

    def test_coincident_points_raise(self):
        with pytest.raises(CoincidentPoints):
            cgeo.complex_geodesic(DISK, [0.2], [0.2])

    def test_defect_below_tolerance_on_thousand_pairs(self):
        # 20 model geodesics x 50 sampled pairs = 10^3 isometry checks
        rng = np.random.default_rng(14)
        for k in range(20):
            dom = DISK if k % 2 == 0 else BALL2
            pts = []
            while len(pts) < 2:
                w = rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)
                p = 0.8 * rng.uniform() * w / np.linalg.norm(w)
                if dom.contains(p) and all(np.linalg.norm(p - q) > 1e-3 for q in pts):
                    pts.append(p)
            geo = cgeo.complex_geodesic(dom, *pts)
            assert geo.measure_defect(pairs=50) <= 1e-10


class TestGromovProduct:
    def test_coincident_arguments(self):
        iv = cgeo.gromov_product(DISK, [0.5], [0.5], [0])
        assert iv.contains(kb.disk_distance(0.5, 0.0), slack=1e-9)

    def test_symmetric_closed_form(self):
        # (r | -r)_0 = (1/2)(2 atanh r - 2 atanh r) = 0
        for r in (0.3, 0.6, 0.9):
            iv = cgeo.gromov_product(DISK, [r], [-r], [0])
            assert iv.contains(0.0, slack=1e-9)
            assert iv.upper <= 0.05

    def test_same_boundary_point_diverges(self):
        vals = []
        for n in (4, 16, 64, 256):
            z = np.array([1 - 1.0 / n])
            w = np.array([1 - 1.0 / n**2])
            vals.append(cgeo.gromov_product(DISK, z, w, [0]).lower)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.5

    def test_bounded_by_distances_to_basepoint(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            z, w, o = (np.array([0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())])
                       for _ in range(3))
            iv = cgeo.gromov_product(DISK, z, w, o)
            assert iv.lower >= -1e-12
            cap = min(kb.dist_bounds(DISK, z, o).upper, kb.dist_bounds(DISK, o, w).upper)
            assert iv.upper <= cap + 1e-9


class TestBoundaryProbe:
    def test_ball_axis_probe(self):
        geo = cgeo.complex_geodesic(BALL2, [0, 0], [0.5, 0])
        probe = cgeo.boundary_hyperplane_probe(geo, zeta=1.0,
                                               radii=cgeo.default_radii_schedule(14))
        # the limit hyperplane is {z1 = 1}
        assert abs(abs(probe.hyperplane.normal[0]) - 1.0) < 1e-6
        assert probe.residuals[-1] < 1e-3
        assert probe.decay_ok

    def test_disk_probe_hits_boundary_point(self):
        geo = cgeo.complex_geodesic(DISK, [0], [0.5])
        probe = cgeo.boundary_hyperplane_probe(geo, zeta=1.0,
                                               radii=cgeo.default_radii_schedule(12))
        assert abs(probe.hyperplane.anchor[0] - 1.0) < 1e-3
        assert probe.residuals[-1] < 1e-3

    def test_ellipsoid_axis_probe(self):
        geo = cgeo.complex_geodesic(ELL12, [0, 0], [0, 0.5])
        probe = cgeo.boundary_hyperplane_probe(geo, zeta=1.0,
                                               radii=cgeo.default_radii_schedule(10))
        # limiting plane {z2 = 1}
        assert abs(abs(probe.hyperplane.normal[1]) - 1.0) < 1e-5
        assert probe.residuals[-1] <= probe.residuals[0]

    @pytest.mark.parametrize("z, w", [([0, 0], [0.5, 0]), ([0.1, 0.05], [0.5, 0.1]),
                                      ([0.3j, -0.2], [-0.1, 0.4 + 0.2j])])
    def test_ball_residuals_match_the_contact_circle(self, z, w):
        # On the ball the contact set of the plane <z - a, n> = 0 is the circle
        # a - c e + rho e^{i theta} e with e a unit vector orthogonal to n,
        # c = <a, e> and rho^2 = 1 - |a - c e|^2, so the distance from p is
        # sqrt(|q|^2 + rho^2 - 2 rho |<e, q>|) with q = a - c e - p: an
        # independent form of the probe's closed form.  The anchor is on the
        # circle, so rho = |c|; near a tangent plane 1 - |a - c e|^2 keeps
        # only the last digits of rho^2.
        geo = cgeo.complex_geodesic(BALL2, z, w)
        probe = cgeo.boundary_hyperplane_probe(geo)
        a, n = probe.hyperplane.anchor, probe.hyperplane.normal
        e = np.array([-np.conj(n[1]), np.conj(n[0])])
        c = dm.herm(a, e)
        rho = abs(c)
        for r, got in zip(probe.radii, probe.residuals):
            q = a - c * e - geo(r)
            exact = math.sqrt(max(0.0, np.linalg.norm(q) ** 2 + rho**2 - 2 * rho * abs(dm.herm(e, q))))
            assert abs(got - exact) <= 1e-12

    def test_polydisk_corner_anchor_falls_back_to_the_anchor(self):
        # the gradient does not exist at the corner (1, 1), where the solve starts
        poly = dm.polydisk(2)
        anchor = np.array([1.0, 1.0], dtype=complex)
        plane = dm.Hyperplane(anchor=anchor, normal=anchor / math.sqrt(2))
        p = np.array([0.9, 0.8 + 0.1j])
        with pytest.raises(DegenerateGradient):
            poly.grad_c(anchor)
        assert cgeo._distance_to_contact_set(poly, plane, p) == np.linalg.norm(dm.c2r(anchor - p))

    def test_polydisk_face_residuals_are_the_distance_to_the_face_point(self):
        # the limit plane z_j = a_j of a face, |a_j| = 1, meets the closed
        # polydisk in {a_j} x (closed disc), and the geodesic stays inside,
        # so each residual is |p_j - a_j|; the anchor lies on that set
        poly = dm.polydisk(2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            z, w = (0.6 * math.sqrt(rng.uniform()) * u / np.linalg.norm(u)
                    for u in rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            geo = cgeo.complex_geodesic(poly, z, w)
            probe = cgeo.boundary_hyperplane_probe(geo)
            a, (j,) = probe.hyperplane.anchor, np.flatnonzero(probe.hyperplane.normal)
            assert probe.decay_ok
            for r, got in zip(probe.radii, probe.residuals):
                p = geo(r)
                assert got == abs(p[j] - a[j])
                assert got <= math.hypot(*map(abs, p - a))   # the distance to the anchor

    def test_fiber_hyperplanes_converge_to_probe_plane(self):
        # the probe's limit is the tangent hyperplane of the ball at the
        # boundary point xi = phi(1) of an off-center slice, whose normal is xi
        geo = cgeo.complex_geodesic(BALL2, [0.1, 0.05], [0.5, 0.1])
        probe = cgeo.boundary_hyperplane_probe(geo, zeta=1.0,
                                               radii=cgeo.default_radii_schedule(14))
        xi = geo(1.0)
        assert abs(np.linalg.norm(xi) - 1.0) < 1e-12
        assert probe.hyperplane.angle_to(dm.Hyperplane(anchor=xi, normal=xi)) < 1e-4
