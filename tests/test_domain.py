import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidlab import domain as dm
from rigidlab.cli import domain_from_config
from rigidlab.errors import ApexNotOnBoundary, ConfigInvalid, DegenerateGradient, PointOutsideDomain


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
    @pytest.mark.parametrize("z, want", [([1e-310j], [1j]), ([-5e-324], [-1.0]), ([3e-320 + 4e-320j], [0.6 + 0.8j])])
    def test_disk_projection_of_a_subnormal_point(self, z, want):
        assert np.max(np.abs(DISK.project_to_boundary(z) - want)) <= 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z, want", [([1e-310j, 0], [1j, 0]), ([0, -5e-324], [0, -1.0]),
                                         ([3e-170, 4e-170j], [0.6, 0.8j]), ([3e-320, 4e-320j], [0.6, 0.8j])])
    def test_ball_projection_of_a_subnormal_point(self, z, want):
        assert np.max(np.abs(BALL2.project_to_boundary(z) - np.asarray(want))) <= 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [[5e-324, 0], [1e-320 + 1e-320j, 0], [0, -5e-324j]])
    def test_ellipsoid_projection_of_subnormal_coordinates(self, z):
        # the modulus polynomial shares the ellipsoid's solver on the moduli
        for dom in (ELL12, SAMPLED_DOMAINS["modulus-polynomial"]):
            p = dom.project_to_boundary(z)
            assert np.all(np.isfinite(p))
            assert abs(dom.defining(p)) < 1e-12

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
        assert bd.tangent_hyperplane.contains([1, 0.3j])  # {z1 = 1}

    def test_ellipsoid_flat_direction(self):
        # |z1|^2 + |z2|^4 is flat along z2 at (1, 0); the tangent plane is {z1 = 1}
        bd = dm.boundary_data(ELL12, [1, 0])
        assert np.allclose(bd.inward_normal, [-1, 0])
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

    def test_overflowing_point_is_not_on_the_boundary(self):
        # r and grad r both overflow to inf there; inf <= tol * inf must not count as on the boundary
        with np.errstate(over="ignore"), pytest.raises(ApexNotOnBoundary):
            dm.boundary_normal(ELL12, [0, 1e110])

    def test_boundary_data_shares_the_normal(self):
        xi = np.array([0.6, (1 - 0.36) ** 0.25 * 1j])
        normal = dm.boundary_normal(ELL12, xi)
        bd = dm.boundary_data(ELL12, xi)
        assert np.array_equal(bd.inward_normal, -normal)
        grad = ELL12.grad_c(xi)
        assert np.allclose(normal, grad / np.linalg.norm(grad), rtol=0, atol=1e-15)


class TestConeCertificate:
    def test_disk_inward_cone(self):
        cone = dm.Cone(apex=np.array([1.0 + 0j]), direction=np.array([-1.0 + 0j]),
                       aperture=math.pi / 4, length=0.5)
        cert = dm.cone_certificate(DISK, cone)
        assert cert.ok and cert.margin > 0

    def test_ball_wide_cone_needs_short_length(self):
        # at a sphere point a cone of aperture pi/2 - 0.01 fits only with
        # length below ~2 sin(0.01); length 0.1 pokes outside
        apex = np.array([1.0, 0.0], dtype=complex)
        v = np.array([-1.0, 0.0], dtype=complex)
        ok = dm.cone_certificate(BALL2, dm.Cone(apex, v, math.pi / 2 - 0.01, 0.01))
        assert ok.ok
        bad = dm.cone_certificate(BALL2, dm.Cone(apex, v, math.pi / 2 - 0.01, 0.1))
        assert not bad.ok

    def test_outward_cone_fails(self):
        cone = dm.Cone(apex=np.array([1.0 + 0j]), direction=np.array([1.0 + 0j]),
                       aperture=math.pi / 4, length=0.5)
        assert not dm.cone_certificate(DISK, cone).ok

    def test_aperture_monotonicity(self):
        apex = np.array([1.0 + 0j])
        v = np.array([-1.0 + 0j])
        apertures = [math.pi / 3, math.pi / 4, math.pi / 6, math.pi / 12]
        results = [dm.cone_certificate(DISK, dm.Cone(apex, v, a, 0.5)).ok
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

    def test_nan_apex_is_not_on_the_boundary(self):
        with pytest.raises(ApexNotOnBoundary):
            dm.cone_certificate(BALL2, dm.Cone(np.array([math.nan, 0]), np.array([-1, 0]), math.pi / 4, 0.5))

    @pytest.mark.parametrize("direction", [[0, 0], [math.nan, 0]], ids=["zero", "nan"])
    def test_bad_direction_is_refused(self, direction):
        with pytest.raises(ConfigInvalid):
            dm.cone_certificate(BALL2, dm.Cone(np.array([1, 0]), np.array(direction), math.pi / 4, 0.5))

    def test_suite_cone_margin_is_a_quarter(self):
        # apex (1, 0), axis -apex, aperture pi/3, length 1/2: the farthest cap
        # point makes the angle 2 pi / 3 with the apex, |p|^2 = 1 + 1/4 - 1/2
        for dom in (DISK, BALL2):
            apex = np.eye(dom.dimension, dtype=complex)[0]
            cert = dm.cone_certificate(dom, dm.Cone(apex, -apex, math.pi / 3, 0.5))
            assert cert.ok
            assert cert.margin == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("dom", [POLY2, ELL12], ids=["polydisk", "ellipsoid"])
    def test_other_kinds_are_refused(self, dom):
        cone = dm.Cone(np.array([1.0, 0.0], dtype=complex), np.array([-1.0, 0.0], dtype=complex),
                       math.pi / 4, 0.1)
        with pytest.raises(ConfigInvalid):
            dm.cone_certificate(dom, cone)

    @pytest.mark.parametrize("dom", [DISK, BALL2, dm.ball(3)], ids=["disk", "ball2", "ball3"])
    def test_dense_samples_lie_inside_a_certified_cone(self, dom):
        # the reference: dense seeded samples of the open truncated cone, out to
        # 1 - 2^-8 of its length and of its aperture, lie inside whenever the
        # certificate holds; and the closed-form cap maximum, 1 - margin, bounds
        # |p|^2 on seeded samples of the closed far cap
        rng = np.random.default_rng(17)
        n = 2 * dom.dimension
        fractions = np.concatenate([np.linspace(0.0, 1.0, 17)[1:-1], 1.0 - 2.0 ** -np.arange(4, 9)])
        certified = 0
        for _ in range(60):
            apex = rng.standard_normal(n)
            apex /= np.linalg.norm(apex)
            v = -apex + 0.8 * rng.standard_normal(n)
            cone = dm.Cone(dm.r2c(apex), dm.r2c(v), rng.uniform(0.05, math.pi / 2), rng.uniform(0.01, 1.0))
            cert = dm.cone_certificate(dom, cone)
            v /= np.linalg.norm(v)
            w = rng.standard_normal((64, n))
            w -= np.outer(w @ v, v)
            w /= np.linalg.norm(w, axis=1)[:, None]

            def directions(alpha):
                return (np.cos(alpha)[:, None, None] * v + np.sin(alpha)[:, None, None] * w).reshape(-1, n)

            cap = apex + cone.length * directions(cone.aperture * np.linspace(0.0, 1.0, 33))
            assert np.max(np.sum(cap * cap, axis=1)) <= 1.0 - cert.margin + 1e-12
            if cert.ok:
                certified += 1
                pts = apex + (cone.length * fractions)[:, None, None] * directions(cone.aperture * fractions)
                pts = pts.reshape(-1, n)
                assert dom.contains_all(pts[:, 0::2] + 1j * pts[:, 1::2])
        assert certified >= 10


class TestConfig:
    def test_roundtrip_kinds(self):
        assert domain_from_config({"kind": "disk"}).kind == "disk"
        assert domain_from_config({"kind": "ball", "dimension": 3}).dimension == 3
        e = domain_from_config({"kind": "ellipsoid", "exponents": [1, 2]})
        assert e.kind == "ellipsoid" and e.powers.tolist() == [[1, 0], [0, 2]]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalid):
            domain_from_config({"kind": "disk", "radius": 2})

    def test_modulus_polynomial_matches_ellipsoid(self):
        imp = domain_from_config(
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


SAMPLED_DOMAINS = {
    "disk": DISK,
    "ball2": BALL2,
    "polydisk2": POLY2,
    "ellipsoid12": ELL12,
    "modulus-polynomial": dm.modulus_polynomial([(1.0, (1, 0)), (1.0, (0, 2)), (0.5, (1, 1))], 2),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SAMPLED_DOMAINS)), st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.floats(0.01, 1.0), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_sample_ball_points_lie_in_domain_and_ball(name, coords, radius, count, seed):
    dom = SAMPLED_DOMAINS[name]
    d = dom.dimension
    # |center| <= 0.5 and radius <= 1: more than half of every such ball lies
    # in each listed domain, so 50 blocks do not come up short in practice
    center = np.array(coords[0:2 * d:2]) + 1j * np.array(coords[1:2 * d:2])
    center *= 0.5 / max(1.0, float(np.linalg.norm(center)))
    pts = dm.sample_ball(dom, center, radius, count, np.random.default_rng(seed))
    assert pts.shape == (count, d)
    assert np.all(dom.defining_many(pts) < 0)
    assert np.all(np.linalg.norm(pts - center, axis=1) <= radius * (1 + 1e-12))
    again = dm.sample_ball(dom, center, radius, count, np.random.default_rng(seed))
    assert np.array_equal(pts, again)


def test_sample_ball_gives_up_on_a_ball_that_misses_the_domain():
    from rigidlab.errors import SamplingEmpty
    with pytest.raises(SamplingEmpty, match="0 of 5 points"):
        dm.sample_ball(DISK, [3.0], 0.5, 5, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SAMPLED_DOMAINS)), st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_ray_exit_brackets_the_boundary(name, coords, rays, seed):
    # one step per off-center base; rays from 0 have radial_exit
    dom = SAMPLED_DOMAINS[name]
    d = dom.dimension
    base = np.array(coords[0:2 * d:2]) + 1j * np.array(coords[1:2 * d:2])
    base *= 0.5 / max(1.0, float(np.linalg.norm(base)))
    w = np.random.default_rng(seed).standard_normal((rays, 2, d))
    u = w[:, 0] + 1j * w[:, 1]
    u /= np.linalg.norm(u, axis=1)[:, None]
    lo, hi = dm.ray_exit(dom, base, u[:, None, :])
    assert lo.shape == hi.shape == (rays,)
    assert np.all(dom.defining_many(base + lo[:, None] * u) < 0)
    assert np.all(dom.defining_many(base + hi[:, None] * u) >= 0)
    # 60 halvings of [0, 2R], until lo and hi are adjacent floats
    assert np.all(hi - lo <= np.maximum(2 * dom.bounding_radius * 2.0**-59, np.spacing(hi)))


def test_ray_exit_shares_steps_across_bases():
    # a row is inside only while every one of its K steps is
    base = np.array([[[0.0, 0.0]], [[0.5, 0.0]]], dtype=complex)
    steps = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=complex)
    lo, hi = dm.ray_exit(BALL2, base, steps)
    assert np.allclose(lo, [1.0, 0.5]) and np.allclose(hi, [1.0, 0.5])


def _halving_reference(dom, base, steps):
    """``ray_exit`` without its shortlist: 60 halvings, each on the whole stack."""
    n, k, d = np.broadcast_shapes(np.shape(base), np.shape(steps))
    lo, hi = np.zeros(n), np.full(n, 2.0 * dom.bounding_radius)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        values = dom.defining_many((base + mid[:, None, None] * steps).reshape(-1, d))
        inside = values.reshape(n, k).max(axis=1) < 0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return lo, hi


def _phase_grid_stack(dom, rows, shared_base, seed):
    """``LINE_PHASES``-phase step grids as ``line_boundary_distance`` stacks them
    (``(n, 1, d)`` bases, shared ``(K, d)`` steps), or one shared base with a
    grid of its own per row (``(n, K, d)`` steps).  Points of norm below 0.9
    lie in every domain of ``SAMPLED_DOMAINS``."""
    from rigidlab.kobayashi import LINE_PHASES
    rng = np.random.default_rng(seed)
    d = dom.dimension
    w = rng.standard_normal((rows + 1, 2, d))
    w = w[:, 0] + 1j * w[:, 1]
    w /= np.linalg.norm(w, axis=1)[:, None]
    phases = np.exp(2j * math.pi * np.arange(LINE_PHASES) / LINE_PHASES)
    points = 0.9 * rng.uniform(size=rows + 1)[:, None] * w[::-1]
    if shared_base:
        return points[0], phases[None, :, None] * w[:rows, None, :]
    return points[:rows, None, :], phases[:, None] * w[rows]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SAMPLED_DOMAINS)), st.integers(1, 24), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_ray_exit_shortlist_is_bit_identical(name, rows, shared_base, seed):
    # halving only the steps that were outside at hi gives the same brackets
    dom = SAMPLED_DOMAINS[name]
    base, steps = _phase_grid_stack(dom, rows, shared_base, seed)
    lo, hi = dm.ray_exit(dom, base, steps)
    ref_lo, ref_hi = _halving_reference(dom, base, steps)
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()


def test_ray_exit_evaluates_the_full_stack_at_most_nine_times(monkeypatch):
    dom = dm.ellipsoid((1, 2))
    sizes = []
    evaluate = dom.defining_many
    monkeypatch.setattr(dom, "defining_many", lambda zs: sizes.append(len(zs)) or evaluate(zs))
    base, steps = _phase_grid_stack(dom, 17, False, 3)
    dm.ray_exit(dom, base, steps)
    assert len(sizes) >= dm.RAY_BISECTIONS
    assert sizes.count(17 * 32) <= 9
    assert max(sizes[9:]) < 17 * 32


def test_ray_exit_rejects_a_bounding_radius_that_is_too_small():
    from rigidlab.errors import ConfigInvalid
    from rigidlab.kobayashi import line_boundary_distance, supporting_halfplanes
    dom = dm.modulus_polynomial([(1, (1, 0)), (1, (0, 1))], 2, bounding_radius=0.4)   # the unit ball
    with pytest.raises(ConfigInvalid, match="bounding radius"):
        dm.ray_exit(dom, np.zeros(2), np.array([[[1.0, 0.0]]], dtype=complex))
    with pytest.raises(ConfigInvalid, match="bounding radius"):
        line_boundary_distance(dom, [0.1, 0.0], [1.0, 0.0])
    # the radial route: the gauge's exit lies beyond twice the bounding radius
    with pytest.raises(ConfigInvalid, match="bounding radius"):
        dm.radial_exit(dom, np.array([[1.0, 0.0]], dtype=complex))
    with pytest.raises(ConfigInvalid, match="bounding radius"):
        supporting_halfplanes(dom, [0.1, 0.0])


def _floats_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """How many representable floats lie between positive ``a`` and ``b``,
    plus one (0 when equal): their bit patterns order like the values."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SAMPLED_DOMAINS)), st.integers(1, 32), st.booleans(), st.integers(0, 2**32 - 1))
@example(name="modulus-polynomial", rays=3, on_axis=True, seed=127875)   # a bracket across 1.0, a binade edge
def test_radial_exit_brackets_the_boundary_in_adjacent_floats(name, rays, on_axis, seed):
    dom = SAMPLED_DOMAINS[name]
    d = dom.dimension
    w = np.random.default_rng(seed).standard_normal((rays, 2, d))
    u = w[:, 0] + 1j * w[:, 1]
    if on_axis and d > 1:   # every other ray on a coordinate axis, where a weight w_k is 0
        u[::2, 1:] = 0.0
    u /= np.linalg.norm(u, axis=1)[:, None]
    lo, hi = dm.radial_exit(dom, u)
    assert lo.shape == hi.shape == (rays,)
    assert np.all(dom.defining_many(lo[:, None] * u) < 0)
    assert np.all(dom.defining_many(hi[:, None] * u) >= 0)
    assert np.array_equal(hi, np.nextafter(lo, np.inf))
    # the computed defining function is not monotone at the ulp level, so the
    # bisection can stop at a crossing next to this one
    ref_lo, ref_hi = _halving_reference(dom, np.zeros(d), u[:, None, :])
    assert np.all(_floats_apart(lo, ref_lo) <= 2)
    assert np.all(_floats_apart(hi, ref_hi) <= 2)


def test_radial_exit_that_does_not_settle_raises():
    from rigidlab.errors import NoConvergence
    with pytest.raises(NoConvergence, match="float steps"):
        dm.radial_exit(BALL2, np.array([[0.6, 0.8], [np.nan, 0.0]], dtype=complex))


def test_modulus_polynomial_without_a_pure_power_is_rejected():
    from rigidlab.errors import ConfigInvalid
    with pytest.raises(ConfigInvalid, match=r"coordinates \[1\] have no pure-power term"):
        dm.modulus_polynomial([(1.0, (1, 0))], 2)
    with pytest.raises(ConfigInvalid, match=r"coordinates \[0, 1\]"):
        dm.modulus_polynomial([(1.0, (1, 1))], 2)
    # a mixed term is fine once every coordinate has its own power
    assert dm.modulus_polynomial([(1.0, (1, 0)), (1.0, (0, 2)), (0.5, (1, 1))], 2).dimension == 2


def test_implicit_projection_lands_on_the_boundary_also_from_the_center():
    imp = SAMPLED_DOMAINS["modulus-polynomial"]
    for z in ([0.0, 0.0], [0.3, 0.2j], [1e-15, 0.0]):
        p = imp.project_to_boundary(np.array(z, dtype=complex))
        assert abs(imp.defining(p)) < 1e-12


# ---------------------------------------------------------------------------
# closed-form boundary oracles
# ---------------------------------------------------------------------------

MIXED = dm.modulus_polynomial([(1.0, (1, 0)), (1.0, (0, 2)), (0.5, (1, 1)), (0.3, (2, 1))], 2)


def central_differences(dom, z):
    """Real gradient of ``dom.defining`` by central differences (step 1e-6):
    the independent reference for the closed forms."""
    x = dm.c2r(np.asarray(z, dtype=complex))
    r = lambda y: dom.defining(dm.r2c(y))
    e = np.eye(len(x))
    return np.array([(r(x + 1e-6 * e[i]) - r(x - 1e-6 * e[i])) / 2e-6 for i in range(len(x))])


def _seeded_points(seed, count, d=2, radius=1.1):
    rng = np.random.default_rng(seed)
    zs = rng.uniform(0, radius, (count, 1)) * (rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d)))
    zs[: count // 5, 0] = 0.0          # points on the coordinate axes, where s_j = 0
    zs[count // 5 : 2 * count // 5, 1] = 0.0
    return zs


def test_modulus_polynomial_oracles_equal_the_ellipsoid():
    as_poly = dm.modulus_polynomial([(1, (1, 0)), (1, (0, 2))], 2)
    for z in _seeded_points(30, 50):
        g = _grad_ellipsoid12(z)
        for dom in (as_poly, ELL12):
            assert np.linalg.norm(dom.grad_c(z) - g) <= 1e-14 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("dom", [dm.ellipsoid((1, 2, 3)), MIXED], ids=["ellipsoid123", "mixed-polynomial"])
def test_moduli_derivative_tables_match_sympy(dom):
    # p(x) = sum_k c_k prod_j x_j^{2 a_kj}, differentiated and evaluated exactly by sympy
    import sympy as sp
    d = dom.dimension
    xs = sp.symbols(f"x0:{d}", nonnegative=True)
    p = sum(sp.Rational(c) * sp.Mul(*(x ** (2 * int(a)) for x, a in zip(xs, alpha)))
            for c, alpha in zip(dom.coef, dom.powers))
    grad = [sp.diff(p, x) for x in xs]
    hess = [[sp.diff(g, x) for x in xs] for g in grad]
    pts = np.random.default_rng(33).uniform(0, 1.1, (12, d))
    pts[:3, 0] = 0.0                   # axis points, where x_j = 0
    pts[3:6, -1] = 0.0
    for x in pts:
        at = dict(zip(xs, map(sp.Rational, x)))
        ref = lambda exprs: np.array([float(e.subs(at)) for e in exprs])
        np.testing.assert_allclose(dom.moduli_constraint(x), float((p - 1).subs(at)), rtol=1e-12, atol=0)
        np.testing.assert_allclose(dom.moduli_gradient(x), ref(grad), rtol=1e-12, atol=0)
        np.testing.assert_allclose(dom.moduli_hessian(x), np.array([ref(row) for row in hess]),
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("dom, points", [
    (MIXED, _seeded_points(31, 20, radius=0.9)),
    (POLY2, _seeded_points(32, 20, radius=0.9)),     # each point has a unique largest coordinate
    (dm.polydisk(3), [[0.2, 0.9j, -0.3], [0.5 - 0.5j, 0.1, 0.6]]),
], ids=["mixed-polynomial", "polydisk", "polydisk3"])
def test_closed_form_oracles_match_central_differences(dom, points):
    for z in np.asarray(points, dtype=complex):
        grad = central_differences(dom, z)
        assert np.all(np.abs(dm.c2r(dom.grad_c(z)) - grad) <= 1e-6 * max(1.0, np.max(np.abs(grad))))


def _grad_ellipsoid12(w):
    # r = s1 + s2^2 - 1
    return np.array([2 * w[0], 4 * abs(w[1]) ** 2 * w[1]])


def _grad_modulus_polynomial(w):
    # f = s1 + s2^2 + 0.5 s1 s2 - 1
    s1, s2 = abs(w[0]) ** 2, abs(w[1]) ** 2
    return np.array([2 * w[0] * (1 + 0.5 * s2), 2 * w[1] * (2 * s2 + 0.5 * s1)])


@pytest.mark.parametrize("dom, grad", [
    (ELL12, _grad_ellipsoid12),
    (SAMPLED_DOMAINS["modulus-polynomial"], _grad_modulus_polynomial),
], ids=["ellipsoid", "modulus-polynomial"])
def test_reinhardt_projection_solves_the_kkt_system(dom, grad):
    # the gradients are written out by hand; the points include both coordinate
    # axes (s_j = 0) and the center, where the nearest point is not unique
    zs = dm.sample_ball(dom, np.zeros(2), 0.9, 20, np.random.default_rng(13))
    zs = np.concatenate([zs, [[0.4, 0], [0, -0.3j], [0, 0]]])
    for z in zs:
        w = dom.project_to_boundary(z)
        g, step = dm.c2r(grad(w)), dm.c2r(w - z)
        tangential = step - (step @ g) / (g @ g) * g
        assert np.linalg.norm(tangential) <= 1e-13
        assert abs(dom.defining(w)) <= 1e-13


def _dense_surface(dom):
    """The real section's surface in the positive orthant, at 20001 angles
    (d = 2) or on a 401^2 grid of polar angles (d = 3): the reference for the
    nearest boundary point."""
    a = np.linspace(0.0, 0.5 * math.pi, 20001 if dom.dimension == 2 else 401)
    if dom.dimension == 2:
        u = np.stack([np.cos(a), np.sin(a)], axis=1)
    else:
        a1, a2 = np.meshgrid(a, a, indexing="ij")
        u = np.stack([np.cos(a1), np.sin(a1) * np.cos(a2), np.sin(a1) * np.sin(a2)], axis=-1).reshape(-1, 3)
    return dom.exit_radii(u)[:, None] * u


@pytest.mark.parametrize("dom, farther", [
    (ELL12, [0.2455846213650807, 0.21055397701093992]),
    (dm.ellipsoid((1, 2, 3)), [0.21869245155497988, 0.17971394381975278, 0.1610715135198474]),
    (SAMPLED_DOMAINS["modulus-polynomial"], [0.18549339215776586, 0.15426512509332632]),
    (MIXED, [0.05682829049319537, 0.0599235839271526]),
], ids=["ellipsoid12", "ellipsoid123", "modulus-polynomial", "mixed-polynomial"])
def test_reinhardt_boundary_distance_is_the_nearest_on_a_dense_sample(dom, farther):
    # `farther` is a point where an SLSQP solve from the radial point ended on a
    # farther critical point, up to 2.3% above the nearest; the seeded points
    # sit at ray depths scaled from 0.05 to 0.999 of the exit, and 1 - 2^-k for
    # k = 3 .. 13, with random phases
    d, rng = dom.dimension, np.random.default_rng(36)
    surface = _dense_surface(dom)
    scales = np.concatenate([rng.uniform(0.05, 0.999, 40), 1.0 - 2.0 ** -np.arange(3.0, 14.0)])
    u = np.abs(rng.standard_normal((len(scales), d)))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    moduli = np.concatenate([[farther], (scales * dom.exit_radii(u))[:, None] * u])
    phases = np.exp(2j * math.pi * rng.uniform(size=moduli.shape))
    for z in moduli * phases:
        w = dom.project_to_boundary(z)
        assert abs(dom.defining(w)) <= 1e-12
        nearest = np.min(np.linalg.norm(surface - np.abs(z), axis=1))
        assert dm.boundary_distance(dom, z) <= nearest * (1.0 + 1e-12)


def test_polydisk_corner_has_no_boundary_data():
    with pytest.raises(DegenerateGradient):
        dm.boundary_data(POLY2, [1, 1])
    with pytest.raises(ApexNotOnBoundary):      # a tie off the boundary is not a corner
        dm.boundary_data(POLY2, [0.5, 0.5j])
    with pytest.raises(DegenerateGradient):
        POLY2.grad_c([1j, -1])
    assert np.allclose(dm.boundary_data(POLY2, [1, 0.2]).inward_normal, [-1, 0])

