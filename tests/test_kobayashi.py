import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import domain as dm
from rigidlab import kobayashi as kb
from rigidlab.errors import ConfigInvalid, NotConvex, PointOutsideDomain, RadiusTooLarge, ZeroVector

DISK = dm.disk()
BALL2 = dm.ball(2)
POLY2 = dm.polydisk(2)
ELL12 = dm.ellipsoid((1, 2))
MODPOLY = dm.modulus_polynomial([(1.0, (1, 0)), (1.0, (0, 2))], 2)


def sample_disk_points(rng, n, rmax=0.97):
    pts = rmax * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * math.pi * rng.uniform(0, 1, n))
    return [np.array([p]) for p in pts]


class TestModelFormulas:
    def test_disk_radial_value(self):
        # K(0, 0.5) = 0.5 log((1 + 0.5) / (1 - 0.5)) = 0.5 log 3
        assert kb.model_dist(DISK, [0], [0.5]) == pytest.approx(0.5 * math.log(3), abs=1e-14)

    def test_coincident(self):
        assert kb.model_dist(DISK, [0.3 + 0.2j], [0.3 + 0.2j]) == 0.0

    def test_ball_slice_matches_disk(self):
        assert kb.model_dist(BALL2, [0, 0], [0.5, 0]) == pytest.approx(
            kb.model_dist(DISK, [0], [0.5]), abs=1e-14)

    def test_metric_center(self):
        assert kb.model_metric(DISK, [0], [1]) == 1.0
        v = np.array([0.3, -0.4j])
        assert kb.model_metric(BALL2, [0, 0], v) == pytest.approx(np.linalg.norm(v), abs=1e-14)

    def test_metric_sandwich(self):
        # |v|/(2(1-|z|)) <= k(z, v) <= |v|/(1-|z|)
        val = kb.model_metric(DISK, [0.5], [1])
        assert val == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert 1.0 / (2 * 0.5) <= val <= 1.0 / 0.5

    def test_polydisk_max(self):
        d1 = kb.model_dist(DISK, [0.1], [0.6])
        d2 = kb.model_dist(DISK, [0.0], [0.2])
        assert kb.model_dist(POLY2, [0.1, 0.0], [0.6, 0.2]) == pytest.approx(max(d1, d2))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            z, w, y = sample_disk_points(rng, 3)
            dzw = kb.model_dist(DISK, z, w)
            assert dzw == pytest.approx(kb.model_dist(DISK, w, z), abs=1e-12)
            assert dzw <= kb.model_dist(DISK, z, y) + kb.model_dist(DISK, y, w) + 1e-12


class TestIntervals:
    def test_disk_interval_contains_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z, w = sample_disk_points(rng, 2)
            iv = kb.dist_bounds(DISK, z, w, tighten_with_model=False)
            assert iv.contains(kb.model_dist(DISK, z, w), slack=1e-9)

    def test_ball_interval_contains_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            w1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = 0.9 * rng.uniform() * w1 / np.linalg.norm(w1)
            w = 0.9 * rng.uniform() * w2 / np.linalg.norm(w2)
            iv = kb.dist_bounds(BALL2, z, w, tighten_with_model=False)
            assert iv.contains(kb.model_dist(BALL2, z, w), slack=1e-9)

    def test_metric_interval_contains_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            (z,) = sample_disk_points(rng, 1)
            v = np.array([np.exp(2j * math.pi * rng.uniform())])
            iv = kb.metric_bounds(DISK, z, v, tighten_with_model=False)
            assert iv.lower <= kb.model_metric(DISK, z, v) + 1e-12
            assert kb.model_metric(DISK, z, v) <= iv.upper + 1e-12

    def test_model_tightening(self):
        iv = kb.dist_bounds(DISK, [0], [0.5])
        assert iv.width < 1e-12
        assert iv.contains(0.5 * math.log(3))

    def test_coincident_interval(self):
        assert kb.dist_bounds(BALL2, [0.1, 0.2], [0.1, 0.2]) == kb.DistInterval(0.0, 0.0)

    def test_interval_triangle_with_shared_paths(self):
        # upper(z, w) routed through y is dominated by the two legs
        rng = np.random.default_rng(10)
        for _ in range(25):
            z, w, y = sample_disk_points(rng, 3, rmax=0.9)
            direct = kb.dist_bounds(DISK, z, w, tighten_with_model=False, via=(y,))
            leg1 = kb.dist_bounds(DISK, z, y, tighten_with_model=False)
            leg2 = kb.dist_bounds(DISK, y, w, tighten_with_model=False)
            assert direct.upper <= leg1.upper + leg2.upper + 1e-9

    def test_distance_decreasing_under_inclusion(self):
        # disk included in the ball slice: exact ball values dominate from below
        rng = np.random.default_rng(11)
        for _ in range(50):
            z, w = sample_disk_points(rng, 2)
            z2 = np.array([z[0], 0.0])
            w2 = np.array([w[0], 0.0])
            assert kb.model_dist(BALL2, z2, w2) <= kb.model_dist(DISK, z, w) + 1e-12

    def test_properness_lower_bound_diverges(self):
        vals = []
        for r in (0.9, 0.99, 0.999, 0.9999):
            iv = kb.dist_bounds(DISK, [0], [r], tighten_with_model=False)
            vals.append(iv.lower)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 3.0

    def test_line_delta_closed_forms(self):
        # ball slice through z in direction v: radius of the round slice disc
        z = np.array([0.3, 0.4j])
        v = np.array([1.0, 0.0])
        d_line = kb.line_boundary_distance(BALL2, z, v)
        a = z - np.array([0.3, 0.0])
        expect = math.sqrt(1 - abs(z[1]) ** 2) - 0.3
        assert d_line == pytest.approx(expect, abs=1e-12)
        assert kb.line_boundary_distance(POLY2, [0.5, 0.2], [1.0, 0.0]) == pytest.approx(0.5)


def _recursive_simpson(f, a, b, tol):
    """The depth-first adaptive Simpson rule, one point per call: the reference
    for the level-at-a-time version."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)

    def rec(a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15
        return rec(a, m, fa, flm, fm, left, depth - 1) + rec(m, b, fm, frm, fb, right, depth - 1)

    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, 28)


def _recursive_segment_upper(dom, z, w):
    chord = w - z
    chord_len = float(np.linalg.norm(chord))

    def integrand(s):
        p = z + s * chord
        if not dom.contains(p):
            raise NotConvex("straight chord exits the domain")
        return chord_len / kb.line_boundary_distance(dom, p, chord)

    return _recursive_simpson(integrand, 0.0, 1.0, kb.SIMPSON_TOL)


def _inside_points(dom, rng, n, rmax):
    pts = []
    while len(pts) < n:
        p = rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)
        p *= rmax * rng.uniform(0.1, 1.0) / np.linalg.norm(p)
        if dom.contains(p):
            pts.append(p)
    return np.array(pts)


class TestStackedEvaluation:
    def test_segment_matches_recursion_on_ellipsoid(self):
        rng = np.random.default_rng(21)
        chords = [_inside_points(ELL12, rng, 2, 0.97) for _ in range(3)]
        chords.append((np.array([0.99, 0.05j]), np.array([-0.2, 0.9])))  # deep near the boundary
        for z, w in chords:
            assert kb._segment_upper(ELL12, z, w) == _recursive_segment_upper(ELL12, z, w)

    def test_segment_matches_recursion_on_modulus_polynomial(self):
        z, w = np.array([0.1, 0.05j]), np.array([0.12 + 0.04j, 0.1j])
        assert kb._segment_upper(MODPOLY, z, w) == _recursive_segment_upper(MODPOLY, z, w)

    def test_chord_leaving_the_domain_raises(self):
        # both ends lie inside the domain, the midpoint does not
        nonconvex = dm.implicit_convex(lambda z: min(abs(z[0] - 0.5), abs(z[0] + 0.5)) - 0.3, 1, 1.0)
        with pytest.raises(NotConvex):
            kb._segment_upper(nonconvex, np.array([0.5]), np.array([-0.5]))

    @pytest.mark.parametrize("dom", [ELL12, MODPOLY], ids=["ellipsoid", "modulus-polynomial"])
    def test_stacked_line_distance_generic_is_bit_identical(self, dom):
        rng = np.random.default_rng(22)
        zs = _inside_points(dom, rng, 12, 0.9)
        v = np.array([0.6 - 0.2j, 0.3j])
        stacked = kb.line_boundary_distance(dom, zs, v)
        assert stacked.shape == (12,)
        assert list(stacked) == [kb.line_boundary_distance(dom, z, v) for z in zs]

    @pytest.mark.parametrize("dom", [DISK, BALL2, POLY2], ids=["disk", "ball", "polydisk"])
    def test_stacked_line_distance_closed_forms(self, dom):
        rng = np.random.default_rng(23)
        zs = _inside_points(dom, rng, 40, 0.97)
        for v in (np.ones(dom.dimension), rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)):
            stacked = kb.line_boundary_distance(dom, zs, v)
            single = np.array([kb.line_boundary_distance(dom, z, v) for z in zs])
            assert isinstance(kb.line_boundary_distance(dom, zs[0], v), float)
            assert np.allclose(stacked, single, rtol=1e-14, atol=0)

    def test_stack_with_an_outside_point_raises(self):
        with pytest.raises(PointOutsideDomain):
            kb.line_boundary_distance(ELL12, np.array([[0.1, 0.2], [1.1, 0.0]]), [1, 0])

    def test_segment_makes_one_line_distance_call_per_depth(self, monkeypatch):
        calls = []
        original = kb.line_boundary_distance

        def counting(dom, z, v):
            calls.append(len(np.atleast_2d(z)))
            return original(dom, z, v)

        monkeypatch.setattr(kb, "line_boundary_distance", counting)
        kb._segment_upper(ELL12, np.array([0.99, 0.05j]), np.array([-0.2, 0.9]))
        assert 1 < len(calls) <= 30
        assert sum(calls) > len(calls)  # the levels are stacked


class TestBadDirections:
    def test_zero_direction_line_distance(self):
        with pytest.raises(ZeroVector):
            kb.line_boundary_distance(ELL12, [0.3, 0.2], [0, 0])

    @pytest.mark.parametrize("dom", [ELL12, BALL2], ids=["ellipsoid", "ball"])
    def test_nonfinite_direction_line_distance(self, dom):
        with pytest.raises(ConfigInvalid):
            kb.line_boundary_distance(dom, [0.3, 0.2], [math.nan, 0])

    @pytest.mark.parametrize("dom", [ELL12, BALL2], ids=["ellipsoid", "ball"])
    def test_nonfinite_direction_metric_bounds(self, dom):
        with pytest.raises(ConfigInvalid):
            kb.metric_bounds(dom, [0.3, 0.2], [math.nan, 0], tighten_with_model=False)
        with pytest.raises(ConfigInvalid):
            kb.metric_bounds(dom, [0.3, 0.2], [math.inf, 0])


def _point_from(coords, radius, dom):
    p = np.array(coords[0::2]) + 1j * np.array(coords[1::2])
    n = np.linalg.norm(p, np.inf if dom is POLY2 else 2)
    return radius * p / n if n > 1e-3 else np.zeros(2, dtype=complex)


_COORDS = st.lists(st.floats(-1, 1), min_size=4, max_size=4)


@pytest.mark.parametrize("dom", [BALL2, POLY2], ids=["ball", "polydisk"])
@settings(max_examples=15, deadline=None)
@given(_COORDS, st.floats(0.0, 0.95), _COORDS, st.floats(0.0, 0.95), _COORDS)
def test_generic_bounds_bracket_closed_forms(dom, cz, rz, cw, rw, cv):
    z, w = _point_from(cz, rz, dom), _point_from(cw, rw, dom)
    iv = kb.dist_bounds(dom, z, w, tighten_with_model=False)
    assert iv.lower <= iv.upper
    assert iv.contains(kb.model_dist(dom, z, w), slack=1e-9)
    v = _point_from(cv, 1.0, dom)
    im = kb.metric_bounds(dom, z, v, tighten_with_model=False)
    assert im.lower <= im.upper
    assert im.contains(kb.model_metric(dom, z, v), slack=1e-9)


class TestEq51:
    def test_upper_bound_tracks_half_log(self):
        # K(z0, p_n) <= C0 + 0.5 log(1/r_n) along p_n = (1 - r_n) e_1
        for dom in (DISK, BALL2):
            e1 = np.zeros(dom.dimension, dtype=complex)
            e1[0] = 1.0
            rs = 0.5 ** np.arange(3, 15, dtype=float)
            uppers = [kb.dist_bounds(dom, 0 * e1, (1 - r) * e1).upper for r in rs]
            residuals = [u - 0.5 * math.log(1.0 / r) for u, r in zip(uppers, rs)]
            c0 = max(residuals)
            assert c0 < 0.5 * math.log(2) + 1e-9
            for u, r in zip(uppers, rs):
                assert u <= c0 + 0.5 * math.log(1.0 / r) + 1e-12


class TestKobBallInclusion:
    def test_disk_generic_floor(self):
        r = 1e-3
        eps = kb.kob_ball_inclusion(DISK, [1 - r], r / 4)
        assert eps == pytest.approx(r / 4)  # R = 1

    def test_disk_uniform_calibration(self):
        # k >= |v| / (2 delta) gives the uniform floor 1/10 at rho = r/4
        for r in (1e-1, 1e-2, 1e-3, 1e-4):
            eps = kb.kob_ball_inclusion(DISK, [1 - r], r / 4, kb.DISK_CALIBRATION)
            assert eps == pytest.approx(0.1, rel=1e-12)

    def test_certified_inclusion_on_samples(self):
        # points with K(p, w) < eps stay inside the Euclidean ball
        r = 0.05
        p = np.array([1 - r + 0j])
        eps = kb.kob_ball_inclusion(DISK, p, r / 4, kb.DISK_CALIBRATION)
        rng = np.random.default_rng(13)
        for _ in range(300):
            w = p[0] + (r / 2) * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            if abs(w) >= 1:
                continue
            if kb.disk_distance(p[0], w) < eps:
                assert abs(w - p[0]) <= r / 4 + 1e-12

    def test_monotone_in_rho(self):
        eps = [kb.kob_ball_inclusion(DISK, [0.5], rho) for rho in (0.4, 0.2, 0.1, 0.05)]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLarge):
            kb.kob_ball_inclusion(DISK, [0.5], 0.6)

    def test_ellipsoid_finite_type_rate(self):
        cal = kb.calibrate_alpha0(ELL12, [1, 0], ell=4, radii=np.geomspace(1e-3, 0.1, 6))
        assert cal.alpha0 > 0.2
        rs = 0.5 ** np.arange(3, 12, dtype=float)
        eps = [kb.kob_ball_inclusion(ELL12, np.array([1 - r, 0]), r / 4, cal) for r in rs]
        slope = np.polyfit(np.log(rs), np.log(eps), 1)[0]
        assert slope == pytest.approx(0.75, abs=0.1)
        a = min(e / r**0.75 for e, r in zip(eps, rs))
        assert a > 0
