import math

import mpmath
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

    @pytest.mark.parametrize("z", [[0.0, 0.0], [0.3 + 0.2j, -0.1 + 0.4j], [0.6 - 0.3j, 0.5j]],
                             ids=["origin", "inner", "near-boundary"])
    def test_ball_distance_of_nearby_points(self, z):
        # K(z, z + d) = k(z, d) (1 + O(|d|)); the closed form must not cancel
        # its digits away for |d| down to 1e-12
        z = np.asarray(z, dtype=complex)
        rng = np.random.default_rng(7)
        for size in 10.0 ** -np.arange(12.0, 5.5, -0.5):
            w = z + size * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            d = w - z    # the step the two floats actually differ by
            first_order = kb.ball_metric(z, d)
            assert kb.ball_distance(z, w) == pytest.approx(
                first_order, rel=1e-9 + 100 * np.linalg.norm(d))

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
            assert iv.lower <= kb.model_metric(DISK, z, v)
            assert kb.model_metric(DISK, z, v) <= iv.upper + 1e-12

    def test_model_tightening(self):
        iv = kb.dist_bounds(DISK, [0], [0.5])
        assert iv.width < 1e-12
        assert iv.contains(0.5 * math.log(3))

    def test_coincident_interval(self):
        assert kb.dist_bounds(BALL2, [0.1, 0.2], [0.1, 0.2]) == kb.DistInterval(0.0, 0.0)

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


def _inside_points(dom, rng, n, rmax):
    pts = []
    while len(pts) < n:
        p = rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)
        p *= rmax * rng.uniform(0.1, 1.0) / np.linalg.norm(p)
        if dom.contains(p):
            pts.append(p)
    return np.array(pts)


class TestStackedEvaluation:
    def test_chord_leaving_the_domain_raises(self):
        # |z1|^2 + |z2|^2 + 100 |z1|^2 |z2|^2 < 1: both ends lie inside, the midpoint does not
        nonconvex = dm.modulus_polynomial([(1, (1, 0)), (1, (0, 1)), (100, (1, 1))], 2)
        with pytest.raises(NotConvex):
            kb._segment_upper(nonconvex, np.array([0.9, 0]), np.array([0, 0.9]))

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


class TestWorkCounts:
    """Deterministic call counts: a regression to one solve or one line
    distance per point fails here without a benchmark run."""

    def test_segment_makes_one_line_distance_call_per_grid(self, monkeypatch):
        calls = []
        original = kb.line_boundary_distance

        def counting(dom, z, v):
            calls.append(len(np.atleast_2d(z)))
            return original(dom, z, v)

        monkeypatch.setattr(kb, "line_boundary_distance", counting)
        kb._segment_upper(ELL12, np.array([0.99, 0.05j]), np.array([-0.2, 0.9]))
        # 17 nodes, then the 16, 32, ... midpoints of each doubling
        assert len(calls) >= 2
        assert calls == [17] + [16 * 2**k for k in range(len(calls) - 1)]

    def test_no_chord_runs_through_the_center(self, monkeypatch):
        # the route through the center reads the center_dist brackets: only the
        # straight chord between two points off the center is integrated, and
        # each dist_uppers stack takes one center_dist call
        chords, centers = [], []
        segment, center = kb._segment_upper, kb.center_dist
        monkeypatch.setattr(kb, "_segment_upper", lambda dom, z, w: chords.append((z, w)) or segment(dom, z, w))
        monkeypatch.setattr(kb, "center_dist", lambda dom, zs: centers.append(len(zs)) or center(dom, zs))
        z, w, origin = np.array([0.6, 0.2j]), np.array([-0.3, 0.4]), np.zeros(2, dtype=complex)
        kb.dist_bounds(ELL12, z, w)
        kb.dist_bounds(ELL12, origin, w)
        kb.dist_uppers(ELL12, np.array([z, origin, origin]), np.array([w, w, z]))
        assert len(chords) == 2 and all(np.any(a) and np.any(b) for a, b in chords)
        assert centers == [2, 2, 3, 3]

    def test_halfplanes_make_one_projection(self, monkeypatch):
        dom = dm.ellipsoid((1, 2))
        calls = []
        original = dom.project_to_boundary

        def counting(z):
            calls.append(z)
            return original(z)

        monkeypatch.setattr(dom, "project_to_boundary", counting)
        planes = kb.supporting_halfplanes(dom, np.array([0.5, 0.3]), extra_points=([0.1, 0.2j],))
        assert len(calls) == 1
        assert len(planes) == 1 + 2 * 12 + 1   # the base ray, 2(d-1) x 12 tangent offsets, one extra point

    def test_halfplanes_make_a_few_defining_calls(self, monkeypatch):
        # require_inside, the base point's normal, the start of the radial walk
        # and its float steps, and one pass for the 26 ray anchors (the base
        # ray among them); bisecting the rays and one boundary_normal per
        # anchor made 87
        dom = dm.ellipsoid((1, 2))
        sizes = []
        evaluate = dom.defining_many
        monkeypatch.setattr(dom, "defining_many", lambda zs: sizes.append(len(zs)) or evaluate(zs))
        planes = kb.supporting_halfplanes(dom, np.array([0.5, 0.3]), extra_points=([0.1, 0.2j],))
        assert len(planes) == 26
        assert len(sizes) <= 8
        assert sizes[:2] == [1, 1] and sizes[-1] == 26


@pytest.mark.parametrize("dom", [BALL2, POLY2, ELL12, MODPOLY, dm.ellipsoid((1, 2, 3))],
                         ids=["ball", "polydisk", "ellipsoid12", "modulus-polynomial", "ellipsoid123"])
def test_stacked_planes_equal_boundary_normal_row_by_row(dom):
    from rigidlab.errors import RigidLabError
    d = dom.dimension
    w = np.random.default_rng(6).standard_normal((12, 2, d))
    u = w[:, 0] + 1j * w[:, 1]
    u /= np.linalg.norm(u, axis=1)[:, None]
    _, hi = dm.radial_exit(dom, u)
    tie = np.zeros(d, dtype=complex)
    tie[:2] = [1.0, 1j]                 # a polydisk corner: two coordinates of modulus 1
    nonfinite = np.full(d, np.nan + 0j)
    anchors = np.vstack([hi[:, None] * u, [tie, 0.5 * hi[0] * u[0], nonfinite]])
    normals, passed, _ = dm.boundary_normals(dom, anchors, 1e-6)
    expected = []
    for xi in anchors:
        try:
            expected.append((xi, dm.boundary_normal(dom, xi, tol=1e-6)))
        except RigidLabError:
            continue
    # dropped: the tie (a corner of the polydisk, off the boundary elsewhere), the inner point, the NaN row
    assert len(expected) == 12
    assert np.count_nonzero(passed) == len(expected)
    assert np.all(np.isnan(normals[~passed]))
    for anchor, normal, (xi, expect) in zip(anchors[passed], normals[passed], expected):
        assert np.array_equal(anchor, xi)
        assert np.max(np.abs(normal - expect)) <= 1e-15


def _plane_by_plane(F, z, v, w):
    """The half-plane bounds of the rows of ``F`` as one loop: row ``f`` maps the
    domain into ``Re(f z) < 1``, so ``1 - f z`` maps it into the right
    half-plane, whose metric and distance are written out here."""
    metric, dist = 0.0, 0.0
    for f in F:
        a, b = 1.0 - f @ z, 1.0 - f @ w
        if a.real > 0:
            metric = max(metric, abs(f @ v) / (2.0 * a.real))
        if a.real > 0 and b.real > 0:
            dist = max(dist, math.atanh(min(abs(a - b) / abs(a + np.conj(b)), 1.0 - 1e-16)))
    return metric, dist


def _disc_by_disc(F, z, v, w):
    """The polydisk bounds of ``F`` as one loop of the disc closed forms of each row's images."""
    return (max((kb.disk_metric(f @ z, f @ v) for f in F), default=0.0),
            max((kb.disk_distance(f @ z, f @ w) for f in F), default=0.0))


@pytest.mark.parametrize("dom", [POLY2, ELL12, MODPOLY, dm.ellipsoid((1, 2, 3))],
                         ids=["polydisk", "ellipsoid12", "modulus-polynomial", "ellipsoid123"])
def test_family_bounds_equal_a_plane_by_plane_loop(dom):
    # the stacked polydisk bounds are the row-by-row disc closed forms (to the
    # rounding shrink), and each is at or above the half-plane bound of the
    # same rows, since the disc lies in the half-plane; interior points keep
    # that margin above the shrink
    rng = np.random.default_rng(8)
    d = dom.dimension
    for _ in range(10):
        z, w = (0.8 * p / max(1.0, np.linalg.norm(p)) for p in rng.standard_normal((2, d)) + 0j)
        z, w = z * np.exp(1j * rng.uniform(0, 6, d)), w * np.exp(1j * rng.uniform(0, 6, d))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        F = kb.supporting_halfplanes(dom, z, extra_points=(w, -w))
        metric, dist = kb._disc_metric_lower(F, z, v), kb._disc_dist_lower(F, z, w)
        disc_metric, disc_dist = _disc_by_disc(F, z, v, w)
        plane_metric, plane_dist = _plane_by_plane(F, z, v, w)
        assert plane_metric > 0 and plane_dist > 0
        assert metric == pytest.approx(disc_metric, rel=1e-12, abs=0)
        assert dist == pytest.approx(disc_dist, rel=1e-12, abs=0)
        assert metric >= plane_metric and dist >= plane_dist
        # a row that maps z or w past the unit circle contributes 0
        far = np.vstack([F, 2.0 * np.conj(z) / np.vdot(z, z).real])
        assert kb._disc_metric_lower(far, z, v) == metric
        assert kb._disc_dist_lower(far, z, w) == dist
    empty = np.zeros((0, d), complex)
    assert kb._disc_metric_lower(empty, z, v) == 0.0 and kb._disc_dist_lower(empty, z, w) == 0.0


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


def _center_dist_mp(dom, z):
    """``K(0, z) = atanh h(z)`` for the float point ``z`` in 60-digit
    arithmetic, with the Minkowski gauge ``h`` in closed form; on
    ``ellipsoid((1, 2))``, ``h^2 = (a + sqrt(a^2 + 4b)) / 2`` with
    ``a = |z1|^2`` and ``b = |z2|^4``."""
    with mpmath.workdps(60):
        x = [mpmath.sqrt(mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2) for c in z]
        if dom is POLY2:
            h = max(x)
        elif dom is ELL12:
            a, b = x[0] ** 2, x[1] ** 4
            h = mpmath.sqrt((a + mpmath.sqrt(a * a + 4 * b)) / 2)
        else:
            h = mpmath.sqrt(mpmath.fsum(v * v for v in x))
        return mpmath.atanh(h)


_GAUGE_ROW = st.tuples(_COORDS, st.floats(1.0, 40.0), st.sampled_from([1.0, 1e-160]))


@pytest.mark.parametrize("dom", [DISK, BALL2, POLY2, ELL12], ids=["disk", "ball", "polydisk", "ellipsoid"])
@settings(max_examples=40, deadline=None)
@given(st.lists(_GAUGE_ROW, min_size=1, max_size=8))
def test_center_dist_brackets_the_mpmath_distance(dom, rows):
    # K(0, z) = atanh h(z); each row sits 2^-depth inside the boundary (or is
    # that point times 1e-160), and the rounded-out bracket holds the 60-digit
    # value with no slack.  A zero row gives exactly (0, 0).
    zs = [np.zeros(dom.dimension, dtype=complex)]
    for coords, depth, scale in rows:
        u = _point_from(coords, 1.0, BALL2)[:dom.dimension]
        if np.any(u):
            lo, _ = dm.radial_exit(dom, u[None])
            z = scale * (1 - 2.0 ** -depth) * lo[0] * u
            if dom.contains(z):
                zs.append(z)
    lower, upper = kb.center_dist(dom, np.array(zs))
    assert lower[0] == upper[0] == 0.0
    for z, lo, up in zip(zs[1:], lower[1:], upper[1:]):
        assert mpmath.mpf(lo) <= _center_dist_mp(dom, z) <= mpmath.mpf(up)


def _model_mp(dom, z, w=None, v=None):
    """The closed-form distance ``K(z, w)``, or the metric ``k(z; v)``, of the
    float points on the disk, ball or polydisk in 60-digit arithmetic."""
    with mpmath.workdps(60):
        z = [mpmath.mpc(c.real, c.imag) for c in z]
        if dom is BALL2 and v is not None:
            v = [mpmath.mpc(c.real, c.imag) for c in v]
            s = 1 - mpmath.fsum(abs(c) ** 2 for c in z)
            vz = mpmath.fsum(a * mpmath.conj(b) for a, b in zip(v, z))
            return mpmath.sqrt(s * mpmath.fsum(abs(c) ** 2 for c in v) + abs(vz) ** 2) / s
        if v is not None:
            return max(abs(mpmath.mpc(b.real, b.imag)) / (1 - abs(a) ** 2) for a, b in zip(z, v))
        w = [mpmath.mpc(c.real, c.imag) for c in w]
        if dom is BALL2:   # |phi_z(w)|^2 |1 - <z, w>|^2 = |d|^2 - |z_1 d_2 - z_2 d_1|^2, d = w - z
            d = [b - a for a, b in zip(z, w)]
            num = abs(d[0]) ** 2 + abs(d[1]) ** 2 - abs(z[0] * d[1] - z[1] * d[0]) ** 2
            return mpmath.atanh(mpmath.sqrt(num) / abs(1 - z[0] * mpmath.conj(w[0]) - z[1] * mpmath.conj(w[1])))
        return max(mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b)) for a, b in zip(z, w))


_DEEP_PAIR = st.tuples(_COORDS, st.sampled_from([0.5, 1e-3, 1e-6, 1e-9]), _COORDS,
                       st.sampled_from([0.5, 1e-3, 1e-6, 1e-9]), st.sampled_from(["apart", "1e-12 apart", "one ulp"]))


def _deep_pair(dom, pair):
    """Two points at the given depths below the boundary along their rays, or
    the first and a point ``1e-12`` or one float away from it."""
    cz, dz, cw, dw, kind = pair
    z, w = ((1 - depth) * _point_from(c, 1.0, dom)[:dom.dimension] for c, depth in ((cz, dz), (cw, dw)))
    if kind == "1e-12 apart":
        w = z + 1e-12 * w
    elif kind == "one ulp":
        w = z.copy()
        w[0] = complex(np.nextafter(z[0].real, 1.0), z[0].imag)
    return z, w


@pytest.mark.parametrize("dom", [DISK, BALL2, POLY2], ids=["disk", "ball", "polydisk"])
@settings(max_examples=40, deadline=None)
@given(_DEEP_PAIR, _COORDS)
def test_generic_lower_sides_lie_below_the_mpmath_value(dom, pair, cv):
    # the polydisk closed forms of the images, shrunk and rounded down, lie at
    # or below the 60-digit distance and metric with no slack, down to depth
    # 1e-9 and for pairs one float apart
    z, w = _deep_pair(dom, pair)
    if np.array_equal(z, w) or not np.any(z):
        return
    assert mpmath.mpf(kb.dist_bounds(dom, z, w, tighten_with_model=False).lower) <= _model_mp(dom, z, w)
    v = _point_from(cv, 1.0, dom)[:dom.dimension]
    if np.any(v):
        assert mpmath.mpf(kb.metric_bounds(dom, z, v, tighten_with_model=False).lower) <= _model_mp(dom, z, v=v)


def test_disk_lower_side_of_a_pair_one_float_apart():
    # subtracting the two images lost the digits of |a - b|: the lower side
    # was 3.1366468936933096e-14 against 3.1357465974919755e-14
    z = np.array([-0.4450247250018678 + 0.893539286239989j])
    w = np.array([-0.4450247250018678 + 0.8935392862399891j])
    lower = kb.dist_bounds(DISK, z, w, tighten_with_model=False).lower
    assert 0 < mpmath.mpf(lower) <= _model_mp(DISK, z, w)


@settings(max_examples=25, deadline=None)
@given(_COORDS, st.floats(0.0, 0.999), _COORDS, st.floats(0.0, 0.999), _COORDS)
def test_ellipsoid_disc_lower_sides_lie_below_the_ball(cz, rz, cw, rw, cv):
    # the unit ball lies inside ellipsoid((1, 2)), so the ball's distance and
    # metric bound the ellipsoid's from above, and so its lower sides
    z, w, v = _point_from(cz, rz, BALL2), _point_from(cw, rw, BALL2), _point_from(cv, 1.0, BALL2)
    F = kb.supporting_halfplanes(ELL12, z + 0.5 * (w - z), extra_points=(z, w))
    assert kb._disc_dist_lower(F, z, w) <= kb.ball_distance(z, w)
    if np.any(v):
        assert kb._disc_metric_lower(kb.supporting_halfplanes(ELL12, z), z, v) <= kb.ball_metric(z, v)


@pytest.mark.parametrize("dom", [DISK, BALL2, POLY2], ids=["disk", "ball", "polydisk"])
@settings(max_examples=25, deadline=None)
@given(_COORDS, st.floats(0.0, 0.999), _COORDS, st.floats(0.0, 0.95))
def test_center_dist_lies_inside_dist_bounds(dom, cz, rz, cw, rw):
    # the bracket of z holds the closed form and lies inside the generic
    # interval from the center: no other lower side beats it (|z| >= 0.01 keeps
    # |z| / R, the first-order value, below it); the generic interval of
    # (z, w) is at least as tight as the triangle and reverse triangle
    # inequalities through the center
    z, w = _point_from(cz, rz, dom)[:dom.dimension], _point_from(cw, rw, dom)[:dom.dimension]
    (lo_z, lo_w), (up_z, up_w) = kb.center_dist(dom, np.array([z, w]))
    origin = np.zeros(dom.dimension, dtype=complex)
    if np.linalg.norm(z) >= 0.01:
        assert lo_z <= kb.model_dist(dom, origin, z) <= up_z
        iv = kb.dist_bounds(dom, origin, z, tighten_with_model=False)
        assert iv.lower <= lo_z <= up_z <= iv.upper
    if not np.array_equal(z, w):
        iv = kb.dist_bounds(dom, z, w, tighten_with_model=False)
        assert max(lo_z - up_w, lo_w - up_z) <= iv.lower and iv.upper <= up_z + up_w


@pytest.mark.parametrize("dom", [BALL2, POLY2], ids=["ball", "polydisk"])
@settings(max_examples=25, deadline=None)
@given(_COORDS, st.floats(0.0, 0.97), _COORDS, st.floats(0.0, 0.97))
def test_segment_upper_dominates_the_distance(dom, cz, rz, cw, rw):
    # the chord rule bounds the segment's length from above on every grid; the
    # slack covers the last-digit rounding of the closed-form radii
    z, w = _point_from(cz, rz, dom), _point_from(cw, rw, dom)
    assert kb._segment_upper(dom, z, w) >= kb.model_dist(dom, z, w) * (1 - 1e-12)


_PAIR = st.tuples(_COORDS, st.floats(0.0, 0.95), _COORDS, st.floats(0.0, 0.95),
                  st.sampled_from(["apart", "1e-12 apart", "near 1e-160"]))


def _model_pair(dom, pair):
    cz, rz, cw, rw, kind = pair
    z, w = _point_from(cz, rz, dom), _point_from(cw, rw, dom)
    if kind == "1e-12 apart":
        w = z + 1e-12 * w
    elif kind == "near 1e-160":
        z, w = 1e-160 * z, 1e-160 * w
    return z[:dom.dimension], w[:dom.dimension]


@pytest.mark.parametrize("dom", [DISK, BALL2, POLY2], ids=["disk", "ball", "polydisk"])
@settings(max_examples=30, deadline=None)
@given(st.lists(_PAIR, min_size=1, max_size=6))
def test_stacked_model_dist_matches_each_row(dom, pairs):
    zs, ws = (np.array(side) for side in zip(*(_model_pair(dom, p) for p in pairs)))
    stacked = kb.model_dist(dom, zs, ws)
    assert stacked.shape == (len(pairs),)
    for got, z, w in zip(stacked, zs, ws):
        assert got == pytest.approx(kb.model_dist(dom, z, w), rel=1e-12, abs=0)


@pytest.mark.parametrize("dom", [DISK, BALL2, POLY2], ids=["disk", "ball", "polydisk"])
def test_stacked_model_dist_rejects_a_row_outside(dom):
    inside = np.full((3, dom.dimension), 0.1 + 0.2j)
    outside = inside.copy()
    outside[1, 0] = 1.5
    for zs, ws in ((inside, outside), (outside, inside)):
        with pytest.raises(PointOutsideDomain):
            kb.model_dist(dom, zs, ws)


@pytest.mark.parametrize("w", [[0, 2.2250738585e-313j], [1e-170, -3e-171j], [5e-324, 0]])
def test_segment_upper_of_a_tiny_chord(w):
    # squaring these entries underflows; the bound must stay the distance max |w_j|
    w = np.array(w, dtype=complex)
    upper = kb._segment_upper(POLY2, np.zeros(2, dtype=complex), w)
    assert upper == pytest.approx(np.max(np.abs(w)), rel=1e-12, abs=0)


def test_ball_distance_of_tiny_points():
    # |d|^2 is subnormal here; the distance is |w - z| to all printed digits
    z = np.array([1.1070498e-160 - 3.74632673e-160j, 3.6737444e-160 - 5.52147542e-160j])
    assert kb.ball_distance(z, np.zeros(2)) == pytest.approx(np.linalg.norm(z * 1e160) * 1e-160, rel=1e-14, abs=0)


def test_line_boundary_distance_of_a_tiny_direction():
    # the slice radius ignores |v|; |v|^2 underflows to 0 unless v is scaled first
    got = kb.line_boundary_distance(POLY2, [0.1, 0], [1e-170, 0])
    assert got == pytest.approx(kb.line_boundary_distance(POLY2, [0.1, 0], [1, 0]), rel=1e-15, abs=0)


def test_metric_bounds_of_a_tiny_direction():
    # k(z; v) is linear in |v|, so the interval is 1e-160 times the one for [1, 3j]
    got = kb.metric_bounds(BALL2, [0.1, 0], [1e-160, 3e-160j])
    unit = kb.metric_bounds(BALL2, [0.1, 0], [1, 3j])
    assert got.lower == pytest.approx(1e-160 * unit.lower, rel=1e-15, abs=0)
    assert got.upper == pytest.approx(1e-160 * unit.upper, rel=1e-15, abs=0)


def test_subnormal_sides_hold_the_mpmath_value():
    # math.ldexp rounds a subnormal result to nearest, past the relative margins
    # of the scaled sides: the lower side here was 2.2972973e-316 against a true
    # 2.29729729314e-316
    got = kb.metric_bounds(DISK, [0.5 + 0.1j], [1.7e-316j], tighten_with_model=False)
    assert mpmath.mpf(got.lower) <= _model_mp(DISK, [0.5 + 0.1j], v=[1.7e-316j]) <= mpmath.mpf(got.upper)
    rng = np.random.default_rng(4)
    for dom in (DISK, POLY2):
        origin = np.zeros(dom.dimension, dtype=complex)
        for _ in range(30):
            z, v = rng.uniform(-0.5, 0.5, (2, dom.dimension, 2)) @ [1, 1j]
            v *= 10.0 ** rng.uniform(-323, -308)
            got = kb.metric_bounds(dom, z, v, tighten_with_model=False)
            assert mpmath.mpf(got.lower) <= _model_mp(dom, z, v=v) <= mpmath.mpf(got.upper)
            assert _model_mp(dom, origin, v) <= mpmath.mpf(kb._segment_upper(dom, origin, v))


def test_subnormal_chord_lower_side_holds_the_mpmath_value():
    # hypot rounds a subnormal |w - z| to nearest and the relative shrink rounds
    # back to it, so the chord term |w - z| / R lay above the distance on about
    # a quarter of these pairs until it was shrunk on the scaled chord
    rng = np.random.default_rng(6)
    for _ in range(40):
        z = rng.uniform(-1.0, 1.0, (1, 2)) @ [1, 1j] * 1e-300
        w = z + rng.uniform(-1.0, 1.0, (1, 2)) @ [1, 1j] * 10.0 ** rng.uniform(-323, -308)
        if not np.array_equal(z, w):
            lower = kb.dist_bounds(DISK, z, w, tighten_with_model=False).lower
            assert mpmath.mpf(lower) <= _model_mp(DISK, z, w), (z, w)


def _midpoint_segment(dom, z, w, nodes=4096):
    """Midpoint rule for the integral of ``|w - z| / delta`` along the segment.
    ``1 / delta`` is convex along the chord, so this lies below the integral."""
    chord = w - z
    s = (np.arange(nodes) + 0.5) / nodes
    radii = kb.line_boundary_distance(dom, z[None, :] + s[:, None] * chord[None, :], chord)
    return float(np.linalg.norm(chord) * np.mean(1.0 / radii))


@pytest.mark.parametrize("dom", [ELL12, MODPOLY], ids=["ellipsoid", "modulus-polynomial"])
@settings(max_examples=6, deadline=None)
@given(_COORDS, st.floats(0.05, 0.99), _COORDS, st.floats(0.05, 0.99))
def test_segment_upper_dominates_the_midpoint_rule(dom, cz, rz, cw, rw):
    # |z| < 1 lies in |z1|^2 + |z2|^4 < 1
    z, w = _point_from(cz, rz, BALL2), _point_from(cw, rw, BALL2)
    if np.linalg.norm(w - z) < 1e-6:
        return
    upper, reference = kb._segment_upper(dom, z, w), _midpoint_segment(dom, z, w)
    assert reference <= upper <= reference * (1 + 1e-3)


def _ellipsoid_boundary_point(u):
    """The point ``s u`` with ``|s u1|^2 + |s u2|^4 = 1``, in closed form."""
    a, b = abs(u[0]) ** 2, abs(u[1]) ** 4
    s2 = 1.0 / a if b == 0 else (math.sqrt(a * a + 4 * b) - a) / (2 * b)
    return math.sqrt(s2) * u


_INTERIOR = np.array([  # depth >= 1 - t: the unit ball lies inside, so t xi + (1 - t) B does
    t * _ellipsoid_boundary_point(np.exp(1j * th) * np.array([math.cos(ph), math.sin(ph)]))
    for t in (0.0, 0.5, 0.9, 0.99, 0.999) for th in np.linspace(0, 2, 3)
    for ph in np.linspace(0, 2 * math.pi, 24, endpoint=False)])


@settings(max_examples=15, deadline=None)
@given(_COORDS, st.floats(0.0, 0.999), st.lists(_COORDS, max_size=2), st.floats(0.0, 0.999))
def test_halfplanes_support_the_ellipsoid(cz, rz, extra, rx):
    z = _point_from(cz, rz, BALL2)
    extra = [_point_from(c, rx, BALL2) for c in extra]
    F = kb.supporting_halfplanes(ELL12, z, extra_points=extra)
    assert len(F)
    assert np.abs(_INTERIOR @ F.T).max() < 1.0   # every row maps into the open unit disc


@pytest.mark.parametrize("z", [0.0, 0.3 + 0.2j, 0.9 - 0.3j], ids=["origin", "inner", "near-boundary"])
def test_disk_distance_of_nearby_points(z):
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = z + 1e-12 * np.exp(2j * math.pi * rng.uniform())
        assert kb.disk_distance(z, w) == pytest.approx(kb.disk_metric(z, w - z), rel=1e-9)


_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
_GOOD = np.array([0.3, 0.2j])


def _nonfinite_calls(dom, bad, value):
    yield lambda: kb.dist_bounds(dom, bad, _GOOD, tighten_with_model=False)
    yield lambda: kb.dist_bounds(dom, _GOOD, bad)
    yield lambda: kb.metric_bounds(dom, bad, _GOOD)
    yield lambda: kb.metric_bounds(dom, _GOOD, bad, tighten_with_model=False)
    yield lambda: kb.kob_ball_inclusion(dom, bad, 0.01)
    yield lambda: kb.kob_ball_inclusion(dom, _GOOD, abs(value))
    yield lambda: kb.calibrate_alpha0(dom, bad, ell=4)
    yield lambda: kb.line_boundary_distance(dom, bad, _GOOD)
    yield lambda: kb.line_boundary_distance(dom, _GOOD, bad)
    yield lambda: kb.supporting_halfplanes(dom, _GOOD, extra_points=(bad,))


@pytest.mark.parametrize("dom", [ELL12, BALL2], ids=["ellipsoid", "ball"])
@settings(max_examples=80, deadline=None)
@given(_NONFINITE, st.integers(0, 1), st.integers(0, 9))
def test_nonfinite_inputs_raise_config_invalid(dom, value, slot, case):
    bad = _GOOD.copy()
    bad[slot] = value
    call = list(_nonfinite_calls(dom, bad, value))[case]
    with pytest.raises(ConfigInvalid):
        call()


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

    def test_calibration_builds_no_disc_radius(self, monkeypatch):
        # only the lower bounds are read, so no slice radius is bisected
        calls = []
        radius = kb.line_boundary_distance
        monkeypatch.setattr(kb, "line_boundary_distance", lambda *a: calls.append(a) or radius(*a))
        cal = kb.calibrate_alpha0(ELL12, [1, 0], ell=4)
        assert calls == []
        assert cal.alpha0 > 0
        assert kb.metric_bounds(ELL12, [0.9, 0], [1, 0], tighten_with_model=False).upper > 0
        assert len(calls) == 1

    def test_ellipsoid_finite_type_rate(self):
        cal = kb.calibrate_alpha0(ELL12, [1, 0], ell=4, radii=np.geomspace(1e-3, 0.1, 6))
        assert cal.alpha0 > 0.2
        rs = 0.5 ** np.arange(3, 12, dtype=float)
        eps = [kb.kob_ball_inclusion(ELL12, np.array([1 - r, 0]), r / 4, cal) for r in rs]
        slope = np.polyfit(np.log(rs), np.log(eps), 1)[0]
        assert slope == pytest.approx(0.75, abs=0.1)
        a = min(e / r**0.75 for e, r in zip(eps, rs))
        assert a > 0
