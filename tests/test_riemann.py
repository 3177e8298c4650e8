import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidlab import riemann as rm
from rigidlab.cgeo import ball_involution
from rigidlab.errors import (ConfigInvalid, EpsilonTooLarge, LeftChart, NotUnit,
                             ShootingDiverged, SingularMetric, StepTooLarge)
from rigidlab.intervals import DistInterval

EU = rm.euclidean(2)
PO = rm.poincare_disk()
SP = rm.sphere_stereographic()
BE = rm.bergman_ball(2)
ALL_MODELS = (EU, PO, SP, BE)


def unit_at(m, x, v):
    return rm.TangentPoint.of(x, m.unit(np.asarray(x, float), np.asarray(v, float)))


def shooting_distance(m, x, y):
    """The length of the shooting ``exp_log`` vector from ``x`` to ``y``: the
    reference the closed-form distances are checked against."""
    tp = rm.exp_log(m, x, y)
    return m.norm(tp.x, tp.vec)


class TestMetricFields:
    def test_symmetry_and_positivity(self):
        pts = {2: [[0.0, 0.0], [0.3, -0.2]], 4: [[0.1, 0.2, -0.1, 0.3]]}
        for m in ALL_MODELS:
            for x in pts[m.dim]:
                g = m.metric_at(x)
                assert np.allclose(g, g.T, atol=1e-12)

    def test_derivative_oracles_match_fd(self):
        for m, x in ((PO, [0.3, -0.2]), (SP, [0.4, 0.1]), (BE, [0.2, 0.1, -0.1, 0.3])):
            x = np.asarray(x, float)
            h = 1e-6
            for k in range(m.dim):
                e = np.zeros(m.dim)
                e[k] = h
                fd = (m.g(x + e) - m.g(x - e)) / (2 * h)
                assert np.max(np.abs(fd - m.dg(x)[k])) < 1e-5

    def test_chart_guard(self):
        with pytest.raises(LeftChart):
            PO.require_chart(np.array([1.5, 0.0]))


class TestCurvature:
    def test_euclid_zero(self):
        cd = rm.christoffel_curvature(EU, [1.0, 2.0])
        assert np.allclose(cd.gamma, 0) and np.allclose(cd.riem, 0)
        assert cd.sectional([1, 0], [0, 1]) == 0.0

    def test_poincare_constant_minus_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 2)
            assert rm.christoffel_curvature(PO, x).sectional([1, 0], [0, 1]) == pytest.approx(-1.0, abs=1e-6)

    def test_sphere_constant_plus_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, 2)
            assert rm.christoffel_curvature(SP, x).sectional([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-6)

    def test_plane_independence_on_models(self):
        # constant-curvature metrics: same value for random 2-planes
        rng = np.random.default_rng(2)
        for m, expect in ((PO, -1.0), (SP, 1.0)):
            X, Y = rng.standard_normal((2, 2))
            assert rm.christoffel_curvature(m, [0.2, 0.1]).sectional(X, Y) == pytest.approx(expect, abs=1e-6)

    def test_bergman_pinched(self):
        cd = rm.christoffel_curvature(BE, [0.2, 0.1, -0.1, 0.3])
        secs = [cd.sectional(np.eye(4)[i], np.eye(4)[j])
                for i in range(4) for j in range(i + 1, 4)]
        assert all(-2.0 / 3 - 1e-9 <= s <= -1.0 / 6 + 1e-9 for s in secs)


class TestGeodesics:
    def test_euclid_straight_line(self):
        path = rm.geodesic_flow(EU, rm.TangentPoint.of([0, 0], [1, 0]), 1.0)
        assert np.allclose(path.xs[-1], [1, 0], atol=1e-12)

    def test_poincare_tanh_endpoint(self):
        path = rm.geodesic_flow(PO, rm.TangentPoint.of([0, 0], [0.5, 0]), 1.0, step=1e-3)
        assert abs(path.xs[-1][0] - math.tanh(0.5)) < 1e-5
        assert abs(path.xs[-1][1]) < 1e-12

    def test_sphere_antipodal(self):
        path = rm.geodesic_flow(SP, rm.TangentPoint.of([1, 0], [0, 1]), math.pi, step=1e-3)
        assert np.linalg.norm(path.xs[-1] - [-1, 0]) < 1e-5

    def test_speed_conservation(self):
        for m in ALL_MODELS:
            x0 = np.zeros(m.dim)
            x0[0] = 0.1
            v0 = m.unit(x0, np.arange(1.0, m.dim + 1.0))
            path = rm.geodesic_flow(m, rm.TangentPoint.of(x0, v0), 2.0, step=1e-3)
            assert path.speed_drift < 1e-8

    def test_step_too_large_detected(self):
        # coarse steps on the curved sphere drift visibly (its chart is
        # unbounded, so the failure mode is drift rather than chart exit)
        with pytest.raises(StepTooLarge):
            rm.geodesic_flow(SP, rm.TangentPoint.of([1.0, 0], [0, 3.0]), 6.0, step=0.3)


class TestExpLog:
    def test_euclid_difference(self):
        tp = rm.exp_log(EU, [0.2, -0.1], [1.0, 0.7])
        assert np.allclose(tp.vec, [0.8, 0.8], atol=1e-9)

    def test_poincare_log3(self):
        # d(0, 0.5) = 2 atanh(0.5) = log 3
        tp = rm.exp_log(PO, [0, 0], [0.5, 0])
        assert PO.norm(tp.x, tp.vec) == pytest.approx(math.log(3), abs=1e-8)

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(3)
        for m in ALL_MODELS:
            for _ in range(3):
                u, w = rng.standard_normal((2, m.dim))
                x = 0.45 * rng.uniform() * u / np.linalg.norm(u)
                y = 0.45 * rng.uniform() * w / np.linalg.norm(w)
                d_shoot = shooting_distance(m, x, y)
                d_closed = m.closed_dist(x, y)
                assert d_shoot == pytest.approx(d_closed, abs=1e-7)

    def test_antipodal_diverges(self):
        # beyond the injectivity radius the endpoint Jacobian degenerates
        x = np.array([0.3, 0.0])
        with pytest.raises(ShootingDiverged):
            rm.exp_log(SP, x, -x / (x @ x))


class TestParallelTransport:
    def test_euclid_constant(self):
        path = rm.geodesic_flow(EU, rm.TangentPoint.of([0, 0], [1, 0]), 1.0, step=1e-2)
        W = rm.parallel_transport(EU, path, [0.3, 0.7])
        assert np.allclose(W[-1], [0.3, 0.7], atol=1e-12)

    def test_norm_preserved_hyperbolic(self):
        path = rm.geodesic_flow(PO, rm.TangentPoint.of([0.1, 0.2], [0.3, -0.1]), 1.0, step=1e-3)
        W = rm.parallel_transport(PO, path, [0.2, 0.5])
        n0 = PO.norm(path.xs[0], W[0])
        n1 = PO.norm(path.xs[-1], W[-1])
        assert abs(n1 - n0) < 1e-8

    def test_sphere_holonomy_quarter_turn(self):
        # transport around the geodesic triangle pole -> equator -> quarter
        # along the equator -> pole: holonomy angle = spherical excess = pi/2
        legs = [
            rm.geodesic_flow(SP, rm.TangentPoint.of([0, 0], [0.5, 0]), math.pi / 2, step=1e-3),
        ]
        p1 = legs[0].xs[-1]  # ~ (1, 0)
        v1 = SP.unit(p1, [0, 1])
        legs.append(rm.geodesic_flow(SP, rm.TangentPoint.of(p1, v1), math.pi / 2, step=1e-3))
        p2 = legs[1].xs[-1]  # ~ (0, 1)
        v2 = SP.unit(p2, -p2)
        legs.append(rm.geodesic_flow(SP, rm.TangentPoint.of(p2, v2), math.pi / 2, step=1e-3))
        w = np.array([0.0, 1.0])
        for leg in legs:
            w = rm.parallel_transport(SP, leg, w)[-1]
        end = legs[-1].xs[-1]
        angle = rm.tangent_angle(SP, end, w, [0.0, 1.0])
        assert angle == pytest.approx(math.pi / 2, abs=1e-4)


_KNOWN_JACOBI_SPECTRA = [
    (EU, [0.0, 0.0]), (PO, [-1.0, 0.0]), (SP, [0.0, 1.0]),
    *((rm.bergman_ball(d), sorted([0.0, -2.0 / (d + 1)] + [-0.5 / (d + 1)] * (2 * d - 2)))
      for d in (1, 2, 3)),
]


class TestJacobi:
    @pytest.mark.parametrize("m, expect", _KNOWN_JACOBI_SPECTRA, ids=[m.name for m, _ in _KNOWN_JACOBI_SPECTRA])
    def test_jacobi_operator_eigenvalues(self, m, expect):
        # sectional curvature times |v|^2: 0 along v, then -1, +1 and on the
        # Bergman ball -2/(d+1) on the complex line of v, -1/(2(d+1)) off it
        x = np.linspace(0.3, -0.2, m.dim)
        v = np.linspace(-0.7, 1.1, m.dim)
        lam, frame = rm._jacobi_eigenframe(rm.christoffel_curvature(m, x), v)
        speed2 = m.norm(x, v) ** 2
        assert np.allclose(lam, speed2 * np.asarray(expect), rtol=0, atol=1e-10 * speed2)
        assert np.allclose(frame.T @ m.g(x) @ frame, np.eye(m.dim), rtol=0, atol=1e-12)
        rep = rm.jacobi_flow(m, rm.TangentPoint.of(x, v), 0.5, np.eye(m.dim), np.eye(m.dim), step=0.1)
        assert rep.kappa_measured == pytest.approx(max(abs(e) for e in expect), rel=1e-10, abs=1e-12)

    def test_great_circle_leaving_the_chart_raises(self):
        # the circle from the south pole reaches |x| = 40 at t = 2 atan(40) = 3.0916
        with pytest.raises(LeftChart):
            rm.jacobi_flow(SP, rm.TangentPoint.of([0, 0], [0.5, 0]), 3.12, [[0, 1]], [[1, 0]], step=0.01)

    def test_zero_velocity_gives_the_flat_solution(self):
        J0, W0 = np.random.default_rng(4).standard_normal((2, 3, 2))
        rep = rm.jacobi_flow(PO, rm.TangentPoint.of([0.1, 0.2], [0, 0]), 1.0, J0, W0, step=0.1)
        assert np.allclose(rep.J, J0 + rep.ts[:, None, None] * W0, rtol=0, atol=1e-14)
        assert np.allclose(rep.W, np.broadcast_to(W0, rep.W.shape), rtol=0, atol=1e-14)
        assert rep.kappa_measured == 0.0 and rep.growth_ok

    @pytest.mark.parametrize("missing", ["closed_dist", "closed_geodesic", "closed_ray", "closed_transport"])
    def test_metric_without_closed_forms_is_refused(self, missing):
        # the exact fields rest on closed_ray and closed_transport; a metric
        # without any of the four closed forms is refused when it is built
        with pytest.raises(ConfigInvalid, match=missing):
            dataclasses.replace(PO, **{missing: None})

    def test_flat_linear_growth(self):
        rep = rm.jacobi_flow(EU, rm.TangentPoint.of([0, 0], [1, 0]), 4.0,
                             J0=[[0, 0]], W0=[[0, 1]], step=1e-2)
        # J(t) = t e2, f(t) = sqrt(1 + t^2) <= e^{t/2} for t in [0, 4]
        assert np.allclose(rep.J[-1][0], [0, 4.0], atol=1e-8)
        assert np.all(rep.f[:, 0] <= np.exp(0.5 * rep.ts) + 1e-9)
        assert rep.growth_ok

    def test_hyperbolic_sinh(self):
        rep = rm.jacobi_flow(PO, rm.TangentPoint.of([0, 0], [0.5, 0]), 1.0,
                             J0=[[0, 0]], W0=[[0, 0.5]], step=1e-3)
        path = rm.geodesic_flow(PO, rm.TangentPoint.of([0, 0], [0.5, 0]), 1.0, step=1e-3)
        norm_end = PO.norm(path.xs[-1], rep.J[-1][0])
        assert norm_end == pytest.approx(math.sinh(1.0), abs=1e-6)
        # sinh(1) <= e^{(kappa+1)/2} = e with kappa measured ~ 1
        assert norm_end <= math.exp(0.5 * (rep.kappa_measured + 1.0))
        assert rep.growth_ok

    def test_sphere_sin(self):
        rep = rm.jacobi_flow(SP, rm.TangentPoint.of([0, 0], [0.5, 0]), 2.0,
                             J0=[[0, 0]], W0=[[0, 0.5]], step=1e-3)
        path = rm.geodesic_flow(SP, rm.TangentPoint.of([0, 0], [0.5, 0]), 2.0, step=1e-3)
        assert SP.norm(path.xs[-1], rep.J[-1][0]) == pytest.approx(math.sin(2.0), abs=1e-6)
        assert rep.growth_ok

    def test_batched_fields(self):
        J0 = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.2]])
        W0 = np.array([[0.0, 0.5], [0.0, 0.0], [0.1, 0.1]])
        rep = rm.jacobi_flow(PO, rm.TangentPoint.of([0, 0], [0.5, 0]), 1.5, J0, W0, step=2e-3)
        assert rep.f.shape[1] == 3
        assert rep.growth_ok


_COORD = st.floats(-1.0, 1.0)


@pytest.mark.parametrize("mode", ["TM", "T1M"])
@pytest.mark.parametrize("m", [PO, BE], ids=lambda m: m.name)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_tangent_distance_sides_are_ordered(m, mode, data):
    n = m.dim
    x, v, y, w = (np.array(data.draw(st.lists(_COORD, min_size=n, max_size=n))) for _ in range(4))
    x, y = (0.9 * p / max(1.0, float(np.linalg.norm(p))) for p in (x, y))
    assume(np.linalg.norm(v) > 1e-3 and np.linalg.norm(w) > 1e-3)
    if mode == "T1M":
        v, w = m.unit(x, v), m.unit(y, w)
    res = rm.tangent_distances(m, rm.TangentPoint.of(x, v), rm.TangentPoint.of(y, w), mode)
    # the lower side before it is clipped to the upper one: base distance and norm gap
    lower = max(res.base_distance, abs(m.norm(x, v) - m.norm(y, w)))
    assert res.interval.lower <= res.interval.upper
    assert lower <= res.interval.upper * (1 + 1e-6) + 1e-9


class TestTangentDistances:
    def test_flat_fiber_angle(self):
        phi = 1.2
        X = rm.TangentPoint.of([0, 0], [1, 0])
        Y = rm.TangentPoint.of([0, 0], [math.cos(phi), math.sin(phi)])
        t1 = rm.tangent_distances(EU, X, Y, "T1M")
        assert t1.interval.upper == pytest.approx(phi, abs=1e-12)
        tm = rm.tangent_distances(EU, X, Y, "TM")
        assert tm.interval.upper == pytest.approx(2 * math.sin(phi / 2), abs=1e-12)
        # unit-tangent vs tangent comparison with constant pi + 1
        assert t1.interval.upper <= (math.pi + 1) * tm.interval.upper

    def test_coincident(self):
        X = rm.TangentPoint.of([0.1, 0], [1, 0])
        assert rm.tangent_distances(EU, X, X, "TM").interval.upper == 0.0

    def test_norm_gap_lower_bound(self):
        X = rm.TangentPoint.of([0, 0], [2, 0])
        Y = rm.TangentPoint.of([0.5, 0], [0.5, 0])
        res = rm.tangent_distances(EU, X, Y, "TM")
        assert res.interval.lower >= abs(2.0 - 0.5) - 1e-12

    def test_transported_pair_hyperbolic(self):
        # same vector transported to a base at distance 1: the fiber term
        # vanishes and the interval collapses to the base distance
        x = np.array([0.0, 0.0])
        path = rm.geodesic_flow(PO, rm.TangentPoint.of(x, [0.5, 0]), 1.0, step=1e-3)
        y = path.xs[-1]
        w = rm.parallel_transport(PO, path, PO.unit(x, [0, 1]))[-1]
        X = rm.TangentPoint.of(x, PO.unit(x, [0, 1]))
        Y = rm.TangentPoint.of(y, PO.unit(y, w))
        res = rm.tangent_distances(PO, X, Y, "T1M")
        assert res.interval.lower == pytest.approx(1.0, abs=1e-6)
        assert res.interval.upper == pytest.approx(1.0, abs=1e-4)

    def test_unit_mode_requires_unit(self):
        with pytest.raises(NotUnit):
            rm.tangent_distances(EU, rm.TangentPoint.of([0, 0], [2, 0]),
                                 rm.TangentPoint.of([0, 0], [1, 0]), "T1M")

    def test_nearby_bases_are_not_coincident(self):
        # 2e-6 apart is within np.allclose's default rtol of 1e-5, but the
        # bases are 5.33e-6 apart in the metric: only equal bases give 0
        x, y = np.array([0.5, 0.0]), np.array([0.5 + 2e-6, 0.0])
        res = rm.tangent_distances(PO, unit_at(PO, x, [1, 0]), unit_at(PO, y, [1, 0]), "T1M")
        assert res.base_distance == PO.closed_dist(x, y) > 5e-6
        assert res.base_distance <= res.interval.lower <= res.interval.upper

    @pytest.mark.parametrize("outside_first", [True, False])
    def test_base_point_outside_the_chart_raises(self, outside_first):
        X = rm.TangentPoint.of([1.2, 0, 0, 0], [0, 1, 0, 0])
        Y = rm.TangentPoint.of([0.1, 0, 0, 0], [0, 1, 0, 0])
        with pytest.raises(LeftChart):
            rm.tangent_distances(BE, *((X, Y) if outside_first else (Y, X)), "TM")


class TestSpread:
    def test_flat_rays(self):
        phi = 0.3
        rows = rm.spread_check(EU, unit_at(EU, [0, 0], [1, 0]),
                               unit_at(EU, [0, 0], [math.cos(phi), math.sin(phi)]),
                               kappa=0.0, horizon=3.0, grid=5)
        for r in rows:
            assert r.ok
            assert r.lhs == pytest.approx(2 * r.t * math.sin(phi / 2), abs=1e-6)

    def test_identical_geodesics(self):
        rows = rm.spread_check(PO, unit_at(PO, [0, 0], [1, 0]), unit_at(PO, [0, 0], [1, 0]),
                               kappa=1.0, horizon=2.0, grid=4)
        assert all(r.lhs < 1e-9 and r.ok for r in rows)

    def test_hyperbolic_small_angle(self):
        th = 0.01
        rows = rm.spread_check(PO, unit_at(PO, [0, 0], [1, 0]),
                               unit_at(PO, [0, 0], [math.cos(th), math.sin(th)]),
                               kappa=1.0, horizon=3.0, grid=6)
        assert all(r.ok for r in rows)
        # lhs grows like the sinh law of cosines
        last = rows[-1]
        assert last.lhs == pytest.approx(2 * math.asinh(math.sinh(3.0) * math.sin(th / 2)), rel=1e-2)


    @pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: m.name)
    def test_closed_rays_match_the_integrated_fallback(self, m):
        X = unit_at(m, [0.1] + [0.0] * (m.dim - 1), [1.0] + [0.0] * (m.dim - 1))
        Y = unit_at(m, X.x, [1.0, 0.05] + [0.0] * (m.dim - 2))
        got = rm.spread_check(m, X, Y, kappa=4.0, horizon=1.0, grid=4)
        ts, (xs1, xs2) = _integrated_samples(m, (X, Y), 1.0, 4, rm.DEFAULT_STEP)
        assert [r.t for r in got] == list(ts)
        # the left side is closed_dist; the shooting distance between the
        # closed-ray samples matches the one between the integrated samples
        xc1, xc2 = (m.closed_ray(p.x, p.vec)(m.norm(p.x, p.vec) * ts) for p in (X, Y))
        for a, c1, c2, x1, x2 in zip(got, xc1, xc2, xs1, xs2):
            assert a.lhs == m.closed_dist(c1, c2)
            want = shooting_distance(m, x1, x2)
            assert shooting_distance(m, c1, c2) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_rows_sample_the_exact_grid_times(self):
        # t = 1/3 is read at 1/3, not at the nearest stored state of a flow
        X = unit_at(PO, [0, 0], [1, 0])
        Y = unit_at(PO, [0, 0], [math.cos(0.01), math.sin(0.01)])
        rows = rm.spread_check(PO, X, Y, kappa=1.0, horizon=2.0, grid=6)
        ray1, ray2 = PO.closed_ray(X.x, X.vec), PO.closed_ray(Y.x, Y.vec)
        for r in rows:
            assert r.lhs == pytest.approx(PO.closed_dist(ray1(r.t), ray2(r.t)), rel=1e-12, abs=0)


class TestBackward:
    def test_flat_translate(self):
        X = rm.TangentPoint.of([0, 0], [1, 0])
        Y = rm.TangentPoint.of([0, 1e-3], [1, 0])
        ratio = rm.backward_estimate(EU, X, Y, 0.1)
        assert 0 < ratio < 10

    def test_coincident_zero(self):
        X = rm.TangentPoint.of([0, 0], [1, 0])
        assert rm.backward_estimate(EU, X, X, 0.1) == 0.0

    def test_stability_under_halving(self):
        th = 1e-3
        X = unit_at(PO, [0.1, 0], [1, 0])
        Y = unit_at(PO, [0.1, 0], [math.cos(th), math.sin(th)])
        r1 = rm.backward_estimate(PO, X, Y, 0.1)
        r2 = rm.backward_estimate(PO, X, Y, 0.05)
        assert abs(r2 - r1) / r1 < 0.1

    def test_epsilon_guard(self):
        X = unit_at(SP, [0, 0], [1, 0])
        Y = unit_at(SP, [0, 0], [0, 1])
        with pytest.raises(EpsilonTooLarge):
            rm.backward_estimate(SP, X, Y, 0.9, kappa=1.0)

    @pytest.mark.parametrize("key, value", [("eps", 0.0), ("eps", -1.0), ("eps", math.nan),
                                            ("eps", math.inf)])
    def test_eps_and_step_must_be_positive(self, key, value):
        X = unit_at(PO, [0.1, 0], [1, 0])
        Y = unit_at(PO, [0.1, 0], [1, 1e-3])
        kwargs = {"eps": 0.1, key: value}
        with pytest.raises(ConfigInvalid):
            rm.backward_estimate(PO, X, Y, **kwargs)

    @pytest.mark.parametrize("m", [PO], ids=["closed-ray"])
    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_must_sample_a_time_after_zero(self, m, grid):
        # grid 0 samples only t = 0, where the two geodesics coincide
        X = unit_at(PO, [0.1, 0], [1, 0])
        Y = unit_at(PO, [0.1, 0], [1, 1e-3])
        with pytest.raises(ConfigInvalid, match="grid"):
            rm.backward_estimate(m, X, Y, 0.1, grid=grid)

    @pytest.mark.parametrize("m", ALL_MODELS + (rm.scale_metric(BE, 2.5),), ids=lambda m: m.name)
    def test_closed_rays_match_the_integrated_fallback(self, m):
        rng = np.random.default_rng(31)
        for k in range(4):
            u = rng.standard_normal(m.dim)
            x = 0.3 * rng.uniform() * u / np.linalg.norm(u)
            v = rng.standard_normal(m.dim)
            # two same-base pairs at an angle, then two pairs with nearby bases
            if k < 2:
                y, w = x, v + 0.05 * rng.standard_normal(m.dim)
            else:
                y, w = x + 1e-3 * rng.standard_normal(m.dim), v
            X, Y = unit_at(m, x, v), unit_at(m, y, w)
            for eps in (0.1, 0.05):
                got = rm.backward_estimate(m, X, Y, eps)
                # the integrated reference: the same grid of 9 times on RK4 flows
                _, (xs1, xs2) = _integrated_samples(m, (X, Y), eps, 8, min(rm.DEFAULT_STEP, eps / 16))
                dmax = max(m.closed_dist(x1, x2) for x1, x2 in zip(xs1, xs2))
                want = rm.tangent_distances(m, X, Y, "T1M").interval.upper * eps / dmax
                assert got == pytest.approx(want, rel=1e-9, abs=0), (m.name, k, eps)

    def test_closed_rays_replace_the_two_flows(self, monkeypatch):
        calls = []
        flow = rm.geodesic_flow

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return flow(*args, **kwargs)

        monkeypatch.setattr(rm, "geodesic_flow", counting)
        X = unit_at(BE, [0.1, 0, 0, 0.2], [1, 0, 0, 0])
        Y = unit_at(BE, [0.1, 0, 0, 0.2], [1, 0.01, 0, 0])
        rm.backward_estimate(BE, X, Y, 0.1)
        assert calls == []


class TestPositivityCheck:
    """Invariant metrics whose conformal factor ``a`` (dim 2) or whose
    eigenvalue ``a + b s`` on span{x, Jx} (dim 4) crosses zero at ``s = 1/2``,
    inside the unit-ball chart."""

    @staticmethod
    def _degenerate(kind: str) -> rm.MetricField:
        def fields(model):
            # the closed forms only complete the type; these tests never reach them
            return dict(chart_contains=lambda x: float(x @ x) < 1.0, inj_model=model.inj_model,
                        **{f: getattr(model, f) for f in
                           ("closed_dist", "closed_geodesic", "closed_ray", "closed_transport")})

        if kind == "conformal":
            return rm.invariant_metric("a-crosses-zero", 2, lambda s: (1.0 - 2.0 * s, -2.0, 0.0),
                                       **fields(PO))
        return rm.invariant_metric("ab-crosses-zero", 4, lambda s: (1.0, 0.0, 0.0),
                                   lambda s: (-2.0, 0.0, 0.0), **fields(BE))

    @pytest.mark.parametrize("kind", ["conformal", "rank-2"])
    def test_singular_metric_is_reported(self, kind):
        m = self._degenerate(kind)
        good, bad = np.zeros(m.dim), np.zeros(m.dim)
        good[0], bad[0] = 0.5, 0.8
        assert np.array_equal(m.metric_at(good), m.g(good))
        v = np.zeros(m.dim)
        v[1] = 1.0
        with pytest.raises(SingularMetric):
            m.metric_at(bad)
        with pytest.raises(SingularMetric):
            rm.christoffel_curvature(m, bad)
        with pytest.raises(SingularMetric):
            rm.jacobi_flow(m, rm.TangentPoint.of(bad, v), 0.1, [v], [v], step=1e-2)
        with pytest.raises(SingularMetric):
            rm.exp_log(m, bad, bad + 0.05 * v)


class TestSegmentBound:
    def test_orthogonal(self):
        value, bound, ok = rm.segment_max_lower_bound([1, 0], [0, 1], 1.0)
        assert value == pytest.approx(math.sqrt(2)) and bound == 0.5 and ok

    def test_zero_x(self):
        value, bound, ok = rm.segment_max_lower_bound([0, 0], [0, 2], 0.5)
        assert value == pytest.approx(1.0) and ok

    def test_worst_case_direction(self):
        # X = -(eps/2) Y is the tight case in the two-case proof
        eps = 1.0
        Y = np.array([1.0, 0.0])
        X = -(eps / 2) * Y
        value, bound, ok = rm.segment_max_lower_bound(X, Y, eps)
        assert ok

    def test_random_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            X = rng.standard_normal(3)
            Y = rng.standard_normal(3)
            eps = rng.uniform(1e-3, 1.999)
            _, _, ok = rm.segment_max_lower_bound(X, Y, eps)
            assert ok


class TestClosedRays:
    def test_rays_match_integration(self):
        rng = np.random.default_rng(12)
        for m in ALL_MODELS:
            for _ in range(3):
                u = rng.standard_normal(m.dim)
                x = 0.3 * rng.uniform() * u / np.linalg.norm(u)
                v = m.unit(x, rng.standard_normal(m.dim))
                ray = m.closed_ray(x, v)
                path = rm.geodesic_flow(m, rm.TangentPoint.of(x, v), 1.5, step=1e-3)
                for t in (0.5, 1.0, 1.5):
                    idx = int(round(t / path.step))
                    assert np.allclose(ray(t), path.xs[idx], atol=1e-7), m.name

    def test_ray_initial_conditions(self):
        for m in ALL_MODELS:
            x = np.zeros(m.dim)
            x[0] = 0.2
            v = m.unit(x, np.arange(1.0, m.dim + 1))
            ray = m.closed_ray(x, v)
            assert np.allclose(ray(0.0), x, atol=1e-12)
            h = 1e-7
            fd = (ray(h) - ray(0.0)) / h
            assert np.allclose(fd, v, atol=1e-5)


class TestScaling:
    def test_scaled_metric_consistency(self):
        lam = 4.0
        P4 = rm.scale_metric(PO, lam)
        x, y = np.array([0.1, 0.0]), np.array([0.4, 0.2])
        assert P4.closed_dist(x, y) == pytest.approx(2 * PO.closed_dist(x, y), rel=1e-12)
        assert rm.christoffel_curvature(P4, [0.2, 0.1]).sectional([1, 0], [0, 1]) == pytest.approx(-0.25, abs=1e-6)
        # closed geodesic stays unit speed in the scaled metric
        T, v0, sampler = P4.closed_geodesic(x, y)
        assert P4.norm(x, v0) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(sampler(T), y, atol=1e-9)


# the Bergman metric scaled to curvature bound 1, as biholo_pipeline scales it
# by its measured bound 2/3
BE_SCALED = rm.scale_metric(BE, 2.0 / 3.0)

_TRANSPORT_CASES = [
    (BE_SCALED, [0.9921875, 0.0, 0.0, 0.0], [-0.2, 0.1, 0.3, 0.0], [0.3, 1.0, -0.2, 0.4]),
    (BE, [0.2, 0.1, -0.1, 0.3], [-0.4, 0.2, 0.3, -0.1], [0.3, 1.0, -0.2, 0.4]),
    (PO, [0.9, 0.1], [-0.3, 0.2], [0.5, -1.0]),
    (SP, [2.0, -0.5], [-0.4, 0.3], [1.0, 0.7]),
    (EU, [1.0, 2.0], [-3.0, 0.5], [0.2, -0.6]),
]
_TRANSPORT_IDS = ["bergman-ball-2-scaled", "bergman-ball-2", "poincare", "sphere", "euclid"]


def _times_i(v):
    """``J v``: multiplication by ``i`` in interleaved coordinates."""
    out = np.empty_like(v)
    out[0::2], out[1::2] = -v[1::2], v[0::2]
    return out


class TestClosedTransport:
    @pytest.mark.parametrize("m, x, y, w", _TRANSPORT_CASES, ids=_TRANSPORT_IDS)
    def test_matches_rk4_transport(self, m, x, y, w):
        x, y = np.asarray(x, float), np.asarray(y, float)
        T, v0, _ = m.closed_geodesic(x, y)
        path = rm.geodesic_flow(m, rm.TangentPoint.of(x, v0), T, step=2e-3)
        want = rm.parallel_transport(m, path, w)[-1]
        got = m.closed_transport(x, y, w)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("m, x, y, w", _TRANSPORT_CASES, ids=_TRANSPORT_IDS)
    def test_keeps_the_gram_matrix_and_commutes_with_j(self, m, x, y, w):
        x, y, w = (np.asarray(a, float) for a in (x, y, w))
        frame = np.stack((w, np.roll(w, 1) - 0.5 * w))
        moved = np.stack([m.closed_transport(x, y, u) for u in frame])
        gram_x = frame @ m.g(x) @ frame.T
        gram_y = moved @ m.g(y) @ moved.T
        assert np.max(np.abs(gram_y - gram_x)) <= 1e-12 * np.max(np.abs(gram_x))
        for u, pu in zip(frame, moved):
            pju = m.closed_transport(x, y, _times_i(u))
            assert np.max(np.abs(pju - _times_i(pu))) <= 1e-12 * np.max(np.abs(pu))

    @pytest.mark.parametrize("m", [PO, SP, BE], ids=lambda m: m.name)
    def test_tangent_distances_agree_with_the_integrated_fallback(self, m, monkeypatch):
        x = np.full(m.dim, 0.3) * np.tile([1.0, -0.5], m.dim // 2)
        y = np.full(m.dim, -0.2) * np.tile([0.4, 1.0], m.dim // 2)
        X, Y = unit_at(m, x, np.roll(x, 1) + 0.1), unit_at(m, y, y + 0.3)
        # the integrated reference: the shooting base geodesic, RK4 transport along it
        tp = rm.exp_log(m, X.x, Y.x)
        base = m.norm(tp.x, tp.vec)
        path = rm.geodesic_flow(m, tp, 1.0, step=1.0 / max(32, int(base / rm.DEFAULT_STEP)))
        moved = rm.parallel_transport(m, path, X.vec)[-1]
        upper = base + rm.tangent_angle(m, Y.x, moved, Y.vec)
        integrated = DistInterval(min(max(base, abs(m.norm(X.x, X.vec) - m.norm(Y.x, Y.vec))), upper), upper)

        def no_flow(*args):
            raise AssertionError("the closed-form path integrated a flow")

        monkeypatch.setattr(rm, "christoffel", no_flow)
        exact = rm.tangent_distances(m, X, Y, "T1M").interval
        assert exact.upper == pytest.approx(integrated.upper, rel=1e-9)
        assert exact.lower == pytest.approx(integrated.lower, rel=1e-9)

    @pytest.mark.parametrize("m, x, y, w", _TRANSPORT_CASES, ids=_TRANSPORT_IDS)
    def test_stacked_call_gives_the_single_calls(self, m, x, y, w):
        x, y, w = (np.asarray(a, float) for a in (x, y, w))
        stack = np.stack((w, np.roll(w, 1) - 0.5 * w, _times_i(w)))
        got = m.closed_transport(x, y, stack)
        want = np.stack([m.closed_transport(x, y, u) for u in stack])
        assert got.shape == stack.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_antipodal_points_on_the_sphere_raise(self):
        x = np.array([0.5, -0.25])
        with pytest.raises(ShootingDiverged):
            SP.closed_transport(x, -x / float(x @ x), [1.0, 0.0])


class TestClosedGeodesicSamplers:
    @pytest.mark.parametrize("m, x, y", [
        (EU, [0.2, -0.1], [1.0, 0.7]),
        (PO, [0.3, -0.2], [-0.5, 0.4]),
        (SP, [1.5, -0.3], [-0.2, 0.6]),
        (BE, [0.2, 0.1, -0.1, 0.3], [-0.4, 0.2, 0.3, -0.1]),
        (BE_SCALED, [0.6, 0.0, 0.1, 0.0], [0.0, 0.0, 0.0, 0.0]),
    ], ids=["euclid", "poincare", "sphere", "bergman-ball-2", "bergman-ball-2-scaled"])
    def test_array_of_times_gives_the_rows_of_scalar_calls(self, m, x, y):
        x = np.asarray(x, float)
        T, v0, sampler = m.closed_geodesic(x, np.asarray(y, float))
        assert np.allclose(sampler(T), y, atol=1e-9)
        ts = np.linspace(-0.1 * T, 1.1 * T, 57)
        for curve in (sampler, m.closed_ray(x, m.unit(x, v0))):
            rows = curve(ts)
            assert rows.shape == (len(ts), m.dim)
            for t, row in zip(ts, rows):
                one = curve(float(t))
                assert one.shape == (m.dim,)
                assert np.max(np.abs(row - one)) <= 1e-15

    @pytest.mark.parametrize("m", [EU, PO, SP, BE, BE_SCALED],
                             ids=["euclid", "poincare", "sphere", "bergman-ball-2", "bergman-ball-2-scaled"])
    def test_initial_velocity_is_unit(self, m):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(50):
            x, y = 0.6 * rng.uniform(-1.0, 1.0, (2, m.dim)) / math.sqrt(m.dim)
            _, v0, _ = m.closed_geodesic(x, y)
            worst = max(worst, abs(m.norm(x, v0) - 1.0))
        assert worst <= 1e-12


def _integrated_samples(m, inits, horizon, grid, step):
    """The ``grid + 1`` times of ``linspace(0, horizon, grid + 1)`` and each
    geodesic of ``inits`` there, from an RK4 ``geodesic_flow`` whose step (at
    most ``step``) divides the grid, so every sample is a stored state."""
    per_sample = math.ceil(horizon / (grid * step))
    return np.linspace(0.0, horizon, grid + 1), [
        rm.geodesic_flow(m, p, horizon, step=horizon / (grid * per_sample)).xs[::per_sample]
        for p in inits]


# -- the hand-written RK4 loops that the one integrator replaced (reference) --

def _reference_geodesic(m, x, v, horizon, step):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps
    xs = np.empty((n_steps + 1, m.dim))
    vs = np.empty((n_steps + 1, m.dim))
    xs[0], vs[0] = x, v
    for i in range(n_steps):
        k1x, k1v = rm._geodesic_rhs(m, x, v)
        k2x, k2v = rm._geodesic_rhs(m, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = rm._geodesic_rhs(m, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = rm._geodesic_rhs(m, x + h * k3x, v + h * k3v)
        x = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        xs[i + 1], vs[i + 1] = x, v
    return xs, vs


def _reference_transport(m, xs, vs, h, X0):
    x, v = xs[0].copy(), vs[0].copy()
    w = np.asarray(X0, dtype=float).copy()
    out = np.empty_like(xs)
    out[0] = w

    def rhs(x, v, w):
        gamma = rm.christoffel(m, x)
        return (v, -np.einsum("kij,i,j->k", gamma, v, v),
                -np.einsum("kij,i,j->k", gamma, v, w))

    for i in range(len(xs) - 1):
        k1 = rhs(x, v, w)
        k2 = rhs(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1], w + 0.5 * h * k1[2])
        k3 = rhs(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1], w + 0.5 * h * k2[2])
        k4 = rhs(x + h * k3[0], v + h * k3[1], w + h * k3[2])
        x = x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        w = w + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        out[i + 1] = w
    return out


def _reference_jacobi(m, x, v, horizon, J0, W0, step):
    """RK4 on the Jacobi equation with |sectional| sampled at 16 path points;
    returns (J, W, sampled kappa)."""
    J, W = np.atleast_2d(np.asarray(J0, float)), np.atleast_2d(np.asarray(W0, float))
    B = J.shape[0]
    x, v = np.asarray(x, float), np.asarray(v, float)
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps

    def rhs(x, v, J, W):
        cd = rm.christoffel_curvature(m, x)
        dx, dv = v, -np.einsum("kij,i,j->k", cd.gamma, v, v)
        dJ = W - np.einsum("kij,i,bj->bk", cd.gamma, v, J)
        rv = np.einsum("lijk,bi,j,k->bl", cd.riem, J, v, v)
        dW = -rv - np.einsum("kij,i,bj->bk", cd.gamma, v, W)
        return dx, dv, dJ, dW

    Js = np.empty((n_steps + 1, B, m.dim))
    Ws = np.empty_like(Js)
    Js[0], Ws[0] = J, W
    kappa_meas = 0.0
    for i in range(n_steps):
        if i % max(1, n_steps // 16) == 0:
            cd = rm.christoffel_curvature(m, x)
            for b in range(min(B, 4)):
                try:
                    kappa_meas = max(kappa_meas, abs(cd.sectional(v, J[b] if np.linalg.norm(J[b]) > 1e-12 else np.eye(m.dim)[0])))
                except ValueError:
                    pass
            for j in range(m.dim):
                try:
                    kappa_meas = max(kappa_meas, abs(cd.sectional(v, np.eye(m.dim)[j])))
                except ValueError:
                    pass
        k1 = rhs(x, v, J, W)
        k2 = rhs(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1], J + 0.5 * h * k1[2], W + 0.5 * h * k1[3])
        k3 = rhs(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1], J + 0.5 * h * k2[2], W + 0.5 * h * k2[3])
        k4 = rhs(x + h * k3[0], v + h * k3[1], J + h * k3[2], W + h * k3[3])
        x = x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        J = J + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        W = W + h / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        Js[i + 1], Ws[i + 1] = J, W
    return Js, Ws, kappa_meas


def _reference_endpoint(m, x, X, n_steps):
    """``_endpoint`` as the hand-written geodesic loop, with its chart check
    (the positivity check raises on no input here)."""
    xs, _ = _reference_geodesic(m, x, X, 1.0, 1.0 / n_steps)
    for i, p in enumerate(xs[1:]):
        if not m.chart_contains(p):
            raise LeftChart(f"{m.name}: shooting left the chart at t={(i + 1) / n_steps:.4f}")
    return xs[-1]


_FLOW_STARTS = [
    (EU, [0.2, -0.1], [1.0, 0.4], [0.8, -0.1]),
    (PO, [0.3, -0.2], [0.4, 0.7], [0.1, 0.6]),
    (SP, [1.2, 0.4], [-0.3, 1.0], [-0.9, 0.2]),
    (BE, [0.1, -0.05, 0.2, 0.0], [1.0, 0.3, -0.2, 0.5], [-0.3, 0.2, 0.1, 0.4]),
]
_FLOW_IDS = [m.name for m, *_ in _FLOW_STARTS]
_JACOBI_STARTS = _FLOW_STARTS + [(rm.scale_metric(BE, 2.5),) + tuple(_FLOW_STARTS[-1][1:])]


class TestOneIntegrator:
    """Every flow on ``_rk4``, and the shooting endpoint, gives the hand-written
    loops' floats bit for bit; the closed-form Jacobi fields match the
    hand-written RK4 Jacobi loop at a fine step."""

    @pytest.mark.parametrize("m, x, v, y", _FLOW_STARTS, ids=_FLOW_IDS)
    def test_geodesic_and_transport(self, m, x, v, y):
        start = unit_at(m, x, v)
        path = rm.geodesic_flow(m, start, 1.3, step=1.3 / 60)
        xs, vs = _reference_geodesic(m, start.x, start.vec, 1.3, 1.3 / 60)
        assert np.array_equal(path.xs, xs) and np.array_equal(path.vs, vs)
        w = rm.parallel_transport(m, path, y)
        assert np.array_equal(w, _reference_transport(m, xs, vs, path.step, y))

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("m, x, v, y", _JACOBI_STARTS, ids=[m.name for m, *_ in _JACOBI_STARTS])
    def test_jacobi(self, m, x, v, y, batch):
        # RK4 at step 1/200 is within 2.4e-10 of the exact fields on these
        # starts (relative to each trajectory's largest entry), so 1e-9 holds
        start = unit_at(m, x, v)
        J0, W0 = np.random.default_rng(batch).standard_normal((2, batch, m.dim))
        rep = rm.jacobi_flow(m, start, 1.0, J0, W0, step=1.0 / 200)
        Js, Ws, kappa = _reference_jacobi(m, start.x, start.vec, 1.0, J0, W0, 1.0 / 200)
        assert np.max(np.abs(rep.J - Js)) <= 1e-9 * np.max(np.abs(Js))
        assert np.max(np.abs(rep.W - Ws)) <= 1e-9 * np.max(np.abs(Ws))
        g = np.stack([m.g(p) for p in rm.geodesic_flow(m, start, 1.0, step=1.0 / 200).xs])
        f = np.sqrt(np.einsum("tbi,tij,tbj->tb", Js, g, Js) + np.einsum("tbi,tij,tbj->tb", Ws, g, Ws))
        assert np.max(np.abs(rep.f - f) / f) <= 1e-9
        # the exact sup over planes through gamma' dominates the sampled planes;
        # their sectional curvatures carry rounding of up to 2e-11 relative
        assert rep.kappa_measured >= kappa * (1.0 - 1e-9)

    @pytest.mark.parametrize("m, x, v, y", _FLOW_STARTS, ids=_FLOW_IDS)
    def test_exp_log(self, m, x, v, y, monkeypatch):
        x, y = 0.5 * np.asarray(x, float), 0.5 * np.asarray(y, float)
        got = rm.exp_log(m, x, y)
        monkeypatch.setattr(rm, "_endpoint", _reference_endpoint)
        want = rm.exp_log(m, x, y)
        assert np.array_equal(got.vec, want.vec)


def _count_calls(monkeypatch, names):
    """Record each call to the named ``rm`` functions with the step count of
    an ``_endpoint`` call or the number of fields of a ``jacobi_flow`` call."""
    calls = []
    for name in names:
        def counting(*args, _name=name, _fn=getattr(rm, name), **kwargs):
            calls.append((_name, args[3] if _name == "_endpoint" else len(args[4])))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(rm, name, counting)
    return calls


def test_exp_log_reuses_the_accepted_trial(monkeypatch):
    # one Newton step: the endpoint at the start, one Jacobian of n Jacobi
    # fields, then the accepted line-search trial, which converges
    calls = _count_calls(monkeypatch, ("_endpoint", "jacobi_flow"))
    rm.exp_log(PO, [0.1, 0.0], [0.11, 0.01])
    assert calls == [("_endpoint", 48), ("jacobi_flow", 2), ("_endpoint", 48)]


def test_euclid_exp_log_takes_no_jacobian(monkeypatch):
    # the straight start X = y - x already lands on y, so the endpoint alone
    # converges and no curvature (hence no d2g) is ever evaluated
    d2g_calls = []
    m = dataclasses.replace(EU, d2g=lambda x: d2g_calls.append(1) or EU.d2g(x))
    calls = _count_calls(monkeypatch, ("_endpoint", "jacobi_flow"))
    x, y = np.array([0.2, -0.1]), np.array([1.0, 0.7])
    tp = rm.exp_log(m, x, y)
    assert calls == [("_endpoint", 113)] and d2g_calls == []
    assert np.array_equal(tp.vec, y - x)


@pytest.mark.parametrize("m, x, v, y", _FLOW_STARTS, ids=_FLOW_IDS)
def test_shooting_jacobian_matches_central_differences(m, x, v, y):
    # the independent reference: central differences of the RK4 endpoint map
    # against d exp_x from the Jacobi fields with J(0) = 0, J'(0) = e_k
    x, X, n_steps, h = 0.5 * np.asarray(x, float), 0.4 * np.asarray(v, float), 48, 1e-6
    n = m.dim
    jac = rm.jacobi_flow(m, rm.TangentPoint(x, X), 1.0, np.zeros((n, n)), np.eye(n), step=1.0).J[-1].T
    fd = np.stack([(rm._endpoint(m, x, X + h * e, n_steps) - rm._endpoint(m, x, X - h * e, n_steps))
                   / (2 * h) for e in np.eye(m.dim)], axis=1)
    assert np.allclose(jac, fd, rtol=0, atol=1e-8)


def test_singular_metric_on_the_trial_path_is_reported():
    # g is the Poincare metric; its positivity oracle reports a singular
    # annulus |x| >= 0.57.  From 0 the first endpoint ends on the diameter at
    # tanh(0.6) = 0.537 and the Newton trial aims at 0.6, so only the trial
    # crosses it.
    m = dataclasses.replace(PO, min_eig=lambda x: PO.min_eig(x) if x @ x < 0.57**2 else 0.0)
    x, y = np.zeros(2), np.array([0.6, 0.0])
    rm._endpoint(m, x, y, 48)
    with pytest.raises(SingularMetric):
        rm._endpoint(m, x, np.array([math.atanh(0.6), 0.0]), 48)
    with pytest.raises(SingularMetric):
        rm.exp_log(m, x, y)


def test_exp_log_refuses_the_long_arc():
    # Newton from the chart difference converges to the great-circle arc of
    # length 2 pi - 2.5874 = 3.6958 > pi, which is a geodesic but not the
    # distance; the short arc still shoots
    x, y = np.array([1.2, 0.4]), np.array([-0.9, 0.2])
    with pytest.raises(ShootingDiverged, match="does not minimize"):
        rm.exp_log(SP, x, y)
    y = np.array([-0.3, 0.9])
    tp = rm.exp_log(SP, x, y)
    assert SP.norm(x, tp.vec) == pytest.approx(SP.closed_dist(x, y), rel=1e-8)



def test_exp_log_solves_each_endpoint_once(monkeypatch):
    # the far Bergman pair changes the step count along the way: a trial runs
    # at its own count, and the accepted trial's endpoint is the next residual
    solved = []
    endpoint = rm._endpoint

    def counted(m, x, X, n_steps):
        solved.append(X.tobytes())
        return endpoint(m, x, X, n_steps)

    monkeypatch.setattr(rm, "_endpoint", counted)
    x, y = np.array([0.5, 0.1, -0.3, 0.2]), np.array([-0.4, 0.3, 0.2, -0.5])
    tp = rm.exp_log(BE, x, y)
    assert BE.norm(x, tp.vec) == pytest.approx(3.915459360937898, rel=1e-12)
    assert len(set(solved)) == len(solved) == 8

@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
def test_flow_step_must_be_positive(step):
    init = rm.TangentPoint.of([0.1, 0.0], [0.3, 0.2])
    with pytest.raises(ConfigInvalid):
        rm.geodesic_flow(PO, init, 0.5, step=step)
    with pytest.raises(ConfigInvalid):
        rm.jacobi_flow(PO, init, 0.5, [[0.0, 1.0]], [[1.0, 0.0]], step=step)


def test_sphere_distance_keeps_short_distances():
    # the chart segment's length at its midpoint is the distance to O(d^2)
    x = np.array([0.1, 0.2])
    for d in (1e-4, 1e-6, 1e-8):
        v = d * np.array([0.6, -0.8])
        assert SP.closed_dist(x, x + v) == pytest.approx(SP.norm(x + v / 2, v), rel=1e-7)



def _sphere_reference(x, y, ts):
    """Distance and geodesic samples ``x -> y`` on the round sphere at 50
    digits, from the embedding in R^3: ``atan2(|p x q|, p . q)`` and the great
    circle ``cos(t) p + sin(t) u``, with ``u`` the unit normal of ``p`` towards
    ``q``, projected from the north pole."""
    with mpmath.workdps(50):
        def embed(z):
            a, b = mpmath.mpf(float(z[0])), mpmath.mpf(float(z[1]))
            s = a * a + b * b
            return mpmath.matrix([2 * a, 2 * b, s - 1]) / (1 + s)

        p, q = embed(x), embed(y)
        pq = (p.T * q)[0]
        cross = mpmath.matrix([p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                               p[0] * q[1] - p[1] * q[0]])
        u = q - pq * p
        u /= mpmath.norm(u)
        samples = []
        for t in ts:
            t = mpmath.mpf(float(t))
            pt = mpmath.cos(t) * p + mpmath.sin(t) * u
            samples.append([float(pt[0] / (1 - pt[2])), float(pt[1] / (1 - pt[2]))])
        return float(mpmath.atan2(mpmath.norm(cross), pq)), np.array(samples)


def test_sphere_closed_forms_match_a_50_digit_reference():
    # relative to the sample's size; samples outside the chart (near the north
    # pole, where the coordinates blow up) are not compared
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = rng.uniform(-3.0, 3.0, 2), rng.uniform(-3.0, 3.0, 2)
        T, _, sampler = SP.closed_geodesic(x, y)
        ts = np.linspace(0.0, T, 9)
        d, want = _sphere_reference(x, y, ts)
        assert SP.closed_dist(x, y) == pytest.approx(d, rel=1e-14, abs=0)
        inside = np.sum(want * want, axis=1) < 40.0**2
        err = np.max(np.abs(sampler(ts) - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.all(err[inside] <= 1e-14)


def _ball_involution_mp(a, z):
    """Rudin's ``phi_a(z) = (a - P z - s Q z) / (1 - <z, a>)`` at 60 digits, with
    ``P z = <z, a> a / |a|^2``, ``Q = I - P`` and ``s = sqrt(1 - |a|^2)``."""
    with mpmath.workdps(60):
        a, z = [mpmath.mpc(c) for c in a], [mpmath.mpc(c) for c in z]
        za = mpmath.fsum(p * mpmath.conj(q) for p, q in zip(z, a))
        a2 = mpmath.fsum(abs(c) ** 2 for c in a)
        s = mpmath.sqrt(1 - a2)
        return [(c - za / a2 * c - s * (q - za / a2 * c)) / (1 - za) for c, q in zip(a, z)]


def _bergman_mp(d, x, y):
    """``T`` and ``v0`` of the Bergman geodesic ``x -> y`` on ``bergman_ball(d)``
    at 60 digits: ``w = -phi_x(y)``, ``T = radial atanh |w|`` and ``v0 = (s^2 P +
    s Q) w / (|w| radial)``."""
    with mpmath.workdps(60):
        radial = mpmath.sqrt(2 * (d + 1))
        a = [mpmath.mpc(*x[k:k + 2]) for k in range(0, 2 * d, 2)]
        w = [-c for c in _ball_involution_mp(a, [mpmath.mpc(*y[k:k + 2]) for k in range(0, 2 * d, 2)])]
        wn = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in w))
        a2 = mpmath.fsum(abs(c) ** 2 for c in a)
        s = mpmath.sqrt(1 - a2)
        ea = mpmath.fsum(c * mpmath.conj(q) for c, q in zip(w, a)) / (wn * a2)   # <e, a> / |a|^2
        v0 = [(s * s * ea * q + s * (c / wn - ea * q)) / radial for c, q in zip(w, a)]
        return float(radial * mpmath.atanh(wn)), np.array([float(part) for c in v0 for part in (c.real, c.imag)])


@pytest.mark.parametrize("d", [2, 3])
def test_bergman_closed_forms_of_near_pairs_match_a_60_digit_reference(d):
    # phi_x(y) once lost the digits of a pair 1e-12 apart to cancellation:
    # T was off by 4.2e-6 relative and v0 by 1.9e-6
    m = rm.bergman_ball(d)
    x = np.array([0.3, -0.2, 0.1, 0.4, -0.15, 0.05])[:2 * d]
    u = np.array([0.6, 0.1, -0.5, 0.2, 0.3, -0.4])[:2 * d]
    for sep in 10.0 ** -np.arange(3, 13):
        y = x + sep * u
        T, v0, _ = m.closed_geodesic(x, y)
        T_mp, v0_mp = _bergman_mp(d, x, y)
        assert T == pytest.approx(T_mp, rel=1e-14, abs=0)
        assert m.closed_dist(x, y) == pytest.approx(T_mp, rel=1e-14, abs=0)
        assert np.max(np.abs(v0 - v0_mp)) <= 1e-14 * np.max(np.abs(v0_mp))
    a = np.array([0.3 - 0.2j, 0.1 + 0.4j, -0.15 + 0.05j])[:d]
    z = a + 1e-12 * np.array([0.6 + 0.1j, -0.5 + 0.2j, 0.3 - 0.4j])[:d]
    want = np.array([complex(c) for c in _ball_involution_mp(a, z)])
    assert np.max(np.abs(ball_involution(a)(z) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, x", [(PO, [0.75, 0.0]), (SP, [1.5, -0.3]),
                                  (BE, [0.2, 0.1, -0.1, 0.3]), (BE_SCALED, [0.2, 0.1, -0.1, 0.3])],
                         ids=["poincare", "sphere", "bergman-ball-2", "bergman-scaled"])
def test_coincident_points_have_no_closed_geodesic(m, x):
    x = np.array(x)
    with pytest.raises(ShootingDiverged, match="coincident"):
        m.closed_geodesic(x, x.copy())

class TestNonFiniteInputs:
    @pytest.mark.parametrize("vec", [[math.inf, 0.0], [math.nan, 0.0]])
    def test_geodesic_velocity(self, vec):
        with pytest.raises(ConfigInvalid):
            rm.geodesic_flow(PO, rm.TangentPoint.of([0.1, 0.0], vec), 0.5, step=0.1)

    def test_transport_field(self):
        path = rm.geodesic_flow(PO, rm.TangentPoint.of([0.1, 0.0], [0.3, 0.2]), 0.5, step=0.1)
        with pytest.raises(ConfigInvalid):
            rm.parallel_transport(PO, path, [math.nan, 1.0])

    def test_jacobi_field(self):
        with pytest.raises(ConfigInvalid):
            rm.jacobi_flow(PO, rm.TangentPoint.of([0.1, 0.0], [0.3, 0.2]), 0.5,
                           [[math.inf, 0.0]], [[0.0, 1.0]], step=0.1)

    @pytest.mark.parametrize("which", ["J0", "W0", "v"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_jacobi_field_each_input(self, which, bad):
        data = {"J0": np.array([[1.0, 0.0]]), "W0": np.array([[0.0, 1.0]]), "v": np.array([0.3, 0.2])}
        data[which].flat[0] = bad
        with pytest.raises(ConfigInvalid):
            rm.jacobi_flow(PO, rm.TangentPoint.of([0.1, 0.0], data["v"]), 0.5,
                           data["J0"], data["W0"], step=0.1)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in g(v, v)
    @pytest.mark.parametrize("vec", [[math.nan, 0.0], [math.inf, 1.0]])
    def test_norm_and_tangent_distances(self, vec):
        with pytest.raises(ConfigInvalid):
            PO.norm([0.1, 0.0], vec)
        X = rm.TangentPoint.of([0.1, 0.0], vec)
        Y = rm.TangentPoint.of([-0.2, 0.3], [0.5, 0.5])
        with pytest.raises(ConfigInvalid):
            rm.tangent_distances(PO, X, Y, mode="TM")
