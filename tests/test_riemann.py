import math

import numpy as np
import pytest

from rigidlab import riemann as rm
from rigidlab.errors import ConfigInvalid, EpsilonTooLarge, NotUnit, ShootingDiverged, StepTooLarge

EU = rm.euclidean(2)
PO = rm.poincare_disk()
SP = rm.sphere_stereographic()
BE = rm.bergman_ball(2)
ALL_MODELS = (EU, PO, SP, BE)


def unit_at(m, x, v):
    return rm.TangentPoint.of(x, m.unit(np.asarray(x, float), np.asarray(v, float)))


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
        from rigidlab.errors import LeftChart
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
            assert rm.sectional_curvature(PO, x, [1, 0], [0, 1]) == pytest.approx(-1.0, abs=1e-6)

    def test_sphere_constant_plus_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, 2)
            assert rm.sectional_curvature(SP, x, [1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-6)

    def test_plane_independence_on_models(self):
        # constant-curvature metrics: same value for random 2-planes
        rng = np.random.default_rng(2)
        for m, expect in ((PO, -1.0), (SP, 1.0)):
            X, Y = rng.standard_normal((2, 2))
            assert rm.sectional_curvature(m, [0.2, 0.1], X, Y) == pytest.approx(expect, abs=1e-6)

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
                d_shoot = rm.geodesic_distance(m, x, y, prefer_closed_form=False)
                d_closed = rm.geodesic_distance(m, x, y, prefer_closed_form=True)
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


class TestJacobi:
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


class TestSasaki:
    def test_horizontal_curve_flat(self):
        # constant fiber over a straight base line: vertical part vanishes
        split = rm.sasaki_eval(EU, rm.TangentPoint.of([0, 0], [0, 1]),
                               lambda t: (np.array([t, 0.0]), np.array([0.0, 1.0])))
        assert np.allclose(split.vertical, 0, atol=1e-8)
        assert split.h_norm == pytest.approx(1.0, abs=1e-8)

    def test_vertical_curve(self):
        # fixed base point, moving fiber: horizontal part vanishes
        split = rm.sasaki_eval(PO, rm.TangentPoint.of([0.2, 0.1], [0, 1]),
                               lambda t: (np.array([0.2, 0.1]), np.array([t, 1.0])))
        assert np.allclose(split.horizontal, 0, atol=1e-8)
        gx = PO.g(np.array([0.2, 0.1]))
        assert split.h_norm == pytest.approx(math.sqrt(gx[0, 0]), rel=1e-6)

    def test_norm_reconstruction(self):
        def curve(t):
            return (np.array([0.1 + t, 0.2 - 0.5 * t]), np.array([0.3 + 2 * t, 0.4]))
        split = rm.sasaki_eval(PO, rm.TangentPoint.of([0.1, 0.2], [0.3, 0.4]), curve)
        gx = PO.g(np.array([0.1, 0.2]))
        h2 = float(split.horizontal @ gx @ split.horizontal + split.vertical @ gx @ split.vertical)
        assert split.h_norm == pytest.approx(math.sqrt(h2), rel=1e-10)

    def test_norm_gap_below_curve_length(self):
        # |  |X|_g - |Y|_g  | is dominated by the Sasaki length of any curve
        # joining X to Y in TM
        def curve(t):
            return (np.array([0.1 * t, 0.05 * t * t]), np.array([1.0 + 0.8 * t, 0.4 * t]))

        for m in (EU, PO):
            ts = np.linspace(0.0, 1.0, 400)
            length = 0.0
            for a, b in zip(ts[:-1], ts[1:]):
                mid = 0.5 * (a + b)
                split = rm.sasaki_eval(m, rm.TangentPoint.of(*curve(mid)),
                                       lambda s: curve(mid + s))
                length += (b - a) * split.h_norm
            x0, v0 = curve(0.0)
            x1, v1 = curve(1.0)
            gap = abs(m.norm(x0, v0) - m.norm(x1, v1))
            assert gap <= length + 1e-6


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
        assert rm.sectional_curvature(P4, [0.2, 0.1], [1, 0], [0, 1]) == pytest.approx(-0.25, abs=1e-6)
        # closed geodesic stays unit speed in the scaled metric
        T, v0, sampler = P4.closed_geodesic(x, y)
        assert P4.norm(x, v0) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(sampler(T), y, atol=1e-9)


def _transport_one_point_at_a_time(m, xs, ts, X0):
    """The per-sample RK2 transport that the stacked one replaced (reference)."""
    w = np.asarray(X0, dtype=float).copy()
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        xdot = (xs[i + 1] - xs[i]) / h
        g1 = rm.christoffel(m, xs[i])
        k1 = -np.einsum("kij,i,j->k", g1, xdot, w)
        gm = rm.christoffel(m, 0.5 * (xs[i] + xs[i + 1]))
        k2 = -np.einsum("kij,i,j->k", gm, xdot, w + 0.5 * h * k1)
        w = w + h * k2
    return w


def _closed_samples(m, x, y, step=1e-3):
    """The samples ``tangent_distances`` transports along."""
    T, _, sampler = m.closed_geodesic(np.asarray(x, float), np.asarray(y, float))
    ts = np.linspace(0, T, max(16, int(T / step)) + 1)
    return sampler(ts), ts


# the Bergman metric scaled to curvature bound 1, as biholo_pipeline scales it
# by its measured bound 2/3
BE_SCALED = rm.scale_metric(BE, 2.0 / 3.0)


class TestStackedTransport:
    @pytest.mark.parametrize("m, x, y, w, min_samples", [
        (BE_SCALED, [0.9921875, 0.0, 0.0, 0.0], [-0.2, 0.1, 0.3, 0.0], [0.3, 1.0, -0.2, 0.4], 5000),
        (PO, [0.9, 0.1], [-0.3, 0.2], [0.5, -1.0], 3000),
        (SP, [2.0, -0.5], [-0.4, 0.3], [1.0, 0.7], 1000),
        (EU, [1.0, 2.0], [-3.0, 0.5], [0.2, -0.6], 1000),
    ], ids=["bergman-ball-2-scaled", "poincare", "sphere", "euclid"])
    def test_matches_the_per_sample_loop(self, m, x, y, w, min_samples):
        xs, ts = _closed_samples(m, x, y)
        assert len(ts) - 1 >= min_samples
        want = _transport_one_point_at_a_time(m, xs, ts, w)
        got = rm._transport_along_samples(m, xs, ts, w)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_christoffel_is_called_once_per_block_of_samples(self, monkeypatch):
        calls = []
        original = rm.christoffel

        def counted(m, x):
            calls.append(np.shape(x))
            return original(m, x)

        monkeypatch.setattr(rm, "christoffel", counted)
        ts = np.linspace(0.0, 1.0, 10_001)
        xs = 0.8 * np.stack((np.cos(ts), np.sin(ts), ts - 0.5, 0.1 * ts), axis=-1) / 1.5
        rm._transport_along_samples(BE, xs, ts, [1.0, 0.0, 0.0, 0.0])
        assert len(calls) <= 2 * math.ceil(10_000 / rm._TRANSPORT_BLOCK)
        assert len(calls) <= 200     # not 2 per sample: at least 100 points a call
        assert sum(shape[0] for shape in calls) == 2 * 10_000


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
    """The Jacobi loop with its kappa probe; returns (J, W, kappa_measured)."""
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


def _reference_endpoint_and_jacobian(m, x, X, n_steps):
    n = m.dim
    h = 1.0 / n_steps
    pos, vel = x.copy(), X.copy()
    dxdX = np.zeros((n, n))
    dvdX = np.eye(n)

    def rhs(pos, vel, dx, dv):
        cd = rm.christoffel_curvature(m, pos)
        acc = -np.einsum("kij,i,j->k", cd.gamma, vel, vel)
        dacc = (-np.einsum("akij,i,j,am->km", cd.dgamma, vel, vel, dx)
                - 2.0 * np.einsum("kij,i,jm->km", cd.gamma, vel, dv))
        return vel, acc, dv, dacc

    for _ in range(n_steps):
        k1 = rhs(pos, vel, dxdX, dvdX)
        k2 = rhs(pos + 0.5 * h * k1[0], vel + 0.5 * h * k1[1], dxdX + 0.5 * h * k1[2], dvdX + 0.5 * h * k1[3])
        k3 = rhs(pos + 0.5 * h * k2[0], vel + 0.5 * h * k2[1], dxdX + 0.5 * h * k2[2], dvdX + 0.5 * h * k2[3])
        k4 = rhs(pos + h * k3[0], vel + h * k3[1], dxdX + h * k3[2], dvdX + h * k3[3])
        pos = pos + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        vel = vel + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        dxdX = dxdX + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        dvdX = dvdX + h / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return pos, dxdX


_FLOW_STARTS = [
    (EU, [0.2, -0.1], [1.0, 0.4], [0.8, -0.1]),
    (PO, [0.3, -0.2], [0.4, 0.7], [0.1, 0.6]),
    (SP, [1.2, 0.4], [-0.3, 1.0], [-0.9, 0.2]),
    (BE, [0.1, -0.05, 0.2, 0.0], [1.0, 0.3, -0.2, 0.5], [-0.3, 0.2, 0.1, 0.4]),
]
_FLOW_IDS = [m.name for m, *_ in _FLOW_STARTS]


class TestOneIntegrator:
    """Every flow on ``_rk4`` gives the hand-written loops' floats bit for bit."""

    @pytest.mark.parametrize("m, x, v, y", _FLOW_STARTS, ids=_FLOW_IDS)
    def test_geodesic_and_transport(self, m, x, v, y):
        start = unit_at(m, x, v)
        path = rm.geodesic_flow(m, start, 1.3, step=1.3 / 60)
        xs, vs = _reference_geodesic(m, start.x, start.vec, 1.3, 1.3 / 60)
        assert np.array_equal(path.xs, xs) and np.array_equal(path.vs, vs)
        w = rm.parallel_transport(m, path, y)
        assert np.array_equal(w, _reference_transport(m, xs, vs, path.step, y))

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("m, x, v, y", _FLOW_STARTS, ids=_FLOW_IDS)
    def test_jacobi(self, m, x, v, y, batch):
        start = unit_at(m, x, v)
        J0, W0 = np.random.default_rng(batch).standard_normal((2, batch, m.dim))
        rep = rm.jacobi_flow(m, start, 1.0, J0, W0, step=1.0 / 40)
        Js, Ws, kappa = _reference_jacobi(m, start.x, start.vec, 1.0, J0, W0, 1.0 / 40)
        assert np.array_equal(rep.J, Js) and np.array_equal(rep.W, Ws)
        assert rep.kappa_measured == kappa

    @pytest.mark.parametrize("m, x, v, y", _FLOW_STARTS, ids=_FLOW_IDS)
    def test_exp_log(self, m, x, v, y, monkeypatch):
        x, y = 0.5 * np.asarray(x, float), 0.5 * np.asarray(y, float)
        got = rm.exp_log(m, x, y)
        monkeypatch.setattr(rm, "_endpoint_and_jacobian", _reference_endpoint_and_jacobian)
        want = rm.exp_log(m, x, y)
        assert np.array_equal(got.vec, want.vec)


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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in g(v, v)
    @pytest.mark.parametrize("vec", [[math.nan, 0.0], [math.inf, 1.0]])
    def test_norm_and_tangent_distances(self, vec):
        with pytest.raises(ConfigInvalid):
            PO.norm([0.1, 0.0], vec)
        X = rm.TangentPoint.of([0.1, 0.0], vec)
        Y = rm.TangentPoint.of([-0.2, 0.3], [0.5, 0.5])
        with pytest.raises(ConfigInvalid):
            rm.tangent_distances(PO, X, Y, mode="TM")
