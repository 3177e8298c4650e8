"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else; every expected value is either
a closed form computed in the test or a property of the run itself.
"""

import math
import time

import numpy as np
import pytest

from rigidlab import domain as dm, kahler as kh, kobayashi as kb
from rigidlab import riemann as rm
from rigidlab import rigidity as rg
from rigidlab import schwarz as sw
from rigidlab.report import FORCES_IDENTITY, INCONCLUSIVE

DISK = dm.disk()
BALL2 = dm.ball(2)
ELL12 = dm.ellipsoid((1, 2))


def _report(num: int, label: str, t0: float):
    print(f"[PASS] criterion {num:2d}: {label} ({time.time() - t0:.1f}s)")


def _unit_pair_samples(m, rng, n_pairs):
    """Seeded unit-tangent pairs: same-base angular perturbations plus a few
    base offsets, all inside a safe chart region."""
    pairs = []
    while len(pairs) < n_pairs:
        u = rng.standard_normal(m.dim)
        x = 0.3 * rng.uniform() * u / np.linalg.norm(u)
        v = rng.standard_normal(m.dim)
        v1 = m.unit(x, v)
        if rng.uniform() < 0.8:
            w = rng.standard_normal(m.dim)
            w = w - (w @ v1) * v1 / float(v1 @ v1)
            if np.linalg.norm(w) < 1e-9:
                continue
            th = rng.uniform(1e-3, 5e-2)
            v2 = m.unit(x, math.cos(th) * v1 + math.sin(th) * w / np.linalg.norm(w))
            y = x
        else:
            y = x + 1e-3 * rng.standard_normal(m.dim)
            v2 = m.unit(y, v)
        pairs.append((rm.TangentPoint.of(x, v1), rm.TangentPoint.of(y, v2)))
    return pairs


ALL_MODELS = None


def _measured_curvature_bound(m, points) -> float:
    """Max |sectional| over sampled points: the coordinate 2-planes and four
    seeded random ones per point."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for x in points:
        cd = rm.christoffel_curvature(m, x)
        n = m.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        vecs = [(np.eye(n)[i], np.eye(n)[j]) for i, j in pairs]
        for _ in range(4):
            a, b = rng.standard_normal((2, n))
            if abs(np.linalg.det(np.stack([a, b])[:, :2])) > 1e-8 or n > 2:
                vecs.append((a, b))
        for X, Y in vecs:
            try:
                worst = max(worst, abs(cd.sectional(X, Y)))
            except ValueError:
                continue
    return worst


def models():
    global ALL_MODELS
    if ALL_MODELS is None:
        ALL_MODELS = (rm.euclidean(2), rm.poincare_disk(),
                      rm.sphere_stereographic(), rm.bergman_ball(2))
    return ALL_MODELS


def test_criterion_1_disk_distance_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked_tight = 0
    for i in range(1000):
        z, w = (np.array([0.999 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())])
                for _ in range(2))
        iv = kb.dist_bounds(DISK, z, w)
        exact = kb.model_dist(DISK, z, w)
        assert iv.contains(exact, slack=1e-9)
        if min(1 - abs(z[0]), 1 - abs(w[0])) >= 0.05:
            assert iv.width <= 0.2
            checked_tight += 1
        if i % 5 == 0:
            # the generic estimator must bracket the closed form as well
            giv = kb.dist_bounds(DISK, z, w, tighten_with_model=False)
            assert giv.contains(exact, slack=1e-9)
    assert checked_tight > 100
    elapsed = time.time() - t0
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(1, "disk distance intervals contain the closed form (10^3 pairs)", t0)


def test_criterion_2_cs_suite():
    t0 = time.time()
    zoo = sw.disk_zoo()
    rng = np.random.default_rng(202)
    violations = 0
    count = 0
    while count < 500:
        f = zoo[rng.integers(len(zoo))]
        a, b, z = (0.93 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                   for _ in range(3))
        if kb.disk_distance(a, b) < 1e-3:
            continue
        count += 1
        if not sw.cs_bound_check(f, a, b, z).passed:
            violations += 1
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(2, "two-anchor displacement bound: 500 zoo tuples, zero violations", t0)


def test_criterion_3_distance_growth():
    t0 = time.time()
    rs = 0.5 ** np.arange(3, 15, dtype=float)
    for dom in (DISK, BALL2):
        e1 = np.zeros(dom.dimension, dtype=complex)
        e1[0] = 1.0
        uppers = [kb.dist_bounds(dom, 0 * e1, (1 - r) * e1).upper for r in rs]
        residuals = np.array([u - 0.5 * math.log(1.0 / r) for u, r in zip(uppers, rs)])
        c0 = residuals.max()
        for u, r in zip(uppers, rs):
            assert u <= c0 + 0.5 * math.log(1.0 / r) + 1e-12
        # the fitted constant is meaningful only if the 1/2 rate is right
        slope = np.polyfit(np.log(1.0 / rs), residuals, 1)[0]
        assert abs(slope) < 0.02, f"{dom.kind}: residual slope {slope:.4f}"
    _report(3, "K(z0, p_n) <= C0 + 0.5 log(1/r_n) on disk and ball, n = 3..14", t0)


def test_criterion_4_invariant_ball_radii():
    t0 = time.time()
    rs = 0.5 ** np.arange(3, 15, dtype=float)
    for dom in (DISK, BALL2):
        e1 = np.zeros(dom.dimension, dtype=complex)
        e1[0] = 1.0
        eps = [kb.kob_ball_inclusion(dom, (1 - r) * e1, r / 4.0) for r in rs]
        slope = np.polyfit(np.log(rs), np.log(eps), 1)[0]
        assert abs(slope - 1.0) <= 0.1
        a = min(e / r for e, r in zip(eps, rs))
        assert a >= 0.25 - 1e-12  # eps_n >= a r_n with a = 1/(4R), R = 1
    cal = kb.calibrate_alpha0(ELL12, [1, 0], ell=4, radii=np.geomspace(1e-3, 0.1, 6))
    eps = [kb.kob_ball_inclusion(ELL12, np.array([1 - r, 0]), r / 4.0, cal) for r in rs]
    slope = np.polyfit(np.log(rs), np.log(eps), 1)[0]
    assert abs(slope - 0.75) <= 0.1
    assert min(e / r**0.75 for e, r in zip(eps, rs)) > 0
    _report(4, "eps_n >= a r_n (disk/ball) and a r_n^{3/4} (ellipsoid, type 4)", t0)


def test_criterion_5_geodesic_engine():
    t0 = time.time()
    inits = {
        "euclid": ([0.0, 0.0], [1.0, 0.0]),
        "poincare": ([0.0, 0.0], [0.5, 0.0]),
        "sphere": ([1.0, 0.0], [0.0, 1.0]),   # the equator stays in the chart
        "bergman-ball-2": ([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
    }
    for m in models():
        x0, v0 = inits[m.name]
        x0 = np.asarray(x0, float)
        path = rm.geodesic_flow(m, rm.TangentPoint.of(x0, m.unit(x0, np.asarray(v0, float))),
                                10.0, step=1e-3)
        assert path.speed_drift < 1e-6, f"{m.name}: drift {path.speed_drift:.2e}"
    hyp = rm.geodesic_flow(rm.poincare_disk(), rm.TangentPoint.of([0, 0], [0.5, 0]),
                           1.0, step=1e-3)
    assert abs(hyp.xs[-1][0] - math.tanh(0.5)) < 1e-5
    _report(5, "speed drift < 1e-6 over T=10 on all models; tanh endpoint to 1e-5", t0)


def test_criterion_6_jacobi_growth():
    t0 = time.time()
    rng = np.random.default_rng(606)
    horizons = {"euclid": 3.0, "poincare": 2.0, "sphere": 2.0, "bergman-ball-2": 1.5}
    total = 0
    for m in models():
        for _ in range(5):
            u = rng.standard_normal(m.dim)
            x = 0.25 * rng.uniform() * u / np.linalg.norm(u)
            v = m.unit(x, rng.standard_normal(m.dim))
            J0 = rng.standard_normal((10, m.dim))
            W0 = rng.standard_normal((10, m.dim))
            rep = rm.jacobi_flow(m, rm.TangentPoint.of(x, v), horizons[m.name], J0, W0,
                                 step=2e-3)
            assert rep.growth_ok, f"{m.name}: growth bound violated"
            total += 10
    assert total == 200
    # hyperbolic margin: the integrated |J(1)| = sinh(1) sits under e^{(k+1)/2}
    rep = rm.jacobi_flow(rm.poincare_disk(), rm.TangentPoint.of([0, 0], [0.5, 0]), 1.0,
                         J0=[[0, 0]], W0=[[0, 0.5]], step=1e-3)
    path = rm.geodesic_flow(rm.poincare_disk(), rm.TangentPoint.of([0, 0], [0.5, 0]),
                            1.0, step=1e-3)
    sinh1 = rm.poincare_disk().norm(path.xs[-1], rep.J[-1][0])
    assert sinh1 == pytest.approx(math.sinh(1.0), abs=1e-6)
    assert sinh1 <= math.exp(0.5 * (rep.kappa_measured + 1.0))
    _report(6, "Jacobi growth bound on 200 fields; sinh(1) <= e margin reproduced", t0)


def test_criterion_7_geodesic_spread():
    t0 = time.time()
    rng = np.random.default_rng(707)
    kappas = {}
    for m in models():
        pts = [0.3 * rng.uniform() * (u := rng.standard_normal(m.dim)) / np.linalg.norm(u)
               for _ in range(6)]
        kappas[m.name] = _measured_curvature_bound(m, pts) + 1e-9

    for m in models():
        kap = kappas[m.name]
        pairs = _unit_pair_samples(m, rng, 100)
        for X, Y in pairs:
            d0 = rm.tangent_distances(m, X, Y, "T1M", step=1e-2).interval.upper
            ray1 = m.closed_ray(X.x, X.vec)
            ray2 = m.closed_ray(Y.x, Y.vec)
            for t in np.linspace(0.0, 3.0, 7):
                lhs = m.closed_dist(ray1(t), ray2(t))
                rhs = math.exp(0.5 * (kap + 1.0) * t) * d0
                assert lhs <= rhs + 1e-8, f"{m.name}: spread violated at t={t}"

    # tie the closed-form rays to the shooting engine on a subset: the left
    # side is the length of the shooting exp_log vector between the samples
    for m in models():
        for X, Y in _unit_pair_samples(m, rng, 3):
            rows = rm.spread_check(m, X, Y, kappas[m.name], horizon=2.0, grid=4)
            assert all(r.ok for r in rows)
            ray1 = m.closed_ray(X.x, X.vec)
            ray2 = m.closed_ray(Y.x, Y.vec)
            for r, t in zip(rows, np.linspace(0, 2, 5)):
                tp = rm.exp_log(m, ray1(t), ray2(t))
                lhs_shoot = m.norm(tp.x, tp.vec)
                assert lhs_shoot <= r.rhs + 1e-8
                lhs_closed = m.closed_dist(ray1(t), ray2(t))
                assert abs(lhs_shoot - lhs_closed) < 1e-5

    # flat-plane case checked symbolically on a grid
    import sympy as sp
    phi_s, t_s = sp.symbols("phi t", positive=True)
    expr = sp.exp(t_s / 2) * phi_s - 2 * t_s * sp.sin(phi_s / 2)
    for phi in [sp.Rational(k, 12) * sp.pi for k in range(1, 13)]:
        for t in [sp.Rational(k, 2) for k in range(0, 9)]:
            assert sp.N(expr.subs({phi_s: phi, t_s: t}), 30) >= 0
    _report(7, "spread inequality: 100 pairs/model on [0,3]; flat case symbolic", t0)


def test_criterion_8_backward_estimate():
    t0 = time.time()
    rng = np.random.default_rng(808)
    for m in models():
        pairs = _unit_pair_samples(m, rng, 50)
        kap = abs(m.kappa_model) if m.kappa_model else 2.0
        ratios, ratios_half = [], []
        for X, Y in pairs:
            ratios.append(rm.backward_estimate(m, X, Y, 0.1, kappa=max(kap, 1e-6)))
            ratios_half.append(rm.backward_estimate(m, X, Y, 0.05, kappa=max(kap, 1e-6)))
        A1, A2 = max(ratios), max(ratios_half)
        assert math.isfinite(A1) and A1 > 0
        assert abs(A2 - A1) / A1 <= 0.10, f"{m.name}: A={A1:.4f} vs {A2:.4f}"

    rng2 = np.random.default_rng(809)
    for _ in range(10**4):
        X = rng2.standard_normal(3)
        Y = rng2.standard_normal(3)
        eps = rng2.uniform(1e-4, 1.999)
        _, _, ok = rm.segment_max_lower_bound(X, Y, eps)
        assert ok
    _report(8, "backward ratio stable under eps halving; 10^4 segment sweeps", t0)


def test_criterion_9_unit_tangent_vs_tangent_flat():
    t0 = time.time()
    for phi in np.linspace(1e-6, math.pi, 1000):
        assert phi <= (math.pi + 1.0) * 2.0 * math.sin(phi / 2.0) + 1e-12
    # engine cross-check at a few angles
    E = rm.euclidean(2)
    for phi in (0.25, 1.2, 3.0):
        X = rm.TangentPoint.of([0, 0], [1, 0])
        Y = rm.TangentPoint.of([0, 0], [math.cos(phi), math.sin(phi)])
        t1 = rm.tangent_distances(E, X, Y, "T1M").interval.upper
        tm = rm.tangent_distances(E, X, Y, "TM").interval.upper
        assert t1 <= (math.pi + 1.0) * tm + 1e-12
    _report(9, "fiber angle <= (pi+1) chord on a 10^3 grid of (0, pi]", t0)


def test_criterion_10_thresholds():
    t0 = time.time()
    assert kh.rigidity_threshold(1, 1, 1, math.pi / 2, False) == 7.0
    assert kh.rigidity_threshold(1, 1, 1, math.pi / 2, True) == 3.0
    rng = np.random.default_rng(1010)
    for _ in range(100):
        lam = rng.uniform(1e-3, 1e3)
        k, A, th = rng.uniform(0.1, 4), rng.uniform(0.1, 4), rng.uniform(0.05, math.pi / 2)
        for d in (1, 3):
            for flag in (False, True):
                a = kh.rigidity_threshold(d, lam * k, A / math.sqrt(lam), th, flag)
                b = kh.rigidity_threshold(d, k, A, th, flag)
                assert a == pytest.approx(b, rel=1e-12)
    _report(10, "thresholds 7 and 3 exact; scaling invariance over 100 lambdas", t0)


def test_criterion_11_volume_ratio_bound():
    t0 = time.time()
    assert kh.cgt_inj_lower(1e15, 1.0, 0.5, 1) == pytest.approx(0.25, abs=1e-9)
    vm = kh.model_volume(2, -1.0, 1.0)
    assert kh.cgt_inj_lower(vm, 1.0, 0.5, 1) == pytest.approx(0.125, rel=1e-14)
    assert kh.model_volume(2, -1.0, 1.0) == pytest.approx(
        2 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-8)
    _report(11, "volume-ratio limits r/2 and r/4; hyperbolic area to 1e-8", t0)


def test_criterion_12_pipeline_soundness():
    t0 = time.time()
    summary = rg.counterexample_suite()   # raises on an unsound verdict
    # every zoo map reached its verdict: no zoo drops a map
    assert [e.pipeline for e in summary.entries] == (["disk"] * 13 + ["convex-ball"] * 5
                                                     + ["biholo-disk"] * 2 + ["biholo-ball"] * 2)

    identified = {(e.pipeline, e.map_name): e for e in summary.entries}
    # identity is identified on every model/pipeline
    for pipeline in ("disk", "convex-ball", "biholo-disk", "biholo-ball"):
        assert identified[(pipeline, "id")].verdict == FORCES_IDENTITY
    # the cubic extremal stays inconclusive (its contact order is optimal)
    assert identified[("disk", "bk_extremal")].verdict == INCONCLUSIVE
    # no visible map was ever identified
    for e in summary.entries:
        if e.displacement > rg.SOUNDNESS_DISPLACEMENT:
            assert e.verdict != FORCES_IDENTITY
    elapsed = time.time() - t0
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"
    _report(12, "zoo soundness: no visible map identified; extremal inconclusive", t0)
