"""End-to-end rigidity pipelines with machine verdicts.

``convex_pipeline`` runs the invariant-distance cascade for holomorphic self
maps of a convex domain: distance growth toward a boundary point, the
displacement bound from the error modulus, certified invariant-ball radii,
and the composite quantitative-identity term.

``biholo_pipeline`` runs the Riemannian cascade for isometries of an
invariant Kahler metric: cone-path distance bounds, geodesic horizons,
displacement along geodesics, initial-condition bounds on the unit tangent
bundle, and the exponential spread product.

Both emit a :class:`~rigidlab.report.PipelineReport` whose rows are
inequality checks; its one verdict rule (``PipelineReport.decide``) gives
``forces-identity`` only when every check passes and the decisive term sinks
below the identification threshold.  ``counterexample_suite`` replays both
pipelines over the map zoo and aborts on any unsound identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Cone, Domain, as_point, boundary_data, c2r, cone_certificate, disk, r2c
from .errors import (
    BoundaryDataUnavailable,
    ConeUncertified,
    NotIsometry,
    PropertyBGFail,
    SuiteSoundnessViolation,
)
from .kahler import KahlerField, property_bg_estimate, rigidity_threshold
from .kobayashi import (
    DISK_CALIBRATION,
    FiniteTypeCalibration,
    dist_bounds,
    kob_ball_inclusion,
)
from .report import FORCES_IDENTITY, PipelineReport
from .riemann import MetricField, TangentPoint, scale_metric, tangent_distances
from .schwarz import (
    HoloMap,
    disk_rigidity_pipeline,
    disk_zoo,
    error_modulus,
    fit_decay_exponent,
    geometric_schedule,
    identity_map,
    interior_displacement,
    require_self_map,
    ball_automorphism,
    ball_coordinate_contact,
    unitary_map,
)

IDENTIFICATION_THRESHOLD = 1e-6
SOUNDNESS_DISPLACEMENT = 1e-4
CONVEX_LEMMA_C1 = 2.0
EPS_PRIME = 0.05            # the strictly positive epsilon in the spread exponents
ISOMETRY_TOL = 1e-6
CALIBRATION_PREFIX = 3      # rows used to fit the existential constants


# ---------------------------------------------------------------------------
# convex pipeline
# ---------------------------------------------------------------------------

def _ball_samples(dom: Domain, center: np.ndarray, radius: float, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    d = dom.dimension
    pts = [center]
    trials = 0
    while len(pts) < count and trials < 50 * count:
        trials += 1
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        p = center + radius * rng.uniform() ** (1.0 / (2 * d)) * w / np.linalg.norm(w)
        if dom.contains(p):
            pts.append(p)
    return pts


def convex_pipeline(dom: Domain, f: HoloMap, xi0, schedule=None, z0=None,
                    calibration: FiniteTypeCalibration | None = None,
                    threshold: float = IDENTIFICATION_THRESHOLD,
                    ball_samples: int = 48) -> PipelineReport:
    """Quantity cascade toward a boundary point of a convex domain.

    Per step ``n``: the distance estimate ``K(z0, p_n) <= C0 + 0.5 log(1/r_n)``
    (C0 fitted as the worst residual), the displacement bound
    ``(2/r_n) E(5 r_n/4)`` over the Euclidean ball, the certified invariant
    radius ``eps_n``, and the composite term ``e^{4K}/eps_n * sup K(w, f(w))``.
    """
    require_self_map(f, dom)
    try:
        bd = boundary_data(dom, xi0, tol=1e-9)
    except Exception as exc:
        raise BoundaryDataUnavailable(str(exc)) from exc
    schedule = geometric_schedule() if schedule is None else np.asarray(schedule, dtype=float)
    z0 = dom.center() if z0 is None else as_point(z0, dom.dimension)
    if calibration is None and dom.kind == "disk":
        calibration = DISK_CALIBRATION

    emod = error_modulus(f, bd.point, 1.25 * schedule[::-1], dom=dom)

    columns = ["n", "r_n", "K_z0_pn", "K_z0_pn_bound", "E_5r4", "disp_bound",
               "eps_n", "disp_sup", "e4K", "e4K_bound", "composite", "in_regime"]
    rep = PipelineReport(name=f"convex[{dom.kind},{f.name}]", columns=columns)
    rep.provenance = {
        "K_z0_pn": "kobayashi.dist_bounds.upper",
        "eps_n": "kobayashi.kob_ball_inclusion",
        "E_5r4": "schwarz.error_modulus",
        "disp_sup": "kobayashi.dist_bounds.upper over Euclidean-ball samples",
    }

    k_uppers = []
    for r_n in schedule:
        p_n = bd.point + r_n * bd.inward_normal
        k_uppers.append(dist_bounds(dom, z0, p_n).upper)
    residuals = [k - 0.5 * math.log(1.0 / r) for k, r in zip(k_uppers, schedule)]
    c0 = max(residuals)
    a_fit = math.exp(4.0 * c0)

    for i, r_n in enumerate(schedule):
        p_n = bd.point + r_n * bd.inward_normal
        eps_n = kob_ball_inclusion(dom, p_n, r_n / 4.0, calibration)
        e_val = emod.at(1.25 * r_n)
        in_regime = e_val <= r_n / 4.0
        disp_bound = CONVEX_LEMMA_C1 / r_n * e_val

        disp_sup = 0.0
        for w in _ball_samples(dom, p_n, r_n / 4.0, ball_samples, seed=1000 + i):
            fw = f(w)
            if not dom.contains(fw):
                disp_sup = math.inf
                break
            if np.linalg.norm(fw - w) > 0:
                disp_sup = max(disp_sup, dist_bounds(dom, w, fw).upper)

        e4k = math.exp(4.0 * k_uppers[i])
        composite = e4k / eps_n * disp_sup
        rep.rows.append({
            "n": i, "r_n": r_n, "K_z0_pn": k_uppers[i],
            "K_z0_pn_bound": c0 + 0.5 * math.log(1.0 / r_n),
            "E_5r4": e_val, "disp_bound": disp_bound, "eps_n": eps_n,
            "disp_sup": disp_sup, "e4K": e4k, "e4K_bound": a_fit / r_n**2,
            "composite": composite, "in_regime": in_regime,
        })
        rep.add_check(f"K(z0,p_{i}) <= C0 + 0.5 log(1/r_n)",
                      k_uppers[i] <= c0 + 0.5 * math.log(1.0 / r_n) + 1e-12)
        rep.add_check(f"e4K_{i} <= A r_n^-2", e4k <= a_fit / r_n**2 + 1e-9)
        if in_regime and math.isfinite(disp_sup):
            rep.add_check(f"disp_sup_{i} <= (2/r_n) E(5r_n/4)", disp_sup <= disp_bound + 1e-9)

    rep.fitted["C0"] = c0
    rep.fitted["A"] = a_fit
    rep.fitted["residual_slope"] = float(np.polyfit(np.log(1.0 / schedule), residuals, 1)[0])
    rep.fitted["composite_exponent"] = fit_decay_exponent(schedule, rep.column("composite"))
    rep.fitted["eps_exponent"] = fit_decay_exponent(schedule, rep.column("eps_n"), window=len(schedule))

    rep.decide("composite", threshold)
    return rep


# ---------------------------------------------------------------------------
# biholomorphism pipeline
# ---------------------------------------------------------------------------

def _chart_map(phi: HoloMap):
    """The map phi read in the real chart coordinates."""
    def action(x: np.ndarray) -> np.ndarray:
        return c2r(phi(r2c(np.asarray(x, dtype=float))))
    return action


def _check_isometry(metric: MetricField, action, samples, tol: float) -> float:
    worst = 0.0
    for x, y in samples:
        d1 = metric.closed_dist(x, y)
        d2 = metric.closed_dist(action(x), action(y))
        worst = max(worst, abs(d1 - d2))
    if worst > tol:
        raise NotIsometry(f"distance distortion {worst:.2e} exceeds {tol:g}")
    return worst


def biholo_pipeline(dom: Domain, phi: HoloMap, k: KahlerField, xi0, cone: Cone,
                    schedule=None, z0=None, L: float | None = None,
                    eps_prime: float = EPS_PRIME,
                    threshold: float = IDENTIFICATION_THRESHOLD) -> PipelineReport:
    """Geodesic-spread cascade for an isometry of an invariant Kahler metric.

    The metric is rescaled so the measured curvature bound is 1 (the
    threshold quantity ``sqrt(kappa) A / sin(theta)`` is invariant under this
    normalization).  Steps follow the chain: cone-path distance bound,
    horizon bound, Euclidean exit time, displacement along the geodesic,
    initial-condition bound on the unit tangent bundle, spread product.
    """
    cert = cone_certificate(dom, cone, grid=16)
    if not cert.ok:
        raise ConeUncertified("the interior cone condition failed on samples")
    schedule = 0.5 ** np.arange(2, 10, dtype=float) if schedule is None else np.asarray(schedule, dtype=float)
    if schedule[0] * 1.0001 > cone.length:
        raise ConeUncertified("schedule exceeds the certified cone length")

    xi0 = as_point(xi0, dom.dimension)
    v = as_point(cone.direction, dom.dimension)
    v = v / np.linalg.norm(c2r(v))
    ray_points = [xi0 + r * v for r in schedule]

    bg = property_bg_estimate(k, dom, extra_points=ray_points)
    if not bg.passed:
        raise PropertyBGFail(f"bounded-geometry estimate failed: {bg}")

    # normalize the measured curvature bound to 1
    kappa0 = max(bg.kappa_est, 1e-12)
    metric = scale_metric(k.metric, kappa0) if abs(kappa0 - 1.0) > 1e-12 else k.metric
    a_eff = bg.a_est * math.sqrt(kappa0)
    A_eff = bg.A_est * math.sqrt(kappa0)
    kappa = 1.0

    d = k.complex_dim
    sin_t = math.sin(cone.aperture)
    if L is None:
        L = rigidity_threshold(d, 1.0, A_eff, cone.aperture, positive_injectivity=False) + 0.5

    action = _chart_map(phi)
    z0 = (dom.center() if z0 is None else as_point(z0, dom.dimension))
    z0r = c2r(z0)
    rng = np.random.default_rng(41)
    iso_samples = []
    while len(iso_samples) < 8:
        a, b = rng.standard_normal((2, 2 * d)) * 0.4
        if dom.contains(r2c(a)) and dom.contains(r2c(b)):
            iso_samples.append((a, b))
    iso_defect = _check_isometry(metric, action, iso_samples, ISOMETRY_TOL * math.sqrt(kappa0) * 2)

    columns = ["n", "r_n", "d_pn_p0", "d_pn_p0_bound", "T_n", "T_n_bound",
               "tau_n", "tau_bound", "geo_disp_sup", "geo_disp_bound",
               "init_cond", "init_cond_bound", "spread_product", "d_z0_phi_z0"]
    rep = PipelineReport(name=f"biholo[{dom.kind},{phi.name},{k.name}]", columns=columns)
    rep.provenance = {
        "d_pn_p0": "riemann.geodesic_distance",
        "tau_n": "riemann.geodesic_flow exit time",
        "init_cond": "riemann.tangent_distances(T1M).upper",
        "spread_product": "riemann spread bound times init_cond",
    }
    rep.fitted.update({"kappa_est": bg.kappa_est, "A_est": bg.A_est, "a_est": bg.a_est,
                       "A_eff": A_eff, "a_eff": a_eff, "L": L,
                       "threshold_L": rigidity_threshold(d, 1.0, A_eff, cone.aperture),
                       "isometry_defect": iso_defect})

    r0 = schedule[0]
    p0r = c2r(xi0 + r0 * v)
    d_z0_phi = metric.closed_dist(z0r, action(z0r))
    d_z0_p0 = metric.closed_dist(z0r, p0r)

    rows_data = []
    for i, r_n in enumerate(schedule):
        pnr = c2r(xi0 + r_n * v)
        d_pn_p0 = metric.closed_dist(pnr, p0r)
        d_pn_p0_bound = (1.0 + eps_prime) * A_eff / sin_t * math.log(r0 / r_n) if r_n < r0 else 0.0
        T_n = metric.closed_dist(z0r, pnr)
        T_bound = d_z0_p0 + d_pn_p0_bound

        T_geo, v0, sampler = metric.closed_geodesic(pnr, z0r)
        tau_n = _euclidean_exit_time(sampler, pnr, sin_t * r_n / 4.0, T_geo)
        tau_bound = sin_t * a_eff / (4.0 * (1.0 + eps_prime)) * r_n

        ts = np.linspace(0.0, tau_n, 9)
        disp = max(metric.closed_dist(sampler(t), action(sampler(t))) for t in ts)

        init = _initial_condition_distance(metric, sampler, action, pnr, v0)

        product = math.exp(0.5 * (kappa + eps_prime + 1.0) * T_n) * init
        rows_data.append(dict(n=i, r_n=r_n, d_pn_p0=d_pn_p0, d_pn_p0_bound=d_pn_p0_bound,
                              T_n=T_n, T_n_bound=T_bound, tau_n=tau_n, tau_bound=tau_bound,
                              geo_disp_sup=disp, init_cond=init, spread_product=product,
                              d_z0_phi_z0=d_z0_phi))

    # fit the existential constants on the prefix, check on the remainder
    pre = rows_data[:CALIBRATION_PREFIX]
    c1 = max((row["geo_disp_sup"] / row["r_n"] ** (L - 1.0) for row in pre), default=0.0)
    c2 = max((row["init_cond"] / row["r_n"] ** (L - 4 * d - 2.0) for row in pre), default=0.0)
    rep.fitted["C1"] = c1
    rep.fitted["C2"] = c2

    decay_ok = True
    for row in rows_data:
        i = row["n"]
        row["geo_disp_bound"] = c1 * row["r_n"] ** (L - 1.0)
        row["init_cond_bound"] = c2 * row["r_n"] ** (L - 4 * d - 2.0)
        rep.rows.append(row)
        rep.add_check(f"d(p_{i},p_0) <= cone bound", row["d_pn_p0"] <= row["d_pn_p0_bound"] + 1e-9)
        rep.add_check(f"T_{i} <= horizon bound", row["T_n"] <= row["T_n_bound"] + 1e-9)
        rep.add_check(f"tau_{i} >= delta r_n", row["tau_n"] >= row["tau_bound"] - 1e-9)
        rep.add_check(f"d(z0,phi z0) <= spread product {i}",
                      row["d_z0_phi_z0"] <= row["spread_product"] + 1e-9)
        if i >= CALIBRATION_PREFIX:
            if row["geo_disp_sup"] > row["geo_disp_bound"] * (1 + 1e-9) + 1e-12:
                decay_ok = False
            if row["init_cond"] > row["init_cond_bound"] * (1 + 1e-9) + 1e-12:
                decay_ok = False

    rep.fitted["product_exponent"] = fit_decay_exponent(schedule, rep.column("spread_product"))
    rep.decide("spread_product", threshold, consistent=decay_ok)
    rep.notes.append(f"decay_fit_consistent={decay_ok}")
    return rep


def _euclidean_exit_time(sampler, start: np.ndarray, radius: float, horizon: float) -> float:
    """First time the geodesic leaves the Euclidean ball around its start."""
    lo, hi = 0.0, horizon
    if np.linalg.norm(sampler(horizon) - start) <= radius:
        return horizon
    # bracket by scanning, then bisect
    ts = np.linspace(0.0, horizon, 64)
    for t in ts[1:]:
        if np.linalg.norm(sampler(t) - start) > radius:
            hi = t
            break
        lo = t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(sampler(mid) - start) > radius:
            hi = mid
        else:
            lo = mid
    return lo


def _initial_condition_distance(metric: MetricField, sampler, action, pnr, v0) -> float:
    """Upper bound for the unit-tangent distance between the geodesic's
    initial vector and its image under the isometry."""
    h = 1e-6
    q0 = action(pnr)
    qdot = (action(sampler(h)) - action(sampler(-h))) / (2.0 * h)
    n0 = metric.norm(q0, qdot)
    if n0 < 1e-14:
        return 0.0
    qdot = qdot / n0
    X = TangentPoint(np.asarray(pnr, float), metric.unit(pnr, v0))
    Y = TangentPoint(np.asarray(q0, float), qdot)
    if np.allclose(X.x, Y.x, atol=1e-15) and np.allclose(X.vec, Y.vec, atol=1e-12):
        return 0.0
    return tangent_distances(metric, X, Y, mode="T1M").interval.upper


# ---------------------------------------------------------------------------
# counterexample suite
# ---------------------------------------------------------------------------

@dataclass
class SuiteEntry:
    pipeline: str
    map_name: str
    displacement: float
    verdict: str
    indistinguishable: bool


@dataclass
class SuiteSummary:
    entries: list[SuiteEntry] = field(default_factory=list)
    passed: bool = True

    def verdict_of(self, pipeline: str, map_name: str) -> str:
        for e in self.entries:
            if e.pipeline == pipeline and e.map_name == map_name:
                return e.verdict
        raise KeyError((pipeline, map_name))


def near_identity_automorphism(d: int = 2, offset: float = 1e-3) -> HoloMap:
    """Composition of two ball involutions at nearby base points: a genuine
    automorphism at distance ~offset from the identity."""
    from .cgeo import ball_involution

    a = np.zeros(d, dtype=complex)
    a[0] = 2 * offset
    b = np.zeros(d, dtype=complex)
    b[0] = offset
    phi_a, phi_b = ball_involution(a), ball_involution(b)
    f = HoloMap(lambda z: phi_a(phi_b(z)), d, f"near_id_automorphism({offset:g})")
    return f


def ball_zoo(d: int = 2) -> list[HoloMap]:
    theta = 1e-3
    u = np.eye(d, dtype=complex)
    u[0, 0] = np.exp(1j * theta)
    maps = [
        identity_map(d),
        unitary_map(u),
        ball_automorphism(np.array([1e-3] + [0.0] * (d - 1))),
        near_identity_automorphism(d),
        ball_coordinate_contact(1e-9, 4, d),
    ]
    from .domain import ball
    from .schwarz import certify_self_map
    for f in maps:
        certify_self_map(f, ball(d))
    return [f for f in maps if f._certification.passed]


def counterexample_suite(include_biholo: bool = True,
                         displacement_grid: int = 400) -> SuiteSummary:
    """Run the pipelines over the zoo and enforce verdict soundness.

    Raises :class:`SuiteSoundnessViolation` if any map whose interior
    displacement exceeds the soundness threshold is ever identified.
    """
    from .domain import ball

    summary = SuiteSummary()

    for f in disk_zoo():
        disp = interior_displacement(f, samples=displacement_grid)
        rep = disk_rigidity_pipeline(f)
        _record(summary, "disk", f, disp, rep.verdict)

    b2 = ball(2)
    for f in ball_zoo(2):
        disp = interior_displacement(f, b2, samples=displacement_grid)
        rep = convex_pipeline(b2, f, xi0=np.array([1.0, 0.0]),
                              schedule=geometric_schedule(3, 11))
        _record(summary, "convex-ball", f, disp, rep.verdict)

    if include_biholo:
        from .kahler import bergman_kahler, poincare_kahler
        from .schwarz import rotation

        dsk = disk()
        cone_d = Cone(apex=np.array([1.0 + 0j]), direction=np.array([-1.0 + 0j]),
                      aperture=math.pi / 3, length=0.5)
        for f in (identity_map(1), rotation(1e-3)):
            disp = interior_displacement(f, samples=displacement_grid)
            rep = biholo_pipeline(dsk, f, poincare_kahler(), xi0=[1.0], cone=cone_d,
                                  schedule=0.5 ** np.arange(2, 8, dtype=float))
            _record(summary, "biholo-disk", f, disp, rep.verdict)

        cone_b = Cone(apex=np.array([1.0, 0.0], dtype=complex),
                      direction=np.array([-1.0, 0.0], dtype=complex),
                      aperture=math.pi / 3, length=0.5)
        for f in (identity_map(2), ball_automorphism(np.array([1e-3, 0.0]))):
            disp = interior_displacement(f, b2, samples=displacement_grid)
            rep = biholo_pipeline(b2, f, bergman_kahler(2), xi0=[1.0, 0.0], cone=cone_b,
                                  schedule=0.5 ** np.arange(2, 7, dtype=float))
            _record(summary, "biholo-ball", f, disp, rep.verdict)

    return summary


def _record(summary: SuiteSummary, pipeline: str, f: HoloMap, disp: float, verdict: str) -> None:
    entry = SuiteEntry(pipeline=pipeline, map_name=f.name, displacement=disp,
                       verdict=verdict, indistinguishable=bool(disp <= SOUNDNESS_DISPLACEMENT))
    summary.entries.append(entry)
    if verdict == FORCES_IDENTITY and disp > SOUNDNESS_DISPLACEMENT:
        summary.passed = False
        raise SuiteSoundnessViolation(
            f"{pipeline}: {f.name} has displacement {disp:.2e} but was identified")
    # constructed contact families of order >= 4 must be identified or flagged
    if f.contact is not None and f.contact.order >= 4:
        if verdict != FORCES_IDENTITY and not entry.indistinguishable:
            summary.passed = False
            raise SuiteSoundnessViolation(
                f"{pipeline}: order-{f.contact.order} map {f.name} neither identified nor negligible")
