"""End-to-end rigidity pipelines with machine verdicts.

``convex_pipeline`` (from :mod:`rigidlab.schwarz`, where the disk entry
``disk_rigidity_pipeline`` also lives) runs the invariant-distance cascade for
holomorphic self maps of a convex domain: distance growth toward a boundary
point, the displacement bound from the error modulus, certified
invariant-ball radii, and the composite quantitative-identity term.

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

from .cgeo import ball_involution
from .domain import Cone, Domain, as_point, ball, c2r, cone_certificate, disk, finite_point, r2c, sample_ball
from .errors import (
    ConeUncertified,
    ConfigInvalid,
    NotIsometry,
    PropertyBGFail,
    SuiteSoundnessViolation,
)
from .kahler import KahlerField, bergman_kahler, poincare_kahler, property_bg_estimate, rigidity_threshold
from .report import FORCES_IDENTITY, PipelineReport
from .riemann import MetricField, TangentPoint, scale_metric, tangent_distances
from .schwarz import (
    IDENTIFICATION_THRESHOLD,
    HoloMap,
    certify_self_map,
    convex_pipeline,
    disk_rigidity_pipeline,
    disk_zoo,
    fit_decay_exponent,
    geometric_schedule,
    identity_map,
    interior_displacement,
    rotation,
    ball_automorphism,
    ball_coordinate_contact,
    unitary_map,
)

SOUNDNESS_DISPLACEMENT = 1e-4
SUITE_DISPLACEMENT_SAMPLES = 400
EPS_PRIME = 0.05            # the strictly positive epsilon in the spread exponents
ISOMETRY_TOL = 1e-6
CALIBRATION_PREFIX = 3      # rows used to fit the existential constants


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
                    schedule=None, z0=None) -> PipelineReport:
    """Geodesic-spread cascade for an isometry of an invariant Kahler metric.

    The metric is rescaled so the measured curvature bound is 1 (the
    threshold quantity ``sqrt(kappa) A / sin(theta)`` is invariant under this
    normalization).  Steps follow the chain: cone-path distance bound,
    horizon bound, Euclidean exit time, displacement along the geodesic,
    initial-condition bound on the unit tangent bundle, spread product.
    """
    xi0 = finite_point(xi0, dom.dimension, "xi0")
    z0 = dom.center() if z0 is None else finite_point(z0, dom.dimension, "z0")
    if not dom.contains(z0):
        raise ConfigInvalid(f"z0 must lie inside the domain, got {z0}")
    cert = cone_certificate(dom, cone)
    if not cert.ok:
        raise ConeUncertified(f"the cone's far cap leaves the domain (margin {cert.margin:.3e})")
    schedule = 0.5 ** np.arange(2, 10, dtype=float) if schedule is None else np.asarray(schedule, dtype=float)
    if schedule[0] * 1.0001 > cone.length:
        raise ConeUncertified("schedule exceeds the certified cone length")

    v = as_point(cone.direction, dom.dimension)
    v = v / np.linalg.norm(c2r(v))

    bg = property_bg_estimate(k, dom)
    if not (bg.passed and bg.complete):
        raise PropertyBGFail(f"bounded geometry of a complete metric fails: {bg}")

    # normalize the measured curvature bound to 1
    kappa0 = max(bg.kappa_est, 1e-12)
    metric = scale_metric(k.metric, kappa0) if abs(kappa0 - 1.0) > 1e-12 else k.metric
    a_eff = bg.a_est * math.sqrt(kappa0)
    A_eff = bg.A_est * math.sqrt(kappa0)
    kappa = 1.0

    d = k.complex_dim
    sin_t = math.sin(cone.aperture)
    L = rigidity_threshold(d, 1.0, A_eff, cone.aperture, positive_injectivity=False) + 0.5

    action = _chart_map(phi)
    z0r = c2r(z0)
    iso_pts = [c2r(z) for z in sample_ball(dom, dom.center(), 0.8, 16, np.random.default_rng(41))]
    iso_samples = list(zip(iso_pts[0::2], iso_pts[1::2]))
    iso_defect = _check_isometry(metric, action, iso_samples, ISOMETRY_TOL * math.sqrt(kappa0) * 2)

    columns = ["n", "r_n", "d_pn_p0", "d_pn_p0_bound", "T_n", "T_n_bound",
               "tau_n", "tau_bound", "geo_disp_sup", "geo_disp_bound",
               "init_cond", "init_cond_bound", "spread_product", "d_z0_phi_z0"]
    rep = PipelineReport(name=f"biholo[{dom.kind},{phi.name},{k.name}]", columns=columns)
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
        d_pn_p0_bound = (1.0 + EPS_PRIME) * A_eff / sin_t * math.log(r0 / r_n) if r_n < r0 else 0.0
        T_n = metric.closed_dist(z0r, pnr)
        T_bound = d_z0_p0 + d_pn_p0_bound

        T_geo, v0, sampler = metric.closed_geodesic(pnr, z0r)
        tau_n = _euclidean_exit_time(sampler, pnr, sin_t * r_n / 4.0, T_geo)
        tau_bound = sin_t * a_eff / (4.0 * (1.0 + EPS_PRIME)) * r_n

        ts = np.linspace(0.0, tau_n, 9)
        disp = max(metric.closed_dist(sampler(t), action(sampler(t))) for t in ts)

        init = _initial_condition_distance(metric, action, pnr, z0r, v0)

        product = math.exp(0.5 * (kappa + EPS_PRIME + 1.0) * T_n) * init
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
    rep.decide("spread_product", IDENTIFICATION_THRESHOLD, consistent=decay_ok)
    rep.notes.append(f"decay_fit_consistent={decay_ok}")
    return rep


def _euclidean_exit_time(sampler, start: np.ndarray, radius: float, horizon: float) -> float:
    """First time the geodesic leaves the Euclidean ball around its start."""
    if np.linalg.norm(sampler(horizon) - start) <= radius:
        return horizon
    # bracket by one stacked scan, then bisect
    ts = np.linspace(0.0, horizon, 64)
    out = np.flatnonzero(np.linalg.norm(sampler(ts[1:]) - start, axis=1) > radius)
    lo, hi = (ts[out[0]], ts[out[0] + 1]) if len(out) else (ts[-1], horizon)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(sampler(mid) - start) > radius:
            hi = mid
        else:
            lo = mid
    return lo


def _image_tangent(metric: MetricField, action, pnr, z0r) -> TangentPoint:
    """The unit initial vector of the geodesic ``phi(p_n) -> phi(z0)``: an
    isometry carries the geodesic ``p_n -> z0`` onto it, so this is the image
    of that geodesic's initial vector, with no derivative of ``phi``."""
    q0 = action(pnr)
    _, qdot, _ = metric.closed_geodesic(q0, action(z0r))
    return TangentPoint(q0, metric.unit(q0, qdot))


def _initial_condition_distance(metric: MetricField, action, pnr, z0r, v0) -> float:
    """Upper bound for the unit-tangent distance between the initial vector
    ``v0`` of the geodesic ``p_n -> z0`` and its image under the isometry."""
    X = TangentPoint(np.asarray(pnr, float), metric.unit(pnr, v0))
    Y = _image_tangent(metric, action, pnr, z0r)
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


def near_identity_automorphism(d: int = 2) -> HoloMap:
    """Composition of two ball involutions at nearby base points: a genuine
    automorphism at distance ~1e-3 from the identity."""
    offset = 1e-3
    a = np.zeros(d, dtype=complex)
    a[0] = 2 * offset
    b = np.zeros(d, dtype=complex)
    b[0] = offset
    phi_a, phi_b = ball_involution(a), ball_involution(b)
    return HoloMap(lambda z: phi_a(phi_b(z)), d, f"near_id_automorphism({offset:g})")


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
    for f in maps:
        certify_self_map(f, ball(d))
    return [f for f in maps if f._certification.passed]


def counterexample_suite() -> SuiteSummary:
    """Run the pipelines over the zoo and enforce verdict soundness.

    Raises :class:`SuiteSoundnessViolation` if any map whose interior
    displacement exceeds the soundness threshold is ever identified.
    """
    summary = SuiteSummary()

    for f in disk_zoo():
        disp = interior_displacement(f, samples=SUITE_DISPLACEMENT_SAMPLES)
        rep = disk_rigidity_pipeline(f)
        _record(summary, "disk", f, disp, rep.verdict)

    b2 = ball(2)
    for f in ball_zoo(2):
        disp = interior_displacement(f, b2, samples=SUITE_DISPLACEMENT_SAMPLES)
        rep = convex_pipeline(b2, f, xi0=np.array([1.0, 0.0]),
                              schedule=geometric_schedule(3, 11))
        _record(summary, "convex-ball", f, disp, rep.verdict)

    dsk = disk()
    cone_d = Cone(apex=np.array([1.0 + 0j]), direction=np.array([-1.0 + 0j]),
                  aperture=math.pi / 3, length=0.5)
    for f in (identity_map(1), rotation(1e-3)):
        disp = interior_displacement(f, samples=SUITE_DISPLACEMENT_SAMPLES)
        rep = biholo_pipeline(dsk, f, poincare_kahler(), xi0=[1.0], cone=cone_d,
                              schedule=0.5 ** np.arange(2, 8, dtype=float))
        _record(summary, "biholo-disk", f, disp, rep.verdict)

    cone_b = Cone(apex=np.array([1.0, 0.0], dtype=complex),
                  direction=np.array([-1.0, 0.0], dtype=complex),
                  aperture=math.pi / 3, length=0.5)
    for f in (identity_map(2), ball_automorphism(np.array([1e-3, 0.0]))):
        disp = interior_displacement(f, b2, samples=SUITE_DISPLACEMENT_SAMPLES)
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
