"""Complex geodesics, Gromov products and boundary-extension probes.

Model constructions:

* ball: affine discs cut out by complex lines, which are totally geodesic;
* polydisk: coordinatewise Moebius geodesics when one coordinate realizes
  the max; on the disk, the polydisk of dimension 1, the one coordinate is a
  Moebius automorphism (an exact isometry);
* general convex domains: maximally scaled affine chord discs, returned as
  upper-bound candidates together with a measured isometry defect.

The defect of a candidate is the worst gap between the disk distance of the
parameters and the certified distance interval of the images, so exact
geodesics have defect at machine scale while chord candidates report an
honest figure of merit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import BallDomain, BallTransvection, Domain, Hyperplane, PolydiskDomain, boundary_data, c2r, herm, r2c
from .errors import CoincidentPoints, ConfigInvalid, DegenerateGradient, NoConvergence, NumericDefectTooLarge
from .intervals import DistInterval
from .kobayashi import disk_distance, dist_bounds

DEFECT_SAMPLE_PAIRS = 40
DEFECT_SAMPLE_RADIUS = 0.9
DEFECT_SEED = 5
MODEL_DEFECT_TOL = 1e-10


# ---------------------------------------------------------------------------
# disk and ball automorphisms
# ---------------------------------------------------------------------------

def disk_automorphism(center: complex, phase: complex = 1.0) -> Callable[[complex], complex]:
    """z -> (center + phase * z) / (1 + conj(center) * phase * z)."""

    def mob(zeta: complex) -> complex:
        w = phase * zeta
        return (center + w) / (1.0 + np.conj(center) * w)

    return mob


def ball_involution(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The automorphism ``phi_a = -tau_a^-1`` of the unit ball swapping ``a`` and
    the origin (:class:`~rigidlab.domain.BallTransvection`).

    The returned map takes one point ``(d,)`` or a stack of points ``(N, d)``.
    """
    tau = BallTransvection(a)
    return lambda z: -tau.inverse(np.asarray(z, dtype=complex))


# ---------------------------------------------------------------------------
# complex geodesics
# ---------------------------------------------------------------------------

@dataclass
class ComplexGeodesic:
    """Holomorphic disc ``phi : D -> Omega`` with an isometry certificate."""

    dom: Domain
    func: Callable[[complex], np.ndarray]
    tag: str  # BallAffineSlice | PolydiskMax (the disk among them) | ConvexNumeric
    defect: float = math.nan

    def __call__(self, zeta: complex) -> np.ndarray:
        return self.func(zeta)

    def measure_defect(self, pairs: int = DEFECT_SAMPLE_PAIRS) -> float:
        """Worst containment gap of K_D(a, b) in the image distance interval,
        over ``pairs`` seeded pairs of parameters."""
        rng = np.random.default_rng(DEFECT_SEED)
        worst = 0.0
        for _ in range(pairs):
            a, b = [
                DEFECT_SAMPLE_RADIUS * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                for _ in range(2)
            ]
            if abs(a - b) < 1e-9:
                continue
            iv = dist_bounds(self.dom, self.func(a), self.func(b))
            worst = max(worst, iv.gap_to(disk_distance(a, b)))
        self.defect = worst
        return worst


def complex_geodesic(dom: Domain, z, w) -> ComplexGeodesic:
    """Complex geodesic (or certified candidate) through two points."""
    z = dom.require_inside(z)
    w = dom.require_inside(w)
    if np.allclose(z, w, atol=1e-14, rtol=0):
        raise CoincidentPoints("need two distinct points")

    if isinstance(dom, BallDomain):
        geo = _ball_geodesic(dom, z, w)
    elif isinstance(dom, PolydiskDomain):
        geo = _polydisk_geodesic(dom, z, w)
    else:
        geo = _chord_disc_candidate(dom, z, w)

    geo.measure_defect(pairs=12 if geo.tag == "ConvexNumeric" else DEFECT_SAMPLE_PAIRS)
    if geo.tag != "ConvexNumeric" and geo.defect > MODEL_DEFECT_TOL:
        raise NumericDefectTooLarge(f"defect {geo.defect:.2e} on a model geodesic")
    return geo


def _ball_geodesic(dom, z: np.ndarray, w: np.ndarray) -> ComplexGeodesic:
    u = w - z
    u = u / np.linalg.norm(u)
    off = herm(z, u)
    a = z - off * u
    rho = math.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(a) ** 2))))

    def phi(zeta):
        return a + rho * zeta * u

    return ComplexGeodesic(dom=dom, func=phi, tag="BallAffineSlice")


def _polydisk_geodesic(dom, z: np.ndarray, w: np.ndarray) -> ComplexGeodesic:
    t = np.array([(wj - zj) / (1.0 - np.conj(zj) * wj) for zj, wj in zip(z, w)])
    mags = np.hypot(t.real, t.imag)   # libm hypot, as the scalar abs(); np.abs can differ by an ulp
    tstar = mags.max()
    mobs = []
    for j in range(dom.dimension):
        phase = t[j] / mags[j] if mags[j] > 0 else 1.0
        scale = mags[j] / tstar
        mobs.append((disk_automorphism(z[j], phase), scale))

    def phi(zeta):
        return np.array([mob(scale * zeta) for mob, scale in mobs])

    return ComplexGeodesic(dom=dom, func=phi, tag="PolydiskMax")


def _chord_disc_candidate(dom, z: np.ndarray, w: np.ndarray) -> ComplexGeodesic:
    """Affine disc on the chord line, center optimized for maximal radius."""
    from .kobayashi import line_boundary_distance

    u = w - z
    chord = float(np.linalg.norm(u))
    u = u / chord

    def center_of(s):
        return z + (s[0] + 1j * s[1]) * chord * u

    def objective(s):
        c = center_of(s)
        if not dom.contains(c):
            return 1.0
        rho = line_boundary_distance(dom, c, u)
        # both source parameters must stay well inside the disc
        zz = herm(z - c, u) / rho
        zw = herm(w - c, u) / rho
        if max(abs(zz), abs(zw)) >= 0.999:
            return 1.0 - rho * 1e-3
        return -rho

    from scipy.optimize import minimize

    best = None
    for s0 in ([0.5, 0.0], [0.25, 0.0], [0.75, 0.0]):
        res = minimize(objective, np.asarray(s0), method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 160})
        if best is None or res.fun < best.fun:
            best = res
    c = center_of(best.x)
    rho = line_boundary_distance(dom, c, u)

    def phi(zeta):
        return c + rho * zeta * u

    return ComplexGeodesic(dom=dom, func=phi, tag="ConvexNumeric")


# ---------------------------------------------------------------------------
# Gromov products
# ---------------------------------------------------------------------------

def gromov_product(dom: Domain, z, w, o) -> DistInterval:
    """Interval for ``(z|w)_o = (K(z,o) + K(o,w) - K(z,w)) / 2``."""
    izo = dist_bounds(dom, z, o)
    iow = dist_bounds(dom, o, w)
    izw = dist_bounds(dom, z, w)
    lower = max(0.0, 0.5 * (izo.lower + iow.lower - izw.upper))
    upper = 0.5 * (izo.upper + iow.upper - izw.lower)
    upper = min(upper, izo.upper, iow.upper)  # triangle inequality cap
    return DistInterval(lower, max(lower, upper))


# ---------------------------------------------------------------------------
# boundary hyperplane probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    hyperplane: Hyperplane
    radii: np.ndarray
    residuals: np.ndarray
    normal_angles: np.ndarray  # angle of each step's tangent plane to the limit
    decay_ok: bool


def default_radii_schedule(k_max: int = 20) -> np.ndarray:
    """Radii ``1 - 2^-k`` for ``k = 1 .. k_max``; ``k_max < 1`` raises ``ConfigInvalid``."""
    if k_max < 1:
        raise ConfigInvalid(f"k_max must be at least 1, got {k_max}")
    return 1.0 - 2.0 ** (-np.arange(1, k_max + 1, dtype=float))


def boundary_hyperplane_probe(geo: ComplexGeodesic, zeta: complex = 1.0,
                              radii: np.ndarray | None = None) -> ProbeResult:
    """Estimate the limiting supporting hyperplane of ``phi`` at ``zeta``.

    Evaluates ``phi(r zeta)`` along the schedule, projects to the boundary,
    and averages the tangent hyperplanes of the deepest projections; the
    residual at each step is the distance from ``phi(r zeta)`` to the contact
    set of the estimated hyperplane.  The tail residuals must not grow by
    more than ``tol = 1e-7``.  ``zeta == 0`` raises ``ConfigInvalid``.
    """
    dom = geo.dom
    zeta = complex(zeta)
    if zeta == 0:
        raise ConfigInvalid("zeta must be nonzero")
    zeta = zeta / abs(zeta)
    tol = 1e-7
    radii = default_radii_schedule() if radii is None else np.asarray(radii, dtype=float)

    points, planes = [], []
    for r in radii:
        p = geo(r * zeta)
        points.append(p)
        q = dom.project_to_boundary(p)
        planes.append(boundary_data(dom, q, tol=1e-6).tangent_hyperplane)

    # average the outward normals of the deepest tail, phases aligned
    tail = planes[-5:]
    ref = tail[-1].normal
    acc = np.zeros_like(ref)
    for pl in tail:
        c = herm(ref, pl.normal)
        phase = c / abs(c) if abs(c) > 0 else 1.0
        acc = acc + pl.normal * phase
    normal = acc / np.linalg.norm(acc)
    limit = Hyperplane(anchor=tail[-1].anchor, normal=normal)

    residuals = np.array([_distance_to_contact_set(dom, limit, p) for p in points])
    angles = np.array([pl.angle_to(limit) for pl in planes])

    tail_res = residuals[-8:]
    decay_ok = bool(np.all(np.diff(tail_res) <= tol)) and tail_res[-1] <= tail_res[0] + tol
    if not decay_ok and residuals[-1] > 10 * tol:
        raise NoConvergence("probe residuals do not settle")
    return ProbeResult(hyperplane=limit, radii=radii, residuals=residuals,
                       normal_angles=angles, decay_ok=decay_ok)


def _distance_to_contact_set(dom: Domain, plane: Hyperplane, p: np.ndarray) -> float:
    """Distance from ``p`` to ``boundary(Omega) intersect plane``.

    On the ball, with ``alpha = <a, n>`` for the anchor ``a`` and unit normal
    ``n``, the plane ``<z, n> = alpha`` meets the unit sphere in the sphere
    of the plane with center ``alpha n`` and radius ``rho = sqrt(1 -
    |alpha|^2)``, so the distance is ``hypot(|<p, n> - alpha|, |p - <p, n> n|
    - rho)``.  The anchor lies on that sphere, and ``rho`` is read as ``|a -
    alpha n|``: near a tangent plane ``1 - |alpha|^2`` keeps only the last
    digits of ``rho^2``.

    On the polydisk (the disk among them), a normal with one nonzero
    coordinate ``j`` gives the plane ``z_j = a_j`` of a face, with ``|a_j| =
    1``.  It meets the closed polydisk in ``{a_j} x`` (closed disc)^(d-1), all
    of it on the boundary, so the distance is ``hypot(|p_j - a_j|, |(max(|p_k|
    - 1, 0))_{k != j}|)``.

    Any other plane is an SLSQP solve in the real coordinates from the
    plane's anchor, with exact Jacobians: ``2 (x - p)`` for the objective,
    ``c2r(grad_c r)`` for the defining function, and the constant rows
    ``c2r(n)`` and ``c2r(i n)`` for the real and imaginary parts of the offset
    ``<z - anchor, n>``.  A failed solve, or a point where the gradient is
    degenerate (a polydisk corner), gives the distance to the anchor, which
    lies on the contact set.
    """
    p = np.asarray(p, dtype=complex)
    if isinstance(dom, BallDomain):
        alpha, along = herm(plane.anchor, plane.normal), herm(p, plane.normal)
        rho = float(np.linalg.norm(plane.anchor - alpha * plane.normal))
        return math.hypot(abs(along - alpha), float(np.linalg.norm(p - along * plane.normal)) - rho)
    face = np.flatnonzero(plane.normal)
    if isinstance(dom, PolydiskDomain) and len(face) == 1:
        j = face[0]
        outside = np.maximum(np.delete(np.abs(p), j) - 1.0, 0.0)
        return math.hypot(abs(p[j] - plane.anchor[j]), float(np.linalg.norm(outside)))

    from scipy.optimize import minimize

    x0 = c2r(np.asarray(plane.anchor, dtype=complex))
    pr = c2r(p)
    rows = np.array([c2r(plane.normal), c2r(1j * plane.normal)])
    try:
        res = minimize(
            lambda x: np.sum((x - pr) ** 2),
            x0,
            jac=lambda x: 2.0 * (x - pr),
            method="SLSQP",
            constraints=[
                {"type": "eq", "fun": lambda x: dom.defining(r2c(x)),
                 "jac": lambda x: c2r(dom.grad_c(r2c(x)))[None, :]},
                {"type": "eq", "fun": lambda x: rows @ (x - x0), "jac": lambda x: rows},
            ],
            options={"maxiter": 120, "ftol": 1e-14},
        )
    except DegenerateGradient:   # a polydisk corner, where grad_c does not exist
        return float(np.linalg.norm(x0 - pr))
    if res.success:
        return float(np.linalg.norm(res.x - pr))
    return float(np.linalg.norm(x0 - pr))
