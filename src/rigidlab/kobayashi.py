"""Kobayashi metric and distance: exact model formulas and certified bounds.

On the disk, ball and polydisk the invariant metric and distance have closed
forms and are returned exactly.  On a general bounded convex domain the module
produces certified two-sided estimates:

* upper bounds come from round holomorphic discs inside the domain (the
  metric is dominated by ``|v| / delta`` with ``delta`` measured along the
  complex line of the direction) and from integrating that bound along the
  straight segment between two points.  Along a segment the disc radius is
  concave, so the integral of the reciprocal of its piecewise-linear
  interpolant (the chord rule) is an upper bound on every grid;
* lower bounds come from supporting hyperplanes: each supporting functional
  maps the domain into a half-plane, whose invariant metric and distance are
  explicit, and holomorphic maps contract the metric.

The half-plane family holds the tangent plane at the nearest boundary point
and the tangent planes where the rays from the domain's center through
tangent offsets of the base point meet the boundary, which is what makes the
bounds scale correctly near low-type boundary points.

Points are complex arrays of shape ``(d,)``; a non-finite point or direction
raises ``ConfigInvalid``.  ``line_boundary_distance`` also takes a stack of
shape ``(N, d)`` with one shared direction and returns the ``N`` radii; a
``(d,)`` point gives a float.  The chord rule evaluates each grid in one such
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    BallDomain,
    DiskDomain,
    Domain,
    EllipsoidDomain,
    PolydiskDomain,
    as_point,
    boundary_data,
    boundary_distance,
    boundary_normal,
    herm,
)
from .errors import ConfigInvalid, NotConvex, PointOutsideDomain, RadiusTooLarge, RigidLabError, ZeroVector
from .intervals import DistInterval

CHORD_RTOL = 1e-4         # the chord rule doubles its grid from 17 nodes until the bound moves less
LINE_BISECTIONS = 60      # root bracketing steps along complex lines and rays
LINE_PHASES = 32          # phase grid certifying a round disc inside a slice
LINE_SAFETY = 1.0 - 1e-9  # shrink factor applied to sampled slice radii


def _atanh(m: float) -> float:
    return math.atanh(min(max(m, 0.0), 1.0 - 1e-16))


def _finite(dom: Domain, p, name: str) -> np.ndarray:
    """``p`` as a point of ``C^d``; a non-finite entry raises ``ConfigInvalid``."""
    p = as_point(p, dom.dimension)
    if not np.all(np.isfinite(p)):
        raise ConfigInvalid(f"{name} must be finite, got {p}")
    return p


def _pow2_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``(v 2^-e, e)`` with the largest entry modulus of ``v 2^-e`` in
    ``[1/2, 1)`` (``e = 0`` for ``v = 0``).  The scaling is exact, so the
    squares of entries below ``1e-154`` no longer underflow."""
    exponent = math.frexp(float(np.max(np.abs(v))))[1]
    return np.ldexp(v.real, -exponent) + 1j * np.ldexp(v.imag, -exponent), exponent


# ---------------------------------------------------------------------------
# exact model formulas
# ---------------------------------------------------------------------------

def disk_distance(z: complex, w: complex) -> float:
    m = abs((z - w) / (1.0 - np.conj(z) * w))
    return _atanh(m)


def disk_metric(z: complex, v: complex) -> float:
    return abs(v) / (1.0 - abs(z) ** 2)


def ball_distance(z: np.ndarray, w: np.ndarray) -> float:
    """``atanh |phi_z(w)|``.  ``|phi_z(w)|^2 |1-<z,w>|^2 = |d|^2 - sum_{i<j}
    |z_i d_j - z_j d_i|^2`` with ``d = w - z`` (Lagrange identity), so nearby
    points keep their digits instead of cancelling against 1."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    d, exponent = _pow2_scaled(w - z)   # num is quadratic in d: scale it back below
    wedge = np.outer(z, d) - np.outer(d, z)   # z_i d_j - z_j d_i, each pair twice
    num = float(np.sum(np.abs(d) ** 2)) - 0.5 * float(np.sum(np.abs(wedge) ** 2))
    return _atanh(math.ldexp(math.sqrt(max(0.0, num / abs(1.0 - herm(z, w)) ** 2)), exponent))


def ball_metric(z: np.ndarray, v: np.ndarray) -> float:
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    s = 1.0 - float(np.sum(np.abs(z) ** 2))
    num = s * float(np.sum(np.abs(v) ** 2)) + abs(herm(v, z)) ** 2
    return math.sqrt(num) / s


def model_dist(dom: Domain, z, w) -> float:
    """Exact Kobayashi distance on disk / ball / polydisk."""
    z = dom.require_inside(z)
    w = dom.require_inside(w)
    if isinstance(dom, DiskDomain):
        return disk_distance(z[0], w[0])
    if isinstance(dom, BallDomain):
        return ball_distance(z, w)
    if isinstance(dom, PolydiskDomain):
        return max(disk_distance(a, b) for a, b in zip(z, w))
    raise NotConvex(f"no closed-form distance for kind {dom.kind!r}")


def model_metric(dom: Domain, z, v) -> float:
    """Exact infinitesimal Kobayashi metric on disk / ball / polydisk."""
    z = dom.require_inside(z)
    v = as_point(v, dom.dimension)
    if isinstance(dom, DiskDomain):
        return disk_metric(z[0], v[0])
    if isinstance(dom, BallDomain):
        return ball_metric(z, v)
    if isinstance(dom, PolydiskDomain):
        return max(disk_metric(a, b) for a, b in zip(z, v))
    raise NotConvex(f"no closed-form metric for kind {dom.kind!r}")


def has_model_formulas(dom: Domain) -> bool:
    return isinstance(dom, (DiskDomain, BallDomain, PolydiskDomain))


# ---------------------------------------------------------------------------
# distance to the boundary along a complex line
# ---------------------------------------------------------------------------

def _modulus(w: np.ndarray) -> np.ndarray:
    # libm hypot, as the scalar abs(); np.abs of a complex array can differ by
    # an ulp, which 1 / (1 - |z|) magnifies near the boundary
    return np.hypot(w.real, w.imag)


def line_boundary_distance(dom: Domain, z, v):
    """Radius of the largest round disc centered at ``z`` in the slice
    ``Omega  intersect  (z + C v)``.

    ``z`` is one point of shape ``(d,)``, which returns a float, or a stack of
    shape ``(N, d)`` sharing the direction ``v``, which returns an array of
    shape ``(N,)`` holding the radius of each row's one-point call.
    """
    zs = np.asarray(z, dtype=complex)
    single = zs.ndim < 2
    if single:
        zs = dom.require_inside(_finite(dom, zs, "point"))[None, :]
    elif zs.shape[1:] != (dom.dimension,):
        raise ValueError(f"expected points of C^{dom.dimension}, got shape {zs.shape}")
    elif not dom.contains_all(zs):
        raise PointOutsideDomain(f"a point of the stack is not in the domain ({dom.kind})")
    v = _finite(dom, v, "direction")
    vn = float(np.linalg.norm(v))
    if vn == 0:
        raise ZeroVector("direction must be nonzero")
    u = v / vn
    if isinstance(dom, DiskDomain):
        radii = 1.0 - _modulus(zs[:, 0])
    elif isinstance(dom, BallDomain):
        off = np.sum(zs * np.conj(u), axis=1)
        a = zs - off[:, None] * u[None, :]
        rho = np.sqrt(np.maximum(0.0, 1.0 - np.sum(np.abs(a) ** 2, axis=1)))
        radii = rho - _modulus(off)
    elif isinstance(dom, PolydiskDomain):
        moving = _modulus(u) > 1e-15
        radii = np.min((1.0 - _modulus(zs[:, moving])) / _modulus(u[moving]), axis=1)
    else:
        # generic convex slice: bisection on each disc radius, certified on a phase grid
        phases = np.exp(2j * math.pi * np.arange(LINE_PHASES) / LINE_PHASES)
        lo, _ = _bisect(dom, zs[:, None, :], phases[:, None] * u)
        radii = lo * LINE_SAFETY
    return float(radii[0]) if single else radii


def _bisect(dom: Domain, base: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bracket ``[lo, hi]``, per row ``i`` of ``base`` (shape ``(n, 1, d)``), of
    the largest ``t`` with every ``base[i] + t * steps[i, k]`` inside.

    ``steps`` has shape ``(n, K, d)`` or ``(K, d)``, with unit rows.  The
    bracket starts at ``[0, 2R]`` and is halved ``LINE_BISECTIONS`` times, one
    ``defining_many`` call per halving; ``lo`` is always inside and ``hi``
    never is.
    """
    n, (k, d) = len(base), steps.shape[-2:]
    lo, hi = np.zeros(n), np.full(n, 2.0 * dom.bounding_radius)
    for _ in range(LINE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        pts = base + mid[:, None, None] * steps
        inside = dom.defining_many(pts.reshape(-1, d)).reshape(n, k).max(axis=1) < 0
        np.copyto(lo, mid, where=inside)
        np.copyto(hi, mid, where=~inside)
    return lo, hi


# ---------------------------------------------------------------------------
# supporting half-planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportingHalfplane:
    """Image of the domain under ``z -> <z - anchor, inward>``: a subset of
    the right half-plane when the hyperplane supports a convex domain."""

    anchor: np.ndarray
    inward: np.ndarray  # unit Hermitian normal pointing into the domain

    def functional(self, z) -> complex:
        return herm(np.asarray(z, dtype=complex) - self.anchor, self.inward)

    def metric_lower(self, z, v) -> float:
        w = self.functional(z)
        if w.real <= 0:
            return 0.0
        dv = herm(np.asarray(v, dtype=complex), self.inward)
        return abs(dv) / (2.0 * w.real)

    def dist_lower(self, z, w) -> float:
        a = self.functional(z)
        b = self.functional(w)
        if a.real <= 0 or b.real <= 0:
            return 0.0
        m = abs(a - b) / abs(a + np.conj(b))
        return _atanh(m)


def supporting_halfplanes(dom: Domain, z, extra_points=(), t_schedule=None) -> list[SupportingHalfplane]:
    """Supporting hyperplanes at boundary points near ``z``.

    The family holds the tangent plane at the nearest boundary point and those
    where the rays from ``dom.center()`` through tangential offsets of ``z``
    over a geometric schedule (these capture the flat directions of low-type
    boundary points) and through any ``extra_points`` leave the domain.  Any
    tangent plane supports a convex domain, so only the base point needs the
    nearest-point solve; the rays are bisected together.
    """
    z = dom.require_inside(_finite(dom, z, "point"))
    rays = [_finite(dom, p, "extra point") for p in extra_points]
    planes = [_tangent_halfplane(dom, dom.project_to_boundary(z))]
    if planes[0] is not None:
        if t_schedule is None:
            delta = float(np.linalg.norm(planes[0].anchor - z))
            top = max(4.0 * delta, 0.5 * dom.bounding_radius)
            t_schedule = np.geomspace(max(delta, 1e-8) * 0.5, top, 12)
        frame = np.array(_tangent_frame(planes[0].inward))
        offsets = z + np.asarray(t_schedule)[None, :, None] * frame[:, None, :]
        rays = list(offsets.reshape(-1, dom.dimension)) + rays
    # anchors at the outer ends of the brackets; a point at the center gives no ray
    c = dom.center()
    dirs = np.reshape(rays, (-1, dom.dimension)) - c
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 0] / norms[norms > 0, None]
    _, hi = _bisect(dom, np.broadcast_to(c, (len(dirs), 1, dom.dimension)), dirs[:, None, :])
    planes += [_tangent_halfplane(dom, xi) for xi in c + hi[:, None] * dirs]
    return [p for p in planes if p is not None]


def _tangent_halfplane(dom: Domain, xi: np.ndarray) -> SupportingHalfplane | None:
    """The tangent half-plane at ``xi``, or None where ``xi`` fails the
    checks of ``boundary_normal``."""
    try:
        normal, _ = boundary_normal(dom, xi, tol=1e-6)
    except RigidLabError:
        return None
    return SupportingHalfplane(anchor=xi, inward=-normal)


def _tangent_frame(normal: np.ndarray) -> list[np.ndarray]:
    """Complex tangent directions completing the unit normal, plus their i-rotations."""
    d = len(normal)
    cols = [normal]
    rng = np.random.default_rng(11)
    while len(cols) < d:
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cols.append(w)
    q, _ = np.linalg.qr(np.column_stack(cols))
    frame = []
    for k in range(1, d):
        frame.append(q[:, k])
        frame.append(1j * q[:, k])
    if d == 1:
        frame.append(1j * normal)
    return frame


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------

def metric_bounds(dom: Domain, z, v, tighten_with_model: bool = True,
                  halfplanes: list[SupportingHalfplane] | None = None) -> DistInterval:
    """Certified interval for the infinitesimal metric ``k(z; v)``."""
    if not dom.convex:
        raise NotConvex("metric bounds require a convex domain")
    z = dom.require_inside(_finite(dom, z, "point"))
    v = _finite(dom, v, "direction")
    vn = float(np.linalg.norm(v))
    if vn == 0:
        return DistInterval.exact(0.0)

    if tighten_with_model and has_model_formulas(dom):
        return DistInterval.exact(model_metric(dom, z, v))

    upper = vn / line_boundary_distance(dom, z, v)
    lower = vn / dom.bounding_radius  # ball-of-radius-R comparison
    if halfplanes is None:
        halfplanes = supporting_halfplanes(dom, z)
    for hp in halfplanes:
        lower = max(lower, hp.metric_lower(z, v))
    return DistInterval(min(lower, upper), upper)


def _segment_upper(dom: Domain, z: np.ndarray, w: np.ndarray) -> float:
    """Upper bound on the integral of ``|w - z| / delta`` along the segment.

    ``delta(s)``, the disc radius at ``z + s (w - z)`` along the fixed chord
    direction, is concave in ``s`` on a convex domain (so is its phase-grid
    value, a min of concave ray radii).  The piecewise-linear ``l`` through the
    node radii therefore lies below it, and the chord rule ``int 1/l``, which
    on a piece of width ``h`` is ``h log(r1/r0) / (r1 - r0)``, is an upper
    bound on every grid.  The grid doubles from 17 nodes, with one stacked
    ``line_boundary_distance`` call for each grid's new nodes, until the bound
    moves by at most ``CHORD_RTOL`` relative.

    The bound is summed for the chord scaled by ``_pow2_scaled`` and scaled
    back at the end, so distinct points closer than ``1e-154`` keep their
    digits instead of returning 0.
    """
    chord = w - z
    if not np.any(chord):
        return 0.0
    direction, exponent = _pow2_scaled(chord)
    chord_len = float(np.linalg.norm(direction))

    def radii_at(s):
        p = z[None, :] + s[:, None] * chord[None, :]
        if not dom.contains_all(p):
            raise NotConvex("straight chord exits the domain")
        return line_boundary_distance(dom, p, direction)

    pieces = 16
    radii = radii_at(np.arange(pieces + 1) / pieces)
    bound = _chord_rule(radii) * chord_len
    for _ in range(8):   # at most 4097 nodes; every grid's value is an upper bound
        refined = np.empty(2 * pieces + 1)
        refined[0::2] = radii
        refined[1::2] = radii_at((np.arange(pieces) + 0.5) / pieces)
        pieces, radii, previous = 2 * pieces, refined, bound
        bound = _chord_rule(radii) * chord_len
        if abs(previous - bound) <= CHORD_RTOL * bound:
            break
    return math.ldexp(bound, exponent)


def _chord_rule(radii: np.ndarray) -> float:
    """``int_0^1 ds / l(s)`` for the piecewise-linear ``l`` through radii on a
    uniform grid: ``h/r0 log1p(x)/x`` per piece, ``x = r1/r0 - 1``."""
    r0 = radii[:-1]
    x = radii[1:] / r0 - 1.0
    ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0)
    return float(np.sum(ratio / r0)) / len(r0)


def dist_bounds(dom: Domain, z, w, tighten_with_model: bool = True,
                via=()) -> DistInterval:
    """Certified interval for the Kobayashi distance ``K(z, w)``.

    The upper bound is the best of the admissible polygonal routes: the
    straight chord, the route through the domain center, and any supplied
    ``via`` waypoints (the shared-path construction makes interval-level
    triangle inequalities hold).  On model kinds the closed form is returned.
    """
    if not dom.convex:
        raise NotConvex("distance bounds require a convex domain")
    z = dom.require_inside(_finite(dom, z, "point"))
    w = dom.require_inside(_finite(dom, w, "point"))
    waypoints = [dom.center()] + [_finite(dom, p, "waypoint") for p in via]
    if np.allclose(z, w, atol=0, rtol=0):
        return DistInterval.exact(0.0)

    if tighten_with_model and has_model_formulas(dom):
        return DistInterval.exact(model_dist(dom, z, w))

    upper = _segment_upper(dom, z, w)
    for y in waypoints:
        if not dom.contains(y) or np.allclose(y, z) or np.allclose(y, w):
            continue
        upper = min(upper, _segment_upper(dom, z, y) + _segment_upper(dom, y, w))

    lower = float(np.linalg.norm(w - z)) / dom.bounding_radius
    mid = z + 0.5 * (w - z)
    planes = supporting_halfplanes(dom, mid, extra_points=(z, w))
    for hp in planes:
        lower = max(lower, hp.dist_lower(z, w))
    return DistInterval(min(lower, upper), upper)


# ---------------------------------------------------------------------------
# Kobayashi balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteTypeCalibration:
    """Coefficient of the lower bound ``k(z; v) >= alpha0 |v| / delta^{1/ell}``.

    ``ell = 1`` with ``alpha0 = 1/2`` encodes the one-dimensional estimate
    ``k(z; v) >= |v| / (2 delta(z))``; larger ``ell`` encodes the finite-type
    rate near a boundary point of that line type.
    """

    alpha0: float
    ell: float

    def __post_init__(self):
        if self.alpha0 <= 0 or self.ell < 1:
            raise ValueError("need alpha0 > 0 and ell >= 1")


DISK_CALIBRATION = FiniteTypeCalibration(alpha0=0.5, ell=1.0)


def kob_ball_inclusion(dom: Domain, p, euclidean_radius: float,
                       calibration: FiniteTypeCalibration | None = None) -> float:
    """Certified ``eps`` with ``B_K(p; eps)`` inside the Euclidean ball of
    radius ``euclidean_radius`` around ``p``.

    Without calibration the bound comes from the enclosing ball of radius
    ``R``: ``K(z, w) >= |z - w| / R`` gives ``eps = rho / R``.  A calibrated
    ``(alpha0, ell)`` sharpens this to ``eps = alpha0 rho / (delta(p) + rho)^{1/ell}``:
    any path of length below that either stays in the Euclidean ball, where
    the local bound integrates to ``alpha0 |z - w| / (delta + rho)^{1/ell}``,
    or must already have crossed the sphere.
    """
    p = dom.require_inside(_finite(dom, p, "point"))
    rho = float(euclidean_radius)
    if not math.isfinite(rho):
        raise ConfigInvalid(f"euclidean radius must be finite, got {rho}")
    delta = boundary_distance(dom, p)
    if rho >= delta:
        raise RadiusTooLarge(f"euclidean radius {rho} exceeds the boundary distance {delta}")
    eps = rho / dom.bounding_radius
    if calibration is not None:
        eps = max(eps, calibration.alpha0 * rho / (delta + rho) ** (1.0 / calibration.ell))
    return eps


def calibrate_alpha0(dom: Domain, xi, ell: float, radii=None, directions: int = 6) -> FiniteTypeCalibration:
    """Fit the coefficient ``alpha0`` on a radial grid approaching ``xi``.

    Uses certified metric lower bounds only, so the returned calibration is a
    genuine lower-bound coefficient on the sampled grid.
    """
    xi = _finite(dom, xi, "boundary point")
    bd = boundary_data(dom, xi, tol=1e-9)
    radii = np.geomspace(1e-3, 0.2, 8) if radii is None else np.asarray(radii)
    rng = np.random.default_rng(3)
    dirs = [bd.inward_normal] + _tangent_frame(-bd.inward_normal)
    while len(dirs) < directions:
        w = rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)
        dirs.append(w / np.linalg.norm(w))
    alpha = math.inf
    for r in radii:
        z = xi + r * bd.inward_normal
        delta = boundary_distance(dom, z)
        planes = supporting_halfplanes(dom, z)
        for v in dirs:
            klo = metric_bounds(dom, z, v, tighten_with_model=False, halfplanes=planes).lower
            alpha = min(alpha, klo * delta ** (1.0 / ell) / np.linalg.norm(v))
    if not math.isfinite(alpha) or alpha <= 0:
        raise PointOutsideDomain("calibration grid produced no usable lower bounds")
    return FiniteTypeCalibration(alpha0=float(alpha), ell=float(ell))
