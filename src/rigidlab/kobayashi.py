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

The half-plane family (``HalfplaneFamily``, one ``(P, d)`` stack of anchors
and inward normals, each bound the best plane's) holds the tangent plane at
the nearest boundary point and the tangent planes where the rays from the
domain's center through tangent offsets of the base point meet the boundary,
which is what makes the bounds scale correctly near low-type boundary points.
The disc radii are ``domain.ray_exit`` brackets; those boundary points are
``domain.radial_exit`` brackets, started at the domain's gauge, and their
normals come from ``domain.boundary_normals``.  ``dist_uppers`` gives only
the upper sides, for two stacks of points, and builds no half-plane.

Points are complex arrays of shape ``(d,)``; a non-finite point or direction
raises ``ConfigInvalid``.  ``line_boundary_distance`` also takes a stack of
shape ``(N, d)`` with one shared direction and returns the ``N`` radii, and
``model_dist`` takes two such stacks and returns the ``N`` distances of their
rows; a ``(d,)`` point gives a float.  The chord rule evaluates each grid in
one such call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    BallDomain,
    DiskDomain,
    Domain,
    PolydiskDomain,
    as_point,
    boundary_data,
    boundary_distance,
    boundary_normals,
    finite_point,
    herm,
    radial_exit,
    ray_exit,
)
from .errors import ConfigInvalid, NotConvex, PointOutsideDomain, RadiusTooLarge, ZeroVector
from .intervals import DistInterval

CHORD_RTOL = 1e-4         # the chord rule doubles its grid from 17 nodes until the bound moves less
LINE_PHASES = 32          # phase grid certifying a round disc inside a slice
LINE_SAFETY = 1.0 - 1e-9  # shrink factor applied to sampled slice radii


def _atanh(m: float) -> float:
    return math.atanh(min(max(m, 0.0), 1.0 - 1e-16))


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


def model_dist(dom: Domain, z, w):
    """Exact Kobayashi distance on disk / ball / polydisk.

    One pair of points ``(d,)`` gives a float from the one-point formulas.
    Two stacks ``(N, d)`` give the ``(N,)`` distances of their rows in one
    numpy evaluation of the same formulas (on the ball, each row is scaled by
    its own exact power of two).
    """
    zs = np.asarray(z, dtype=complex)
    if zs.ndim < 2:
        z = dom.require_inside(z)
        w = dom.require_inside(w)
        if isinstance(dom, DiskDomain):
            return disk_distance(z[0], w[0])
        if isinstance(dom, BallDomain):
            return ball_distance(z, w)
        if isinstance(dom, PolydiskDomain):
            return max(disk_distance(a, b) for a, b in zip(z, w))
        raise NotConvex(f"no closed-form distance for kind {dom.kind!r}")
    zs, ws = _require_stacks(dom, zs, w)
    if isinstance(dom, (DiskDomain, PolydiskDomain)):   # the disk formula, max over coordinates
        m = np.max(np.abs((zs - ws) / (1.0 - np.conj(zs) * ws)), axis=1)
    elif isinstance(dom, BallDomain):   # ball_distance's Lagrange identity, row by row
        d = ws - zs
        exponent = np.frexp(np.max(np.abs(d), axis=1))[1][:, None]
        d = np.ldexp(d.real, -exponent) + 1j * np.ldexp(d.imag, -exponent)
        wedge = zs[:, :, None] * d[:, None, :] - d[:, :, None] * zs[:, None, :]
        num = np.sum(np.abs(d) ** 2, axis=1) - 0.5 * np.sum(np.abs(wedge) ** 2, axis=(1, 2))
        den = np.abs(1.0 - np.sum(zs * np.conj(ws), axis=1))
        m = np.ldexp(np.sqrt(np.maximum(0.0, num / den**2)), exponent[:, 0])
    else:
        raise NotConvex(f"no closed-form distance for kind {dom.kind!r}")
    return np.arctanh(np.clip(m, 0.0, 1.0 - 1e-16))


def _require_stacks(dom: Domain, zs, ws) -> tuple[np.ndarray, np.ndarray]:
    zs, ws = np.asarray(zs, dtype=complex), np.asarray(ws, dtype=complex)
    if zs.shape != ws.shape or zs.shape[1:] != (dom.dimension,):
        raise ValueError(f"expected two stacks of points of C^{dom.dimension}, got shapes {zs.shape} and {ws.shape}")
    if not (dom.contains_all(zs) and dom.contains_all(ws)):
        raise PointOutsideDomain(f"a point of the stacks is not in the domain ({dom.kind})")
    return zs, ws


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
        zs = dom.require_inside(finite_point(zs, dom.dimension, "point"))[None, :]
    elif zs.shape[1:] != (dom.dimension,):
        raise ValueError(f"expected points of C^{dom.dimension}, got shape {zs.shape}")
    elif not dom.contains_all(zs):
        raise PointOutsideDomain(f"a point of the stack is not in the domain ({dom.kind})")
    v, _ = _pow2_scaled(finite_point(v, dom.dimension, "direction"))   # exact, so a tiny v keeps its digits
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
        lo, _ = ray_exit(dom, zs[:, None, :], phases[:, None] * u)
        radii = lo * LINE_SAFETY
    return float(radii[0]) if single else radii


# ---------------------------------------------------------------------------
# supporting half-planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfplaneFamily:
    """Supporting hyperplanes as one stack.  Row ``p`` maps the domain by
    ``z -> <z - anchors[p], inward[p]>`` into the right half-plane when its
    hyperplane supports a convex domain; ``inward`` holds unit Hermitian
    normals pointing into the domain.  Both arrays have shape ``(P, d)``."""

    anchors: np.ndarray
    inward: np.ndarray

    def __len__(self) -> int:
        return len(self.anchors)

    def functional(self, z) -> np.ndarray:
        """The ``P`` values ``<z - anchors[p], inward[p]>``."""
        return np.sum((np.asarray(z, dtype=complex) - self.anchors) * np.conj(self.inward), axis=1)

    def metric_lower(self, z, v) -> float:
        """The best plane's half-plane metric ``|<v, inward>| / (2 Re w)`` at
        the image ``w`` of ``z``; a plane with ``Re w <= 0`` gives 0."""
        w = self.functional(z).real
        dv = _modulus(np.sum(np.asarray(v, dtype=complex) * np.conj(self.inward), axis=1))
        return float(np.max(np.divide(dv, 2.0 * w, out=np.zeros_like(w), where=w > 0), initial=0.0))

    def dist_lower(self, z, w) -> float:
        """The best plane's half-plane distance ``atanh |a - b| / |a + conj(b)|``
        between the images of ``z`` and ``w``; 0 unless both lie in it."""
        a, b = self.functional(z), self.functional(w)
        m = np.divide(_modulus(a - b), _modulus(a + np.conj(b)), out=np.zeros(len(a)),
                      where=(a.real > 0) & (b.real > 0))
        return _atanh(float(np.max(m, initial=0.0)))   # atanh grows, so the best m gives the best plane


def supporting_halfplanes(dom: Domain, z, extra_points=()) -> HalfplaneFamily:
    """Supporting hyperplanes at boundary points near ``z``, as one stack.

    The family holds the tangent plane at the nearest boundary point and those
    where the rays from 0, the domain's center, through tangential offsets of
    ``z`` over a 12-step geometric schedule (these capture the flat directions
    of low-type boundary points) and through any ``extra_points`` leave the
    domain.  Any tangent plane supports a convex domain, so only the base
    point needs the nearest-point solve.  The rays' anchors are the outer ends
    of their ``radial_exit`` brackets.  The base point's normal and then the
    rays' come from ``boundary_normals`` at ``tol = 1e-6``, and a row it
    rejects (a polydisk tie, a non-finite value) gives no plane.
    """
    z = dom.require_inside(finite_point(z, dom.dimension, "point"))
    rays = [finite_point(p, dom.dimension, "extra point") for p in extra_points]
    base = dom.project_to_boundary(z)[None, :]
    base_normal, base_ok, _ = boundary_normals(dom, base, 1e-6)
    if base_ok[0]:
        delta = float(np.linalg.norm(base[0] - z))
        top = max(4.0 * delta, 0.5 * dom.bounding_radius)
        t_schedule = np.geomspace(max(delta, 1e-8) * 0.5, top, 12)
        frame = np.array(_tangent_frame(-base_normal[0]))
        offsets = z + t_schedule[None, :, None] * frame[:, None, :]
        rays = list(offsets.reshape(-1, dom.dimension)) + rays
    # a point at the center gives no ray
    dirs = np.reshape(rays, (-1, dom.dimension))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 0] / norms[norms > 0, None]
    _, hi = radial_exit(dom, dirs)
    anchors = hi[:, None] * dirs
    normals, ok, _ = boundary_normals(dom, anchors, 1e-6)
    return HalfplaneFamily(anchors=np.vstack([base[base_ok], anchors[ok]]),
                           inward=-np.vstack([base_normal[base_ok], normals[ok]]))


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

def metric_bounds(dom: Domain, z, v, tighten_with_model: bool = True) -> DistInterval:
    """Certified interval for the infinitesimal metric ``k(z; v)``.

    The upper bound is ``|v| / line_boundary_distance``, the metric of the
    round disc in the slice; the lower bound is the best of the enclosing
    ball, ``|v| / R``, and the half-planes of ``supporting_halfplanes(z)``
    (the domain lies in each, and the metric shrinks as the domain grows),
    clamped to the upper bound.  Since ``k(z; t v) = |t| k(z; v)``, the
    interval is found for ``v`` scaled by ``_pow2_scaled`` and scaled back, so
    a direction below ``1e-154`` keeps its digits.
    """
    z = dom.require_inside(finite_point(z, dom.dimension, "point"))
    v, exponent = _pow2_scaled(finite_point(v, dom.dimension, "direction"))
    vn = float(np.linalg.norm(v))
    if vn == 0:
        return DistInterval.exact(0.0)

    if tighten_with_model and has_model_formulas(dom):
        return DistInterval.exact(math.ldexp(model_metric(dom, z, v), exponent))

    upper = vn / line_boundary_distance(dom, z, v)
    lower = max(vn / dom.bounding_radius, supporting_halfplanes(dom, z).metric_lower(z, v))
    return DistInterval(math.ldexp(min(lower, upper), exponent), math.ldexp(upper, exponent))


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


def dist_bounds(dom: Domain, z, w, tighten_with_model: bool = True) -> DistInterval:
    """Certified interval for the Kobayashi distance ``K(z, w)``.

    The upper bound is ``_route_upper``; the lower bound is the best of
    ``|w - z| / R`` and the half-planes at the midpoint, with ``z`` and ``w``
    as extra points.  On model kinds the closed form is returned.
    """
    z = dom.require_inside(finite_point(z, dom.dimension, "point"))
    w = dom.require_inside(finite_point(w, dom.dimension, "point"))
    if np.allclose(z, w, atol=0, rtol=0):
        return DistInterval.exact(0.0)

    if tighten_with_model and has_model_formulas(dom):
        return DistInterval.exact(model_dist(dom, z, w))

    upper = _route_upper(dom, z, w)
    planes = supporting_halfplanes(dom, z + 0.5 * (w - z), extra_points=(z, w))
    lower = max(float(np.linalg.norm(w - z)) / dom.bounding_radius, planes.dist_lower(z, w))
    return DistInterval(min(lower, upper), upper)


def dist_uppers(dom: Domain, zs, ws) -> np.ndarray:
    """Upper bounds on ``K(z, w)`` for the rows of two stacks ``(N, d)``: the
    stacked ``model_dist`` on the disk, ball and polydisk, else each row's
    ``dist_bounds(...).upper`` without its half-plane lower side."""
    if has_model_formulas(dom):
        return model_dist(dom, zs, ws)
    zs, ws = _require_stacks(dom, zs, ws)
    return np.array([0.0 if np.array_equal(z, w) else _route_upper(dom, z, w) for z, w in zip(zs, ws)])


def _route_upper(dom: Domain, z: np.ndarray, w: np.ndarray) -> float:
    """The better of two polygonal routes from ``z`` to ``w``: the straight
    chord and the route through the domain center."""
    upper = _segment_upper(dom, z, w)
    c = dom.center()
    if not (np.allclose(c, z) or np.allclose(c, w)):
        upper = min(upper, _segment_upper(dom, z, c) + _segment_upper(dom, c, w))
    return upper


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
    p = dom.require_inside(finite_point(p, dom.dimension, "point"))
    rho = float(euclidean_radius)
    if not (math.isfinite(rho) and rho > 0):
        raise ConfigInvalid(f"euclidean radius must be finite and positive, got {rho}")
    delta = boundary_distance(dom, p)
    if rho >= delta:
        raise RadiusTooLarge(f"euclidean radius {rho} exceeds the boundary distance {delta}")
    eps = rho / dom.bounding_radius
    if calibration is not None:
        eps = max(eps, calibration.alpha0 * rho / (delta + rho) ** (1.0 / calibration.ell))
    return eps


def calibrate_alpha0(dom: Domain, xi, ell: float, radii=None) -> FiniteTypeCalibration:
    """Fit the coefficient ``alpha0`` on a radial grid approaching ``xi``,
    along six directions: the inward normal, a tangent frame, and seeded
    random ones.

    Uses certified metric lower bounds only, so the returned calibration is a
    genuine lower-bound coefficient on the sampled grid.  Each is the lower
    side of ``metric_bounds`` without its clamp to the upper bound:
    ``max(|v| / R, planes.metric_lower(z, v))`` for the half-planes built
    once per radius.  No disc radius (``line_boundary_distance``) is needed.
    """
    xi = finite_point(xi, dom.dimension, "boundary point")
    bd = boundary_data(dom, xi, tol=1e-9)
    radii = np.geomspace(1e-3, 0.2, 8) if radii is None else np.asarray(radii)
    rng = np.random.default_rng(3)
    dirs = [bd.inward_normal] + _tangent_frame(-bd.inward_normal)
    while len(dirs) < 6:
        w = rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)
        dirs.append(w / np.linalg.norm(w))
    alpha = math.inf
    for r in radii:
        z = xi + r * bd.inward_normal
        delta = boundary_distance(dom, z)
        planes = supporting_halfplanes(dom, z)
        for v in dirs:
            vn = float(np.linalg.norm(v))
            klo = max(vn / dom.bounding_radius, planes.metric_lower(z, v))
            alpha = min(alpha, klo * delta ** (1.0 / ell) / vn)
    if not math.isfinite(alpha) or alpha <= 0:
        raise PointOutsideDomain("calibration grid produced no usable lower bounds")
    return FiniteTypeCalibration(alpha0=float(alpha), ell=float(ell))
