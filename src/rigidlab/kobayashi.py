"""Kobayashi metric and distance: exact model formulas and certified bounds.

On the disk, ball and polydisk the invariant metric and distance have closed
forms and are returned exactly.  On a general bounded convex domain the module
produces certified two-sided estimates:

* from the center, ``K(0, z) = atanh h(z)`` for the Minkowski gauge ``h`` of
  every kind (convex and balanced about 0: the disc ``zeta -> zeta z / h(z)``
  gives one side, the supporting functional at ``z / h(z)`` the other), which
  ``center_dist`` brackets;
* upper bounds come from round holomorphic discs inside the domain (the
  metric is dominated by ``|v| / delta`` with ``delta`` measured along the
  complex line of the direction), from integrating that bound along the
  straight segment between two points, and from the route through the
  center.  Along a segment the disc radius is concave, so the integral of the
  reciprocal of its piecewise-linear interpolant (the chord rule) is an upper
  bound on every grid;
* lower bounds come from the polydisk closed forms of the images under the
  holomorphic map ``z -> F z`` of ``supporting_halfplanes`` (on a convex
  domain the Kobayashi and Caratheodory distances agree, so maps into the
  disc are the right kind), and from the reverse triangle inequality.

Points are complex arrays of shape ``(d,)``; a non-finite one raises
``ConfigInvalid``.  ``line_boundary_distance``, ``model_dist`` and
``center_dist`` also take stacks ``(N, d)``.  The disc radii are
``domain.ray_exit`` brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    BallDomain,
    BallTransvection,
    DiskDomain,
    Domain,
    PolydiskDomain,
    as_point,
    boundary_data,
    boundary_distance,
    boundary_normals,
    finite_point,
    herm,
    pow2_scaled,
    radial_exit,
    ray_exit,
)
from .errors import ConfigInvalid, NotConvex, PointOutsideDomain, RadiusTooLarge, ZeroVector
from .intervals import DistInterval, round_out

CHORD_RTOL = 1e-4         # the chord rule doubles its grid from 17 nodes until the bound moves less
CENTER_RTOL = 2.0**-46    # center_dist's relative widening of each exit, 64 ulps of 1: more than the rounding of
                          # the ray's moduli (each gauge is monotone in them) and of the defining function moves it;
                          # also the shrink of every generic lower side and the rounding down of the images
LINE_PHASES = 32          # phase grid certifying a round disc inside a slice
LINE_SAFETY = 1.0 - 1e-9  # shrink factor applied to sampled slice radii


def _atanh(m: float) -> float:
    return math.atanh(min(max(m, 0.0), 1.0 - 1e-16))


def _ldexp_out(x: float, exponent: int, up: bool) -> float:
    """``math.ldexp`` of a certified side, one float further out where it rounded a subnormal result inward."""
    out = math.ldexp(x, exponent)
    back = math.ldexp(out, -exponent)
    if (back < x) if up else (back > x):
        out = math.nextafter(out, math.inf if up else 0.0)
    return out


# ---------------------------------------------------------------------------
# exact model formulas
# ---------------------------------------------------------------------------

def disk_distance(z: complex, w: complex) -> float:
    m = abs((z - w) / (1.0 - np.conj(z) * w))
    return _atanh(m)


def disk_metric(z: complex, v: complex) -> float:
    return abs(v) / (1.0 - abs(z) ** 2)


def ball_distance(z: np.ndarray, w: np.ndarray) -> float:
    """``atanh |tau_z^-1(w)|`` (:class:`~rigidlab.domain.BallTransvection`),
    which keeps the digits of nearby points."""
    return _atanh(float(BallTransvection(z).inverse_modulus(np.asarray(w, dtype=complex))))


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
    elif isinstance(dom, BallDomain):   # ball_distance, row by row
        m = BallTransvection(zs).inverse_modulus(ws)
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
    v, _ = pow2_scaled(finite_point(v, dom.dimension, "direction"))   # exact, so a tiny v keeps its digits
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
# supporting functionals: one holomorphic map into the polydisk
# ---------------------------------------------------------------------------

def supporting_halfplanes(dom: Domain, z, extra_points=()) -> np.ndarray:
    """Supporting functionals near ``z`` as one complex matrix ``F`` of shape
    ``(P, d)``: row ``p`` is ``<., n_p> / Re <a_p, n_p>``, scaled by ``1 -
    CENTER_RTOL``, for an anchor ``a_p`` and its outer unit normal ``n_p``.  The
    tangent plane at ``a_p`` supports the convex domain, which is balanced, so
    ``z -> F z`` maps it holomorphically into the polydisk ``Delta^P``.

    The anchors are the outer ends of the ``radial_exit`` brackets of the rays
    from 0, the domain's center, through any ``extra_points`` and, when the
    nearest boundary point to ``z`` has a normal, through that point and
    tangential offsets of ``z`` along its tangent frame over a 12-step
    geometric schedule (these capture the flat directions of low-type
    boundary points).  A row that ``boundary_normals`` rejects at ``tol = 1e-6``
    (a polydisk tie, a non-finite value) gives no functional.
    """
    z = dom.require_inside(finite_point(z, dom.dimension, "point"))
    rays = [finite_point(p, dom.dimension, "extra point") for p in extra_points]
    base = dom.project_to_boundary(z)
    base_normal, base_ok, _ = boundary_normals(dom, base[None, :], 1e-6)
    if base_ok[0]:
        delta = float(np.linalg.norm(base - z))
        top = max(4.0 * delta, 0.5 * dom.bounding_radius)
        t_schedule = np.geomspace(max(delta, 1e-8) * 0.5, top, 12)
        frame = np.array(_tangent_frame(-base_normal[0]))
        offsets = z + t_schedule[None, :, None] * frame[:, None, :]
        rays = [base] + list(offsets.reshape(-1, dom.dimension)) + rays
    # a point at the center gives no ray
    dirs = np.reshape(rays, (-1, dom.dimension))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 0] / norms[norms > 0, None]
    _, hi = radial_exit(dom, dirs)
    anchors = hi[:, None] * dirs
    normals, ok, _ = boundary_normals(dom, anchors, 1e-6)
    support = np.sum(anchors[ok] * np.conj(normals[ok]), axis=1).real
    return (1.0 - CENTER_RTOL) * np.conj(normals[ok]) / support[:, None]


def _image_moduli(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``|F x|`` for each column ``x`` of ``X``, rounded down by ``CENTER_RTOL (|F| @ |x| + tiny)``
    (more than the product's rounding and underflow) and clipped at 0."""
    return np.maximum(0.0, _modulus(F @ X) - CENTER_RTOL * (np.abs(F) @ np.abs(X) + np.finfo(float).tiny))


def _disc_metric_lower(F: np.ndarray, z, v) -> float:
    """The polydisk metric of the images, ``max_p |f_p v| / (1 - |f_p z|^2)``;
    a row that maps ``z`` onto or past the unit circle gives no bound."""
    moduli = _image_moduli(F, np.stack([z, v], axis=1))
    a, dv = moduli[moduli[:, 0] < 1.0].T
    return float(np.max(dv / ((1.0 - a) * (1.0 + a)), initial=0.0))


def _disc_dist_lower(F: np.ndarray, z, w) -> float:
    """The polydisk distance of the images, ``max_p atanh m_p`` with ``m = |a - b| / |1 - conj(a) b|``
    for ``a = f_p z`` and ``b = f_p w``.  As ``|1 - conj(a) b|^2 = |a - b|^2 + q``, ``q = (1 - |a|^2)(1 - |b|^2)``,
    ``atanh m = asinh(|a - b| / sqrt q)``, which grows with the three moduli, all rounded down, and keeps
    its digits near 1; ``|a - b| = |F(z - w)|`` keeps those of close pairs.  A row mapping ``z`` or ``w`` onto
    or past the unit circle gives 0."""
    moduli = _image_moduli(F, np.stack([z, w, z - w], axis=1))
    a, b, d = moduli[(moduli[:, 0] < 1.0) & (moduli[:, 1] < 1.0)].T
    return float(np.max(np.arcsinh(d / np.sqrt((1.0 - a) * (1.0 + a) * (1.0 - b) * (1.0 + b))), initial=0.0))


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
    ball, ``|v| / R``, and the polydisk metric of the images under the
    functionals of ``supporting_halfplanes(z)`` (holomorphic maps contract the
    metric), clamped to the upper bound.  Since ``k(z; t v) = |t| k(z; v)``, the
    interval is found for ``v`` scaled by ``pow2_scaled`` and scaled back, so
    a direction below ``1e-154`` keeps its digits.
    """
    z = dom.require_inside(finite_point(z, dom.dimension, "point"))
    v, exponent = pow2_scaled(finite_point(v, dom.dimension, "direction"))
    vn = float(np.linalg.norm(v))
    if vn == 0:
        return DistInterval.exact(0.0)

    if tighten_with_model and has_model_formulas(dom):
        return DistInterval.exact(math.ldexp(model_metric(dom, z, v), exponent))

    upper = vn / line_boundary_distance(dom, z, v)
    F = supporting_halfplanes(dom, z)
    lower = max((1.0 - CENTER_RTOL) * vn / dom.bounding_radius, _disc_metric_lower(F, z, v))
    return DistInterval(_ldexp_out(min(lower, upper), exponent, up=False), _ldexp_out(upper, exponent, up=True))


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

    The bound is summed for the chord scaled by ``pow2_scaled`` and scaled
    back at the end, so distinct points closer than ``1e-154`` keep their
    digits instead of returning 0.
    """
    chord = w - z
    if not np.any(chord):
        return 0.0
    direction, exponent = pow2_scaled(chord)
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
    return _ldexp_out(bound, exponent, up=True)


def _chord_rule(radii: np.ndarray) -> float:
    """``int_0^1 ds / l(s)`` for the piecewise-linear ``l`` through radii on a
    uniform grid: ``h/r0 log1p(x)/x`` per piece, ``x = r1/r0 - 1``."""
    r0 = radii[:-1]
    x = radii[1:] / r0 - 1.0
    ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0)
    return float(np.sum(ratio / r0)) / len(r0)


def center_dist(dom: Domain, zs) -> tuple[np.ndarray, np.ndarray]:
    """Certified ``(lower, upper)`` of ``K(0, z) = atanh h(z)`` for the rows of a
    stack ``(N, d)``: the ``radial_exit`` bracket of the ray ``t u``, ``u = 2^-e z``
    exactly, holds ``2^e / h(z)``; it is widened by ``CENTER_RTOL``, the ``atanh``
    rounded out.  A zero row gives exactly ``(0, 0)``, an upper end at 1 ``inf``."""
    bounds = np.zeros((2, len(zs)))
    moving = np.any(zs != 0, axis=1)
    if moving.any():
        rays, exponent = pow2_scaled(zs[moving])
        lo, hi = radial_exit(dom, rays)
        ends = np.ldexp(1.0 / np.stack([hi * (1 + CENTER_RTOL), lo * (1 - CENTER_RTOL)]), exponent)
        with np.errstate(divide="ignore"):   # atanh(1) = inf
            bounds[:, moving] = round_out(*np.arctanh(np.minimum(ends, 1.0)))
    return bounds[0], bounds[1]


def dist_bounds(dom: Domain, z, w, tighten_with_model: bool = True) -> DistInterval:
    """Certified interval for the Kobayashi distance ``K(z, w)``.

    The upper bound is ``_route_upper``; the lower bound is the best of
    ``|w - z| / R``, the polydisk distance of the images under the functionals
    at the midpoint, with ``z`` and ``w`` as extra points, and the reverse
    triangle inequality of the two ``center_dist`` brackets.  On model kinds
    the closed form is returned.
    """
    z = dom.require_inside(finite_point(z, dom.dimension, "point"))
    w = dom.require_inside(finite_point(w, dom.dimension, "point"))
    if np.allclose(z, w, atol=0, rtol=0):
        return DistInterval.exact(0.0)

    if tighten_with_model and has_model_formulas(dom):
        return DistInterval.exact(model_dist(dom, z, w))

    (lz, lw), (uz, uw) = center_dist(dom, np.vstack([z, w]))   # K(0, z) in [lz, uz], K(0, w) in [lw, uw]
    upper = _route_upper(dom, z, w, uz + uw)
    F = supporting_halfplanes(dom, z + 0.5 * (w - z), extra_points=(z, w))
    chord = (1.0 - CENTER_RTOL) * math.hypot(*np.abs(w - z)) / dom.bounding_radius   # hypot: no squares underflow
    lower = max(chord, _disc_dist_lower(F, z, w), lz - uw, lw - uz)
    return DistInterval(min(lower, upper), upper)


def dist_uppers(dom: Domain, zs, ws) -> np.ndarray:
    """Upper bounds on ``K(z, w)`` for the rows of two stacks ``(N, d)``: the
    stacked ``model_dist`` on the disk, ball and polydisk, else each row's
    ``dist_bounds(...).upper``, with one ``center_dist`` call per stack."""
    if has_model_formulas(dom):
        return model_dist(dom, zs, ws)
    zs, ws = _require_stacks(dom, zs, ws)
    via = center_dist(dom, zs)[1] + center_dist(dom, ws)[1]
    return np.array([0.0 if np.array_equal(z, w) else _route_upper(dom, z, w, c) for z, w, c in zip(zs, ws, via)])


def _route_upper(dom: Domain, z: np.ndarray, w: np.ndarray, through_center: float) -> float:
    """The better of two polygonal routes from ``z`` to ``w``: the straight
    chord and the route through the center, of length ``through_center``,
    which is exact (so the chord is skipped) when ``z`` or ``w`` is 0."""
    if not (np.any(z) and np.any(w)):
        return float(through_center)
    return min(_segment_upper(dom, z, w), float(through_center))


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
    side of ``metric_bounds`` without its clamp to the upper bound, from the
    functionals built once per radius; no ``line_boundary_distance`` is needed.
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
        F = supporting_halfplanes(dom, z)
        for v in dirs:
            vn = float(np.linalg.norm(v))
            klo = max((1.0 - CENTER_RTOL) * vn / dom.bounding_radius, _disc_metric_lower(F, z, v))
            alpha = min(alpha, klo * delta ** (1.0 / ell) / vn)
    if not math.isfinite(alpha) or alpha <= 0:
        raise PointOutsideDomain("calibration grid produced no usable lower bounds")
    return FiniteTypeCalibration(alpha0=float(alpha), ell=float(ell))
