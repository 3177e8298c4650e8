"""Kobayashi metric and distance: exact model formulas and certified bounds.

On the disk, ball and polydisk the invariant metric and distance have closed
forms and are returned exactly.  On a general bounded convex domain the module
produces certified two-sided estimates:

* upper bounds come from round holomorphic discs inside the domain (the
  metric is dominated by ``|v| / delta`` with ``delta`` measured along the
  complex line of the direction) and from integrating that bound along the
  straight segment between two points;
* lower bounds come from supporting hyperplanes: each supporting functional
  maps the domain into a half-plane, whose invariant metric and distance are
  explicit, and holomorphic maps contract the metric.

The half-plane family is searched near the base point and along tangent
offsets, which is what makes the bounds scale correctly near low-type
boundary points.

Points are complex arrays of shape ``(d,)``.  ``line_boundary_distance`` also
takes a stack of shape ``(N, d)`` with one shared direction and returns the
``N`` radii; a ``(d,)`` point gives a float.  The segment integral of the
upper bound uses this to evaluate each depth of its adaptive Simpson rule in
one call.
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
    boundary_distance,
    boundary_data,
    c2r,
    herm,
)
from .errors import ConfigInvalid, NotConvex, PointOutsideDomain, RadiusTooLarge, ZeroVector
from .intervals import DistInterval

SIMPSON_TOL = 1e-8        # adaptive Simpson tolerance for distance upper bounds
SIMPSON_DEPTH = 28        # bisections after which an interval closes regardless
LINE_BISECTIONS = 60      # root bracketing steps along complex lines
LINE_PHASES = 32          # phase grid certifying a round disc inside a slice
LINE_SAFETY = 1.0 - 1e-9  # shrink factor applied to sampled slice radii


def _atanh(m: float) -> float:
    m = min(max(m, 0.0), 1.0 - 1e-16)
    return 0.5 * math.log((1.0 + m) / (1.0 - m))


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
    d = w - z
    wedge = np.outer(z, d) - np.outer(d, z)   # z_i d_j - z_j d_i, each pair twice
    num = float(np.sum(np.abs(d) ** 2)) - 0.5 * float(np.sum(np.abs(wedge) ** 2))
    m2 = max(0.0, num / abs(1.0 - herm(z, w)) ** 2)
    return math.atanh(min(math.sqrt(m2), 1.0 - 1e-16))


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

def _direction(dom: Domain, v) -> np.ndarray:
    v = as_point(v, dom.dimension)
    if not np.all(np.isfinite(v)):
        raise ConfigInvalid(f"direction must be finite, got {v}")
    return v


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
        zs = dom.require_inside(zs)[None, :]
    elif zs.shape[1:] != (dom.dimension,):
        raise ValueError(f"expected points of C^{dom.dimension}, got shape {zs.shape}")
    elif not dom.contains_all(zs):
        raise PointOutsideDomain(f"a point of the stack is not in the domain ({dom.kind})")
    v = _direction(dom, v)
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
        n = len(zs)
        phases = np.exp(2j * math.pi * np.arange(LINE_PHASES) / LINE_PHASES)[None, :, None]
        base, u = zs[:, None, :], u[None, None, :]
        hi = np.full(n, 2.0 * dom.bounding_radius)
        lo = np.zeros(n)
        for _ in range(LINE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            pts = base + mid[:, None, None] * phases * u
            inside = dom.defining_many(pts.reshape(-1, dom.dimension)).reshape(n, -1).max(axis=1) < 0
            np.copyto(lo, mid, where=inside)
            np.copyto(hi, mid, where=~inside)
        radii = lo * LINE_SAFETY
    return float(radii[0]) if single else radii


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

    The family contains the nearest boundary point, the projections of
    tangential offsets of ``z`` over a geometric schedule (these capture the
    flat directions of low-type boundary points), and projections of any
    ``extra_points``.
    """
    z = dom.require_inside(z)
    seeds = [np.asarray(z, dtype=complex)]
    seeds += [as_point(p, dom.dimension) for p in extra_points]

    candidates = []
    base_proj = dom.project_to_boundary(z)
    candidates.append(base_proj)
    try:
        bd = boundary_data(dom, base_proj, tol=1e-6)
        normal = bd.inward_normal
    except Exception:
        normal = None

    if t_schedule is None:
        delta = float(np.linalg.norm(base_proj - z))
        top = max(4.0 * delta, 0.5 * dom.bounding_radius)
        t_schedule = np.geomspace(max(delta, 1e-8) * 0.5, top, 12)

    if normal is not None and dom.dimension >= 1:
        # offset z along tangent frame directions and project back
        frame = _tangent_frame(normal)
        for w in frame:
            for t in t_schedule:
                p = z + t * w
                try:
                    candidates.append(dom.project_to_boundary(p))
                except Exception:
                    continue
    for p in seeds[1:]:
        try:
            candidates.append(dom.project_to_boundary(p))
        except Exception:
            continue

    planes = []
    for xi in candidates:
        try:
            bd = boundary_data(dom, xi, tol=1e-6)
        except Exception:
            continue
        planes.append(SupportingHalfplane(anchor=bd.point, inward=bd.inward_normal))
    return planes


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
    z = dom.require_inside(z)
    v = _direction(dom, v)
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


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson rule on ``[a, b]``, one bisection depth at a time.

    ``f`` maps an array of abscissae to an array of values.  Each depth
    evaluates the two new midpoints of every open interval in one call.  An
    interval closes when ``|left + right - whole| <= 15 tol`` or after
    ``SIMPSON_DEPTH`` bisections, and contributes ``left + right`` plus the
    Richardson term.  The closed values are summed pairwise up the bisection
    tree, so the result is the depth-first recursion's float, bit for bit.
    """
    fa, fm, fb = f(np.array([a, 0.5 * (a + b), b]))[:, None]
    a, b = np.array([a]), np.array([b])
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    levels = []  # per depth: (value of each interval, mask of the intervals that split)
    for depth in range(SIMPSON_DEPTH, -1, -1):
        m = 0.5 * (a + b)
        flm, frm = np.split(f(np.concatenate([0.5 * (a + m), 0.5 * (m + b)])), 2)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        split = ~(np.abs(left + right - whole) <= 15 * tol) & (depth > 0)
        levels.append((left + right + (left + right - whole) / 15, split))
        if not split.any():
            break
        # the two halves of each splitting interval, in left-to-right order
        a, b = _halves(split, a, m), _halves(split, m, b)
        fa, fm, fb = _halves(split, fa, fm), _halves(split, flm, frm), _halves(split, fm, fb)
        whole = _halves(split, left, right)
    total = levels.pop()[0]
    for value, split in reversed(levels):
        value[split] = total[0::2] + total[1::2]
        total = value
    return float(total[0])


def _halves(split: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return np.stack([first[split], second[split]], axis=1).ravel()


def _segment_upper(dom: Domain, z: np.ndarray, w: np.ndarray) -> float:
    """Integral of the metric upper bound along the straight segment."""
    chord = w - z
    chord_len = float(np.linalg.norm(chord))
    if chord_len == 0:
        return 0.0

    def integrand(s):
        p = z[None, :] + s[:, None] * chord[None, :]
        if not dom.contains_all(p):
            raise NotConvex("straight chord exits the domain")
        return chord_len / line_boundary_distance(dom, p, chord)

    return _adaptive_simpson(integrand, 0.0, 1.0, SIMPSON_TOL)


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
    z = dom.require_inside(z)
    w = dom.require_inside(w)
    if np.allclose(z, w, atol=0, rtol=0):
        return DistInterval.exact(0.0)

    if tighten_with_model and has_model_formulas(dom):
        return DistInterval.exact(model_dist(dom, z, w))

    upper = _segment_upper(dom, z, w)
    waypoints = [dom.center()] + [as_point(p, dom.dimension) for p in via]
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
class KobBall:
    """Invariant-metric ball; membership is decided through certified bounds."""

    dom: Domain
    center: np.ndarray
    radius: float

    def side(self, z) -> int:
        """+1 certified inside, -1 certified outside, 0 undecided."""
        iv = dist_bounds(self.dom, self.center, z)
        if iv.upper < self.radius:
            return 1
        if iv.lower > self.radius:
            return -1
        return 0


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
    p = dom.require_inside(p)
    rho = float(euclidean_radius)
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
    xi = as_point(xi, dom.dimension)
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
