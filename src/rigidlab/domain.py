"""Bounded domains in C^d and their Euclidean boundary geometry.

Points of C^d are numpy complex arrays of shape ``(d,)``; the real picture
uses the interleaved coordinates ``(x_1, y_1, ..., x_d, y_d)``.  Every domain
carries a smooth defining function ``r`` with ``z in Omega  iff  r(z) < 0``,
plus gradient and Hessian oracles for the boundary computations.

The Hermitian pairing ``<u, v> = sum_j u_j * conj(v_j)`` is used throughout;
with this convention the complex gradient ``grad_c r = 2 * dr/dzbar`` is the
usual real gradient read as a complex vector, and the complex tangent
hyperplane at a boundary point is the kernel of ``w -> <w, grad_c r>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import (
    ApexNotOnBoundary,
    BoundaryDataUnavailable,
    ConfigInvalid,
    DegenerateGradient,
    PointOutsideDomain,
    TypeEstimateUnstable,
)

BOUNDARY_TOL = 1e-12          # |r(xi)| tolerance for "on the boundary"
GRADIENT_TOL = 1e-12          # degenerate-gradient threshold
STRONG_CONVEXITY_MARGIN = 1e-8  # min eigenvalue separating flat directions from roundoff
FD_STEP = 1e-5                # central-difference step for implicit fallbacks


# ---------------------------------------------------------------------------
# real <-> complex coordinate bridges
# ---------------------------------------------------------------------------

def as_point(z, d: int) -> np.ndarray:
    """Coerce ``z`` to a complex vector of length ``d``."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (d,):
        raise ValueError(f"expected a point of C^{d}, got shape {arr.shape}")
    return arr


def c2r(z: np.ndarray) -> np.ndarray:
    """C^d -> R^{2d}, interleaved (x1, y1, ..., xd, yd)."""
    out = np.empty(2 * len(z))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def r2c(x: np.ndarray) -> np.ndarray:
    """R^{2d} -> C^d inverse of :func:`c2r`."""
    return x[0::2] + 1j * x[1::2]


def herm(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian pairing, conjugate-linear in the second slot."""
    return complex(np.sum(u * np.conj(v)))


# ---------------------------------------------------------------------------
# boundary data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """Complex affine hyperplane ``{z : <z - anchor, normal> = 0}``."""

    anchor: np.ndarray
    normal: np.ndarray  # unit Hermitian normal

    def offset(self, z) -> complex:
        return herm(np.asarray(z, dtype=complex) - self.anchor, self.normal)

    def contains(self, z, tol: float = 1e-10) -> bool:
        return abs(self.offset(z)) <= tol

    def angle_to(self, other: "Hyperplane") -> float:
        """Grassmannian distance: angle between unit normal directions."""
        c = abs(herm(self.normal, other.normal))
        return math.acos(min(1.0, c))


@dataclass(frozen=True)
class BoundaryData:
    point: np.ndarray
    inward_normal: np.ndarray
    tangent_hyperplane: Hyperplane
    strongly_convex: bool
    convexity_margin: float


@dataclass(frozen=True)
class Cone:
    """Truncated Euclidean cone with apex on the boundary.

    Contains the points ``z`` with ``0 < |z - apex| < length`` whose
    direction from the apex makes an angle ``< aperture`` with ``direction``.
    """

    apex: np.ndarray
    direction: np.ndarray
    aperture: float  # radians, in (0, pi/2]
    length: float

    def __post_init__(self):
        if not (0.0 < self.aperture <= math.pi / 2):
            raise ValueError("aperture must lie in (0, pi/2]")
        if self.length <= 0:
            raise ValueError("length must be positive")


@dataclass(frozen=True)
class ConeCertificate:
    ok: bool
    margin: float
    delta_bound_ok: bool
    samples: int


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class Domain:
    """Base class: bounded domain with defining-function oracles."""

    kind: str = "abstract"
    dimension: int
    bounding_radius: float
    convex: bool = True
    smooth: bool = True

    # -- defining function oracles -----------------------------------------

    def defining(self, z) -> float:
        raise NotImplementedError

    def grad_c(self, z) -> np.ndarray:
        """Real gradient of the defining function as a complex vector."""
        z = as_point(z, self.dimension)
        x = c2r(z)
        g = np.empty_like(x)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = FD_STEP
            g[i] = (self._def_real(x + e) - self._def_real(x - e)) / (2 * FD_STEP)
        return r2c(g)

    def hessian_real(self, z) -> np.ndarray:
        z = as_point(z, self.dimension)
        x = c2r(z)
        n = len(x)
        h = np.empty((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = FD_STEP
            for j in range(i, n):
                ej = np.zeros(n)
                ej[j] = FD_STEP
                val = (
                    self._def_real(x + ei + ej)
                    - self._def_real(x + ei - ej)
                    - self._def_real(x - ei + ej)
                    + self._def_real(x - ei - ej)
                ) / (4 * FD_STEP**2)
                h[i, j] = h[j, i] = val
        return h

    def _def_real(self, x: np.ndarray) -> float:
        return self.defining(r2c(x))

    # -- membership ----------------------------------------------------------

    def contains(self, z, margin: float = 0.0) -> bool:
        return self.defining(z) < -margin

    def defining_many(self, zs: np.ndarray) -> np.ndarray:
        """Defining function on a batch of points, shape (k, d)."""
        return np.array([self.defining(z) for z in zs])

    def contains_all(self, zs: np.ndarray) -> bool:
        return bool(np.all(self.defining_many(zs) < 0))

    def require_inside(self, z) -> np.ndarray:
        z = as_point(z, self.dimension)
        if not self.contains(z):
            raise PointOutsideDomain(f"point {z} is not in the domain ({self.kind})")
        return z

    # -- boundary geometry ----------------------------------------------------

    def project_to_boundary(self, z) -> np.ndarray:
        """Nearest boundary point (unique for convex domains)."""
        raise NotImplementedError

    def boundary_distance_exact(self, z) -> float | None:
        """Closed-form boundary distance, or None when unavailable."""
        return None

    def center(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=complex)


class DiskDomain(Domain):
    """Unit disk in C (the d = 1 ball)."""

    kind = "disk"

    def __init__(self):
        self.dimension = 1
        self.bounding_radius = 1.0

    def defining(self, z):
        z = as_point(z, 1)
        return float(np.abs(z[0]) ** 2 - 1.0)

    def defining_many(self, zs):
        return np.abs(np.asarray(zs, dtype=complex)[:, 0]) ** 2 - 1.0

    def grad_c(self, z):
        return 2.0 * as_point(z, 1)

    def hessian_real(self, z):
        return 2.0 * np.eye(2)

    def project_to_boundary(self, z):
        z = as_point(z, 1)
        n = np.abs(z[0])
        if n == 0:
            return np.array([1.0 + 0j])
        return z / n

    def boundary_distance_exact(self, z):
        return 1.0 - float(np.abs(as_point(z, 1)[0]))


class BallDomain(Domain):
    """Unit Euclidean ball in C^d."""

    kind = "ball"

    def __init__(self, d: int):
        self.dimension = int(d)
        self.bounding_radius = 1.0

    def defining(self, z):
        z = as_point(z, self.dimension)
        return float(np.sum(np.abs(z) ** 2) - 1.0)

    def defining_many(self, zs):
        return np.sum(np.abs(np.asarray(zs, dtype=complex)) ** 2, axis=1) - 1.0

    def grad_c(self, z):
        return 2.0 * as_point(z, self.dimension)

    def hessian_real(self, z):
        return 2.0 * np.eye(2 * self.dimension)

    def project_to_boundary(self, z):
        z = as_point(z, self.dimension)
        n = np.linalg.norm(z)
        if n == 0:
            out = np.zeros(self.dimension, dtype=complex)
            out[0] = 1.0
            return out
        return z / n

    def boundary_distance_exact(self, z):
        return 1.0 - float(np.linalg.norm(as_point(z, self.dimension)))


class PolydiskDomain(Domain):
    """Unit polydisk D^d.  The boundary is only piecewise smooth; the
    smooth-boundary operations require a unique maximal coordinate."""

    kind = "polydisk"
    smooth = False

    def __init__(self, d: int):
        self.dimension = int(d)
        self.bounding_radius = math.sqrt(d)

    def defining(self, z):
        z = as_point(z, self.dimension)
        return float(np.max(np.abs(z)) ** 2 - 1.0)

    def defining_many(self, zs):
        return np.max(np.abs(np.asarray(zs, dtype=complex)), axis=1) ** 2 - 1.0

    def project_to_boundary(self, z):
        z = as_point(z, self.dimension).copy()
        j = int(np.argmax(np.abs(z)))
        zj = z[j]
        if abs(zj) < 2.0**-600:   # a subnormal |zj| overflows zj / |zj|: rescale exactly
            zj = zj * 2.0**600
        z[j] = zj / abs(zj) if abs(zj) > 0 else 1.0
        return z

    def boundary_distance_exact(self, z):
        z = as_point(z, self.dimension)
        return float(np.min(1.0 - np.abs(z)))


class EllipsoidDomain(Domain):
    """Complex ellipsoid ``sum_j |z_j|^{2 m_j} < 1`` with integer exponents."""

    kind = "ellipsoid"

    def __init__(self, exponents: Sequence[int]):
        self.exponents = tuple(int(m) for m in exponents)
        if any(m < 1 for m in self.exponents):
            raise ValueError("exponents must be >= 1")
        self.dimension = len(self.exponents)
        self.bounding_radius = math.sqrt(self.dimension)

    def defining(self, z):
        z = as_point(z, self.dimension)
        m = np.asarray(self.exponents)
        return float(np.sum(np.abs(z) ** (2 * m)) - 1.0)

    def defining_many(self, zs):
        m = np.asarray(self.exponents)
        return np.sum(np.abs(np.asarray(zs, dtype=complex)) ** (2 * m[None, :]), axis=1) - 1.0

    def grad_c(self, z):
        z = as_point(z, self.dimension)
        m = np.asarray(self.exponents)
        mod2 = np.abs(z) ** 2
        # 2 * d/dzbar of |z|^{2m} = 2 m |z|^{2(m-1)} z
        with np.errstate(invalid="ignore"):
            pow_term = np.where(mod2 > 0, mod2 ** (m - 1), np.where(m == 1, 1.0, 0.0))
        return 2.0 * m * pow_term * z

    def hessian_real(self, z):
        z = as_point(z, self.dimension)
        n = 2 * self.dimension
        h = np.zeros((n, n))
        for j, m in enumerate(self.exponents):
            x, y = z[j].real, z[j].imag
            s = x * x + y * y
            blk = np.zeros((2, 2))
            if m == 1:
                blk = 2.0 * np.eye(2)
            else:
                if s > 0:
                    blk = 2 * m * s ** (m - 1) * np.eye(2)
                    blk += 4 * m * (m - 1) * s ** (m - 2) * np.outer([x, y], [x, y])
            h[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = blk
        return h

    def project_to_boundary(self, z):
        z = as_point(z, self.dimension)
        mods = np.abs(z)
        best = _project_moduli(np.asarray(self.exponents, dtype=float), mods)
        z = np.where(mods < 2.0**-600, z * 2.0**600, z)   # a subnormal |z_j| overflows z_j / |z_j|
        phases = np.where(mods > 0, z / np.where(mods > 0, np.abs(z), 1.0), 1.0)
        return best * phases


class ImplicitConvexDomain(Domain):
    """Convex domain given by defining-function oracles.

    ``grad`` and ``hess`` are optional; central differences with step
    ``FD_STEP`` are used when they are missing.
    """

    kind = "implicit"

    def __init__(
        self,
        func: Callable[[np.ndarray], float],
        dimension: int,
        bounding_radius: float,
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
        hess: Callable[[np.ndarray], np.ndarray] | None = None,
        center: np.ndarray | None = None,
    ):
        self._func = func
        self.dimension = int(dimension)
        self.bounding_radius = float(bounding_radius)
        self._grad = grad
        self._hess = hess
        self._center = (
            np.zeros(self.dimension, dtype=complex) if center is None else as_point(center, dimension)
        )

    def defining(self, z):
        return float(self._func(as_point(z, self.dimension)))

    def grad_c(self, z):
        if self._grad is not None:
            return np.asarray(self._grad(as_point(z, self.dimension)), dtype=complex)
        return super().grad_c(z)

    def hessian_real(self, z):
        if self._hess is not None:
            return np.asarray(self._hess(as_point(z, self.dimension)), dtype=float)
        return super().hessian_real(z)

    def center(self):
        return self._center

    def project_to_boundary(self, z):
        z = as_point(z, self.dimension)
        x0 = c2r(z)

        # scale outward from the center until the ray crosses the boundary
        c = c2r(self.center())
        direction = x0 - c
        if np.linalg.norm(direction) < 1e-14:
            direction = np.zeros_like(x0)
            direction[0] = 1.0
        t_hi = 1.0
        while self._def_real(c + t_hi * direction) < 0:
            t_hi *= 2.0
            if t_hi > 1e6:
                raise PointOutsideDomain("could not bracket the boundary")
        start = c + t_hi * direction

        res = minimize(
            lambda x: np.sum((x - x0) ** 2),
            start,
            jac=lambda x: 2.0 * (x - x0),
            method="SLSQP",
            constraints=[{"type": "eq", "fun": self._def_real}],
            options={"maxiter": 200, "ftol": 1e-14},
        )
        w = res.x
        w = _kkt_polish(self, x0, w)
        return r2c(w)


class _ModulusPolynomialDomain(ImplicitConvexDomain):
    """An implicit domain whose ``func`` also takes a stack of points."""

    def defining_many(self, zs):
        return self._func(np.asarray(zs, dtype=complex))


def _project_moduli(exponents: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """Nearest point on ``sum x_j^{2 e_j} = 1`` (x >= 0) to the modulus vector."""

    def constraint(x):
        return float(np.sum(np.maximum(x, 0.0) ** (2 * exponents)) - 1.0)

    def cgrad(x):
        xs = np.maximum(x, 0.0)
        return 2 * exponents * xs ** (2 * exponents - 1)

    # radial initial guess on the surface
    scale_lo, scale_hi = 0.0, 2.0
    base = np.where(m0 > 1e-9, m0, 1e-3)
    while np.sum((scale_hi * base) ** (2 * exponents)) < 1.0:
        scale_hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (scale_lo + scale_hi)
        if np.sum((mid * base) ** (2 * exponents)) < 1.0:
            scale_lo = mid
        else:
            scale_hi = mid
    x0 = 0.5 * (scale_lo + scale_hi) * base

    res = minimize(
        lambda x: np.sum((x - m0) ** 2),
        x0,
        jac=lambda x: 2.0 * (x - m0),
        method="SLSQP",
        bounds=[(0.0, None)] * len(m0),
        constraints=[{"type": "eq", "fun": constraint, "jac": cgrad}],
        options={"maxiter": 200, "ftol": 1e-16},
    )
    x = np.maximum(res.x, 0.0)

    # Newton polish of the KKT system  x - m0 = lam * grad c(x),  c(x) = 0
    lam = 0.0
    g = cgrad(x)
    nz = np.abs(g) > 1e-12
    if np.any(nz):
        lam = float(np.mean((x[nz] - m0[nz]) / g[nz]))
    for _ in range(40):
        g = cgrad(x)
        chess = np.diag(2 * exponents * (2 * exponents - 1) * np.maximum(x, 1e-300) ** (2 * exponents - 2))
        jac = np.block(
            [[np.eye(len(x)) - lam * chess, -g[:, None]], [g[None, :], np.zeros((1, 1))]]
        )
        rhs = np.concatenate([x - m0 - lam * g, [constraint(x)]])
        try:
            step = np.linalg.solve(jac, -rhs)
        except np.linalg.LinAlgError:
            break
        x = np.maximum(x + step[:-1], 0.0)
        lam += step[-1]
        if np.linalg.norm(rhs) < 1e-14:
            break
    return x


def _kkt_polish(dom: Domain, x0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Newton-polish ``w`` toward the exact nearest boundary point to ``x0``."""
    for _ in range(30):
        z = r2c(w)
        g = c2r(dom.grad_c(z))
        gn2 = float(g @ g)
        if gn2 < 1e-24:
            break
        lam = float((w - x0) @ g) / gn2
        hess = dom.hessian_real(z)
        n = len(w)
        jac = np.block([[np.eye(n) - lam * hess, -g[:, None]], [g[None, :], np.zeros((1, 1))]])
        rhs = np.concatenate([w - x0 - lam * g, [dom.defining(z)]])
        if np.linalg.norm(rhs) < 1e-14:
            break
        try:
            step = np.linalg.solve(jac, -rhs)
        except np.linalg.LinAlgError:
            break
        w = w + step[:-1]
    return w


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def disk() -> DiskDomain:
    return DiskDomain()


def ball(d: int) -> Domain:
    return DiskDomain() if d == 1 else BallDomain(d)


def polydisk(d: int) -> PolydiskDomain:
    return PolydiskDomain(d)


def ellipsoid(exponents: Sequence[int]) -> EllipsoidDomain:
    return EllipsoidDomain(exponents)


def implicit_convex(func, dimension, bounding_radius, grad=None, hess=None, center=None) -> ImplicitConvexDomain:
    return ImplicitConvexDomain(func, dimension, bounding_radius, grad, hess, center)


def modulus_polynomial(terms: Sequence[tuple[float, Sequence[int]]], dimension: int,
                       bounding_radius: float | None = None) -> ImplicitConvexDomain:
    """Convex domain ``sum_k c_k prod_j |z_j|^{2 a_kj} < 1`` with c_k > 0.

    This is the config-file form of an implicit domain: each term is a
    coefficient plus one exponent per coordinate.
    """
    terms = [(float(c), tuple(int(a) for a in alpha)) for c, alpha in terms]
    for c, alpha in terms:
        if c <= 0:
            raise ConfigInvalid("modulus polynomial coefficients must be positive")
        if len(alpha) != dimension:
            raise ConfigInvalid("exponent tuple length must equal the dimension")

    coef = np.array([c for c, _ in terms])
    powers = np.array([alpha for _, alpha in terms])   # (terms, d)

    def func(z):
        # one point (d,) or a stack (k, d): each term is a product over the last axis
        mod2 = np.abs(z)[..., None, :] ** 2
        return np.sum(coef * np.prod(mod2**powers, axis=-1), axis=-1) - 1.0

    if bounding_radius is None:
        # each coordinate axis is bounded by the smallest single-variable term
        bounding_radius = math.sqrt(dimension) * max(
            (1.0 / c) ** (1.0 / (2 * max(sum(alpha), 1))) for c, alpha in terms
        ) + 1.0
    return _ModulusPolynomialDomain(func, dimension, bounding_radius)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def boundary_distance(dom: Domain, z) -> float:
    """Euclidean distance from an interior point to the boundary."""
    z = dom.require_inside(z)
    exact = dom.boundary_distance_exact(z)
    if exact is not None:
        return exact
    w = dom.project_to_boundary(z)
    return float(np.linalg.norm(w - z))


def boundary_normal(dom: Domain, xi, tol: float = BOUNDARY_TOL) -> tuple[np.ndarray, float]:
    """Unit outward normal at a boundary point and ``|grad r|``, after the
    on-boundary and gradient checks (a non-finite value fails them too)."""
    xi = as_point(xi, dom.dimension)
    value = dom.defining(xi)
    grad = dom.grad_c(xi)
    gnorm = float(np.linalg.norm(grad))
    if not abs(value) <= tol * max(1.0, gnorm):
        raise ApexNotOnBoundary(f"defining function is {value:.3e} at {xi}")
    if not gnorm >= GRADIENT_TOL:
        raise DegenerateGradient("vanishing gradient on the boundary")
    return grad / gnorm, gnorm


def boundary_data(dom: Domain, xi, tol: float = BOUNDARY_TOL) -> BoundaryData:
    """Normal, complex tangent hyperplane and convexity type at a boundary point."""
    xi = as_point(xi, dom.dimension)
    normal_out, gnorm = boundary_normal(dom, xi, tol)
    hyperplane = Hyperplane(anchor=xi.copy(), normal=normal_out)

    # restricted real Hessian on the real tangent space
    hess = dom.hessian_real(xi)
    n_real = c2r(normal_out)
    n_real = n_real / np.linalg.norm(n_real)
    basis = _orthonormal_complement(n_real)
    restricted = basis.T @ hess @ basis
    eigs = np.linalg.eigvalsh(restricted)
    margin = float(eigs.min()) / gnorm
    return BoundaryData(
        point=xi.copy(),
        inward_normal=-normal_out,
        tangent_hyperplane=hyperplane,
        strongly_convex=bool(margin > STRONG_CONVEXITY_MARGIN),
        convexity_margin=margin,
    )


def _orthonormal_complement(v: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of the orthogonal complement of v."""
    n = len(v)
    mat = np.eye(n) - np.outer(v, v)
    q, _ = np.linalg.qr(mat)
    # drop the column (nearly) parallel to v
    keep = [j for j in range(n) if abs(q[:, j] @ v) < 0.9]
    cols = q[:, keep][:, : n - 1]
    if cols.shape[1] != n - 1:
        raise BoundaryDataUnavailable("failed to build tangent basis")
    return cols


def cone_certificate(dom: Domain, cone: Cone, grid: int = 24, rng=None) -> ConeCertificate:
    """Sample the truncated cone and certify containment in the domain.

    For convex domains the consequence ``delta(apex + t v) >= sin(theta) t``
    is checked along the axis as well.
    """
    apex = as_point(cone.apex, dom.dimension)
    if abs(dom.defining(apex)) > 1e-9:
        raise ApexNotOnBoundary("cone apex must lie on the boundary")
    v = as_point(cone.direction, dom.dimension)
    v = v / np.linalg.norm(c2r(v))
    rng = np.random.default_rng(0) if rng is None else rng

    v_real = c2r(v)
    comp = _orthonormal_complement(v_real)
    n_orth = comp.shape[1]

    worst = math.inf
    count = 0
    ok = True
    radii = cone.length * (np.arange(1, grid + 1)) / (grid + 1)
    # uniform angles plus a geometric approach to the (open) aperture,
    # which catches violations in the sliver along the cone's side
    angles = np.concatenate([
        cone.aperture * np.arange(grid) / grid,
        cone.aperture * (1.0 - 2.0 ** (-np.arange(2, 9, dtype=float))),
    ])
    for t in radii:
        for alpha in angles:
            if alpha == 0.0:
                dirs = [v_real]
            else:
                # frame directions plus seeded random combinations
                ws = [comp[:, k] for k in range(min(n_orth, 4))]
                extra = rng.standard_normal((2, n_orth)) @ comp.T
                ws += [w / np.linalg.norm(w) for w in extra]
                dirs = [math.cos(alpha) * v_real + math.sin(alpha) * w for w in ws]
            for u in dirs:
                z = apex + r2c(t * u)
                val = dom.defining(z)
                worst = min(worst, -val)
                count += 1
                if val >= 0:
                    ok = False

    delta_ok = True
    if ok and dom.convex:
        sin_t = math.sin(cone.aperture)
        for t in radii:
            p = apex + t * v
            if not dom.contains(p):
                delta_ok = False
                break
            if boundary_distance(dom, p) < sin_t * t - 1e-9:
                delta_ok = False
                break
    return ConeCertificate(ok=ok, margin=worst, delta_bound_ok=ok and delta_ok, samples=count)


def line_type(dom: Domain, xi, directions: int = 6, rng=None):
    """Maximal vanishing order of the defining function along complex tangent lines.

    Returns the closed-form value for model kinds and a log-log estimate for
    implicit domains.  Flat boundary pieces report ``math.inf``.
    """
    xi = as_point(xi, dom.dimension)
    if dom.dimension == 1:
        return 2
    if isinstance(dom, BallDomain):
        return 2
    if isinstance(dom, PolydiskDomain):
        return math.inf
    if isinstance(dom, EllipsoidDomain):
        zero = [2 * m for j, m in enumerate(dom.exponents) if abs(xi[j]) < 1e-12]
        return max(2, max(zero)) if zero else 2
    return _line_type_numeric(dom, xi, directions, rng)


def _line_type_numeric(dom: Domain, xi: np.ndarray, directions: int, rng) -> int:
    rng = np.random.default_rng(7) if rng is None else rng
    grad = dom.grad_c(xi)
    if np.linalg.norm(grad) < GRADIENT_TOL:
        raise DegenerateGradient("cannot form the tangent hyperplane")
    # complex-orthonormal basis of ker <., grad>
    d = dom.dimension
    q, _ = np.linalg.qr(np.column_stack([grad] + [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(d - 1)]))
    basis = [q[:, k] for k in range(1, d)]
    cands = list(basis)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            cands.append((basis[a] + basis[b]) / math.sqrt(2))
    while len(cands) < directions:
        coef = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        w = sum(c * e for c, e in zip(coef, basis))
        cands.append(w / np.linalg.norm(w))

    ts = np.geomspace(1e-3, 1e-2, 10)
    best = 0.0
    for w in cands:
        slopes = []
        for phase in (1.0, np.exp(0.25j * math.pi), 1j, np.exp(0.75j * math.pi)):
            vals = np.array([dom.defining(xi + t * phase * w) for t in ts])
            if np.any(vals <= 0):
                slopes.append(1.0)  # direction leaves the tangent cone
                continue
            slope, _ = np.polyfit(np.log(ts), np.log(vals), 1)
            slopes.append(slope)
        best = max(best, min(slopes))
    rounded = 2 * round(best / 2)  # convexity forces even vanishing order
    if abs(best - rounded) > 0.1:
        raise TypeEstimateUnstable(f"slope {best:.3f} is not near an even integer")
    return max(2, int(rounded))


# ---------------------------------------------------------------------------
# config interface
# ---------------------------------------------------------------------------

def domain_from_config(cfg: dict) -> Domain:
    """Build a domain from its JSON description.

    Recognized forms::

        {"kind": "disk"}
        {"kind": "ball", "dimension": 2}
        {"kind": "polydisk", "dimension": 2}
        {"kind": "ellipsoid", "exponents": [1, 2]}
        {"kind": "implicit", "dimension": 2, "terms": [[1.0, [1, 0]], [1.0, [0, 2]]]}
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigInvalid("domain config must be an object with a 'kind' field")
    kind = cfg["kind"]
    known = {
        "disk": {"kind"},
        "ball": {"kind", "dimension"},
        "polydisk": {"kind", "dimension"},
        "ellipsoid": {"kind", "exponents"},
        "implicit": {"kind", "dimension", "terms", "bounding_radius"},
    }
    if kind not in known:
        raise ConfigInvalid(f"unknown domain kind {kind!r}")
    extra = set(cfg) - known[kind]
    if extra:
        raise ConfigInvalid(f"unknown domain config keys {sorted(extra)}")
    if kind == "disk":
        return disk()
    if kind == "ball":
        return ball(int(cfg.get("dimension", 2)))
    if kind == "polydisk":
        return polydisk(int(cfg.get("dimension", 2)))
    if kind == "ellipsoid":
        return ellipsoid(cfg["exponents"])
    return modulus_polynomial(
        [(c, alpha) for c, alpha in cfg["terms"]],
        int(cfg["dimension"]),
        cfg.get("bounding_radius"),
    )
