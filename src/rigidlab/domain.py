"""Bounded domains in C^d and their Euclidean boundary geometry.

Points of C^d are numpy complex arrays of shape ``(d,)``; the real picture
uses the interleaved coordinates ``(x_1, y_1, ..., x_d, y_d)``.  Every domain
carries a defining function ``r`` with ``z in Omega  iff  r(z) < 0``, written
once on a stack of points (``defining_many``; ``defining`` reads it for one
point).  Every kind is balanced about 0 and gives the gradient of ``r``, the
nearest boundary point, the circumradius (the largest distance to the
boundary) and where a ray from 0 leaves it (the reciprocal of the Minkowski
gauge): the disk, ball and polydisk in closed form, the convex Reinhardt
domains (the modulus polynomials, the ellipsoid among them) from polynomial
tables in the moduli ``|z_j|``: Newton's method on a polynomial in the ray
parameter for the exit, and for the nearest and the farthest point Newton's
method on the KKT system from the local extrema of the distance over a
surface sample built once per domain.  The polydisk gradient exists only
where one coordinate has the largest modulus.  No derivative is estimated
numerically, and nothing here needs SciPy.

The Hermitian pairing ``<u, v> = sum_j u_j * conj(v_j)`` is used throughout;
with this convention the complex gradient ``grad_c r = 2 * dr/dzbar`` is the
usual real gradient read as a complex vector, and the complex tangent
hyperplane at a boundary point is the kernel of ``w -> <w, grad_c r>``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ApexNotOnBoundary,
    ConfigInvalid,
    DegenerateGradient,
    NoConvergence,
    PointOutsideDomain,
    SamplingEmpty,
)

BOUNDARY_TOL = 1e-12          # |r(xi)| tolerance for "on the boundary"
GRADIENT_TOL = 1e-12          # degenerate-gradient threshold
SAMPLE_BLOCKS = 50            # candidate blocks sample_ball draws before it gives up
RAY_BISECTIONS = 60           # halvings of every ray_exit bracket
RAY_SHORTLIST_AFTER = 8       # halvings on the whole step stack before ray_exit keeps the binding steps
RADIAL_WALK = 64              # float steps radial_exit takes from the gauge's exit before it gives up
GAUGE_NEWTON_STEPS = 100      # cap on the Newton steps of a modulus-polynomial exit
SURFACE_ANGLES = {2: 65, 3: 17}   # grid angles per polar angle of a modulus-polynomial surface sample
SURFACE_SAMPLE = 4096         # about the size of that sample beyond d = 3


# ---------------------------------------------------------------------------
# real <-> complex coordinate bridges
# ---------------------------------------------------------------------------

def as_point(z, d: int) -> np.ndarray:
    """Coerce ``z`` to a complex vector of length ``d``."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (d,):
        raise ValueError(f"expected a point of C^{d}, got shape {arr.shape}")
    return arr


def finite_point(z, d: int, name: str) -> np.ndarray:
    """``as_point(z, d)``; a non-finite entry raises ``ConfigInvalid`` naming ``name``."""
    arr = as_point(z, d)
    if not np.all(np.isfinite(arr)):
        raise ConfigInvalid(f"{name} must be finite, got {arr}")
    return arr


def c2r(z: np.ndarray) -> np.ndarray:
    """C^d -> R^{2d}, interleaved (x1, y1, ..., xd, yd); a stack ``(..., d)`` gives ``(..., 2d)``.
    Interleaved is the memory layout of a complex array, so this is a copy and a view."""
    return np.array(z, dtype=complex, order="C").view(float)


def r2c(x: np.ndarray) -> np.ndarray:
    """R^{2d} -> C^d inverse of :func:`c2r`, on stacks as well."""
    return np.array(x, dtype=float, order="C").view(complex)


def herm(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian pairing, conjugate-linear in the second slot."""
    return complex(np.sum(u * np.conj(v)))


def pow2_scaled(v: np.ndarray):
    """``(v 2^-e, e)`` with the largest entry modulus of ``v 2^-e`` (of each
    row of a stack) in ``[1/2, 1)``, ``e = 0`` for 0.  The scaling is exact, so
    the squares of entries below ``1e-154`` no longer underflow."""
    exponent = np.frexp(np.max(np.abs(v), axis=-1, keepdims=True))[1]
    return np.ldexp(v.real, -exponent) + 1j * np.ldexp(v.imag, -exponent), exponent[..., 0].tolist()


# ---------------------------------------------------------------------------
# the automorphisms of the unit ball
# ---------------------------------------------------------------------------

class BallTransvection:
    """The ball automorphism ``tau_a(w) = (a + P w + s Q w) / (1 + <w, a>)`` moving 0 to
    ``a`` (Rudin, *Function Theory in the Unit Ball of C^n*, 2.2.2: ``tau_a(w) = phi_a(-w)``),
    with ``P`` the projection onto ``C a``, ``Q = I - P``, ``s = sqrt(1 - |a|^2)`` and
    ``P + s Q = s I + a a^H / (1 + s)``.  Its inverse, written on ``d = y - a``, is ``(P d
    + s Q d) / (1 - <y, a>)`` and keeps the digits of ``y`` near ``a``; its differential is
    ``d tau_a(w) u = ((P + s Q) u - tau_a(w) <u, a>) / (1 + <w, a>)``, ``s^2 P + s Q`` at 0.
    ``a`` is one point ``(d,)`` or a stack ``(N, d)``; the maps take ``(..., d)`` arrays
    that broadcast against it.  A base point outside the open unit ball raises ``ConfigInvalid``.
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=complex)
        self.a, self.ac = a, a.conj()
        a2 = self._pair(a).real
        if not (a2 < 1.0).all():
            raise ConfigInvalid(f"the base point {a} of a ball automorphism must lie in the open unit ball")
        self.s2 = 1.0 - a2
        self.s = np.sqrt(self.s2)
        self.ka = a / (1.0 + self.s)

    def _pair(self, u):
        """``<u, a>``: a scalar for one vector, shape ``(..., 1)`` for a stack.  A stack
        never reaches BLAS: a threaded product on thousands of rows costs milliseconds
        here and leaves its threads spinning."""
        if u.ndim == self.a.ndim == 1:
            return u @ self.ac
        return np.einsum("...i,...i->...", u, self.ac)[..., None]

    def _lift(self, u, ua):
        """``(P + s Q) u`` from ``ua = <u, a>``."""
        return self.s * u + ua * self.ka

    def __call__(self, w):
        wa = self._pair(w)
        return (self.a + self._lift(w, wa)) / (1.0 + wa)

    def inverse(self, y):
        d = y - self.a
        da = self._pair(d)
        return self._lift(d, da) / (self.s2 - da)   # 1 - <y, a> = s^2 - <d, a>

    def inverse_modulus(self, y):
        """``|tau_a^-1(y)|``, shape ``(...,)``.  ``d`` is scaled by an exact power
        of two, so distinct points closer than ``1e-154`` keep their digits."""
        d, exponent = pow2_scaled(y - self.a)
        lifted = self._lift(d, self._pair(d))
        modulus = np.sqrt((lifted * lifted.conj()).real.sum(-1, keepdims=True)) / np.abs(1.0 - self._pair(y))
        return np.ldexp(modulus[..., 0], exponent)

    def differential(self, u, y=None):
        """``d tau_a u`` at 0, or at ``w = tau_a^-1(y)``, where ``1 + <w, a> = s^2 / (1 - <y, a>)``."""
        ua = self._pair(u)
        if y is None:
            return self.s * (u - ua * self.ka)
        return (self.s * u + ua * (self.ka - y)) * ((1.0 - self._pair(y)) / self.s2)

    def differential_inverse(self, u):
        """``d tau_a(0)^-1 u = (P + s Q) u / s^2``."""
        return self._lift(u, self._pair(u)) / self.s2


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

    def contains(self, z) -> bool:
        return abs(self.offset(z)) <= 1e-10

    def angle_to(self, other: "Hyperplane") -> float:
        """Grassmannian distance: angle between unit normal directions."""
        c = abs(herm(self.normal, other.normal))
        return math.acos(min(1.0, c))


@dataclass(frozen=True)
class BoundaryData:
    point: np.ndarray
    inward_normal: np.ndarray
    tangent_hyperplane: Hyperplane


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


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class Domain:
    """Base class: a bounded domain ``{r < 0}``.

    Each kind writes its defining function and its gradient once, on a stack
    of points (``defining_many``, ``grad_c_many``); the one-point ``defining``
    and ``grad_c`` read those bodies.  Each kind also writes
    ``project_to_boundary`` and ``exit_radii``.
    """

    kind: str = "abstract"
    dimension: int
    bounding_radius: float

    # -- defining function oracles -----------------------------------------

    def defining_many(self, zs: np.ndarray) -> np.ndarray:
        """Defining function on a stack of points, shape (k, d) -> (k,)."""
        raise NotImplementedError

    def defining(self, z) -> float:
        return float(self.defining_many(as_point(z, self.dimension)[None, :])[0])

    def grad_c_many(self, zs: np.ndarray) -> np.ndarray:
        """Real gradient of the defining function as a complex vector, on
        points of shape ``(..., d)``; NaN where it does not exist (a polydisk
        corner)."""
        raise NotImplementedError

    def grad_c(self, z) -> np.ndarray:
        return self.grad_c_many(as_point(z, self.dimension))

    # -- membership ----------------------------------------------------------

    def contains(self, z) -> bool:
        return self.defining(z) < 0

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

    def circumradius(self, z) -> float:
        """Largest distance from ``z`` to the boundary, attained at an extreme point."""
        raise NotImplementedError

    def exit_radii(self, us: np.ndarray) -> np.ndarray:
        """Where each ray ``t u`` from 0 meets the boundary, shape (k, d) ->
        (k,): ``1 / h(u)`` for the Minkowski gauge ``h`` of the balanced
        domain, to rounding (``radial_exit`` certifies it)."""
        raise NotImplementedError

    def center(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=complex)


class BallDomain(Domain):
    """Unit Euclidean ball in C^d."""

    kind = "ball"

    def __init__(self, d: int):
        self.dimension = int(d)
        self.bounding_radius = 1.0

    def defining_many(self, zs):
        return np.sum(np.abs(np.asarray(zs, dtype=complex)) ** 2, axis=1) - 1.0

    def grad_c_many(self, zs):
        return 2.0 * np.asarray(zs, dtype=complex)

    def exit_radii(self, us):
        return 1.0 / np.linalg.norm(us, axis=1)

    def project_to_boundary(self, z):
        z = as_point(z, self.dimension)
        if not np.any(z):
            return np.eye(self.dimension, dtype=complex)[0]
        if np.max(np.abs(z)) < 2.0**-500:   # the squares in the norm underflow: rescale exactly
            z = z * 2.0**600
        return z / np.linalg.norm(z)

    def boundary_distance_exact(self, z):
        return 1.0 - float(np.linalg.norm(as_point(z, self.dimension)))

    def circumradius(self, z):
        return 1.0 + float(np.linalg.norm(as_point(z, self.dimension)))


class PolydiskDomain(Domain):
    """Unit polydisk D^d.  The boundary is only piecewise smooth: its
    derivatives exist where one coordinate has the largest modulus."""

    kind = "polydisk"

    def __init__(self, d: int):
        self.dimension = int(d)
        self.bounding_radius = math.sqrt(d)

    def defining_many(self, zs):
        return np.max(np.abs(np.asarray(zs, dtype=complex)), axis=1) ** 2 - 1.0

    def grad_c_many(self, zs):
        zs = np.asarray(zs, dtype=complex)
        mods = np.abs(zs)
        top = mods == np.max(mods, axis=-1, keepdims=True)
        return np.where(np.sum(top, axis=-1, keepdims=True) == 1, np.where(top, 2.0 * zs, 0.0), np.nan)

    def grad_c(self, z):
        """A tie of the largest moduli, where the boundary is not C^2, raises
        ``DegenerateGradient``."""
        mods = np.abs(as_point(z, self.dimension))
        if np.count_nonzero(mods == np.max(mods)) > 1:
            raise DegenerateGradient(f"{z} has two coordinates of largest modulus, "
                                     "where the polydisk boundary is not smooth")
        return super().grad_c(z)

    def exit_radii(self, us):
        return 1.0 / np.max(np.abs(np.asarray(us, dtype=complex)), axis=1)

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

    def circumradius(self, z):
        """``|(1 + |z_j|)_j|``: each coordinate of the farthest point is the unit
        complex number opposite ``z_j``; on the disk this is ``1 + |z|``."""
        return float(np.sqrt(np.sum((1.0 + np.abs(as_point(z, self.dimension))) ** 2)))


class DiskDomain(PolydiskDomain):
    """Unit disk in C: the polydisk, and the ball, of dimension 1.  It keeps
    its own one-coordinate oracle bodies, which skip the polydisk's max over
    the coordinates."""

    kind = "disk"

    def defining_many(self, zs):
        return np.abs(np.asarray(zs, dtype=complex)[:, 0]) ** 2 - 1.0

    def grad_c_many(self, zs):
        return 2.0 * np.asarray(zs, dtype=complex)

    def exit_radii(self, us):
        return 1.0 / np.abs(np.asarray(us, dtype=complex)[:, 0])

    def project_to_boundary(self, z):
        return _unit_phases(as_point(z, 1))

    def boundary_distance_exact(self, z):
        return 1.0 - float(np.abs(as_point(z, 1)[0]))


class ModulusPolynomialDomain(Domain):
    """Convex Reinhardt domain ``p(x) = sum_k c_k prod_j x_j^{2 a_kj} < 1`` in
    the moduli ``x_j = |z_j|`` (see :func:`modulus_polynomial`; the ellipsoid
    is its pure-power case).

    Every oracle is a polynomial table built once from the exponents: the
    defining function ``p(|z|) - 1``; ``F = dp/ds`` in ``s = |z|^2``, which
    gives ``grad_c = 2 z F``; and the gradient and Hessian of ``p`` on the
    moduli, which the nearest- and farthest-point polish reads.  The
    surface sample is ``p = 1`` on the grid of ``_orthant_directions``.
    """

    def __init__(self, coef: np.ndarray, powers: np.ndarray, bounding_radius: float, kind: str):
        self.coef, self.powers, self.kind = coef, powers, kind
        self.dimension = powers.shape[1]
        self.bounding_radius = float(bounding_radius)
        self._degrees = 2 * powers.sum(axis=1)
        d, e = self.dimension, 2 * powers
        delta = np.eye(d, dtype=int)
        self._value = _Monomials([(0, c, ek) for c, ek in zip(coef, e)], None)
        self._s_grad = _Monomials([(j, c * ak[j], ak - delta[j]) for c, ak in zip(coef, powers)
                                   for j in range(d)], d)
        self._grad = _Monomials([(j, c * ek[j], ek - delta[j]) for c, ek in zip(coef, e)
                                 for j in range(d)], d)
        self._hess = _Monomials([(i * d + j, c * ek[i] * (ek[j] - delta[i, j]), ek - delta[i] - delta[j])
                                 for c, ek in zip(coef, e) for i in range(d) for j in range(d)], d * d)
        # the real section's surface in the positive orthant, on a fixed grid of directions
        us = _orthant_directions(d)
        flat = us.reshape(-1, d)
        self._surface = (self._gauge_root(self._weights(flat), math.inf)[:, None] * flat).reshape(us.shape)

    def defining_many(self, zs):
        return self._value(np.abs(np.asarray(zs, dtype=complex))) - 1.0

    def grad_c_many(self, zs):
        zs = np.asarray(zs, dtype=complex)
        return 2.0 * zs * self._s_grad(np.abs(zs) ** 2)

    def exit_radii(self, us):
        return self._gauge_root(self._weights(np.abs(np.asarray(us, dtype=complex))), 2.0 * self.bounding_radius)

    def _weights(self, x: np.ndarray) -> np.ndarray:
        """``w_k = c_k prod_j x_j^{2 a_kj}``, so that ``p(t x) = sum_k w_k t^{n_k}``
        with ``n_k = 2 |a_k|`` (``self._degrees``)."""
        return self._value.coef * self._value.terms(x)

    def _gauge_root(self, weights: np.ndarray, top: float) -> np.ndarray:
        """Per row of ``weights``, the root ``t`` of ``sum_k w_k t^{n_k} = 1``,
        by Newton's method from ``min_k w_k^{-1/n_k}``: no root lies above it
        (each term is at most 1 at the root), and on this convex increasing
        function Newton falls monotonically to the root from above.  A row
        stops as soon as ``t`` stops decreasing.  A root beyond ``top`` raises
        ``ConfigInvalid``."""
        with np.errstate(divide="ignore"):   # a zero weight or a constant term bounds nothing
            t = np.min(weights ** (-1.0 / self._degrees), axis=1)
        for _ in range(GAUGE_NEWTON_STEPS):
            terms = weights * t[:, None] ** self._degrees
            lower = t - t * (terms.sum(axis=1) - 1.0) / (terms @ self._degrees)
            if not np.any(lower < t):
                break
            t = np.minimum(t, lower)   # a row that stopped keeps its t
        if np.any(t > top):
            raise ConfigInvalid(f"a ray is still inside the {self.kind} domain at twice "
                                f"its bounding radius {self.bounding_radius:g}")
        return t

    def moduli_constraint(self, x) -> float:
        """``p(x) - 1`` for moduli ``x`` (a negative entry reads as 0)."""
        return float(self._value(np.maximum(x, 0.0)) - 1.0)

    def moduli_gradient(self, x) -> np.ndarray:
        return self._grad(np.maximum(x, 0.0))

    def moduli_hessian(self, x) -> np.ndarray:
        return self._hess(np.maximum(x, 0.0)).reshape(self.dimension, self.dimension)

    def project_to_boundary(self, z):
        z = as_point(z, self.dimension)
        return self._extreme_moduli(np.abs(z), 1) * _unit_phases(z)

    def circumradius(self, z):
        """The farthest boundary point takes the phases opposite those of
        ``z``, so this is ``|x + |z||`` for the farthest point ``x`` of ``p(x)
        = 1`` from ``-|z|``.  It is a polished sample point, not certified: a
        basin that the surface sample misses can hide a farther one."""
        m = np.abs(as_point(z, self.dimension))
        return float(np.linalg.norm(self._extreme_moduli(-m, -1) + m))

    def _extreme_moduli(self, m0: np.ndarray, sign: int) -> np.ndarray:
        """Nearest (``sign = 1``) or farthest (``sign = -1``) point ``x >= 0``
        on ``p(x) = 1`` to the vector ``m0``.  The distance to the surface can
        have several local extrema (two minima on the flat sides of
        ``ellipsoid((1, 2, 3))`` differ by 0.1%), so every local minimum of
        ``sign |x - m0|^2`` over the surface sample's grid starts a Newton
        polish, and the best result on the surface wins."""
        grid = sign * np.sum((self._surface - m0) ** 2, axis=-1)
        starts = np.unique(self._surface[_grid_minima(grid)], axis=0)
        return min((self._polish(m0, x) for x in starts),
                   key=lambda x: (abs(self.moduli_constraint(x)) > BOUNDARY_TOL, sign * np.sum((x - m0) ** 2)))

    def _polish(self, m0: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Newton steps on the KKT system  ``x - m0 = lam grad p(x),  p(x) = 1``
        from the surface point ``x``, with the moduli Hessian."""
        d = len(x)
        g = self.moduli_gradient(x)
        lam = float((x - m0) @ g / (g @ g))     # the least-squares multiplier at the start
        jac, rhs = np.zeros((d + 1, d + 1)), np.empty(d + 1)
        for _ in range(40):
            g = self.moduli_gradient(x)
            jac[:d, :d] = np.eye(d) - lam * self.moduli_hessian(x)
            jac[:d, d], jac[d, :d] = -g, g
            rhs[:d], rhs[d] = x - m0 - lam * g, self.moduli_constraint(x)
            try:
                step = np.linalg.solve(jac, -rhs)
            except np.linalg.LinAlgError:
                break
            x = np.maximum(x + step[:-1], 0.0)
            lam += step[-1]
            if np.linalg.norm(rhs) < 1e-14:
                break
        return x


class _Monomials:
    """``sum_k coef_k prod_j x_j^{e_kj}`` on ``(..., d)`` moduli, one output
    per slot: the nonzero exponents are gathered once, each monomial is the
    product of its own factors, and the monomials meet their coefficients in
    one matrix product.

    Built from ``(slot, coefficient, exponents)`` rows; rows with a zero
    coefficient are dropped.  ``slots=None`` gives a scalar per point.
    """

    def __init__(self, rows, slots: int | None):
        rows = [(o, c, np.asarray(ek)) for o, c, ek in rows if c != 0]
        # the factors of each monomial; a constant reads x_0^0
        factors = [np.flatnonzero(ek) if ek.any() else np.array([0]) for _, _, ek in rows]
        self.cols = np.concatenate(factors)
        self.pows = np.concatenate([ek[nz] for (_, _, ek), nz in zip(rows, factors)]).astype(float)
        self.starts = np.cumsum([0] + [len(nz) for nz in factors[:-1]])
        self.single = len(self.cols) == len(rows)    # no monomial has two factors
        self.coef = np.array([c for _, c, _ in rows], dtype=float)
        if slots is not None:
            self.coef = self.coef[:, None] * (np.array([o for o, _, _ in rows])[:, None] == np.arange(slots))

    def terms(self, x: np.ndarray) -> np.ndarray:
        """Each monomial's value, shape ``(..., K)``."""
        factors = x.take(self.cols, axis=-1) ** self.pows
        return factors if self.single else np.multiply.reduceat(factors, self.starts, axis=-1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.terms(x).dot(self.coef)


def _orthant_directions(d: int) -> np.ndarray:
    """Unit vectors of R^d with nonnegative entries, the axes among them, on a
    grid of shape ``(n,) * (d - 1) + (d,)``: every polar angle ``a_i`` of ``x =
    (cos a_1, sin a_1 cos a_2, ..., sin a_1 ... sin a_{d-1})`` takes the same
    ``n`` points of ``[0, pi/2]``, ``n = SURFACE_ANGLES[d]``, or about
    ``SURFACE_SAMPLE`` directions in all."""
    n = SURFACE_ANGLES.get(d) or max(2, round(SURFACE_SAMPLE ** (1.0 / max(d - 1, 1))))
    angles = np.array(list(itertools.product(np.linspace(0.0, 0.5 * math.pi, n), repeat=d - 1)))
    x = np.ones((len(angles), d))
    x[:, 1:] = np.cumprod(np.sin(angles), axis=1)
    x[:, :-1] *= np.cos(angles)
    return np.where(x < 1e-15, 0.0, x).reshape((n,) * (d - 1) + (d,))     # cos(pi/2) is 6e-17


def _grid_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a grid that are at most each of their
    neighbours along every axis."""
    keep = np.ones(values.shape, dtype=bool)
    for axis in range(values.ndim):
        step = np.moveaxis(np.diff(values, axis=axis), axis, 0)
        along = np.moveaxis(keep, axis, 0)     # a view: the masks below write into keep
        along[:-1] &= step >= 0
        along[1:] &= step <= 0
    return keep


def _unit_phases(z: np.ndarray) -> np.ndarray:
    """``z_j / |z_j|``, and 1 where ``z_j = 0``."""
    mods = np.abs(z)
    z = np.where(mods < 2.0**-600, z * 2.0**600, z)   # a subnormal |z_j| overflows z_j / |z_j|
    return np.where(mods > 0, z / np.where(mods > 0, np.abs(z), 1.0), 1.0)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def disk() -> DiskDomain:
    return DiskDomain(1)


def ball(d: int) -> Domain:
    return disk() if d == 1 else BallDomain(d)


def polydisk(d: int) -> PolydiskDomain:
    return disk() if d == 1 else PolydiskDomain(d)


def ellipsoid(exponents: Sequence[int]) -> ModulusPolynomialDomain:
    """Complex ellipsoid ``sum_j |z_j|^{2 m_j} < 1`` with integer exponents:
    the modulus polynomial with one pure-power term ``(1, m_j e_j)`` per coordinate."""
    m = [int(mj) for mj in exponents]
    if not m or any(mj < 1 for mj in m):
        raise ConfigInvalid(f"ellipsoid exponents must be a non-empty list of integers >= 1, got {m}")
    return ModulusPolynomialDomain(np.ones(len(m)), np.diag(m), math.sqrt(len(m)), "ellipsoid")


def modulus_polynomial(terms: Sequence[tuple[float, Sequence[int]]], dimension: int,
                       bounding_radius: float | None = None) -> ModulusPolynomialDomain:
    """Convex domain ``sum_k c_k prod_j |z_j|^{2 a_kj} < 1`` with c_k > 0.

    This is the config-file form of the ``implicit`` kind: each term is a
    coefficient plus one exponent per coordinate.  The ellipsoid is its
    pure-power case (see :func:`ellipsoid`).  Every coordinate needs a
    pure-power term ``c |z_j|^{2a}``; without one the domain is unbounded and
    ``ConfigInvalid`` is raised.
    """
    terms = [(float(c), tuple(int(a) for a in alpha)) for c, alpha in terms]
    for c, alpha in terms:
        if c <= 0:
            raise ConfigInvalid("modulus polynomial coefficients must be positive")
        if len(alpha) != dimension or min(alpha, default=0) < 0:
            raise ConfigInvalid("each exponent tuple must hold one nonnegative integer per coordinate")
    if bounding_radius is not None and not bounding_radius > 0:
        raise ConfigInvalid(f"the bounding radius must be positive, got {bounding_radius}")

    coef = np.array([c for c, _ in terms])
    powers = np.array([alpha for _, alpha in terms], dtype=int).reshape(-1, dimension)
    # the function is constant along an axis without a pure power: that axis stays inside
    alone = powers[np.count_nonzero(powers, axis=1) == 1]
    free = np.flatnonzero(~np.any(alone > 0, axis=0))
    if len(free):
        raise ConfigInvalid(f"coordinates {free.tolist()} have no pure-power term, so the domain is unbounded")

    if bounding_radius is None:
        # each coordinate axis is bounded by the smallest single-variable term
        bounding_radius = math.sqrt(dimension) * max(
            (1.0 / c) ** (1.0 / (2 * max(sum(alpha), 1))) for c, alpha in terms
        ) + 1.0
    return ModulusPolynomialDomain(coef, powers, bounding_radius, "implicit")


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


def sample_ball(dom: Domain, center, radius: float, count: int, rng) -> np.ndarray:
    """``count`` points of ``dom`` drawn uniformly from the Euclidean ball
    ``B(center, radius)``, as a ``(count, d)`` array.

    Candidates come in blocks of ``count``; those with ``r < 0`` are kept in
    draw order.  Fewer than ``count`` points of the domain among
    ``SAMPLE_BLOCKS`` blocks raise ``SamplingEmpty``.
    """
    d = dom.dimension
    center = as_point(center, d)
    if count <= 0:
        return np.empty((0, d), dtype=complex)
    kept = np.empty((0, d), dtype=complex)
    for _ in range(SAMPLE_BLOCKS):
        w = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        scale = radius * rng.uniform(size=count) ** (1.0 / (2 * d)) / np.linalg.norm(w, axis=1)
        block = center + scale[:, None] * w
        kept = np.concatenate([kept, block[dom.defining_many(block) < 0]])
        if len(kept) >= count:
            return kept[:count]
    raise SamplingEmpty(f"{len(kept)} of {count} points of the {dom.kind} domain in "
                        f"B({center}, {radius:g}) after {SAMPLE_BLOCKS * count} candidates")


def radial_exit(dom: Domain, us) -> tuple[np.ndarray, np.ndarray]:
    """Bracket ``[lo, hi]`` of where each ray ``t u`` from 0, the center of
    every kind, leaves the domain: per row of ``us`` (shape (k, d)), ``lo`` is
    inside, ``hi`` is not, and the two are adjacent floats.

    The start is the kind's own ``exit_radii`` (the reciprocal gauge, in
    closed form or by Newton's method); ``nextafter`` steps then walk up or
    down to where ``defining_many`` changes sign, one stacked call per step.
    A row that has not settled within ``RADIAL_WALK`` steps raises
    ``NoConvergence``.  The defining function is not monotone at the ulp
    level, so this crossing can sit an ulp away from a bisection's.
    """
    us = np.asarray(us, dtype=complex)
    t = dom.exit_radii(us)
    inside = lambda t: dom.defining_many(t[:, None] * us) < 0
    up = inside(t)
    toward = np.where(up, np.inf, -np.inf)
    lo, hi = np.empty_like(t), np.empty_like(t)
    pending = np.ones(len(t), dtype=bool)
    for _ in range(RADIAL_WALK):
        step = np.nextafter(t, toward)
        crossed = pending & (inside(step) != up)
        lo = np.where(crossed, np.minimum(t, step), lo)
        hi = np.where(crossed, np.maximum(t, step), hi)
        pending &= ~crossed
        if not pending.any():
            return lo, hi
        t = step
    raise NoConvergence(f"{np.count_nonzero(pending)} boundary crossings not found "
                        f"within {RADIAL_WALK} float steps")


def ray_exit(dom: Domain, base, steps) -> tuple[np.ndarray, np.ndarray]:
    """Bracket ``[lo, hi]``, per row ``i``, of the largest ``t`` with every
    ``base[i] + t * steps[i, k]`` inside the domain: the search for rays that
    do not start at the center (a ray from 0 has ``radial_exit``).

    ``base + t * steps`` broadcasts to shape ``(n, K, d)``: a shared ``(d,)``
    base with ``(n, K, d)`` steps, or ``(n, 1, d)`` bases with shared ``(K, d)``
    steps; the steps are unit vectors.  The bracket starts at ``[0, 2R]`` with
    ``R`` the bounding radius and is halved ``RAY_BISECTIONS`` times, one
    ``defining_many`` call per halving (it stops shrinking once ``lo`` and
    ``hi`` are adjacent floats).  ``lo`` is inside whenever the base is,
    and ``hi`` never is: a row whose ``hi`` stayed at ``2R`` has its far end
    checked for all ``K`` steps, and an inside far end raises ``ConfigInvalid``
    (the bounding radius is too small).

    Only a step that is outside at ``hi`` can decide a later halving of its
    row: any other step is inside at ``hi``, so on a convex domain it stays
    inside on ``[0, hi]``.  The first ``RAY_SHORTLIST_AFTER`` halvings
    evaluate the whole ``(n, K)`` stack, one more evaluation at ``hi`` picks
    each row's steps outside there, and the other halvings evaluate those
    only (a row with fewer than the most repeats its first one).  That gives
    the same brackets bit for bit as halving the whole stack.
    """
    n, k, d = np.broadcast_shapes(np.shape(base), np.shape(steps))
    top = 2.0 * dom.bounding_radius
    lo, hi = np.zeros(n), np.full(n, top)
    _halve(dom, base, steps, k, lo, hi, RAY_SHORTLIST_AFTER)
    # the shortlist: each row's steps outside at hi, padded with its first one
    all_bases, all_steps = np.broadcast_to(base, (n, k, d)), np.broadcast_to(steps, (n, k, d))
    at_hi = (all_bases + hi[:, None, None] * all_steps).reshape(-1, d)
    binding = ~(dom.defining_many(at_hi).reshape(n, k) < 0)
    count = binding.sum(axis=1)
    order = np.argsort(~binding, axis=1, kind="stable")[:, :max(1, count.max(initial=0))]
    keep = np.where(np.arange(order.shape[1]) < count[:, None], order, order[:, :1])[:, :, None]
    _halve(dom, np.take_along_axis(all_bases, keep, axis=1), np.take_along_axis(all_steps, keep, axis=1),
           keep.shape[1], lo, hi, RAY_BISECTIONS - RAY_SHORTLIST_AFTER)
    far = hi == top
    if np.any(far):
        ends = np.broadcast_to(base + top * steps, (n, k, d))[far]
        if np.any(dom.defining_many(ends.reshape(-1, d)).reshape(-1, k).max(axis=1) < 0):
            raise ConfigInvalid(f"a ray is still inside the {dom.kind} domain at twice "
                                f"its bounding radius {dom.bounding_radius:g}")
    return lo, hi


def _halve(dom: Domain, base, steps, k: int, lo: np.ndarray, hi: np.ndarray, times: int) -> None:
    """Halve the brackets ``[lo, hi]`` of ``ray_exit`` in place ``times``
    times; ``base + t * steps`` has ``k`` steps per row."""
    n, d = len(lo), np.shape(steps)[-1]
    for _ in range(times):
        mid = 0.5 * (lo + hi)
        pts = base + mid[:, None, None] * steps
        inside = dom.defining_many(pts.reshape(-1, d)).reshape(n, k).max(axis=1) < 0
        np.copyto(lo, mid, where=inside)
        np.copyto(hi, mid, where=~inside)


def boundary_normals(dom: Domain, xis: np.ndarray, tol: float = BOUNDARY_TOL):
    """Unit outward normals at a stack of points ``(N, d)``, from one
    ``defining_many`` and one ``grad_c_many`` call, as ``(normals, passed,
    on_boundary)``.  A row is on the boundary when its value ``r`` is finite
    and ``|r| <= tol max(1, |grad r|)`` (a polydisk tie has no gradient and
    counts as 1 there); it passes when ``|grad r|`` is also finite and at
    least ``GRADIENT_TOL``.  Rows that do not pass get a NaN normal."""
    with np.errstate(over="ignore"):    # a far point overflows to inf, which fails below
        values = dom.defining_many(xis)
        grads = dom.grad_c_many(xis)
    # |grad r| as np.linalg.norm takes it one row at a time (a dot product of
    # the real parts plus one of the imaginary parts), bit for bit
    re, im = grads.real[:, None, :], grads.imag[:, None, :]
    gnorms = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
    on_boundary = np.isfinite(values) & (np.abs(values) <= tol * np.fmax(1.0, gnorms))
    passed = on_boundary & np.isfinite(gnorms) & (gnorms >= GRADIENT_TOL)
    normals = np.full_like(grads, np.nan)
    np.divide(grads, gnorms[:, None], out=normals, where=passed[:, None])
    return normals, passed, on_boundary


def boundary_normal(dom: Domain, xi, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Unit outward normal at a boundary point: the one-row
    ``boundary_normals``, raising ``ApexNotOnBoundary`` off the boundary and
    ``DegenerateGradient`` on it where the row does not pass."""
    xi = as_point(xi, dom.dimension)
    normals, passed, on_boundary = boundary_normals(dom, xi[None, :], tol)
    if not on_boundary[0]:
        with np.errstate(over="ignore"):
            raise ApexNotOnBoundary(f"defining function is {dom.defining(xi):.3e} at {xi}")
    if not passed[0]:
        raise DegenerateGradient(f"no unit normal at {xi}: the gradient is missing (a polydisk tie) or vanishes")
    return normals[0]


def boundary_data(dom: Domain, xi, tol: float = BOUNDARY_TOL) -> BoundaryData:
    """Inward normal and complex tangent hyperplane at a boundary point."""
    xi = as_point(xi, dom.dimension)
    normal_out = boundary_normal(dom, xi, tol)
    return BoundaryData(point=xi.copy(), inward_normal=-normal_out,
                        tangent_hyperplane=Hyperplane(anchor=xi.copy(), normal=normal_out))


def cone_certificate(dom: Domain, cone: Cone) -> ConeCertificate:
    """Closed-form interior-cone certificate on the disk and the ball; any
    other kind raises ``ConfigInvalid``.

    The apex must pass the on-boundary test of ``boundary_normals`` (at the
    tolerance 1e-9), else ``ApexNotOnBoundary``.  The domain is convex and the
    apex lies in its closure, so the open segment from the apex to an interior
    point is interior: the open truncated cone is inside once its far cap
    ``{apex + length u : angle(u, v) <= aperture}`` is.  On the unit ball the
    cap's largest ``|p|^2`` is ``|a|^2 + L^2 + 2 L |a| cos(max(phi - theta, 0))``,
    with ``phi`` the angle from ``v`` to the apex ``a``; ``margin`` is one minus
    it, and ``ok`` means ``margin > 0``.
    """
    if dom.kind not in ("disk", "ball"):
        raise ConfigInvalid(f"the cone certificate is closed-form on the disk and the ball, not the {dom.kind}")
    apex = as_point(cone.apex, dom.dimension)
    _, _, on_boundary = boundary_normals(dom, apex[None, :], tol=1e-9)
    if not on_boundary[0]:
        raise ApexNotOnBoundary(f"cone apex {apex} must lie on the boundary")
    a, v = c2r(apex), c2r(finite_point(cone.direction, dom.dimension, "cone direction"))
    if not np.any(v):
        raise ConfigInvalid("the cone direction must be nonzero")
    v = v / np.linalg.norm(v)
    a_norm, L = float(np.linalg.norm(a)), cone.length
    phi = math.acos(min(1.0, max(-1.0, float(a @ v) / a_norm)))
    far = a_norm**2 + L**2 + 2.0 * L * a_norm * math.cos(max(phi - cone.aperture, 0.0))
    margin = 1.0 - far
    return ConeCertificate(ok=margin > 0, margin=margin)
