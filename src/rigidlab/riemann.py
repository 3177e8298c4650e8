"""Chart-based Riemannian engine.

A metric lives on a single chart ``U subset R^n`` through a component oracle
``g_ij(x)`` with first and second derivative oracles (the model metrics are
one closed-form U(d)-invariant family, so their derivatives are exact to
double precision; the Poincare disk and the round sphere are one conformal
Moebius model, ``4 |dz|^2 / (1 + k |z|^2)^2`` with ``k = -1`` and ``k = 1``,
and the Bergman ball's closed forms read the ball transvections of
:class:`~rigidlab.domain.BallTransvection`).
On top of it the module builds Christoffel symbols, the curvature tensor,
geodesic / parallel-transport / Jacobi flows, a shooting exponential-log map,
and the three estimates the rigidity pipelines consume.  The geodesic and the
transport run on the one fixed-step RK4 integrator :func:`_rk4`.  The Jacobi
fields are closed-form, from one eigendecomposition of the Jacobi operator
carried by ``closed_transport``.  ``exp_log`` is Newton shooting: the RK4
endpoint alone decides convergence, and the closed-form Jacobi fields with
``J(0) = 0`` give the Newton Jacobian.  The three estimates are two-sided
bounds on the Sasaki distance of the (unit) tangent bundle (from the exact
``closed_dist`` and ``closed_transport``: every metric is a symmetric space,
so transport along a geodesic is the differential of a transvection),
geodesic spread, and the backward initial-condition estimate (both sample
``closed_ray`` and read ``closed_dist``).  The RK4 geodesic and transport
flows and the shooting ``exp_log`` are the independent engines the closed
forms are checked against.

Shape contract: the ``g``, ``ginv`` and ``dg`` oracles and
:func:`christoffel` take one point ``(n,)`` or a stack of points ``(N, n)``
and return the matching leading axis, e.g. ``christoffel(m, xs)`` is
``(N, n, n, n)``; ``d2g`` and everything else take one point.  ``ginv`` is
the closed-form inverse of ``g``, so no step inverts ``g`` numerically (the
one factorization of ``g`` is the Cholesky frame at a Jacobi flow's start);
``min_eig`` is the smallest eigenvalue of ``g`` at one point, in closed form,
so the positivity check :meth:`MetricField.require_positive` needs no numerical
eigensolver.
The ``closed_geodesic`` and ``closed_ray`` samplers take a time ``t``
(returning ``(n,)``) or an array of times (returning ``(N, n)``);
``closed_transport(x, y, X)`` takes one vector ``(n,)`` or a stack of
vectors ``(K, n)`` at ``x`` and returns the matching shape.

Index conventions::

    gamma[k, i, j]      Christoffel  Gamma^k_{ij}
    dgamma[a, k, i, j]  d_a Gamma^k_{ij}
    riem[l, i, j, k]    (R(e_i, e_j) e_k)^l  for
                        R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z

With these conventions ``sec(X, Y) = <R(X,Y)Y, X> / |X ^ Y|^2`` gives +1 on
the round sphere and -1 on the Poincare disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domain import BallTransvection, c2r, r2c
from .errors import (
    ConfigInvalid,
    EpsilonTooLarge,
    LeftChart,
    NotUnit,
    ShootingDiverged,
    SingularMetric,
    StepTooLarge,
)
from .intervals import DistInterval

DEFAULT_STEP = 1e-3
SPEED_DRIFT_TOL = 1e-4
MIN_EIGENVALUE = 1e-10
SHOOTING_TOL = 1e-9
SHOOTING_MAX_NEWTON = 60


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

@dataclass
class MetricField:
    """Smooth Riemannian metric on a chart with derivative oracles and the
    closed forms of a symmetric space: distance, geodesics, rays and transport
    (Helgason, ch. IV).  Every model sets them; a metric without all four
    raises ``ConfigInvalid`` at construction."""

    name: str
    dim: int
    g: Callable[[np.ndarray], np.ndarray]       # (n,) -> (n, n); (N, n) -> (N, n, n)
    ginv: Callable[[np.ndarray], np.ndarray]    # inverse of g, stacks as g
    dg: Callable[[np.ndarray], np.ndarray]      # dg[..., k, i, j] = d_k g_ij, stacks as g
    d2g: Callable[[np.ndarray], np.ndarray]     # d2g[k, l, i, j] = d_k d_l g_ij, one point
    min_eig: Callable[[np.ndarray], float]      # smallest eigenvalue of g, one point
    chart_contains: Callable[[np.ndarray], bool]
    inj_model: float                            # injectivity radius
    closed_dist: Callable
    closed_geodesic: Callable                   # (x, y) -> (T, v0, sampler); sampler(t) is
                                                # (n,), sampler(ts) of shape (N,) is (N, n)
    closed_ray: Callable                        # (x, unit v) -> sampler t -> gamma(t), shaped
                                                # as closed_geodesic's sampler
    closed_transport: Callable                  # (x, y, X) -> X parallel along the geodesic x -> y,
                                                # X of shape (n,) or a stack (K, n):
                                                # the differential of a transvection, so the
                                                # metric is symmetric (nab R = 0), which
                                                # jacobi_flow relies on
    kappa_model: float | None = None            # known constant sectional curvature

    def __post_init__(self):
        for field in ("closed_dist", "closed_geodesic", "closed_ray", "closed_transport"):
            if not callable(getattr(self, field)):
                raise ConfigInvalid(f"{self.name}: a metric needs a callable {field}")

    def require_chart(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.chart_contains(x):
            raise LeftChart(f"{self.name}: point {x} left the chart")
        return x

    def require_positive(self, x) -> np.ndarray:
        """``x``; raises ``SingularMetric`` unless ``min_eig(x) > MIN_EIGENVALUE``."""
        x = np.asarray(x, dtype=float)
        if not self.min_eig(x) > MIN_EIGENVALUE:
            raise SingularMetric(f"{self.name}: metric not positive definite at {x}")
        return x

    def metric_at(self, x) -> np.ndarray:
        """``g(x)`` after :meth:`require_positive`."""
        return np.asarray(self.g(self.require_positive(x)))

    def inner(self, x, u, v) -> float:
        return float(np.asarray(u) @ self.g(np.asarray(x, dtype=float)) @ np.asarray(v))

    def norm(self, x, v) -> float:
        """``|v|_g`` at ``x``; a non-finite result raises ``ConfigInvalid``."""
        q = self.inner(x, v, v)
        if not math.isfinite(q):
            raise ConfigInvalid(f"{self.name}: non-finite norm of {v} at {x}")
        return math.sqrt(max(0.0, q))

    def unit(self, x, v) -> np.ndarray:
        n = self.norm(x, v)
        if n == 0:
            raise NotUnit("zero vector cannot be normalized")
        return np.asarray(v, dtype=float) / n


@dataclass(frozen=True)
class TangentPoint:
    x: np.ndarray
    vec: np.ndarray

    @classmethod
    def of(cls, x, v) -> "TangentPoint":
        return cls(np.asarray(x, dtype=float), np.asarray(v, dtype=float))


def invariant_metric(name: str, dim: int, a, b=None, **fields) -> MetricField:
    """The U(d)-invariant metric ``g(x) = a(s) I + b(s) (x x^T + Jx (Jx)^T)``.

    Here ``s = |x|^2`` and ``J`` is multiplication by ``i`` in interleaved
    coordinates ``(Re z_1, Im z_1, ...)``.  ``a`` and ``b`` map ``s`` (a float,
    or an array for a stack of points) to the triple ``(f, f', f'')``;
    ``b=None`` is the conformal case ``b == 0``, whose oracles skip the
    rank-2 terms.  With ``P = x x^T + Jx (Jx)^T``, which has ``P^2 = s P``
    (eigenvalue ``s`` on span{x, Jx}, 0 on the rest)::

        min eig   = min(a, a + b s)   (a + b s alone when dim == 2)
        g^{-1}    = (I - b / (a + b s) P) / a
        d_k g     = 2 x_k (a' I + b' P) + b d_k P
        d_k d_l g = 2 delta_kl (a' I + b' P) + 4 x_k x_l (a'' I + b'' P)
                    + 2 b' (x_k d_l P + x_l d_k P) + b d_k d_l P
    """
    eye = np.eye(dim)
    if b is not None:
        rot = np.kron(np.eye(dim // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
        frame_t = np.hstack((eye, rot.T))    # x @ frame_t = (x, Jx)
        # dp[k, i, j, m] x_m = d_k (x x^T + Jx (Jx)^T)_ij; d2p[k, l, i, j] = dp[k, i, j, l]
        dp = (np.einsum("ik,jm->kijm", eye, eye) + np.einsum("im,jk->kijm", eye, eye)
              + np.einsum("ik,jm->kijm", rot, rot) + np.einsum("im,jk->kijm", rot, rot))
        d2p = dp.transpose(0, 3, 1, 2)
        dp_t = dp.reshape(dim**3, dim).T     # x @ dp_t = (dp @ x) flattened

    def norm2(x):
        """``s = |x|^2``: a float for one point, shape (N, 1, 1) for a stack."""
        if x.ndim == 1:
            return float(x.dot(x))
        return np.einsum("ni,ni->n", x, x)[:, None, None]

    def rank2(x):
        v = (x @ frame_t).reshape(x.shape[:-1] + (2, dim))
        return v.swapaxes(-1, -2) @ v

    def g(x):
        s = norm2(x)
        if b is None:
            return a(s)[0] * eye
        return a(s)[0] * eye + b(s)[0] * rank2(x)

    def ginv(x):
        s = norm2(x)
        a0 = a(s)[0]
        if b is None:
            return eye / a0
        b0 = b(s)[0]
        return (eye - b0 / (a0 + b0 * s) * rank2(x)) / a0

    def min_eig(x):
        s = float(x.dot(x))
        a0 = a(s)[0]
        if b is None:
            return a0
        rank2_eig = a0 + b(s)[0] * s
        return rank2_eig if dim == 2 else min(a0, rank2_eig)

    def dg(x):
        s = norm2(x)
        da = a(s)[1]
        if b is None:
            return x[..., :, None, None] * (2.0 * da * eye)[..., None, :, :]
        b0, db, _ = b(s)
        lead = x.shape[:-1]
        bdp = b0 * (x @ dp_t).reshape(lead + (dim, dim * dim))
        return (x[..., :, None, None] * (2.0 * (da * eye + db * rank2(x)))[..., None, :, :]
                + bdp.reshape(lead + (dim,) * 3))

    def d2g(x):
        s = float(x.dot(x))
        _, da, dda = a(s)
        xx = x[:, None] * x
        if b is None:
            return (2.0 * da * eye + 4.0 * dda * xx)[:, :, None, None] * eye
        b0, db, ddb = b(s)
        p = rank2(x)
        out = (eye[:, :, None, None] * (2.0 * (da * eye + db * p))
               + xx[:, :, None, None] * (4.0 * (dda * eye + ddb * p)))
        cross = x[:, None, None, None] * (2.0 * db * (dp @ x))
        return out + cross + cross.transpose(1, 0, 2, 3) + b0 * d2p

    return MetricField(name=name, dim=dim, g=g, ginv=ginv, dg=dg, d2g=d2g, min_eig=min_eig,
                       **fields)


# -- model metrics -----------------------------------------------------------

@lru_cache(maxsize=None)
def euclidean(n: int = 2) -> MetricField:
    eye = np.eye(n)
    zeros3 = np.zeros((n, n, n))
    zeros4 = np.zeros((n, n, n, n))

    def constant(c):
        return lambda x: c if x.ndim == 1 else np.broadcast_to(c, x.shape[:-1] + c.shape)

    def line(x, v):
        return lambda t: x + np.multiply.outer(t, v)

    def sampler_factory(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        T = float(np.linalg.norm(y - x))
        v0 = (y - x) / T if T > 0 else np.zeros(n)
        return T, v0, line(x, v0)

    return MetricField(
        name="euclid", dim=n,
        g=constant(eye), ginv=constant(eye), dg=constant(zeros3), d2g=lambda x: zeros4,
        min_eig=lambda x: 1.0,
        chart_contains=lambda x: bool(np.all(np.abs(x) < 1e6)),
        kappa_model=0.0, inj_model=math.inf,
        closed_dist=lambda x, y: float(np.linalg.norm(np.asarray(y) - np.asarray(x))),
        closed_geodesic=sampler_factory,
        closed_ray=lambda x, v: line(np.asarray(x, float), np.asarray(v, float)),
        closed_transport=lambda x, y, X: np.array(X, dtype=float),
    )


def _conformal_model(name: str, k: float, chart_contains) -> MetricField:
    """``4 |dz|^2 / (1 + k |z|^2)^2`` of constant curvature ``k``: the Poincare
    disk (``k = -1``) and the stereographic round sphere (``k = 1``).

    Both are one Moebius family.  The transvection ``tau(w) = (zx + w) /
    (1 - k conj(zx) w)`` moves 0 to ``zx`` with ``tau'(0) = 1 + k |zx|^2``, and
    its inverse is ``tau^-1(zy) = (zy - zx) / c`` with ``c = 1 + k conj(zx) zy``.
    The geodesics through 0 are the rays ``w = e tan_k(t / 2)`` (``tanh`` on the
    disk, ``tan`` on the sphere), so ``d(zx, zy) = 2 atan_k |tau^-1(zy)|`` and
    every geodesic is the image of one ray under a ``tau``.  Transport along it
    is multiplication by ``(1 + k |zy|^2) / (1 + k |zx|^2) * c / conj(c)``, the
    derivative of the transvection moving ``zx`` to ``zy``.
    """
    tan_k = np.tan if k > 0 else np.tanh

    def atan_k(num, den):
        """``atan_k |num / den|``: ``atan2`` on the sphere (``pi / 2`` at the antipode); 1 raises ``LeftChart``."""
        if k > 0:
            return math.atan2(abs(num), abs(den))
        if abs(num / den) >= 1 - 1e-16:
            raise LeftChart(f"{name}: a point rounded onto the unit circle")
        return math.atanh(abs(num / den))

    def chart_pair(x, y):
        """``zx``, ``zy``, ``nx = 1 + k |zx|^2``, ``ny`` and ``c``."""
        zx, zy = complex(x[0], x[1]), complex(y[0], y[1])
        return zx, zy, 1.0 + k * abs(zx) ** 2, 1.0 + k * abs(zy) ** 2, 1 + k * np.conj(zx) * zy

    def joined_pair(x, y):
        """:func:`chart_pair` of two points that one geodesic joins.  On the
        sphere ``|c|`` is ``cos(d / 2) sqrt(nx ny)`` (``cosh`` on the disk), so
        antipodal points raise ``ShootingDiverged``."""
        zx, zy, nx, ny, c = pair = chart_pair(x, y)
        if abs(c) < 1e-14 * math.sqrt(nx * ny):
            raise ShootingDiverged(f"{name}: antipodal points")
        return pair

    def curve(zx, e):
        """Unit-speed geodesic ``tau(e tan_k(t / 2))`` from ``zx`` in the unit direction ``e``."""
        def gamma(t):
            w = e * tan_k(t / 2.0)
            z = (zx + w) / (1 - k * np.conj(zx) * w)
            return np.stack((z.real, z.imag), axis=-1)

        return gamma

    def dist(x, y):
        zx, zy, _, _, c = chart_pair(x, y)
        return 2.0 * atan_k(zy - zx, c)

    def geod(x, y):
        zx, zy, nx, _, c = joined_pair(x, y)
        t = (zy - zx) / c
        if abs(t) < 1e-15:
            raise ShootingDiverged(f"{name}: coincident points")
        e = t / abs(t)
        v0c = nx * e / 2.0
        return 2.0 * atan_k(zy - zx, c), np.array([v0c.real, v0c.imag]), curve(zx, e)

    def ray(x, v):
        zx = complex(x[0], x[1])
        e = complex(v[0], v[1]) / (1.0 + k * abs(zx) ** 2)   # the velocity pulled back to 0
        return curve(zx, e / abs(e))

    def transport(x, y, X):   # each row of X times the real 2x2 matrix of the factor
        _, _, nx, ny, c = joined_pair(x, y)
        c = complex(c)
        f = ny / nx * c / c.conjugate()
        return np.asarray(X, float) @ np.array([[f.real, f.imag], [-f.imag, f.real]])

    def a(s):
        u = 1.0 / (1.0 + k * s)
        return 4.0 * u**2, -8.0 * k * u**3, 24.0 * u**4

    return invariant_metric(
        name, 2, a, chart_contains=chart_contains,
        kappa_model=k, inj_model=math.pi if k > 0 else math.inf,
        closed_dist=dist, closed_geodesic=geod, closed_ray=ray, closed_transport=transport,
    )


@lru_cache(maxsize=None)
def poincare_disk() -> MetricField:
    return _conformal_model("poincare", -1.0, lambda x: float(x @ x) < 1.0 - 1e-12)


@lru_cache(maxsize=None)
def sphere_stereographic() -> MetricField:
    return _conformal_model("sphere", 1.0, lambda x: float(x @ x) < 40.0**2)


@lru_cache(maxsize=None)
def bergman_ball(d: int = 2) -> MetricField:
    """Bergman metric of the unit ball: the real form of
    ``(d+1) [(1-|z|^2) delta_jk + zbar_j z_k] / (1-|z|^2)^2``, i.e. the
    invariant metric with ``a = 2(d+1)/(1-s)`` and ``b = 2(d+1)/(1-s)^2``.
    The closed forms read :class:`~rigidlab.domain.BallTransvection`: with ``w =
    tau_x^-1(y)``, the geodesic ``x -> y`` is ``tau_x`` of the diameter ``e tanh(t /
    radial)``, ``e = w / |w|``, of length ``radial atanh |w|``, and transport along it
    is ``d tau_x(w) d tau_w(0) d tau_x(0)^-1``, complex-linear, so ``X`` may be a stack."""
    radial = math.sqrt(2.0 * (d + 1))  # metric length of the unit radial speed

    def curve(tau, e):
        """Geodesic ``tau(e tanh(t / radial))``: the image of a diameter."""
        return lambda t: c2r(tau(np.multiply.outer(np.tanh(t / radial), e)))

    def atanh_radial(m):
        return radial * math.atanh(min(m, 1 - 1e-16))

    def dist(x, y):
        return atanh_radial(float(BallTransvection(r2c(x)).inverse_modulus(r2c(y))))

    def geod(x, y):
        tx = BallTransvection(r2c(x))
        w = tx.inverse(r2c(y))
        wn = float(np.linalg.norm(w))
        if wn < 1e-15:
            raise ShootingDiverged("coincident points")
        e = w / wn
        return atanh_radial(wn), c2r(tx.differential(e)) / radial, curve(tx, e)

    def ray(x, v):
        tx = BallTransvection(r2c(x))
        e = tx.differential_inverse(r2c(v))   # rescaled to the radial speed below
        return curve(tx, e / np.linalg.norm(e))

    def transport(x, y, X):
        zy = r2c(y)
        tx = BallTransvection(r2c(x))
        tw = BallTransvection(tx.inverse(zy))
        return c2r(tx.differential(tw.differential(tx.differential_inverse(r2c(X))), zy))

    c = 2.0 * (d + 1)

    def a(s):
        u = 1.0 / (1.0 - s)
        return c * u, c * u**2, 2.0 * c * u**3

    def b(s):
        u = 1.0 / (1.0 - s)
        return c * u**2, 2.0 * c * u**3, 6.0 * c * u**4

    return invariant_metric(
        f"bergman-ball-{d}", 2 * d, a, b,
        chart_contains=lambda x: float(x @ x) < 1.0 - 1e-12,
        kappa_model=None, inj_model=math.inf,
        closed_dist=dist, closed_geodesic=geod, closed_ray=ray, closed_transport=transport,
    )


def scale_metric(m: MetricField, lam: float) -> MetricField:
    """The metric ``lam * g``: distances scale by sqrt(lam), sectional
    curvature by 1/lam.  Used to normalize measured curvature bounds."""
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    s = math.sqrt(lam)

    def closed_geodesic(x, y):
        T, v0, sampler = m.closed_geodesic(x, y)
        return s * T, v0 / s, lambda t: sampler(t / s)

    def closed_ray(x, v):
        base = m.closed_ray(x, np.asarray(v, float) * s)
        return lambda t: base(t / s)

    return MetricField(
        name=f"{m.name}*{lam:g}", dim=m.dim,
        g=lambda x: lam * m.g(x), ginv=lambda x: m.ginv(x) / lam,
        dg=lambda x: lam * m.dg(x), d2g=lambda x: lam * m.d2g(x),
        min_eig=lambda x: lam * m.min_eig(x),
        chart_contains=m.chart_contains,
        kappa_model=(m.kappa_model / lam if m.kappa_model is not None else None),
        inj_model=m.inj_model * s,
        closed_dist=lambda x, y: s * m.closed_dist(x, y),
        closed_geodesic=closed_geodesic, closed_ray=closed_ray,
        closed_transport=m.closed_transport,   # a constant factor moves no geodesic or connection
    )


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature
# ---------------------------------------------------------------------------

@dataclass
class CurvatureData:
    x: np.ndarray
    gx: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray      # gamma[k, i, j]
    dgamma: np.ndarray     # dgamma[a, k, i, j]
    riem: np.ndarray       # riem[l, i, j, k] = (R(e_i, e_j) e_k)^l

    def curvature_op(self, X, Y, Z) -> np.ndarray:
        """R(X, Y) Z."""
        return np.einsum("lijk,i,j,k->l", self.riem, X, Y, Z)

    def sectional(self, X, Y) -> float:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        rxyy = self.curvature_op(X, Y, Y)
        num = float(rxyy @ self.gx @ X)
        gxx = float(X @ self.gx @ X)
        gyy = float(Y @ self.gx @ Y)
        gxy = float(X @ self.gx @ Y)
        den = gxx * gyy - gxy**2
        if den <= 1e-14:
            raise ValueError("degenerate 2-plane")
        return num / den


def _term(dg: np.ndarray) -> np.ndarray:
    """``term[..., m, i, j] = d_i g_jm + d_j g_im - d_m g_ij`` from ``dg[..., k, i, j]``."""
    t = dg.swapaxes(-3, -1)  # t[..., m, i, j] = d_j g_im
    return t.swapaxes(-2, -1) + t - dg


def christoffel(m: MetricField, x) -> np.ndarray:
    """``gamma[..., k, i, j]`` at one point ``(n,)`` or at each of ``(N, n)``."""
    x = np.asarray(x, dtype=float)
    term = _term(m.dg(x))
    return 0.5 * (m.ginv(x) @ term.reshape(term.shape[:-2] + (-1,))).reshape(term.shape)


def christoffel_curvature(m: MetricField, x) -> CurvatureData:
    """Christoffel symbols, their derivatives and the curvature tensor at one
    point ``x``, contracted as matmuls on ``(n, n^2)`` blocks; runs
    :meth:`MetricField.require_positive` first."""
    x = np.asarray(x, dtype=float)
    gx = m.metric_at(x)
    dg = m.dg(x)
    ginv = m.ginv(x)
    n = m.dim
    term = _term(dg).reshape(n, n * n)
    dterm = _term(m.d2g(x)).reshape(n, n, n * n)  # dterm[a] = d_a term
    dginv = -(ginv @ dg @ ginv)  # dginv[m, k, l] = d_m g^{kl}
    dgamma = (0.5 * (dginv @ term + ginv @ dterm)).reshape(n, n, n, n)
    gamma = (0.5 * (ginv @ term)).reshape(n, n, n)
    # r[l, i, j, k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk;  riem = r - (i <-> j)
    gg = gamma.reshape(n * n, n) @ gamma.reshape(n, n * n)
    r = dgamma.transpose(1, 0, 2, 3) + gg.reshape(n, n, n, n)
    riem = r - r.transpose(0, 2, 1, 3)
    return CurvatureData(x=x, gx=gx, ginv=ginv, gamma=gamma, dgamma=dgamma, riem=riem)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def _positive(name: str, value) -> float:
    """``value`` as a float; anything but a finite positive number raises ``ConfigInvalid``."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ConfigInvalid(f"{name} must be finite and positive, got {value}")
    return value


def _rk4(rhs, state, h: float, n_steps: int, check=None) -> list[np.ndarray]:
    """Classical fixed-step RK4 for ``s' = rhs(*s)``, ``s`` a tuple of arrays.

    The components travel as one flat vector, so each stage is one array
    update; ``rhs`` takes them in their own shapes and returns them in any
    shape of the same size.  After step ``i`` (counted from 0),
    ``check(i, s)`` sees the new state and may raise.  Returns one
    trajectory ``(n_steps + 1,) + shape`` per component.
    """
    state = [np.asarray(c, dtype=float) for c in state]
    if not all(np.isfinite(c).all() for c in state):
        raise ConfigInvalid("non-finite initial state for the flow")
    ends = np.cumsum([c.size for c in state])
    parts = [(slice(e - c.size, e), c.shape if c.ndim > 1 else None) for c, e in zip(state, ends)]

    def split(y):
        return [y[sl] if shape is None else y[sl].reshape(shape) for sl, shape in parts]

    half, sixth = 0.5 * h, h / 6
    traj = np.empty((n_steps + 1, ends[-1]))
    y = traj[0] = np.concatenate(state, axis=None)
    s = split(y)
    for i in range(n_steps):
        k1 = np.concatenate(rhs(*s), axis=None)
        k2 = np.concatenate(rhs(*split(y + half * k1)), axis=None)
        k3 = np.concatenate(rhs(*split(y + half * k2)), axis=None)
        k4 = np.concatenate(rhs(*split(y + h * k3)), axis=None)
        y = traj[i + 1] = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        s = split(y)
        if check is not None:
            check(i, s)
    return [np.ascontiguousarray(traj[:, sl]).reshape((n_steps + 1,) + c.shape)
            for (sl, _), c in zip(parts, state)]


def _chart_guard(m: MetricField, flow: str, h: float):
    """The ``_rk4`` check that raises ``LeftChart`` once the position leaves."""
    def check(i, s):
        if not m.chart_contains(s[0]):
            raise LeftChart(f"{m.name}: {flow} left the chart at t={h * (i + 1):.4f}")
    return check


@dataclass
class GeodesicPath:
    metric: MetricField
    ts: np.ndarray
    xs: np.ndarray  # (N+1, n)
    vs: np.ndarray  # (N+1, n)
    step: float
    speed_drift: float


def _geodesic_rhs(m: MetricField, x, v):
    return v, -((christoffel(m, x) @ v) @ v)


def geodesic_flow(m: MetricField, init: TangentPoint, horizon: float,
                  step: float = DEFAULT_STEP) -> GeodesicPath:
    """RK4 integration of ``x'' = -Gamma(x)(x', x')``.

    Speed conservation is monitored, never enforced: a relative drift beyond
    ``SPEED_DRIFT_TOL`` raises ``StepTooLarge``.
    """
    step = _positive("step", step)
    horizon = _positive("horizon", horizon)
    x = m.require_chart(init.x)
    v = np.asarray(init.vec, dtype=float)
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps

    xs, vs = _rk4(lambda x, v: _geodesic_rhs(m, x, v), (x, v), h, n_steps,
                  _chart_guard(m, "geodesic", h))
    speed0 = m.norm(x, v)
    speeds = np.array([m.norm(xs[i], vs[i]) for i in range(0, n_steps + 1, max(1, n_steps // 32))])
    drift = float(np.max(np.abs(speeds - speed0)) / max(speed0, 1e-300))
    if drift > SPEED_DRIFT_TOL:
        raise StepTooLarge(f"{m.name}: relative speed drift {drift:.2e} with step {h:g}")
    return GeodesicPath(metric=m, ts=np.linspace(0.0, horizon, n_steps + 1),
                        xs=xs, vs=vs, step=h, speed_drift=drift)


def parallel_transport(m: MetricField, path: GeodesicPath, X0) -> np.ndarray:
    """Transport ``X0`` along the path; returns the field samples (N+1, n)."""
    def rhs(x, v, w):
        gamma = christoffel(m, x)
        dx, dv = v, -np.einsum("kij,i,j->k", gamma, v, v)
        dw = -np.einsum("kij,i,j->k", gamma, v, w)
        return dx, dv, dw

    state = (path.xs[0], path.vs[0], X0)
    return _rk4(rhs, state, path.step, len(path.ts) - 1)[2]


@dataclass
class JacobiReport:
    ts: np.ndarray
    J: np.ndarray          # (N+1, B, n)
    W: np.ndarray          # (N+1, B, n) covariant derivative along the geodesic
    f: np.ndarray          # (N+1, B) sqrt(|J|^2 + |W|^2)
    kappa_measured: float
    growth_ok: bool


def _jacobi_eigenframe(cd: CurvatureData, v):
    """Eigenvalues ``lam`` and ``g``-orthonormal eigenvectors (the columns of
    ``frame``) of the Jacobi operator ``Y -> R(Y, v) v`` at ``cd.x``.  The
    operator is ``g``-self-adjoint, so with ``g = L L^T`` the matrix ``L^T K
    L^-T`` is symmetric; it is symmetrized against rounding for one ``eigh``."""
    chol = np.linalg.cholesky(cd.gx)
    op = np.linalg.solve(chol, (chol.T @ ((cd.riem @ v) @ v)).T).T
    lam, q = np.linalg.eigh(0.5 * (op + op.T))
    return lam, np.linalg.solve(chol.T, q)


def jacobi_flow(m: MetricField, init: TangentPoint, horizon: float, J0, W0,
                step: float = DEFAULT_STEP) -> JacobiReport:
    """Solve ``nab^2 J + R(J, gamma') gamma' = 0`` (batched initial data) exactly.

    Every metric is a symmetric space, so ``nab R = 0`` and the Jacobi operator
    is parallel along the geodesic.  In its eigenframe ``e_k`` at the start,
    carried by ``closed_transport``, each coefficient solves ``c'' = -lam_k c``:
    cos/sin for ``lam_k > 0``, cosh/sinh for ``lam_k < 0``, ``1, t`` for 0.  The
    fields are sampled at the ``step`` grid of ``[0, horizon]`` along
    ``closed_ray``, each position checked against the chart.

    Reports ``f(t) = sqrt(|J|_g^2 + |nab J|_g^2)``, the norm of the coefficients,
    against the growth bound ``f(0) exp((kappa + 1) t / 2)`` (up to a slack of
    1e-9) with ``kappa = max |lam_k| / |gamma'|^2``, the supremum of |sectional|
    over the planes through ``gamma'``.
    """
    step = _positive("step", step)
    horizon = _positive("horizon", horizon)
    J0 = np.atleast_2d(np.asarray(J0, dtype=float))
    W0 = np.atleast_2d(np.asarray(W0, dtype=float))
    x = m.require_chart(init.x)
    v = np.asarray(init.vec, dtype=float)
    if not all(np.isfinite(a).all() for a in (v, J0, W0)):
        raise ConfigInvalid("non-finite initial state for the flow")
    cd = christoffel_curvature(m, x)
    ts = np.linspace(0.0, horizon, max(1, int(round(horizon / step))) + 1)
    lam, frame = _jacobi_eigenframe(cd, v)
    speed = m.norm(x, v)
    if speed > 0:
        xs = m.closed_ray(x, v / speed)(speed * ts)
        for t, p in zip(ts, xs):
            if not m.chart_contains(p):
                raise LeftChart(f"{m.name}: jacobi flow left the chart at t={t:.4f}")
        moved = np.array([m.closed_transport(x, p, frame.T) for p in xs])
    else:
        moved = np.broadcast_to(frame.T, (len(ts),) + frame.shape)

    root = np.sqrt(np.abs(lam))
    w = np.multiply.outer(ts, root)
    neg = lam < 0
    cos = np.where(neg, np.cosh(w), np.cos(w))[:, None]   # C, and S below: C' = -lam S, S' = C
    sin = np.divide(np.sinh(w), root, out=ts[:, None] * np.sinc(w / np.pi), where=neg)[:, None]
    a, b = J0 @ (cd.gx @ frame), W0 @ (cd.gx @ frame)     # coefficients of J0 and W0
    c, dc = cos * a + sin * b, cos * b - lam * sin * a
    f = np.sqrt(np.sum(c * c + dc * dc, axis=-1))
    kappa_meas = float(np.max(np.abs(lam))) / speed**2 if speed > 0 else 0.0
    bound = f[0][None, :] * np.exp(0.5 * (kappa_meas + 1.0) * ts)[:, None]
    growth_ok = bool(np.all(f <= bound + 1e-9))
    return JacobiReport(ts=ts, J=c @ moved, W=dc @ moved, f=f, kappa_measured=kappa_meas,
                        growth_ok=growth_ok)


# ---------------------------------------------------------------------------
# exponential / logarithm by shooting
# ---------------------------------------------------------------------------

def _shooting_steps(arc: float) -> int:
    return int(np.clip(arc / 0.01, 48, 512))


def _endpoint(m: MetricField, x, X, n_steps: int):
    """Endpoint of exp_x(X): RK4 on :func:`_geodesic_rhs`, the right-hand side
    of :func:`geodesic_flow`, with the positivity check on every stage and the
    chart check on every step."""
    h = 1.0 / n_steps
    return _rk4(lambda pos, vel: _geodesic_rhs(m, m.require_positive(pos), vel), (x, X), h,
                n_steps, _chart_guard(m, "shooting", h))[0][-1]


def exp_log(m: MetricField, x, y) -> TangentPoint:
    """Newton shooting for ``X`` with ``exp_x(X) = y``; ``|X|_g`` is the distance.

    The RK4 :func:`_endpoint` alone decides ``|exp_x(X) - y| < SHOOTING_TOL``.
    Where it has not converged, Newton steers with ``d exp_x`` at ``X``: every
    metric is a symmetric space, so its column ``k`` is the closed-form Jacobi
    field with ``J(0) = 0``, ``J'(0) = e_k`` at time 1 (:func:`jacobi_flow`).
    A line-search trial that leaves the chart backtracks; leaving it anywhere
    else raises ``ShootingDiverged``.  So does a converged ``X`` longer than
    ``inj_model``, which is a geodesic that does not minimize (the long arc of
    a great circle on the sphere).
    """
    x = m.require_chart(np.asarray(x, dtype=float))
    y = m.require_chart(np.asarray(y, dtype=float))
    X = y - x
    if np.linalg.norm(X) < 1e-15:
        return TangentPoint(x, np.zeros(m.dim))
    n = m.dim
    best_res = math.inf
    try:
        endpoint = _endpoint(m, x, X, _shooting_steps(m.norm(x, X)))
        for _ in range(SHOOTING_MAX_NEWTON):
            res = endpoint - y
            rnorm = float(np.linalg.norm(res))
            if rnorm < SHOOTING_TOL:
                break
            if rnorm > 1e3 * max(1.0, best_res):
                raise ShootingDiverged(f"{m.name}: residual blew up ({rnorm:.2e})")
            best_res = min(best_res, rnorm)
            jac = jacobi_flow(m, TangentPoint(x, X), 1.0, np.zeros((n, n)), np.eye(n),
                              step=1.0).J[-1].T
            try:
                delta = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError as exc:
                raise ShootingDiverged("singular endpoint Jacobian (conjugate point?)") from exc
            # damped Newton keeps the iterates inside the chart; each trial runs
            # at its own step count, so the accepted one's endpoint is reused
            lam = 1.0
            for _ in range(30):
                Xn = X + lam * delta
                try:
                    endn = _endpoint(m, x, Xn, _shooting_steps(m.norm(x, Xn)))
                except LeftChart:
                    lam *= 0.5
                    continue
                if np.linalg.norm(endn - y) < rnorm:
                    X, endpoint = Xn, endn
                    break
                lam *= 0.5
            else:
                raise ShootingDiverged(f"{m.name}: no descent (residual {rnorm:.2e})")
        else:
            raise ShootingDiverged(f"{m.name}: Newton did not converge (residual {best_res:.2e})")
    except LeftChart as exc:
        raise ShootingDiverged(str(exc)) from exc
    length = m.norm(x, X)
    if length > m.inj_model:
        raise ShootingDiverged(f"{m.name}: the shot geodesic has length {length:.4f} > "
                               f"injectivity radius {m.inj_model:.4f}, so it does not minimize")
    return TangentPoint(x, X)


def tangent_angle(m: MetricField, x, u, w) -> float:
    gu = m.norm(x, u)
    gw = m.norm(x, w)
    if gu == 0 or gw == 0:
        raise NotUnit("angle of a zero vector")
    c = m.inner(x, u, w) / (gu * gw)
    return math.acos(float(np.clip(c, -1.0, 1.0)))


@dataclass(frozen=True)
class TangentDistanceResult:
    interval: DistInterval
    base_distance: float


def tangent_distances(m: MetricField, X: TangentPoint, Y: TangentPoint, mode: str = "T1M",
                      step: float = DEFAULT_STEP) -> TangentDistanceResult:
    """Two-sided bounds for the Sasaki distance between tangent vectors.

    Upper bound: base geodesic with parallel transport followed by a fiber
    great-circle (T1M) or straight fiber segment (TM).  Lower bounds: the
    base-point distance (projection contracts) and the norm gap.  The base
    distance (``closed_dist``) and the transport (``closed_transport``) are
    exact; a base point outside the chart raises ``LeftChart``.  ``step`` is
    read by nothing; it stays for the callers that pass it.
    """
    m.require_chart(X.x)
    m.require_chart(Y.x)
    nx = m.norm(X.x, X.vec)
    ny = m.norm(Y.x, Y.vec)
    if mode not in ("TM", "T1M"):
        raise ValueError("mode must be 'TM' or 'T1M'")
    if mode == "T1M" and (abs(nx - 1.0) > 1e-8 or abs(ny - 1.0) > 1e-8):
        raise NotUnit(f"unit tangent mode needs unit vectors (|X|={nx}, |Y|={ny})")

    if np.array_equal(X.x, Y.x):
        base = 0.0
        transported = X.vec.copy()
    else:
        base = float(m.closed_dist(X.x, Y.x))
        transported = m.closed_transport(X.x, Y.x, X.vec)

    if mode == "T1M":
        fiber = tangent_angle(m, Y.x, transported, Y.vec)
    else:
        fiber = m.norm(Y.x, transported - Y.vec)
    upper = base + fiber
    lower = max(base, abs(nx - ny))
    return TangentDistanceResult(interval=DistInterval(min(lower, upper), upper),
                                 base_distance=base)


# ---------------------------------------------------------------------------
# spread and backward estimates
# ---------------------------------------------------------------------------

@dataclass
class SpreadRow:
    t: float
    lhs: float
    rhs: float
    ok: bool


def _sampled_geodesics(m: MetricField, inits, horizon: float, grid: int):
    """The ``grid + 1`` times ``linspace(0, horizon, grid + 1)`` and each
    geodesic of ``inits`` at those times: ``closed_ray`` sampled at
    ``|v|_g t``.  A ``grid`` below 1 samples no time after 0 and raises
    ``ConfigInvalid``."""
    if not grid >= 1:
        raise ConfigInvalid(f"grid must be an integer >= 1, got {grid}")
    ts = np.linspace(0.0, horizon, grid + 1)
    return ts, [m.closed_ray(p.x, p.vec)(m.norm(p.x, p.vec) * ts) for p in inits]


def spread_check(m: MetricField, init1: TangentPoint, init2: TangentPoint,
                 kappa: float, horizon: float, grid: int = 6) -> list[SpreadRow]:
    """Check ``d(gamma1(t), gamma2(t)) <= exp((kappa+1)t/2) d_T1(g1'(0), g2'(0))``.

    ``kappa`` must dominate the measured |sectional| bound along both paths.
    Both paths are sampled at the ``grid + 1`` equally spaced times in
    ``[0, horizon]`` as in :func:`backward_estimate`, and the left side is
    ``closed_dist``.  A row passes with a slack of 1e-8.
    """
    horizon = _positive("horizon", horizon)
    ts, (xs1, xs2) = _sampled_geodesics(m, (init1, init2), horizon, grid)
    d0 = tangent_distances(m, init1, init2, mode="T1M").interval.upper
    rows = []
    for t, x1, x2 in zip(ts, xs1, xs2):
        lhs = float(m.closed_dist(x1, x2))
        rhs = math.exp(0.5 * (kappa + 1.0) * t) * d0
        rows.append(SpreadRow(t=float(t), lhs=lhs, rhs=rhs, ok=bool(lhs <= rhs + 1e-8)))
    return rows


def convexity_radius_floor(m: MetricField, kappa: float) -> float:
    """Lower bound ``min(pi / (2 sqrt(kappa)), inj/2)`` for the convexity radius."""
    roots = math.pi / (2.0 * math.sqrt(kappa)) if kappa > 0 else math.inf
    return min(roots, m.inj_model / 2.0)


def backward_estimate(m: MetricField, gamma_init: TangentPoint, sigma_init: TangentPoint,
                      eps: float, kappa: float | None = None, grid: int = 8) -> float:
    """Empirical ratio ``d_T1(gamma'(0), sigma'(0)) * eps / max_t d(gamma(t), sigma(t))``.

    The max runs over ``grid + 1`` equally spaced times in ``[0, eps]``.  Each
    curve is ``closed_ray`` sampled at ``|v|_g t``, and ``d`` is
    ``closed_dist``.  The max over samples of this ratio estimates the
    constant in the backward initial-condition inequality.  Coincident
    geodesics report 0.
    """
    eps = _positive("eps", eps)
    kap = kappa if kappa is not None else (abs(m.kappa_model) if m.kappa_model else 1.0)
    r_floor = convexity_radius_floor(m, kap)
    if eps >= min(r_floor / 2.0, 1.0):
        raise EpsilonTooLarge(f"eps={eps} vs floor {min(r_floor / 2.0, 1.0)}")
    # the T1M distance checks both base points and that both vectors are unit
    # before any sampling
    d0 = tangent_distances(m, gamma_init, sigma_init, mode="T1M").interval.upper
    _, (xs1, xs2) = _sampled_geodesics(m, (gamma_init, sigma_init), eps, grid)
    dmax = 0.0
    for x1, x2 in zip(xs1, xs2):
        dmax = max(dmax, float(m.closed_dist(x1, x2)))
    if dmax == 0.0:
        return 0.0
    return d0 * eps / dmax


def segment_max_lower_bound(X, Y, eps: float) -> tuple[float, float, bool]:
    """``max_{t in [0, eps]} |X + tY|`` against ``(eps/4)(|X| + |Y|)``.

    The squared norm is convex in t, so the max sits at an endpoint; the
    interior critical point is evaluated anyway for the report.
    """
    if not 0.0 < eps < 2.0:
        raise ValueError("eps must lie in (0, 2)")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    cands = [0.0, eps]
    yy = float(Y @ Y)
    if yy > 0:
        tc = -float(X @ Y) / yy
        if 0.0 < tc < eps:
            cands.append(tc)
    value = max(float(np.linalg.norm(X + t * Y)) for t in cands)
    bound = 0.25 * eps * (float(np.linalg.norm(X)) + float(np.linalg.norm(Y)))
    return value, bound, bool(value >= bound - 1e-12)
