"""Chart-based Riemannian engine.

A metric lives on a single chart ``U subset R^n`` through a component oracle
``g_ij(x)`` with first and second derivative oracles (the model metrics are
one closed-form U(d)-invariant family, so their derivatives are exact to
double precision).
On top of it the module builds Christoffel symbols, the curvature tensor,
geodesic / parallel-transport / Jacobi flows, a shooting exponential-log map
whose Newton iteration uses the exact variational system (all four flows run
on the one fixed-step RK4 integrator :func:`_rk4`), the tangent-bundle
metric with its horizontal/vertical splitting, and the three estimates the
rigidity pipelines consume: unit-tangent vs tangent comparison, geodesic
spread, and the backward initial-condition estimate.

Shape contract: the ``g`` and ``dg`` oracles and :func:`christoffel` take
one point ``(n,)`` or a stack of points ``(N, n)`` and return the matching
leading axis, e.g. ``christoffel(m, xs)`` is ``(N, n, n, n)``; ``d2g`` and
everything else take one point.  The ``closed_geodesic`` and ``closed_ray``
samplers take a time ``t`` (returning ``(n,)``) or an array of times
(returning ``(N, n)``).

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
    """Smooth Riemannian metric on a chart with derivative oracles."""

    name: str
    dim: int
    g: Callable[[np.ndarray], np.ndarray]       # (n,) -> (n, n); (N, n) -> (N, n, n)
    dg: Callable[[np.ndarray], np.ndarray]      # dg[..., k, i, j] = d_k g_ij, stacks as g
    d2g: Callable[[np.ndarray], np.ndarray]     # d2g[k, l, i, j] = d_k d_l g_ij, one point
    chart_contains: Callable[[np.ndarray], bool]
    kappa_model: float | None = None            # known constant sectional curvature
    inj_model: float | None = None              # known injectivity radius (None = unknown)
    closed_dist: Callable | None = None
    closed_geodesic: Callable | None = None     # (x, y) -> (T, v0, sampler); sampler(t) is
                                                # (n,), sampler(ts) of shape (N,) is (N, n)
    closed_ray: Callable | None = None          # (x, unit v) -> sampler t -> gamma(t), shaped
                                                # as closed_geodesic's sampler

    def require_chart(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.chart_contains(x):
            raise LeftChart(f"{self.name}: point {x} left the chart")
        return x

    def metric_at(self, x) -> np.ndarray:
        gx = np.asarray(self.g(np.asarray(x, dtype=float)))
        if np.min(np.linalg.eigvalsh(0.5 * (gx + gx.T))) <= MIN_EIGENVALUE:
            raise SingularMetric(f"{self.name}: metric not positive definite at {x}")
        return gx

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
    rank-2 terms.  With ``P = x x^T + Jx (Jx)^T``::

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

    return MetricField(name=name, dim=dim, g=g, dg=dg, d2g=d2g, **fields)


# -- model metrics -----------------------------------------------------------

def _complex_of(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def _real_of(z: np.ndarray) -> np.ndarray:
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = np.real(z)
    out[..., 1::2] = np.imag(z)
    return out


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
        g=constant(eye), dg=constant(zeros3), d2g=lambda x: zeros4,
        chart_contains=lambda x: bool(np.all(np.abs(x) < 1e6)),
        kappa_model=0.0, inj_model=math.inf,
        closed_dist=lambda x, y: float(np.linalg.norm(np.asarray(y) - np.asarray(x))),
        closed_geodesic=sampler_factory,
        closed_ray=lambda x, v: line(np.asarray(x, float), np.asarray(v, float)),
    )


@lru_cache(maxsize=None)
def poincare_disk() -> MetricField:
    def dist(x, y):
        zx, zy = complex(x[0], x[1]), complex(y[0], y[1])
        m = abs((zx - zy) / (1 - np.conj(zx) * zy))
        return 2.0 * math.atanh(min(m, 1 - 1e-16))

    def curve(zx, e):
        """Unit-speed geodesic from ``zx`` leaving in the unit direction ``e``."""
        def gamma(t):
            w = e * np.tanh(t / 2.0)
            z = (zx + w) / (1 + np.conj(zx) * w)
            return np.stack((z.real, z.imag), axis=-1)

        return gamma

    def geod(x, y):
        zx, zy = complex(x[0], x[1]), complex(y[0], y[1])
        t = (zy - zx) / (1 - np.conj(zx) * zy)
        T = 2.0 * math.atanh(abs(t))
        e = t / abs(t)
        v0c = (1 - abs(zx) ** 2) * e / 2.0
        return T, np.array([v0c.real, v0c.imag]), curve(zx, e)

    def ray(x, v):
        zx = complex(x[0], x[1])
        e = 2.0 * complex(v[0], v[1]) / (1 - abs(zx) ** 2)
        return curve(zx, e / abs(e))

    def a(s):
        u = 1.0 / (1.0 - s)
        return 4.0 * u**2, 8.0 * u**3, 24.0 * u**4

    return invariant_metric(
        "poincare", 2, a,
        chart_contains=lambda x: float(x @ x) < 1.0 - 1e-12,
        kappa_model=-1.0, inj_model=math.inf,
        closed_dist=dist, closed_geodesic=geod, closed_ray=ray,
    )


@lru_cache(maxsize=None)
def sphere_stereographic(chart_radius: float = 40.0) -> MetricField:
    def embed(x):
        s = float(x @ x)
        return np.array([2 * x[0], 2 * x[1], s - 1.0]) / (1.0 + s)

    def dist(x, y):
        c = float(np.clip(embed(np.asarray(x, float)) @ embed(np.asarray(y, float)), -1.0, 1.0))
        return math.acos(c)

    def curve(p, q):
        """Great circle through ``p`` with unit tangent ``q``, in the chart."""
        def gamma(t):
            pt = np.multiply.outer(np.cos(t), p) + np.multiply.outer(np.sin(t), q)
            return pt[..., :2] / (1.0 - pt[..., 2:])

        return gamma

    def geod(x, y):
        p, q = embed(np.asarray(x, float)), embed(np.asarray(y, float))
        T = dist(x, y)
        axis = q - p * (p @ q)
        norm = np.linalg.norm(axis)
        if norm < 1e-14:
            raise ShootingDiverged("antipodal or coincident points on the sphere")
        gamma = curve(p, axis / norm)
        h = 1e-6
        v0 = (gamma(h) - gamma(0.0)) / h
        return T, v0, gamma

    def ray(x, v):
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        s = float(x @ x)
        u = 1.0 + s
        p = embed(x)
        xv = float(x @ v)
        dp = np.array([2 * v[0] * u - 4 * x[0] * xv, 2 * v[1] * u - 4 * x[1] * xv,
                       4 * xv]) / u**2
        return curve(p, dp / np.linalg.norm(dp))

    def a(s):
        u = 1.0 / (1.0 + s)
        return 4.0 * u**2, -8.0 * u**3, 24.0 * u**4

    return invariant_metric(
        "sphere", 2, a,
        chart_contains=lambda x: float(x @ x) < chart_radius**2,
        kappa_model=1.0, inj_model=math.pi,
        closed_dist=dist, closed_geodesic=geod, closed_ray=ray,
    )


@lru_cache(maxsize=None)
def bergman_ball(d: int = 2) -> MetricField:
    """Bergman metric of the unit ball: the real form of
    ``(d+1) [(1-|z|^2) delta_jk + zbar_j z_k] / (1-|z|^2)^2``, i.e. the
    invariant metric with ``a = 2(d+1)/(1-s)`` and ``b = 2(d+1)/(1-s)^2``."""
    from .cgeo import ball_involution
    from .kobayashi import ball_distance

    radial = math.sqrt(2.0 * (d + 1))  # metric length of the unit radial speed

    def curve(phi, e):
        """Geodesic ``phi(e tanh(t / radial))``: the image of a diameter."""
        return lambda t: _real_of(phi(np.multiply.outer(np.tanh(t / radial), e)))

    def dist(x, y):
        m = math.tanh(ball_distance(_complex_of(np.asarray(x, float)), _complex_of(np.asarray(y, float))))
        return radial * math.atanh(min(m, 1 - 1e-16))

    def geod(x, y):
        zx = _complex_of(np.asarray(x, float))
        zy = _complex_of(np.asarray(y, float))
        phi = ball_involution(zx)
        w = phi(zy)
        wn = np.linalg.norm(w)
        if wn < 1e-15:
            raise ShootingDiverged("coincident points")
        e = w / wn
        T = radial * math.atanh(min(wn, 1 - 1e-16))
        a2 = float(np.sum(np.abs(zx) ** 2))
        s_a = math.sqrt(1.0 - a2)
        if a2 > 0:
            pa = (np.sum(e * np.conj(zx)) / a2) * zx
        else:
            pa = np.zeros_like(e)
        dphi_e = -(s_a**2 * pa + s_a * (e - pa))
        v0 = _real_of(dphi_e / radial)
        return T, v0, curve(phi, e)

    def ray(x, v):
        a = _complex_of(np.asarray(x, float))
        vc = _complex_of(np.asarray(v, float))
        a2 = float(np.sum(np.abs(a) ** 2))
        s_a = math.sqrt(1.0 - a2)
        if a2 > 0:
            pv = (np.sum(vc * np.conj(a)) / a2) * a
        else:
            pv = np.zeros_like(vc)
        # invert dphi_a|_0 = -(s^2 P + s Q) and rescale to the radial speed
        e = -(pv / s_a**2 + (vc - pv) / s_a)
        return curve(ball_involution(a), e / np.linalg.norm(e))

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
        closed_dist=dist, closed_geodesic=geod, closed_ray=ray,
    )


def scale_metric(m: MetricField, lam: float) -> MetricField:
    """The metric ``lam * g``: distances scale by sqrt(lam), sectional
    curvature by 1/lam.  Used to normalize measured curvature bounds."""
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    s = math.sqrt(lam)

    closed_dist = None
    if m.closed_dist is not None:
        closed_dist = lambda x, y: s * m.closed_dist(x, y)

    closed_geodesic = None
    if m.closed_geodesic is not None:
        def closed_geodesic(x, y):
            T, v0, sampler = m.closed_geodesic(x, y)
            return s * T, v0 / s, lambda t: sampler(t / s)

    closed_ray = None
    if m.closed_ray is not None:
        def closed_ray(x, v):
            base = m.closed_ray(x, np.asarray(v, float) * s)
            return lambda t: base(t / s)

    return MetricField(
        name=f"{m.name}*{lam:g}", dim=m.dim,
        g=lambda x: lam * m.g(x), dg=lambda x: lam * m.dg(x), d2g=lambda x: lam * m.d2g(x),
        chart_contains=m.chart_contains,
        kappa_model=(m.kappa_model / lam if m.kappa_model is not None else None),
        inj_model=(m.inj_model * s if m.inj_model is not None else None),
        closed_dist=closed_dist, closed_geodesic=closed_geodesic, closed_ray=closed_ray,
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


def christoffel(m: MetricField, x) -> np.ndarray:
    """``gamma[..., k, i, j]`` at one point ``(n,)`` or at each of ``(N, n)``."""
    x = np.asarray(x, dtype=float)
    gx = m.g(x)
    dg = m.dg(x)
    ginv = np.linalg.inv(gx)
    # term[..., m, i, j] = d_i g_jm + d_j g_im - d_m g_ij
    term = np.einsum("...ijm->...mij", dg) + np.einsum("...jim->...mij", dg) - dg
    return 0.5 * (ginv @ term.reshape(term.shape[:-2] + (-1,))).reshape(term.shape)


def christoffel_curvature(m: MetricField, x) -> CurvatureData:
    """Christoffels, their derivatives, and the curvature tensor at ``x``."""
    x = np.asarray(x, dtype=float)
    gx = m.metric_at(x)
    dg = m.dg(x)
    d2g = m.d2g(x)
    ginv = np.linalg.inv(gx)

    # term[m, i, j] = d_i g_jm + d_j g_im - d_m g_ij  and its x-derivative
    term = np.einsum("ijm->mij", dg) + np.einsum("jim->mij", dg) - dg
    dterm = np.einsum("aijm->amij", d2g) + np.einsum("ajim->amij", d2g) - d2g

    gamma = 0.5 * np.einsum("km,mij->kij", ginv, term)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)  # dginv[m, k, l] = d_m g^{kl}
    dgamma = 0.5 * (np.einsum("akm,mij->akij", dginv, term)
                    + np.einsum("km,amij->akij", ginv, dterm))

    riem = (np.einsum("iljk->lijk", dgamma)
            - np.einsum("jlik->lijk", dgamma)
            + np.einsum("lim,mjk->lijk", gamma, gamma)
            - np.einsum("ljm,mik->lijk", gamma, gamma))
    return CurvatureData(x=x, gx=gx, ginv=ginv, gamma=gamma, dgamma=dgamma, riem=riem)


def sectional_curvature(m: MetricField, x, X, Y) -> float:
    return christoffel_curvature(m, x).sectional(X, Y)


def measured_curvature_bound(m: MetricField, points, rng=None, planes: int = 4) -> float:
    """Max |sectional| over sampled points and 2-planes."""
    rng = np.random.default_rng(13) if rng is None else rng
    worst = 0.0
    for x in points:
        cd = christoffel_curvature(m, x)
        n = m.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        vecs = [(np.eye(n)[i], np.eye(n)[j]) for i, j in pairs]
        for _ in range(planes):
            a, b = rng.standard_normal((2, n))
            if abs(np.linalg.det(np.stack([a, b])[:, :2])) > 1e-8 or n > 2:
                vecs.append((a, b))
        for X, Y in vecs:
            try:
                worst = max(worst, abs(cd.sectional(X, Y)))
            except ValueError:
                continue
    return worst


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

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

    def state(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Nearest stored state (the grids are fine enough for the checks)."""
        idx = int(np.clip(round(t / self.step), 0, len(self.ts) - 1))
        return self.xs[idx], self.vs[idx]


def _geodesic_rhs(m: MetricField, x, v):
    gamma = christoffel(m, x)
    acc = -np.einsum("kij,i,j->k", gamma, v, v)
    return v, acc


def geodesic_flow(m: MetricField, init: TangentPoint, horizon: float,
                  step: float = DEFAULT_STEP, drift_tol: float = SPEED_DRIFT_TOL) -> GeodesicPath:
    """RK4 integration of ``x'' = -Gamma(x)(x', x')``.

    Speed conservation is monitored, never enforced: a drift beyond
    ``drift_tol`` raises ``StepTooLarge``.
    """
    x = m.require_chart(init.x)
    v = np.asarray(init.vec, dtype=float)
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps

    xs, vs = _rk4(lambda x, v: _geodesic_rhs(m, x, v), (x, v), h, n_steps,
                  _chart_guard(m, "geodesic", h))
    speed0 = m.norm(x, v)
    speeds = np.array([m.norm(xs[i], vs[i]) for i in range(0, n_steps + 1, max(1, n_steps // 32))])
    drift = float(np.max(np.abs(speeds - speed0)) / max(speed0, 1e-300))
    if drift > drift_tol:
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


def jacobi_flow(m: MetricField, init: TangentPoint, horizon: float, J0, W0,
                step: float = DEFAULT_STEP, kappa: float | None = None,
                growth_slack: float = 1e-9) -> JacobiReport:
    """Integrate ``nab^2 J + R(gamma', J) gamma' = 0`` (batched initial data).

    Reports ``f(t) = sqrt(|J|_g^2 + |nab J|_g^2)`` against the growth bound
    ``f(0) exp((kappa + 1) t / 2)`` with ``kappa`` the measured |sectional|
    bound along the path (or a supplied value).
    """
    J0 = np.atleast_2d(np.asarray(J0, dtype=float))
    W0 = np.atleast_2d(np.asarray(W0, dtype=float))
    B = J0.shape[0]
    x = m.require_chart(init.x)
    v = np.asarray(init.vec, dtype=float)
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps

    def rhs(x, v, J, W):
        cd = christoffel_curvature(m, x)
        dx, dv = v, -np.einsum("kij,i,j->k", cd.gamma, v, v)
        dJ = W - np.einsum("kij,i,bj->bk", cd.gamma, v, J)
        # Jacobi operator R(J, gamma') gamma' in the sign convention of `riem`
        rv = np.einsum("lijk,bi,j,k->bl", cd.riem, J, v, v)
        dW = -rv - np.einsum("kij,i,bj->bk", cd.gamma, v, W)
        return dx, dv, dJ, dW

    pos, vel, Js, Ws = _rk4(rhs, (x, v, J0, W0), h, n_steps, _chart_guard(m, "jacobi flow", h))

    kappa_meas = 0.0
    eye = np.eye(m.dim)
    for i in range(0, n_steps, max(1, n_steps // 16)):
        cd = christoffel_curvature(m, pos[i])
        fields = [J if np.linalg.norm(J) > 1e-12 else eye[0] for J in Js[i][:4]]
        for Y in fields + list(eye):
            try:
                kappa_meas = max(kappa_meas, abs(cd.sectional(vel[i], Y)))
            except ValueError:
                pass

    kap = kappa_meas if kappa is None else float(kappa)
    ts = np.linspace(0.0, horizon, n_steps + 1)
    # g-norms along the path
    xs = geodesic_flow(m, init, horizon, step=step).xs
    f = np.empty((n_steps + 1, B))
    for i in range(n_steps + 1):
        gx = m.g(xs[i])
        f[i] = np.sqrt(np.einsum("bi,ij,bj->b", Js[i], gx, Js[i])
                       + np.einsum("bi,ij,bj->b", Ws[i], gx, Ws[i]))
    bound = f[0][None, :] * np.exp(0.5 * (kap + 1.0) * ts)[:, None]
    growth_ok = bool(np.all(f <= bound + growth_slack))
    return JacobiReport(ts=ts, J=Js, W=Ws, f=f, kappa_measured=kappa_meas, growth_ok=growth_ok)


# ---------------------------------------------------------------------------
# exponential / logarithm by shooting
# ---------------------------------------------------------------------------

def _shooting_steps(arc: float, step: float | None) -> int:
    if step is not None:
        return max(8, int(round(1.0 / step)))
    return int(np.clip(arc / 0.01, 48, 512))


def _endpoint_and_jacobian(m: MetricField, x, X, n_steps: int):
    """Endpoint of exp_x(X) plus its Jacobian in X (variational system)."""
    def rhs(pos, vel, dx, dv):
        cd = christoffel_curvature(m, pos)
        acc = -np.einsum("kij,i,j->k", cd.gamma, vel, vel)
        dacc = (-np.einsum("akij,i,j,am->km", cd.dgamma, vel, vel, dx)
                - 2.0 * np.einsum("kij,i,jm->km", cd.gamma, vel, dv))
        return vel, acc, dv, dacc

    n, h = m.dim, 1.0 / n_steps
    pos, _, dxdX, _ = _rk4(rhs, (x, X, np.zeros((n, n)), np.eye(n)), h, n_steps,
                           _chart_guard(m, "shooting", h))
    return pos[-1], dxdX[-1]


def exp_log(m: MetricField, x, y, tol: float = SHOOTING_TOL) -> TangentPoint:
    """Newton shooting for ``X`` with ``exp_x(X) = y``; ``|X|_g`` is the distance."""
    x = m.require_chart(np.asarray(x, dtype=float))
    y = m.require_chart(np.asarray(y, dtype=float))
    X = y - x
    if np.linalg.norm(X) < 1e-15:
        return TangentPoint(x, np.zeros(m.dim))

    best_res = math.inf
    for _ in range(SHOOTING_MAX_NEWTON):
        n_steps = _shooting_steps(m.norm(x, X), None)
        try:
            endpoint, jac = _endpoint_and_jacobian(m, x, X, n_steps)
        except LeftChart as exc:
            raise ShootingDiverged(str(exc)) from exc
        res = endpoint - y
        rnorm = float(np.linalg.norm(res))
        if rnorm < tol:
            return TangentPoint(x, X)
        if rnorm > 1e3 * max(1.0, best_res):
            raise ShootingDiverged(f"{m.name}: residual blew up ({rnorm:.2e})")
        best_res = min(best_res, rnorm)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ShootingDiverged("singular endpoint Jacobian (conjugate point?)") from exc
        # damped Newton keeps the iterates inside the chart
        lam = 1.0
        for _ in range(30):
            Xn = X + lam * delta
            try:
                endn, _ = _endpoint_and_jacobian(m, x, Xn, n_steps)
            except LeftChart:
                lam *= 0.5
                continue
            if np.linalg.norm(endn - y) < rnorm:
                X = Xn
                break
            lam *= 0.5
        else:
            raise ShootingDiverged(f"{m.name}: no descent (residual {rnorm:.2e})")
    raise ShootingDiverged(f"{m.name}: Newton did not converge (residual {best_res:.2e})")


def geodesic_distance(m: MetricField, x, y, prefer_closed_form: bool = True) -> float:
    if prefer_closed_form and m.closed_dist is not None:
        return float(m.closed_dist(np.asarray(x, float), np.asarray(y, float)))
    tp = exp_log(m, x, y)
    return m.norm(tp.x, tp.vec)


# ---------------------------------------------------------------------------
# tangent-bundle (Sasaki) geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SasakiSplit:
    horizontal: np.ndarray  # d(pi) xi
    vertical: np.ndarray    # connection map K(xi)
    h_norm: float


def sasaki_eval(m: MetricField, X: TangentPoint, curve: Callable[[float], tuple], h: float = 1e-6) -> SasakiSplit:
    """Split the derivative of a curve ``t -> (x(t), V(t))`` in TM at t = 0.

    The connection map is ``K(xi) = V'(0) + Gamma(x)(x'(0), V(0))``; the
    Sasaki norm is ``sqrt(|dpi xi|_g^2 + |K xi|_g^2)``.
    """
    x0, v0 = curve(0.0)
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    xp, vp = curve(h)
    xm, vm = curve(-h)
    dx = (np.asarray(xp, float) - np.asarray(xm, float)) / (2 * h)
    dV = (np.asarray(vp, float) - np.asarray(vm, float)) / (2 * h)
    gamma = christoffel(m, x0)
    K = dV + np.einsum("kij,i,j->k", gamma, dx, v0)
    gx = m.g(x0)
    hn = math.sqrt(float(dx @ gx @ dx) + float(K @ gx @ K))
    return SasakiSplit(horizontal=dx, vertical=K, h_norm=hn)


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
    transported: np.ndarray
    fiber_term: float  # angle (T1M) or g-norm of the fiber gap (TM)


def tangent_distances(m: MetricField, X: TangentPoint, Y: TangentPoint, mode: str = "T1M",
                      unit_tol: float = 1e-8, step: float = DEFAULT_STEP) -> TangentDistanceResult:
    """Two-sided bounds for the Sasaki distance between tangent vectors.

    Upper bound: base geodesic with parallel transport followed by a fiber
    great-circle (T1M) or straight fiber segment (TM).  Lower bounds: the
    base-point distance (projection contracts) and the norm gap.
    """
    nx = m.norm(X.x, X.vec)
    ny = m.norm(Y.x, Y.vec)
    if mode not in ("TM", "T1M"):
        raise ValueError("mode must be 'TM' or 'T1M'")
    if mode == "T1M" and (abs(nx - 1.0) > unit_tol or abs(ny - 1.0) > unit_tol):
        raise NotUnit(f"unit tangent mode needs unit vectors (|X|={nx}, |Y|={ny})")

    same_base = bool(np.allclose(X.x, Y.x, atol=1e-14))
    if same_base:
        base = 0.0
        transported = X.vec.copy()
    else:
        if m.closed_geodesic is not None:
            base, _, sampler = m.closed_geodesic(X.x, Y.x)
            ts = np.linspace(0, base, max(16, int(base / step)) + 1)
            transported = _transport_along_samples(m, sampler(ts), ts, X.vec)
        else:
            tp = exp_log(m, X.x, Y.x)
            base = m.norm(tp.x, tp.vec)
            path = geodesic_flow(m, tp, 1.0, step=1.0 / max(32, int(base / step)), drift_tol=1.0)
            transported = parallel_transport(m, path, X.vec)[-1]

    if mode == "T1M":
        fiber = tangent_angle(m, Y.x, transported, Y.vec)
        upper = base + fiber
        lower = max(base, abs(nx - ny))
    else:
        gap = transported - Y.vec
        fiber = m.norm(Y.x, gap)
        upper = base + fiber
        lower = max(base, abs(nx - ny))
    return TangentDistanceResult(interval=DistInterval(min(lower, upper), upper),
                                 base_distance=base, transported=transported, fiber_term=fiber)


# points per stacked christoffel call: 128 KB of dg at n = 4, so the transport
# adds no peak memory over the one-point loop (1024 added ~1 MB, 4096 ~11 MB)
_TRANSPORT_BLOCK = 256


def _transport_along_samples(m: MetricField, xs: np.ndarray, ts: np.ndarray, X0) -> np.ndarray:
    """Parallel transport along a sampled curve, one RK2 step per interval.

    With ``A = Gamma(x_i)(xdot_i, .)`` and ``A_mid`` the same at the
    interval's midpoint, the step is ``w <- w - h A_mid (w - h/2 A w)``.  The
    Christoffels come from stacked calls of ``_TRANSPORT_BLOCK`` points.
    """
    h = np.diff(ts)
    xdot = np.diff(xs, axis=0) / h[:, None]
    starts, mids = xs[:-1], 0.5 * (xs[:-1] + xs[1:])
    w = np.asarray(X0, dtype=float)
    eye = np.eye(len(w))
    for lo in range(0, len(h), _TRANSPORT_BLOCK):
        blk = slice(lo, lo + _TRANSPORT_BLOCK)
        hb = h[blk, None, None]
        a = np.einsum("nkij,ni->nkj", christoffel(m, starts[blk]), xdot[blk])
        a_mid = np.einsum("nkij,ni->nkj", christoffel(m, mids[blk]), xdot[blk])
        for step in eye - hb * (a_mid - 0.5 * hb * (a_mid @ a)):
            w = step @ w
    return w


# ---------------------------------------------------------------------------
# spread and backward estimates
# ---------------------------------------------------------------------------

@dataclass
class SpreadRow:
    t: float
    lhs: float
    rhs: float
    ok: bool


def spread_check(m: MetricField, init1: TangentPoint, init2: TangentPoint,
                 kappa: float, horizon: float, grid: int = 6,
                 step: float = DEFAULT_STEP, slack: float = 1e-8,
                 use_closed_form: bool = False) -> list[SpreadRow]:
    """Check ``d(gamma1(t), gamma2(t)) <= exp((kappa+1)t/2) d_T1(g1'(0), g2'(0))``.

    ``kappa`` must dominate the measured |sectional| bound along both paths.
    The left side uses the shooting distance unless ``use_closed_form``.
    """
    p1 = geodesic_flow(m, init1, horizon, step=step)
    p2 = geodesic_flow(m, init2, horizon, step=step)
    d0 = tangent_distances(m, init1, init2, mode="T1M").interval.upper
    rows = []
    for t in np.linspace(0.0, horizon, grid + 1):
        x1, _ = p1.state(t)
        x2, _ = p2.state(t)
        lhs = geodesic_distance(m, x1, x2, prefer_closed_form=use_closed_form)
        rhs = math.exp(0.5 * (kappa + 1.0) * t) * d0
        rows.append(SpreadRow(t=float(t), lhs=lhs, rhs=rhs, ok=bool(lhs <= rhs + slack)))
    return rows


def convexity_radius_floor(m: MetricField, kappa: float) -> float:
    """Lower bound ``min(pi / (2 sqrt(kappa)), inj/2)`` for the convexity radius."""
    roots = math.pi / (2.0 * math.sqrt(kappa)) if kappa > 0 else math.inf
    inj = m.inj_model if m.inj_model is not None else math.inf
    return min(roots, inj / 2.0)


def backward_estimate(m: MetricField, gamma_init: TangentPoint, sigma_init: TangentPoint,
                      eps: float, kappa: float | None = None, grid: int = 8,
                      step: float = DEFAULT_STEP, use_closed_form: bool = True) -> float:
    """Empirical ratio ``d_T1(gamma'(0), sigma'(0)) * eps / max_t d(gamma(t), sigma(t))``.

    The max over samples of this ratio estimates the constant in the backward
    initial-condition inequality.  Coincident geodesics report 0.
    """
    kap = kappa if kappa is not None else (abs(m.kappa_model) if m.kappa_model else 1.0)
    r_floor = convexity_radius_floor(m, kap)
    if eps >= min(r_floor / 2.0, 1.0):
        raise EpsilonTooLarge(f"eps={eps} vs floor {min(r_floor / 2.0, 1.0)}")
    p1 = geodesic_flow(m, gamma_init, eps, step=min(step, eps / 16))
    p2 = geodesic_flow(m, sigma_init, eps, step=min(step, eps / 16))
    dmax = 0.0
    for t in np.linspace(0.0, eps, grid + 1):
        x1, _ = p1.state(t)
        x2, _ = p2.state(t)
        dmax = max(dmax, geodesic_distance(m, x1, x2, prefer_closed_form=use_closed_form))
    d0 = tangent_distances(m, gamma_init, sigma_init, mode="T1M").interval.upper
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
