"""Kahler-specific quantities: bounded geometry (curvature bound + metric
upper bound against 1/delta), squeezing lower bounds, model-space ball
volumes, the volume-ratio injectivity bound, and the rigidity thresholds.

A Kahler field is a chart metric on a domain of C^d (real dimension 2d, in
interleaved coordinates).  Curvature values of models are always measured
through the engine, never hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gamma as gamma_fn

from .domain import Domain, as_point, boundary_distance, c2r, radial_exit, sample_ball
from .errors import (
    ChartIncomplete,
    ConfigInvalid,
    PositiveCurvatureUnsupported,
    RadiusOutOfRange,
)
from .riemann import (
    MetricField,
    bergman_ball,
    christoffel_curvature,
    euclidean,
    poincare_disk,
)

COMPLETENESS_LENGTH = 8.0    # ray length treated as "diverging" at desk scale
COMPLETENESS_DEPTH = 1e-7    # how close to the boundary rays are integrated


# ---------------------------------------------------------------------------
# Kahler fields
# ---------------------------------------------------------------------------

@dataclass
class KahlerField:
    metric: MetricField
    complex_dim: int
    name: str


def poincare_kahler() -> KahlerField:
    return KahlerField(metric=poincare_disk(), complex_dim=1, name="poincare")


def flat_kahler(d: int = 1) -> KahlerField:
    return KahlerField(metric=euclidean(2 * d), complex_dim=d, name="flat")


def bergman_kahler(d: int = 2) -> KahlerField:
    return KahlerField(metric=bergman_ball(d), complex_dim=d, name=f"bergman-ball-{d}")


# ---------------------------------------------------------------------------
# bounded-geometry estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BGReport:
    kappa_est: float   # sup |sectional| over sampled 2-planes
    A_est: float       # sup sqrt(g(v,v)) * delta(z) / |v|
    a_est: float       # inf sqrt(g(v,v)) / |v|
    complete: bool     # ray-length divergence surrogate
    passed: bool


def property_bg_estimate(k: KahlerField, dom: Domain, n_points: int = 40,
                         extra_points=()) -> BGReport:
    """Sampled bounded-geometry constants of an invariant metric.

    The sample points are the origin, ``extra_points`` and seeded uniform
    points of the domain in ``B(0, 0.995)``, ``n_points`` in all, each
    probed along six seeded random directions.
    PASS means: curvature and upper constant finite, lower constant positive.
    Completeness is a separate flag (rays toward the boundary accumulate at
    least ``COMPLETENESS_LENGTH`` of metric length).
    """
    rng = np.random.default_rng(31)
    d = k.complex_dim
    m = k.metric

    pts = [np.zeros(2 * d)] + [c2r(as_point(p, d)) for p in extra_points]
    pts += [c2r(z) for z in sample_ball(dom, np.zeros(d), 0.995, n_points - len(pts), rng)]

    kappa = 0.0
    A_est = 0.0
    a_est = math.inf
    for x in pts:
        if not m.chart_contains(x):
            raise ChartIncomplete(f"sample {x} misses the chart of {m.name}")
        z = x[0::2] + 1j * x[1::2]
        delta = boundary_distance(dom, z)
        cd = christoffel_curvature(m, x)
        gx = cd.gx
        for _ in range(6):
            v = rng.standard_normal(2 * d)
            gnorm = math.sqrt(float(v @ gx @ v))
            vnorm = float(np.linalg.norm(v))
            A_est = max(A_est, gnorm * delta / vnorm)
            a_est = min(a_est, gnorm / vnorm)
            w = rng.standard_normal(2 * d)
            try:
                kappa = max(kappa, abs(cd.sectional(v, w)))
            except ValueError:
                continue
        for i in range(2 * d):
            for j in range(i + 1, 2 * d):
                kappa = max(kappa, abs(cd.sectional(np.eye(2 * d)[i], np.eye(2 * d)[j])))

    complete = _rays_diverge(k, dom, rng)
    passed = bool(math.isfinite(kappa) and math.isfinite(A_est) and a_est > 0)
    return BGReport(kappa_est=kappa, A_est=A_est, a_est=a_est, complete=complete, passed=passed)


def _rays_diverge(k: KahlerField, dom: Domain, rng) -> bool:
    """Metric length of four seeded straight rays from the center to the boundary."""
    d = k.complex_dim
    m = k.metric
    us = rng.standard_normal((4, 2 * d))
    us /= np.linalg.norm(us, axis=1)[:, None]
    # where each ray from the origin leaves the domain
    exits, _ = radial_exit(dom, us[:, 0::2] + 1j * us[:, 1::2])
    for u, lo in zip(us, exits):
        t_max = lo * (1.0 - COMPLETENESS_DEPTH)
        ts = t_max * (1.0 - np.geomspace(1.0, 1e-7, 400))
        length = 0.0
        prev = 0.0
        for t in ts[1:]:
            xm = 0.5 * (t + prev) * u
            seg = (t - prev) * math.sqrt(float(u @ m.g(xm) @ u))
            length += seg
            prev = t
            if length >= COMPLETENESS_LENGTH:
                break
        if length < COMPLETENESS_LENGTH:
            return False
    return True


# ---------------------------------------------------------------------------
# squeezing lower bound
# ---------------------------------------------------------------------------

def circumradius(dom: Domain, z) -> float:
    """Max distance from ``z`` to the boundary (attained at an extreme point).

    Closed form on the disk, ball and polydisk.  On the convex Reinhardt
    domains (the ellipsoid and the modulus polynomials) the phases of the
    farthest point align against ``z``, which leaves a maximum over the
    moduli on ``p(x) = 1``: the best SLSQP solve from ``d`` axis starts.  That
    maximum is not certified, since a local one can underestimate.
    """
    z = dom.require_inside(z)
    if dom.kind in ("disk", "ball"):
        return 1.0 + float(np.linalg.norm(z))
    if dom.kind == "polydisk":
        return float(np.sqrt(np.sum((1.0 + np.abs(z)) ** 2)))
    zm, d = np.abs(z), dom.dimension

    def negobj(x):
        return -float(np.sum((np.maximum(x, 0.0) + zm) ** 2))

    best = 0.0
    for axis in range(d):
        x0 = np.full(d, 0.1)
        x0[axis] = 0.9
        res = minimize(negobj, x0, method="SLSQP", bounds=[(0.0, None)] * d,
                       constraints=[{"type": "eq", "fun": dom.moduli_constraint}],
                       options={"maxiter": 300, "ftol": 1e-14})
        if res.success:
            best = max(best, math.sqrt(-res.fun))
    return best


def squeezing_lower_bound(dom: Domain, z) -> float:
    """Inradius over circumradius: a lower bound for the squeezing function
    via the affine map scaling ``Omega - z`` into the unit ball.  On the
    ellipsoid and the modulus polynomials the circumradius is an uncertified
    SLSQP max, so the value there is an estimate that can exceed the bound."""
    z = dom.require_inside(z)
    rho_in = boundary_distance(dom, z)
    rho_out = circumradius(dom, z)
    return rho_in / rho_out


# ---------------------------------------------------------------------------
# model volumes and the injectivity lower bound
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / gamma_fn(n / 2.0 + 1.0)


def unit_sphere_area(n: int) -> float:
    """Area of S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def model_volume(n: int, lam: float, r: float) -> float:
    """Volume of the radius-``r`` ball in the constant-curvature model space."""
    if r <= 0:
        raise RadiusOutOfRange("radius must be positive")
    if lam > 0:
        raise PositiveCurvatureUnsupported("only lambda <= 0 is needed here")
    if lam == 0:
        return unit_ball_volume(n) * r**n
    s = math.sqrt(-lam)
    integrand = lambda t: (math.sinh(s * t) / s) ** (n - 1)
    val, _ = quad(integrand, 0.0, r, epsabs=1e-12, epsrel=1e-12)
    return unit_sphere_area(n) * val


def cgt_inj_lower(vol_ball: float, kappa: float, r: float, d: int) -> float:
    """Volume-ratio lower bound for the injectivity radius:
    ``inj >= (r/2) V / (V + V_{-kappa}^{2d}(2r))`` for ``r < pi/(4 sqrt(kappa))``."""
    if not kappa > 0:
        raise ConfigInvalid(f"the curvature bound kappa must be positive, got {kappa}")
    if vol_ball <= 0:
        raise RadiusOutOfRange("the metric ball volume must be positive")
    if not r < math.pi / (4.0 * math.sqrt(kappa)):
        raise RadiusOutOfRange(f"need r < pi/(4 sqrt(kappa)) = {math.pi / (4 * math.sqrt(kappa)):.4f}")
    return 0.5 * r * vol_ball / (vol_ball + model_volume(2 * d, -kappa, 2.0 * r))


# ---------------------------------------------------------------------------
# rigidity thresholds
# ---------------------------------------------------------------------------

def rigidity_threshold(d: int, kappa: float, A: float, theta: float,
                       positive_injectivity: bool = False) -> float:
    """Contact-order threshold ``4d + 2 + sqrt(kappa) A / sin(theta)``, or
    ``2 + sqrt(kappa) A / sin(theta)`` when the injectivity radius is positive.

    Invariant under the metric rescaling ``(kappa, A) -> (lam kappa, A / sqrt(lam))``.
    """
    if not (d >= 1 and kappa > 0 and A > 0 and 0 < theta <= math.pi / 2):
        raise ConfigInvalid("need d >= 1, kappa > 0, A > 0, theta in (0, pi/2]")
    base = 2.0 + math.sqrt(kappa) * A / math.sin(theta)
    return base if positive_injectivity else 4.0 * d + base
