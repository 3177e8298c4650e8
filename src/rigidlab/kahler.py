"""Kahler-specific quantities: bounded geometry (curvature bound + metric
upper bound against 1/delta), squeezing lower bounds, model-space ball
volumes, the volume-ratio injectivity bound, and the rigidity thresholds.

A Kahler field is a chart metric on a domain of C^d (real dimension 2d, in
interleaved coordinates) that states whether it is complete there.  Curvature
values of models are always measured through the engine, never hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, boundary_distance
from .errors import ConfigInvalid, PositiveCurvatureUnsupported, RadiusOutOfRange
from .riemann import (
    MetricField,
    _jacobi_eigenframe,
    bergman_ball,
    christoffel_curvature,
    euclidean,
    poincare_disk,
)


# ---------------------------------------------------------------------------
# Kahler fields
# ---------------------------------------------------------------------------

@dataclass
class KahlerField:
    """A model metric on the unit ball of ``C^complex_dim`` (the disk when
    it is 1), possibly scaled; ``complete`` states whether the metric is
    complete on that ball."""

    metric: MetricField
    complex_dim: int
    name: str
    complete: bool


def poincare_kahler() -> KahlerField:
    return KahlerField(metric=poincare_disk(), complex_dim=1, name="poincare", complete=True)


def flat_kahler(d: int = 1) -> KahlerField:
    # a straight ray reaches the boundary of the bounded ball in finite length
    return KahlerField(metric=euclidean(2 * d), complex_dim=d, name="flat", complete=False)


def bergman_kahler(d: int = 2) -> KahlerField:
    return KahlerField(metric=bergman_ball(d), complex_dim=d, name=f"bergman-ball-{d}", complete=True)


# ---------------------------------------------------------------------------
# bounded-geometry constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BGReport:
    kappa_est: float   # sup |sectional| over all 2-planes
    A_est: float       # sup sqrt(g(v,v)) * delta(z) / |v|
    a_est: float       # inf sqrt(g(v,v)) / |v|
    complete: bool     # the model's stated completeness
    passed: bool


def property_bg_estimate(k: KahlerField, dom: Domain) -> BGReport:
    """Exact bounded-geometry constants of a model on its own unit ball.

    Every model is ``g = a(s) I + b(s) P`` in ``s = |z|^2`` (see
    ``riemann.invariant_metric``), a U(d)-invariant metric, and the Poincare
    disk and the Bergman ball are rank-one symmetric spaces: the isometry group
    is transitive on the unit tangent vectors (Helgason, ch. IV).  So the
    spectrum of the Jacobi operator ``Y -> R(Y, v) v`` is the same for every
    unit ``v`` at every point, and its largest ``|lambda|`` at the origin is
    the sup of ``|sectional|`` (0 on the flat metric).

    ``A = sup sqrt(lambda_max(g)) delta`` and ``a = inf sqrt(lambda_min(g))``
    are sups over ``s`` alone, with ``delta = 1 - sqrt(s)`` and eigenvalues
    ``a(s)`` and ``a(s) + b(s) s``; each extremum sits at the origin:

    * Poincare: ``sqrt(lambda_max) delta = 2 / (1 + sqrt(s))`` falls and
      ``lambda_min = 4 / (1 - s)^2`` rises;
    * Bergman, with ``c = 2 (d + 1)``: ``sqrt(c) / (1 + sqrt(s))`` falls and
      ``lambda_min = c / (1 - s)`` rises (``c / (1 - s)^2`` when ``d = 1``);
    * flat: ``1 - sqrt(s)`` falls and ``lambda_min = 1``;
    * a constant scaling of the metric only multiplies these.

    ``complete`` is the model's own statement.  PASS means: curvature and
    upper constant finite, lower constant positive.  Any pair other than a
    model on the unit disk or ball of its own dimension raises
    ``ConfigInvalid``.
    """
    d = k.complex_dim
    if dom.kind not in ("disk", "ball") or dom.dimension != d:
        raise ConfigInvalid(f"the constants of {k.name} are exact only on the unit ball of C^{d}, "
                            f"not on the {dom.kind} domain of dimension {dom.dimension}")
    m = k.metric
    x = np.zeros(2 * d)
    g0 = m.g(x)
    lam, _ = _jacobi_eigenframe(christoffel_curvature(m, x), m.unit(x, np.eye(2 * d)[0]))
    kappa = float(np.max(np.abs(lam)))
    A_est = math.sqrt(float(np.linalg.eigvalsh(g0)[-1])) * boundary_distance(dom, dom.center())
    a_est = math.sqrt(m.min_eig(x))
    passed = bool(math.isfinite(kappa) and math.isfinite(A_est) and a_est > 0)
    return BGReport(kappa_est=kappa, A_est=A_est, a_est=a_est, complete=k.complete, passed=passed)


# ---------------------------------------------------------------------------
# squeezing lower bound
# ---------------------------------------------------------------------------

def squeezing_lower_bound(dom: Domain, z) -> float:
    """Inradius over circumradius: a lower bound for the squeezing function
    via the affine map scaling ``Omega - z`` into the unit ball.  On the
    ellipsoid and the modulus polynomials the circumradius is the polished
    farthest point of a surface sample (``Domain.circumradius``), still not
    certified, so the value there is an estimate that can exceed the bound."""
    z = dom.require_inside(z)
    return boundary_distance(dom, z) / dom.circumradius(z)


# ---------------------------------------------------------------------------
# model volumes and the injectivity lower bound
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def unit_sphere_area(n: int) -> float:
    """Area of S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def model_volume(n: int, lam: float, r: float) -> float:
    """Volume of the radius-``r`` ball in the constant-curvature model space.

    For ``lam < 0`` and an even ``n = 2m + 2``, with ``s^2 = -lam``, the
    volume ``|S^{n-1}| int_0^r (sinh(s t)/s)^{n-1} dt`` is, in ``w = cosh(s r)
    - 1 = 2 sinh^2(s r/2)``, ``|S^{n-1}| s^{-n} int_0^w (u (u + 2))^m du =
    |S^{n-1}| s^{-n} sum_k C(m, k) 2^{m-k} w^{m+k+1} / (m+k+1)``.  Every term
    is positive, so nothing cancels at a small ``r``.  An odd ``n`` with
    ``lam < 0`` raises ``ConfigInvalid``.
    """
    if r <= 0:
        raise RadiusOutOfRange("radius must be positive")
    if lam > 0:
        raise PositiveCurvatureUnsupported("only lambda <= 0 is needed here")
    if lam == 0:
        return unit_ball_volume(n) * r**n
    if n < 2 or n % 2:
        raise ConfigInvalid(f"the model volume is closed-form in even dimensions, not {n}")
    m, s = n // 2 - 1, math.sqrt(-lam)
    w = 2.0 * math.sinh(0.5 * s * r) ** 2
    total = sum(math.comb(m, k) * 2.0 ** (m - k) * w ** (m + k + 1) / (m + k + 1) for k in range(m + 1))
    return unit_sphere_area(n) * total / s**n


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
