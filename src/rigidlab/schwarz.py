"""Holomorphic self-maps of the disk: displacement inequalities and the
boundary-contact pipeline.

The two-anchor displacement inequality bounds the invariant displacement of
any holomorphic self-map at one point by its displacements at two anchors;
the pipeline combines it with the boundary error modulus ``E(r)`` and
certified invariant-ball radii to decide whether a map's boundary contact
forces it to be the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domain import BallDomain, DiskDomain, Domain, as_point, disk, finite_point, ray_exit, sample_ball
from .errors import (
    CoincidentAnchors,
    NotSelfMap,
    PointOutsideDomain,
)
from .kobayashi import (
    DISK_CALIBRATION,
    disk_distance,
    kob_ball_inclusion,
)
from .report import PipelineReport
from .cgeo import disk_automorphism, ball_involution

CERT_SAMPLES = 4096
CERT_RADIUS_OFFSET = 1e-6
CERT_MARGIN = 1e-9
IDENTIFICATION_THRESHOLD = 1e-6
DISPLACEMENT_GRID = 1000
CS_SLACK = 1e-12
SUP_GRID_CIRCLES = 10
SUP_GRID_ANGLES = 24  # >= 200 grid points on the hyperbolic polar grid
DISK_LEMMA_C1 = 2.0   # K(w, f(w)) <= (2/r) E(5r/4) once E(5r/4) <= r/4


# ---------------------------------------------------------------------------
# holomorphic maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactSpec:
    """Declared boundary contact ``f(z) = z + coeff (z - xi0)^order + ...``."""

    xi0: complex | np.ndarray
    order: float
    coeff: complex = 0.0


@dataclass
class HoloMap:
    """Evaluation oracle for a holomorphic map of a domain.

    ``func`` broadcasts over a stack of points: a map of ``C^d`` takes
    ``(N, d)``, a one-dimensional map takes ``(N,)``.
    """

    func: Callable
    dimension: int
    name: str
    declared_self_map: bool = True
    contact: ContactSpec | None = None
    trusted: bool = False
    _certification: "Certification | None" = field(default=None, repr=False)

    def __call__(self, z):
        if self.dimension == 1 and np.ndim(z) == 0:
            return self.func(complex(z))
        return self.many(as_point(z, self.dimension)[None])[0]

    def many(self, zs) -> np.ndarray:
        """The map on a stack of points: ``(N, d)`` in, ``(N, d)`` out."""
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 2 or zs.shape[1] != self.dimension:
            raise ValueError(f"expected a stack of points of C^{self.dimension}, got shape {zs.shape}")
        out = np.empty_like(zs)
        if self.dimension == 1:
            out[:, 0] = self.func(zs[:, 0])
        else:
            out[...] = self.func(zs)
        return out

    def scalar(self, z: complex) -> complex:
        if self.dimension != 1:
            raise ValueError("scalar evaluation needs a one-dimensional map")
        return complex(self.func(complex(z)))


@dataclass(frozen=True)
class Certification:
    passed: bool
    max_excess: float
    samples: int


def certify_self_map(f: HoloMap, dom: Domain | None = None,
                     samples: int = CERT_SAMPLES, margin: float = CERT_MARGIN) -> Certification:
    """Sampled check that ``f`` maps the domain into itself: the largest excess
    (``|f(z)| - 1``, or ``r(f(z))`` off the disk and ball) over ``samples``
    boundary points scaled by ``1 - 1e-6`` toward the center, equispaced on
    the disk and along seeded random directions elsewhere (there, off the
    ball, the boundary point is the ``ray_exit`` of the ray from the center).
    A pass is evidence, not a proof."""
    dom = disk() if dom is None else dom
    radius = 1.0 - CERT_RADIUS_OFFSET
    if isinstance(dom, DiskDomain):
        theta = 2 * math.pi * np.arange(samples) / samples
        excess = float(np.max(np.abs(f.many(radius * np.exp(1j * theta)[:, None])))) - 1.0
    else:
        w = np.random.default_rng(2).standard_normal((samples, 2, dom.dimension))
        w = w[:, 0] + 1j * w[:, 1]
        w /= np.linalg.norm(w, axis=1)[:, None]
        if isinstance(dom, BallDomain):
            excess = float(np.max(np.linalg.norm(f.many(radius * w), axis=1))) - 1.0
        else:
            c = dom.center()
            lo, _ = ray_exit(dom, c, w[:, None, :])
            excess = float(np.max(dom.defining_many(f.many(c + radius * lo[:, None] * w))))
    cert = Certification(passed=bool(excess <= margin), max_excess=excess, samples=samples)
    f._certification = cert
    return cert


def require_self_map(f: HoloMap, dom: Domain | None = None) -> None:
    if f.trusted:
        return
    cert = f._certification or certify_self_map(f, dom)
    if not cert.passed:
        raise NotSelfMap(f"{f.name}: sampled boundary excess {cert.max_excess:.2e} "
                         f"over {cert.samples} samples")


def interior_displacement(f: HoloMap, dom: Domain | None = None,
                          samples: int = DISPLACEMENT_GRID, seed: int = 9) -> float:
    """Sampled max of ``|f(z) - z|`` over up to ``samples`` seeded uniform
    points of the domain inside the Euclidean ball ``B(0, 0.95)``."""
    dom = disk() if dom is None else dom
    zs = sample_ball(dom, np.zeros(dom.dimension), 0.95, samples, np.random.default_rng(seed))
    return float(np.max(np.linalg.norm(f.many(zs) - zs, axis=1), initial=0.0))


# ---------------------------------------------------------------------------
# map zoo
# ---------------------------------------------------------------------------

def identity_map(d: int = 1) -> HoloMap:
    if d == 1:
        return HoloMap(lambda z: z, 1, "id")
    return HoloMap(lambda z: z, d, "id")


def rotation(theta: float) -> HoloMap:
    phase = np.exp(1j * theta)
    return HoloMap(lambda z: phase * z, 1, f"rotation({theta:g})",
                   contact=ContactSpec(1.0, 0.0))


def mobius_map(a: complex, phase: complex = 1.0) -> HoloMap:
    mob = disk_automorphism(a, phase)
    return HoloMap(lambda z: mob(z), 1, f"mobius({a})")


def power_map(p: int) -> HoloMap:
    return HoloMap(lambda z: z**p, 1, f"z^{p}")


def blaschke_product(zeros: list[complex], phase: complex = 1.0) -> HoloMap:
    def f(z):
        out = phase
        for a in zeros:
            out *= (z - a) / (1.0 - np.conj(a) * z)
        return out
    return HoloMap(f, 1, f"blaschke({zeros})")


def cubic_contact(c: float) -> HoloMap:
    """``z - c (z-1)^3`` is a genuine self-map for ``0 < c <= 1/4`` with
    exact third-order contact at 1."""
    if not 0 < c <= 0.25:
        raise ValueError("need 0 < c <= 1/4 for a self-map")
    return HoloMap(lambda z: z - c * (z - 1.0) ** 3, 1, f"cubic_contact({c:g})",
                   contact=ContactSpec(1.0, 3.0, -c))


def bk_extremal() -> HoloMap:
    """The degree-two Blaschke product ``(1+3z^2)/(3+z^2)``; it equals
    ``z - (z-1)^3/(3+z^2)`` so its boundary contact at 1 is exactly cubic."""
    return HoloMap(lambda z: (1.0 + 3.0 * z * z) / (3.0 + z * z), 1, "bk_extremal",
                   contact=ContactSpec(1.0, 3.0, -0.25))


def halfplane_contact(c: float, beta: float) -> HoloMap:
    """Transfer ``w -> w + c (1-z)^beta`` through the Cayley map; a self-map
    for ``c > 0`` and ``0 <= beta <= 1`` with contact order ``2 + beta`` at 1."""
    if c <= 0 or not 0 <= beta <= 1:
        raise ValueError("need c > 0 and beta in [0, 1]")

    def f(z):
        w = (1.0 + z) / (1.0 - z) + c * (1.0 - z) ** beta
        return (w - 1.0) / (w + 1.0)

    return HoloMap(f, 1, f"halfplane_contact({c:g},{beta:g})",
                   contact=ContactSpec(1.0, 2.0 + beta, -c / 2))


def poly_contact(c: complex, m: int, xi0: complex = 1.0) -> HoloMap:
    """``z + c (z - xi0)^m``.  Only tiny coefficients survive self-map
    certification for m >= 4; larger ones are useful as local probes."""
    return HoloMap(lambda z: z + c * (z - xi0) ** m, 1,
                   f"poly_contact({c:g},{m})", contact=ContactSpec(xi0, float(m), c))


def unitary_map(u: np.ndarray) -> HoloMap:
    u = np.asarray(u, dtype=complex)
    return HoloMap(lambda z: z @ u.T, u.shape[0], "unitary")


def ball_automorphism(a: np.ndarray) -> HoloMap:
    a = np.asarray(a, dtype=complex)
    phi = ball_involution(a)
    return HoloMap(phi, len(a), f"ball_involution({np.round(a, 4)})")


def ball_coordinate_contact(c: complex, m: int, d: int = 2) -> HoloMap:
    def f(z):
        out = np.array(z, dtype=complex)
        out[..., 0] = out[..., 0] + c * (out[..., 0] - 1.0) ** m
        return out
    return HoloMap(f, d, f"ball_contact({c:g},{m})",
                   contact=ContactSpec(np.eye(d, dtype=complex)[0], float(m), c))


def disk_zoo() -> list[HoloMap]:
    """Certified self-maps exercising the displacement inequalities."""
    zoo = [
        identity_map(),
        rotation(1e-3),
        rotation(math.pi / 100),
        mobius_map(0.3),
        mobius_map(-0.2 + 0.1j, np.exp(0.7j)),
        power_map(2),
        blaschke_product([0.4, -0.3 + 0.2j]),
        bk_extremal(),
        cubic_contact(0.05),
        cubic_contact(0.25),
        halfplane_contact(0.05, 0.0),
        halfplane_contact(0.1, 1.0),
        poly_contact(1e-9, 4),
    ]
    for f in zoo:
        certify_self_map(f)
    return [f for f in zoo if f._certification.passed]


# ---------------------------------------------------------------------------
# displacement inequality of two anchors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CSCheck:
    lhs: float
    rhs: float
    constant: float
    passed: bool


def cs_bound_check(f: HoloMap, a: complex, b: complex, z: complex) -> CSCheck:
    """Check ``K(f(z), z) <= C (K(f(a), a) + K(f(b), b))`` with
    ``C = exp(2K(z,a) + 2K(z,b) + 2K(a,b)) / (2 K(a,b))``."""
    a, b, z = complex(a), complex(b), complex(z)
    kab = disk_distance(a, b)
    if kab < 1e-14:
        raise CoincidentAnchors("anchors must be distinct")
    constant = math.exp(2 * disk_distance(z, a) + 2 * disk_distance(z, b) + 2 * kab) / (2 * kab)
    lhs = disk_distance(f.scalar(z), z)
    rhs = constant * (disk_distance(f.scalar(a), a) + disk_distance(f.scalar(b), b))
    return CSCheck(lhs=lhs, rhs=rhs, constant=constant, passed=bool(lhs <= rhs + CS_SLACK))


# ---------------------------------------------------------------------------
# boundary error modulus
# ---------------------------------------------------------------------------

@dataclass
class ErrorModulus:
    radii: np.ndarray          # increasing
    values: np.ndarray         # nondecreasing envelope of the sampled sups
    slope: float               # fitted log-log slope
    configured_order: float | None = None

    def at(self, r: float) -> float:
        """Envelope value at ``r`` (next sampled radius >= r)."""
        idx = int(np.searchsorted(self.radii, r * (1 - 1e-12)))
        idx = min(idx, len(self.radii) - 1)
        return float(self.values[idx])


def error_modulus(f: HoloMap, xi0, radii, dom: Domain | None = None,
                  samples_per_radius: int = 160, seed: int = 21,
                  configured_order: float | None = None) -> ErrorModulus:
    """Envelope of sampled ``sup { |f(z) - z| : z in Omega, |z - xi0| <= r }``:
    per radius, the interior ones of three radial points, filled up to
    ``samples_per_radius`` with seeded uniform points of ``B(xi0, r)``."""
    dom = disk() if dom is None else dom
    d = dom.dimension
    xi0 = as_point(xi0, d)
    radii = np.sort(np.asarray(radii, dtype=float))
    rng = np.random.default_rng(seed)
    inward = -xi0 / np.linalg.norm(xi0)

    values = []
    for r in radii:
        radial = xi0 + np.outer(r * np.array([1.0, 0.5, 0.25]), inward)
        radial = radial[dom.defining_many(radial) < 0]
        pts = np.concatenate([radial, sample_ball(dom, xi0, r, samples_per_radius - len(radial), rng)])
        values.append(float(np.max(np.linalg.norm(f.many(pts) - pts, axis=1))))

    env = np.maximum.accumulate(values)
    pos = env > 0
    if np.count_nonzero(pos) >= 3:
        slope = float(np.polyfit(np.log(radii[pos]), np.log(env[pos]), 1)[0])
    else:
        slope = math.nan
    return ErrorModulus(radii=radii, values=env, slope=slope, configured_order=configured_order)


# ---------------------------------------------------------------------------
# quantitative-identity term
# ---------------------------------------------------------------------------

def hyperbolic_ball_grid(center: complex, radius: float,
                         circles: int = SUP_GRID_CIRCLES, angles: int = SUP_GRID_ANGLES) -> np.ndarray:
    """Hyperbolic polar grid of the invariant ball ``B_K(center; radius)``."""
    mob = disk_automorphism(center)
    pts = [complex(center)]
    for i in range(1, circles + 1):
        rho = math.tanh(radius * i / circles)
        for k in range(angles):
            pts.append(mob(rho * np.exp(2j * math.pi * k / angles)))
    return np.asarray(pts)


def displacement_sup(f: HoloMap, center: complex, radius: float) -> float:
    """Sup of ``K(f(w), w)`` over a hyperbolic polar grid of the ball."""
    worst = 0.0
    for w in hyperbolic_ball_grid(center, radius):
        fw = f.scalar(w)
        if abs(fw) >= 1.0:
            raise PointOutsideDomain(f"{f.name} exits the disk at {w}")
        worst = max(worst, disk_distance(fw, w))
    return worst


def quantid_term(f: HoloMap, z_n: complex, r_n: float) -> float:
    """``exp(4 K(z_n, 0)) / r_n * sup_(B_K(z_n; r_n)) K(f(w), w)``."""
    z_n = complex(np.asarray(z_n).reshape(-1)[0])
    return math.exp(4.0 * disk_distance(z_n, 0.0)) / r_n * displacement_sup(f, z_n, r_n)


# ---------------------------------------------------------------------------
# disk pipeline
# ---------------------------------------------------------------------------

def geometric_schedule(n_lo: int = 3, n_hi: int = 14, ratio: float = 0.5) -> np.ndarray:
    return ratio ** np.arange(n_lo, n_hi + 1, dtype=float)


def fit_decay_exponent(radii, values, window: int = 5) -> float:
    """Slope of log(value) against log(r) over the last ``window`` rows."""
    r = np.asarray(radii, dtype=float)[-window:]
    v = np.asarray(values, dtype=float)[-window:]
    mask = v > 0
    if np.count_nonzero(mask) < 2:
        return math.inf  # identically zero tail decays trivially
    return float(np.polyfit(np.log(r[mask]), np.log(v[mask]), 1)[0])


def disk_rigidity_pipeline(f: HoloMap, schedule=None, xi0: complex = 1.0,
                           threshold: float = IDENTIFICATION_THRESHOLD) -> PipelineReport:
    """Boundary-contact cascade for a certified self-map of the disk.

    Per step: the distance growth ``K(0, p_n)`` against ``0.5 log(2/r_n)``,
    the displacement bound ``(2/r_n) E(5 r_n/4)``, the certified invariant
    radius ``eps_n`` (uniformly bounded below in d = 1), and the composite
    identity term.  The verdict (:meth:`PipelineReport.decide`) is
    forced-identity only when every row check passes and the composite tail
    sinks below the identification threshold.
    """
    xi0 = complex(finite_point(xi0, 1, "xi0")[0])
    require_self_map(f)
    schedule = geometric_schedule() if schedule is None else np.asarray(schedule, dtype=float)
    xi0 = xi0 / abs(xi0)

    emod = error_modulus(f, xi0, 1.25 * schedule[::-1])

    columns = ["n", "r_n", "p_n", "K_z0_pn", "K_bound_halflog", "E_5r4",
               "disp_bound", "eps_n", "disp_sup", "e4K", "composite", "in_regime"]
    rep = PipelineReport(name=f"disk_rigidity[{f.name}]", columns=columns)
    dsk = disk()
    uniform_eps = []
    for i, r_n in enumerate(schedule):
        p_n = xi0 * (1.0 - r_n)
        k0 = disk_distance(p_n, 0.0)
        k_bound = 0.5 * math.log(2.0 / r_n)
        eps_n = kob_ball_inclusion(dsk, [p_n], r_n / 4.0, DISK_CALIBRATION)
        uniform_eps.append(eps_n)
        e_val = emod.at(1.25 * r_n)
        in_regime = e_val <= r_n / 4.0
        disp_bound = DISK_LEMMA_C1 / r_n * e_val
        sup_val = displacement_sup(f, p_n, eps_n)
        composite = math.exp(4.0 * k0) / eps_n * sup_val
        rep.rows.append({
            "n": i, "r_n": r_n, "p_n": p_n, "K_z0_pn": k0,
            "K_bound_halflog": k_bound, "E_5r4": e_val, "disp_bound": disp_bound,
            "eps_n": eps_n, "disp_sup": sup_val, "e4K": math.exp(4.0 * k0),
            "composite": composite, "in_regime": in_regime,
        })
        rep.add_check(f"K(0,p_{i}) <= 0.5 log(2/r_n)", k0 <= k_bound + 1e-12)
        if in_regime:
            rep.add_check(f"disp_sup_{i} <= (2/r_n) E(5r_n/4)", sup_val <= disp_bound + 1e-10)

    rep.fitted["eps_uniform_floor"] = float(min(uniform_eps))
    rep.fitted["composite_exponent"] = fit_decay_exponent(schedule, rep.column("composite"))
    rep.fitted["error_modulus_slope"] = emod.slope

    rep.decide("composite", threshold)
    return rep
