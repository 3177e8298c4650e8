"""The benchmark's workloads: seeded op lists, each op with its reference check.

A workload is a closed loop with one caller: ops run one after another in
one process.  ``make_round(seed, r, scratch)`` returns round ``r`` of the op
list.  Every round of a seed repeats the same ops on the same inputs, in an
order drawn from ``(seed, r)``; the program only ever sees the generated
inputs.  The repeats let the harness time each op several times, spread over
the run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rigidlab import cgeo, cli, domain, kahler, kobayashi, riemann, rigidity, schwarz
from rigidlab.report import FORCES_IDENTITY, INCONCLUSIVE


@dataclass(frozen=True)
class Outcome:
    """Result of an op's reference check."""

    ok: bool
    values: tuple = ()              # answer digits, hashed into the run's answer digest
    intervals: tuple = ()           # certified generic Kobayashi intervals (lower, upper)


@dataclass
class Op:
    kind: str
    label: str
    inputs: tuple                   # numbers the op was built from (for the op-list digest)
    run: Callable[[], Any]          # the timed call into rigidlab
    check: Callable[[Any], Outcome]  # untimed reference check of its answer


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: tuple[str, ...]         # model metrics built during set-up
    make_round: Callable[[int, int, Path], list[Op]]   # (seed, round, scratch dir)
    round_s: float                  # nominal round time: a run of S seconds does round(S / round_s) rounds


def build_model(key: str) -> riemann.MetricField:
    """Model metrics, looked up on the module so traced builders are seen."""
    if key == "euclid":
        return riemann.euclidean(2)
    if key == "poincare":
        return riemann.poincare_disk()
    if key == "sphere":
        return riemann.sphere_stereographic()
    if key == "bergman-ball-2":
        return riemann.bergman_ball(2)
    raise KeyError(key)


def _floats(*arrays) -> tuple:
    """Every real number in ``arrays``, complex entries split into (re, im)."""
    out = []
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(complex) if np.iscomplexobj(a) else a.astype(float)
        out += a.ravel().view(float).tolist()
    return tuple(out)


def _round_of(units: list[list[Op]], seed: int, r: int) -> list[Op]:
    """Round ``r``: every unit, in an order drawn from ``(seed, r)``.

    A unit is a list of ops that must run in order.  The shuffle spreads each
    op's repeats over the run rather than over one stretch of the machine's
    speed.
    """
    order = np.random.default_rng([seed, r]).permutation(len(units))
    return [op for i in order for op in units[i]]


# ---------------------------------------------------------------------------
# riemann-flows
# ---------------------------------------------------------------------------

RIEMANN_MODELS = ("euclid", "poincare", "sphere", "bergman-ball-2")
FLOW_STEPS = 50                     # RK4 steps of every geodesic flow
JACOBI_STEPS = 12                   # RK4 steps of every Jacobi flow: 0.25 s on bergman-ball-2
GEODESIC_HORIZON = 1.0
JACOBI_HORIZONS = {"euclid": 3.0, "poincare": 2.0, "sphere": 2.0, "bergman-ball-2": 1.5}  # criterion 6
JACOBI_BATCHES = (1, 10)
EXP_LOG_T = 0.25                    # time along the two closed rays; short enough that
                                    # every seed takes the same number of Newton steps
DRAWS = 3                           # inputs drawn per op kind (and Jacobi batch) and model
BERGMAN_ONCE = ("jacobi_flow", "exp_log", "backward_estimate")   # 0.2-2 s each on
                                    # bergman-ball-2, so drawn once
TANGENT_STEP = 1e-2                 # criterion 7's transport step
BACKWARD_EPS = 0.1


def unit_pair_samples(m, rng, n_pairs):
    """Seeded unit-tangent pairs, drawn as ``tests/test_acceptance.py::_unit_pair_samples``
    draws them: same-base angular perturbations plus a few base offsets."""
    pairs = []
    while len(pairs) < n_pairs:
        u = rng.standard_normal(m.dim)
        x = 0.3 * rng.uniform() * u / np.linalg.norm(u)
        v = rng.standard_normal(m.dim)
        v1 = m.unit(x, v)
        if rng.uniform() < 0.8:
            w = rng.standard_normal(m.dim)
            w = w - (w @ v1) * v1 / float(v1 @ v1)
            if np.linalg.norm(w) < 1e-9:
                continue
            th = rng.uniform(1e-3, 5e-2)
            v2 = m.unit(x, math.cos(th) * v1 + math.sin(th) * w / np.linalg.norm(w))
            y = x
        else:
            y = x + 1e-3 * rng.standard_normal(m.dim)
            v2 = m.unit(y, v)
        pairs.append((riemann.TangentPoint.of(x, v1), riemann.TangentPoint.of(y, v2)))
    return pairs


def _geodesic_op(m, X) -> Op:
    def run():
        return riemann.geodesic_flow(m, X, GEODESIC_HORIZON, step=GEODESIC_HORIZON / FLOW_STEPS)

    def check(path):
        ref = m.closed_ray(X.x, X.vec)(GEODESIC_HORIZON)
        err = float(np.linalg.norm(path.xs[-1] - ref))
        return Outcome(path.speed_drift < 1e-6 and err < 1e-5, _floats([path.speed_drift], path.xs[-1]))

    return Op("geodesic_flow", f"geodesic_flow[{m.name}]", _floats(X.x, X.vec), run, check)


def _jacobi_op(m, X, J0, W0) -> Op:
    horizon = JACOBI_HORIZONS[m.name]

    def run():
        return riemann.jacobi_flow(m, X, horizon, J0, W0, step=horizon / JACOBI_STEPS)

    def check(rep):
        return Outcome(rep.growth_ok, _floats([rep.kappa_measured], rep.f[-1]))

    return Op("jacobi_flow", f"jacobi_flow[{m.name},B={len(J0)}]",
              _floats(X.x, X.vec, J0, W0), run, check)


def _exp_log_op(m, X, Y) -> Op:
    p = m.closed_ray(X.x, X.vec)(EXP_LOG_T)
    q = m.closed_ray(Y.x, Y.vec)(EXP_LOG_T)

    def run():
        return riemann.exp_log(m, p, q)

    def check(tp):
        length = m.norm(p, tp.vec)
        return Outcome(abs(length - m.closed_dist(p, q)) < 1e-5, _floats(tp.vec))

    return Op("exp_log", f"exp_log[{m.name}]", _floats(p, q), run, check)


def _tangent_op(m, X, Y) -> Op:
    def run():
        return riemann.tangent_distances(m, X, Y, "T1M", step=TANGENT_STEP)

    def check(res):
        lo, up = res.interval.lower, res.interval.upper
        return Outcome(math.isfinite(lo) and math.isfinite(up) and lo <= up, (lo, up))

    return Op("tangent_distances", f"tangent_distances[{m.name}]",
              _floats(X.x, X.vec, Y.x, Y.vec), run, check)


def _backward_op(m, X, Y) -> Op:
    kap = abs(m.kappa_model) if m.kappa_model else 2.0   # criterion 8's curvature input

    def run():
        return riemann.backward_estimate(m, X, Y, BACKWARD_EPS, kappa=max(kap, 1e-6))

    def check(ratio):
        return Outcome(math.isfinite(ratio) and ratio > 0, (ratio,))

    return Op("backward_estimate", f"backward_estimate[{m.name}]",
              _floats(X.x, X.vec, Y.x, Y.vec), run, check)


def riemann_round(seed: int, r: int, _out_dir: Path | None = None) -> list[Op]:
    """``DRAWS`` seeded inputs per op kind and model (one for the costly
    bergman-ball-2 kinds).  Many distinct cheap ops keep the percentiles from
    resting on the cost of a single draw."""
    rng = np.random.default_rng(seed)
    units = []
    for key in RIEMANN_MODELS:
        m = build_model(key)
        n = {kind: 1 if key == "bergman-ball-2" and kind in BERGMAN_ONCE else DRAWS
             for kind in ("jacobi_flow", "exp_log", "backward_estimate")}
        model_ops = [_geodesic_op(m, X) for X, _ in unit_pair_samples(m, rng, DRAWS)]
        for batch in JACOBI_BATCHES:
            for _ in range(n["jacobi_flow"]):
                # criterion 6's draw: base point within 0.25, Gaussian fields
                u = rng.standard_normal(m.dim)
                x = 0.25 * rng.uniform() * u / np.linalg.norm(u)
                v = m.unit(x, rng.standard_normal(m.dim))
                J0 = rng.standard_normal((batch, m.dim))
                W0 = rng.standard_normal((batch, m.dim))
                model_ops.append(_jacobi_op(m, riemann.TangentPoint.of(x, v), J0, W0))
        model_ops += [_exp_log_op(m, X, Y) for X, Y in unit_pair_samples(m, rng, n["exp_log"])]
        model_ops += [_tangent_op(m, X, Y) for X, Y in unit_pair_samples(m, rng, DRAWS)]
        model_ops += [_backward_op(m, X, Y)
                      for X, Y in unit_pair_samples(m, rng, n["backward_estimate"])]
        units += [[op] for op in model_ops]
    return _round_of(units, seed, r)


# ---------------------------------------------------------------------------
# kob-convex
# ---------------------------------------------------------------------------

PROBE_DEPTHS = 2.0 ** -np.arange(3, 10)          # 2^-3 .. 2^-9
ELLIPSOID_DEPTHS = 2.0 ** -np.array([3.0, 4.5, 6.0, 7.5, 9.0])
RADIAL_GRID = 0.5 ** np.arange(3, 15, dtype=float)  # criterion 4
CALIBRATION_RADII = np.geomspace(1e-3, 0.1, 6)     # criterion 4
CONTAIN_SLACK = 1e-9
MODEL_REPEATS = 2   # the ops of 3-60 ms (model domains, ellipsoid metric) run twice per round


SHAPES = 2024   # kob-convex configurations come from this fixed stream


def _symmetry(kind: str, rng) -> np.ndarray:
    """A random linear automorphism of the domain kind.

    kob-convex draws its configurations (depths, relative positions) once from
    ``SHAPES``; the seed moves each by a symmetry of its domain.  Inputs change
    with the seed while the work of every op stays the same, so a seed does
    not decide how much work a run does.
    """
    if kind == "disk":
        return np.exp(2j * math.pi * rng.uniform()) * np.eye(1)
    if kind == "ball":
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))      # Haar-distributed unitary
    phases = np.diag(np.exp(2j * math.pi * rng.uniform(size=2)))   # polydisk
    return phases[::-1] if rng.uniform() < 0.5 else phases       # with a coordinate swap


def _unit_c(rng, d: int) -> np.ndarray:
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return w / np.linalg.norm(w)


def _near_boundary(dom, rng, depth: float) -> np.ndarray:
    """A point at Euclidean depth ``depth`` below a random boundary point."""
    d = dom.dimension
    if dom.kind == "polydisk":
        z = 0.6 * rng.uniform() ** 0.5 * _unit_c(rng, d)
        k = int(rng.integers(d))
        phase = np.exp(2j * math.pi * rng.uniform())
        z[k] = (1.0 - depth) * phase
        return z
    return (1.0 - depth) * _unit_c(rng, d)


def _bidisk_metric(z, v) -> float:
    return max(kobayashi.disk_metric(a, b) for a, b in zip(z, v))


def _bidisk_distance(z, w) -> float:
    return max(kobayashi.disk_distance(a, b) for a, b in zip(z, w))


def _bounds_op(estimator: str, dom, z, u, lo_ref: float, up_ref: float, tag: str) -> Op:
    """Generic certified interval from ``kobayashi.<estimator>`` (``dist_bounds``
    or ``metric_bounds``), checked as ``lower <= lo_ref`` and ``upper >= up_ref``."""
    def run():
        return getattr(kobayashi, estimator)(dom, z, u, tighten_with_model=False)

    def check(iv):
        ok = iv.lower <= lo_ref + CONTAIN_SLACK and iv.upper >= up_ref - CONTAIN_SLACK
        return Outcome(ok, (iv.lower, iv.upper), ((iv.lower, iv.upper),))

    return Op(estimator, f"{estimator}[{dom.kind}{tag}]", _floats(z, u), run, check)


def _calibration_ops(ell_dom) -> list[Op]:
    """``calibrate_alpha0`` at (1, 0) with ell = 4, then ``kob_ball_inclusion``
    on criterion 4's radial grid, each radius checked against the uncalibrated floor."""
    state = {}

    def calibrate():
        state["cal"] = kobayashi.calibrate_alpha0(ell_dom, [1, 0], ell=4, radii=CALIBRATION_RADII)
        return state["cal"]

    def check_cal(cal):
        return Outcome(math.isfinite(cal.alpha0) and cal.alpha0 > 0 and cal.ell == 4.0, (cal.alpha0,))

    ops = [Op("calibrate_alpha0", "calibrate_alpha0[ellipsoid]", (1.0, 0.0, 4.0), calibrate, check_cal)]
    for r in RADIAL_GRID:
        def run(r=r):
            return kobayashi.kob_ball_inclusion(ell_dom, np.array([1 - r, 0]), r / 4.0, state["cal"])

        def check(eps, r=r):
            floor = (r / 4.0) / ell_dom.bounding_radius
            return Outcome(math.isfinite(eps) and eps >= floor, (eps,))

        ops.append(Op("kob_ball_inclusion", "kob_ball_inclusion[ellipsoid]", (float(r),), run, check))
    return ops


def _cgeo_ops(dom, shapes, moves, probe: bool) -> list[Op]:
    move = _symmetry(dom.kind, moves)
    if probe:
        # The probe is an SLSQP solve in a fixed frame, as the ellipsoid
        # projections are: a unitary move took it from 35 to 390 ms.
        move = np.eye(dom.dimension)
    z = move @ (0.6 * shapes.uniform() ** 0.5 * _unit_c(shapes, dom.dimension))
    w = move @ (0.6 * shapes.uniform() ** 0.5 * _unit_c(shapes, dom.dimension))
    o = move @ (0.3 * shapes.uniform() * _unit_c(shapes, dom.dimension))
    state = {}

    def geodesic():
        state["geo"] = cgeo.complex_geodesic(dom, z, w)
        return state["geo"]

    def check_geo(geo):
        return Outcome(geo.defect <= cgeo.MODEL_DEFECT_TOL, (geo.defect,))

    def run_probe():
        return cgeo.boundary_hyperplane_probe(state["geo"])

    def check_probe(res):
        on_boundary = abs(dom.defining(res.hyperplane.anchor)) < 1e-6
        return Outcome(res.decay_ok and on_boundary, _floats(res.hyperplane.normal, res.residuals[-1:]))

    def gromov():
        return cgeo.gromov_product(dom, z, w, o)

    def check_gromov(iv):
        kzo, kow, kzw = (kobayashi.model_dist(dom, a, b) for a, b in ((z, o), (o, w), (z, w)))
        exact = 0.5 * (kzo + kow - kzw)
        return Outcome(iv.contains(exact, slack=CONTAIN_SLACK), (iv.lower, iv.upper))

    inputs = _floats(z, w, o)
    ops = [Op("complex_geodesic", f"complex_geodesic[{dom.kind}]", inputs, geodesic, check_geo),
           Op("gromov_product", f"gromov_product[{dom.kind}]", inputs, gromov, check_gromov)]
    if probe:
        ops.insert(1, Op("boundary_hyperplane_probe", f"boundary_hyperplane_probe[{dom.kind}]",
                         inputs, run_probe, check_probe))
    return ops


def kob_round(seed: int, r: int, _out_dir: Path | None = None) -> list[Op]:
    shapes, moves = np.random.default_rng(SHAPES), np.random.default_rng(seed)
    models = (domain.disk(), domain.ball(2), domain.polydisk(2))
    units = []
    for depth in PROBE_DEPTHS:
        for dom in models:
            move = _symmetry(dom.kind, moves)
            z = move @ _near_boundary(dom, shapes, depth)
            w = move @ (0.5 * shapes.uniform() ** 0.5 * _unit_c(shapes, dom.dimension))
            v = move @ _unit_c(shapes, dom.dimension)
            exact_d = kobayashi.model_dist(dom, z, w)
            exact_m = kobayashi.model_metric(dom, z, v)
            units += MODEL_REPEATS * [[_bounds_op("dist_bounds", dom, z, w, exact_d, exact_d, "")],
                                      [_bounds_op("metric_bounds", dom, z, v, exact_m, exact_m, "")]]

    # ball(2) < E < bidisk, so K_ball bounds K_E above and K_bidisk below
    ell = domain.ellipsoid((1, 2))
    # The ellipsoid points are not moved: its projections are SLSQP solves
    # whose work depends on where the fixed half-plane probe frame falls
    # relative to the point, so a phase move would change the work.
    for depth in ELLIPSOID_DEPTHS:
        z = (1.0 - depth) * _unit_c(shapes, 2)
        w = 0.5 * shapes.uniform() ** 0.5 * _unit_c(shapes, 2)
        v = _unit_c(shapes, 2)
        dist = _bounds_op("dist_bounds", ell, z, w, kobayashi.ball_distance(z, w),
                          _bidisk_distance(z, w), "(1,2)")
        metric = _bounds_op("metric_bounds", ell, z, v, kobayashi.ball_metric(z, v),
                            _bidisk_metric(z, v), "(1,2)")
        units += [[dist]] + MODEL_REPEATS * [[metric]]

    units.append(_calibration_ops(ell))
    # No probe on the polydisk: on about a quarter of random geodesics its SLSQP
    # runs to maxiter on the non-smooth boundary (5 s instead of 50 ms), which
    # no steady op mix can absorb.
    units.append(_cgeo_ops(domain.ball(2), shapes, moves, probe=True))
    units.append(_cgeo_ops(domain.polydisk(2), shapes, moves, probe=False))
    return _round_of(units, seed, r)


# ---------------------------------------------------------------------------
# zoo-suite: a replay of rigidity.counterexample_suite()
# ---------------------------------------------------------------------------

SUITE_SIZES = {"disk": 13, "convex-ball": 5, "biholo-disk": 2, "biholo-ball": 2}
DISPLACEMENT_GRID = 400             # counterexample_suite's default


def _suite_entries(state) -> list[tuple[str, Any]]:
    """The suite's verdicts in its own order, with its schedules and cones."""
    b2 = domain.ball(2)
    dsk = domain.disk()
    cone_d = domain.Cone(apex=np.array([1.0 + 0j]), direction=np.array([-1.0 + 0j]),
                         aperture=math.pi / 3, length=0.5)
    cone_b = domain.Cone(apex=np.array([1.0, 0.0], dtype=complex),
                         direction=np.array([-1.0, 0.0], dtype=complex),
                         aperture=math.pi / 3, length=0.5)

    def disk_entry(i):
        f = state["disk"][i]
        return f, dsk, lambda: schwarz.disk_rigidity_pipeline(f)

    def ball_entry(i):
        f = state["ball"][i]
        return f, b2, lambda: rigidity.convex_pipeline(b2, f, xi0=np.array([1.0, 0.0]),
                                                       schedule=schwarz.geometric_schedule(3, 11))

    def biholo_disk(f):
        return f, dsk, lambda: rigidity.biholo_pipeline(
            dsk, f, kahler.poincare_kahler(), xi0=[1.0], cone=cone_d,
            schedule=0.5 ** np.arange(2, 8, dtype=float))

    def biholo_ball(f):
        return f, b2, lambda: rigidity.biholo_pipeline(
            b2, f, kahler.bergman_kahler(2), xi0=[1.0, 0.0], cone=cone_b,
            schedule=0.5 ** np.arange(2, 7, dtype=float))

    entries = [("disk", lambda i=i: disk_entry(i)) for i in range(SUITE_SIZES["disk"])]
    entries += [("convex-ball", lambda i=i: ball_entry(i)) for i in range(SUITE_SIZES["convex-ball"])]
    entries += [("biholo-disk", lambda f=f: biholo_disk(f))
                for f in (schwarz.identity_map(1), schwarz.rotation(1e-3))]
    entries += [("biholo-ball", lambda f=f: biholo_ball(f))
                for f in (schwarz.identity_map(2), schwarz.ball_automorphism(np.array([1e-3, 0.0])))]
    return entries


def _criterion_12(pipeline: str, name: str, disp: float, contact_order, verdict: str) -> bool:
    """Criterion 12 and the suite's own recording rule for one verdict."""
    if name == "id" and verdict != FORCES_IDENTITY:
        return False
    if (pipeline, name) == ("disk", "bk_extremal") and verdict != INCONCLUSIVE:
        return False
    if disp > rigidity.SOUNDNESS_DISPLACEMENT and verdict == FORCES_IDENTITY:
        return False
    if contact_order is not None and contact_order >= 4:
        return verdict == FORCES_IDENTITY or disp <= rigidity.SOUNDNESS_DISPLACEMENT
    return True


ZOO_ONCE = 21   # the biholo-ball automorphism verdict: 26-45 s, so it runs in round 0 only


def zoo_round(seed: int, r: int, out_dir: Path) -> list[Op]:
    """Build both zoos, then the suite's 22 verdicts in a seed-permuted order.

    Each verdict runs ``interior_displacement`` and its pipeline, and writes
    its report through ``cli.emit_report`` into ``out_dir``.  Round 0 is the
    whole suite; later rounds leave out the ``ZOO_ONCE`` verdict, so that they
    time the other ops again at a fraction of its cost.
    """
    rng = np.random.default_rng([seed, r])
    state: dict[str, list] = {}

    def build(key, make):
        def run():
            state[key] = make()
            return state[key]

        def check(maps, key=key):
            want = SUITE_SIZES["disk" if key == "disk" else "convex-ball"]
            return Outcome(len(maps) == want, tuple(f.name for f in maps))

        return Op("zoo_build", f"zoo_build[{key}]", (), run, check)

    ops = [build("disk", schwarz.disk_zoo), build("ball", lambda: rigidity.ball_zoo(2))]
    entries = _suite_entries(state)
    cfg = cli.RunConfig(subcommand="rigidity", seed=seed, out_dir=str(out_dir), format="both")
    for order, k in enumerate(rng.permutation(len(entries))):
        if r > 0 and k == ZOO_ONCE:
            continue
        pipeline, make = entries[k]

        def run(pipeline=pipeline, make=make, order=order):
            f, dom, verdict_of = make()
            disp = schwarz.interior_displacement(f, dom, samples=DISPLACEMENT_GRID)
            rep = verdict_of()
            base = re.sub(r"[^A-Za-z0-9_.-]+", "_", f"{order:02d}-{pipeline}-{f.name}")
            cli.emit_report(rep, cfg, base)
            contact = f.contact.order if f.contact is not None else None
            return pipeline, f.name, disp, contact, rep.verdict

        def check(answer):
            pipeline, name, disp, contact, verdict = answer
            return Outcome(_criterion_12(pipeline, name, disp, contact, verdict),
                           (pipeline, name, disp, verdict))

        ops.append(Op("verdict", f"verdict[{pipeline}#{int(k)}]", (float(k),), run, check))
    return ops


WORKLOADS = {
    "riemann-flows": Workload(
        name="riemann-flows",
        why="criteria 5-8 on the four model metrics; time sits in the Bergman dg/d2g "
            "oracles under christoffel_curvature",
        models=RIEMANN_MODELS, make_round=riemann_round, round_s=5.0),
    "zoo-suite": Workload(
        name="zoo-suite",
        why="replay of the flagship suite; closed-form Kobayashi paths and 68k "
            "single-point christoffel calls in one biholo-ball transport",
        models=("poincare", "bergman-ball-2"), make_round=zoo_round, round_s=35.0),
    "kob-convex": Workload(
        name="kob-convex",
        why="generic certified Kobayashi estimator on convex domains; runs no riemann "
            "code, so it bypasses metric and flow changes",
        models=(), make_round=kob_round, round_s=5.0),
}
