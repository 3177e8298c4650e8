"""Command-line front end: configuration, dispatch, and report emission.

Runs are described either by flags or by a JSON config file (flags win).
Sampling is seeded, nothing reads the clock, and CSV/JSON emission uses
stable formatting, so identical configs produce byte-identical artifacts.

Exit codes: 0 = pass, 1 = an inequality suite failed, 2 = error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import cgeo, kahler, kobayashi, rigidity, riemann, schwarz
from .domain import Cone, boundary_data, disk, domain_from_config
from .errors import ConfigInvalid, IoFailure, RigidLabError
from .report import COLUMN_REGISTRY, PipelineReport

SUBCOMMANDS = ("kob", "cgeo", "schwarz", "riemann", "kahler", "rigidity", "suite")

_ALLOWED_KEYS = {
    "kob": {"domain", "op", "points", "vectors", "radius"},
    "cgeo": {"domain", "points", "zeta", "k_max"},
    "schwarz": {"map", "xi", "schedule"},
    "riemann": {"metric", "op", "params"},
    "kahler": {"metric", "check", "domain", "params"},
    "rigidity": {"pipeline", "domain", "map", "metric", "xi", "theta",
                 "cone_length", "schedule", "z0"},
    "suite": set(),
}
_GLOBAL_KEYS = {"subcommand", "seed", "out_dir", "format"}


@dataclass
class RunConfig:
    subcommand: str
    seed: int = 42
    out_dir: str = "out"
    format: str = "both"
    options: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping; unknown keys are rejected."""
    if "subcommand" not in raw:
        raise ConfigInvalid("config needs a 'subcommand' field")
    sub = raw["subcommand"]
    if sub not in SUBCOMMANDS:
        raise ConfigInvalid(f"unknown subcommand {sub!r}; expected one of {SUBCOMMANDS}")
    allowed = _ALLOWED_KEYS[sub] | _GLOBAL_KEYS
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown config keys for {sub}: {sorted(unknown)}")
    fmt = raw.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise ConfigInvalid(f"format must be csv, json or both, got {fmt!r}")
    options = {k: v for k, v in raw.items() if k not in _GLOBAL_KEYS}
    if "schedule" in options:
        options["schedule"] = parse_schedule(options["schedule"])
    return RunConfig(subcommand=sub, seed=int(raw.get("seed", 42)),
                     out_dir=str(raw.get("out_dir", "out")), format=fmt, options=options)


def parse_schedule(spec) -> np.ndarray:
    """Geometric or explicit schedules; values strictly decreasing in (0, 1)."""
    if isinstance(spec, dict):
        kind = spec.get("kind", "geometric")
        if kind == "geometric":
            extra = set(spec) - {"kind", "ratio", "n_lo", "n_hi"}
            if extra:
                raise ConfigInvalid(f"unknown schedule keys {sorted(extra)}")
            ratio = float(spec.get("ratio", 0.5))
            n_lo = int(spec.get("n_lo", 3))
            n_hi = int(spec.get("n_hi", 14))
            if not (0 < ratio < 1 and n_lo <= n_hi):
                raise ConfigInvalid("need 0 < ratio < 1 and n_lo <= n_hi")
            values = ratio ** np.arange(n_lo, n_hi + 1, dtype=float)
        elif kind == "list":
            values = np.asarray(spec.get("values", []), dtype=float)
        else:
            raise ConfigInvalid(f"unknown schedule kind {kind!r}")
    else:
        values = np.asarray(spec, dtype=float)
    if len(values) == 0:
        return values
    if np.any(values <= 0) or np.any(values >= 1):
        raise ConfigInvalid("schedule values must lie in (0, 1)")
    if np.any(np.diff(values) >= 0):
        raise ConfigInvalid("schedule values must be strictly decreasing")
    return values


def map_from_config(cfg: dict, dimension: int = 1) -> schwarz.HoloMap:
    if isinstance(cfg, str):
        cfg = {"name": cfg}
    if not isinstance(cfg, dict) or "name" not in cfg:
        raise ConfigInvalid("map config must be a name or an object with 'name'")
    name = cfg["name"]
    args = {k: v for k, v in cfg.items() if k != "name"}

    def c(v):
        return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)

    try:
        if name == "id":
            return schwarz.identity_map(dimension)
        if name == "rotation":
            return schwarz.rotation(float(args["theta"]))
        if name == "mobius":
            return schwarz.mobius_map(c(args["a"]))
        if name == "power":
            return schwarz.power_map(int(args["p"]))
        if name == "blaschke":
            return schwarz.blaschke_product([c(a) for a in args["zeros"]])
        if name == "cubic_contact":
            return schwarz.cubic_contact(float(args["c"]))
        if name == "bk_extremal":
            return schwarz.bk_extremal()
        if name == "halfplane_contact":
            return schwarz.halfplane_contact(float(args["c"]), float(args["beta"]))
        if name == "poly_contact":
            return schwarz.poly_contact(c(args["c"]), int(args["m"]))
        if name == "unitary_rotation":
            u = np.eye(dimension, dtype=complex)
            u[0, 0] = np.exp(1j * float(args["theta"]))
            return schwarz.unitary_map(u)
        if name == "ball_automorphism":
            return schwarz.ball_automorphism(np.asarray(args["a"], dtype=complex))
        if name == "ball_contact":
            return schwarz.ball_coordinate_contact(c(args["c"]), int(args["m"]), dimension)
    except KeyError as exc:
        raise ConfigInvalid(f"map {name!r} is missing parameter {exc}") from exc
    raise ConfigInvalid(f"unknown map {name!r}")


def metric_from_config(cfg) -> riemann.MetricField:
    if isinstance(cfg, str):
        cfg = {"name": cfg}
    name = cfg.get("name")
    if name == "euclid":
        return riemann.euclidean(int(cfg.get("dimension", 2)))
    if name == "poincare":
        return riemann.poincare_disk()
    if name == "sphere":
        return riemann.sphere_stereographic()
    if name == "bergman-ball":
        return riemann.bergman_ball(int(cfg.get("dimension", 2)))
    raise ConfigInvalid(f"unknown metric {name!r}")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (complex, np.complexfloating)):
        re, im = float(value.real), float(value.imag)
        return f"{re!r}{im:+}j".replace("+-", "-")
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return "(" + " ".join(_fmt(v) for v in value) + ")"
    return str(value)


def write_csv(path: Path, columns: list[str], rows: list[dict], anchors: bool = True) -> None:
    for col in columns:
        if anchors and col not in COLUMN_REGISTRY:
            raise IoFailure(f"column {col!r} has no registered anchor")
    try:
        with open(path, "w") as fh:
            if anchors:
                fh.write(",".join(f"{c} [{COLUMN_REGISTRY[c]}]" for c in columns) + "\n")
            else:
                fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, payload: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def emit_report(report: PipelineReport, cfg: RunConfig, basename: str) -> list[Path]:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report.validate_columns()
    if cfg.format in ("csv", "both"):
        p = out / f"{basename}.csv"
        write_csv(p, report.columns, report.rows)
        written.append(p)
    if cfg.format in ("json", "both"):
        p = out / f"{basename}.json"
        write_json(p, {
            "name": report.name,
            "verdict": report.verdict,
            "fitted": report.fitted,
            "checks": [{"check": c, "ok": ok} for c, ok in report.checks],
            "notes": report.notes,
            "config": {"seed": cfg.seed, "subcommand": cfg.subcommand,
                       "options": _echo_options(cfg.options)},
        })
        written.append(p)
    return written


def _echo_options(options: dict) -> dict:
    echo = dict(options)
    if "schedule" in echo and isinstance(echo["schedule"], np.ndarray):
        echo["schedule"] = echo["schedule"].tolist()
    return echo


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_kob(cfg: RunConfig) -> int:
    opts = cfg.options
    dom = domain_from_config(opts.get("domain", {"kind": "disk"}))
    op = opts.get("op", "dist")
    points = [np.asarray(p, dtype=complex).reshape(-1) for p in opts.get("points", [])]
    rows = []
    if op == "metric":
        vectors = [np.asarray(v, dtype=complex).reshape(-1) for v in opts.get("vectors", [])]
        for z, v in zip(points, vectors):
            iv = kobayashi.metric_bounds(dom, z, v, tighten_with_model=False)
            exact = kobayashi.model_metric(dom, z, v) if kobayashi.has_model_formulas(dom) else ""
            rows.append({"input": f"{z};{v}", "lower": iv.lower, "upper": iv.upper, "exact": exact})
    elif op == "dist":
        for z, w in zip(points[0::2], points[1::2]):
            iv = kobayashi.dist_bounds(dom, z, w, tighten_with_model=False)
            exact = kobayashi.model_dist(dom, z, w) if kobayashi.has_model_formulas(dom) else ""
            rows.append({"input": f"{z};{w}", "lower": iv.lower, "upper": iv.upper, "exact": exact})
    elif op == "ball":
        rho = float(opts.get("radius", 0.1))
        for z in points:
            eps = kobayashi.kob_ball_inclusion(dom, z, rho)
            rows.append({"input": f"{z};rho={rho}", "lower": eps, "upper": eps, "exact": ""})
    else:
        raise ConfigInvalid(f"unknown kob op {op!r}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "kob.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
    print(f"wrote {out / 'kob.csv'} ({len(rows)} rows)")
    return 0


def _run_cgeo(cfg: RunConfig) -> int:
    opts = cfg.options
    dom = domain_from_config(opts.get("domain", {"kind": "ball", "dimension": 2}))
    pts = opts.get("points")
    if not pts or len(pts) != 2:
        raise ConfigInvalid("cgeo needs 'points': [z, w]")
    z, w = (np.asarray(p, dtype=complex).reshape(-1) for p in pts)
    geo = cgeo.complex_geodesic(dom, z, w)
    zeta = complex(*opts.get("zeta", [1.0, 0.0])) if isinstance(opts.get("zeta", 1.0), list) else complex(opts.get("zeta", 1.0))
    probe = cgeo.boundary_hyperplane_probe(geo, zeta=zeta,
                                           radii=cgeo.default_radii_schedule(int(opts.get("k_max", 16))))
    rows = [{"input": f"r={r!r}", "lower": res, "upper": ang, "exact": geo.defect}
            for r, res, ang in zip(probe.radii, probe.residuals, probe.normal_angles)]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "cgeo_probe.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
    print(f"geodesic tag={geo.tag} defect={geo.defect:.3e}; residual tail {probe.residuals[-1]:.3e}")
    return 0 if probe.decay_ok else 1


def _run_schwarz(cfg: RunConfig) -> int:
    opts = cfg.options
    f = map_from_config(opts.get("map", "id"))
    schedule = opts.get("schedule")
    xi = complex(*opts["xi"]) if isinstance(opts.get("xi"), list) else complex(opts.get("xi", 1.0))
    rep = schwarz.disk_rigidity_pipeline(f, schedule=schedule, xi0=xi)
    emit_report(rep, cfg, f"schwarz_{f.name}")
    print(f"{rep.name}: verdict={rep.verdict}")
    return 0 if rep.all_checks_pass else 1


def _run_riemann(cfg: RunConfig) -> int:
    opts = cfg.options
    m = metric_from_config(opts.get("metric", "poincare"))
    op = opts.get("op", "flow")
    params = opts.get("params", {})
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x0 = np.asarray(params.get("x0", [0.0] * m.dim), dtype=float)
    v0 = np.asarray(params.get("v0", [1.0] + [0.0] * (m.dim - 1)), dtype=float)
    horizon = float(params.get("horizon", 1.0))
    step = float(params.get("step", riemann.DEFAULT_STEP))

    if op == "flow":
        path = riemann.geodesic_flow(m, riemann.TangentPoint.of(x0, v0), horizon, step=step)
        rows = [{"input": repr(float(t)), "lower": float(np.linalg.norm(x)),
                 "upper": m.norm(x, v), "exact": path.speed_drift}
                for t, x, v in zip(path.ts[::50], path.xs[::50], path.vs[::50])]
        write_csv(out / "riemann_flow.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
        print(f"speed drift {path.speed_drift:.3e}")
        return 0 if path.speed_drift < 1e-6 else 1
    if op == "jacobi":
        rep = riemann.jacobi_flow(m, riemann.TangentPoint.of(x0, m.unit(x0, v0)), horizon,
                                  J0=[np.zeros(m.dim)], W0=[m.unit(x0, v0)], step=step)
        rows = [{"input": repr(float(t)), "lower": float(fv[0]), "upper": float(fv[0]),
                 "exact": rep.kappa_measured} for t, fv in zip(rep.ts[::50], rep.f[::50])]
        write_csv(out / "riemann_jacobi.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
        print(f"growth ok={rep.growth_ok} kappa={rep.kappa_measured:.4f}")
        return 0 if rep.growth_ok else 1
    if op == "spread":
        theta = float(params.get("angle", 0.01))
        u1 = m.unit(x0, v0)
        rot = np.asarray(params.get("v1", _rotate_first_plane(v0, theta)), dtype=float)
        u2 = m.unit(x0, rot)
        kappa = float(params.get("kappa", abs(m.kappa_model) if m.kappa_model else 1.0))
        rows_s = riemann.spread_check(m, riemann.TangentPoint.of(x0, u1),
                                      riemann.TangentPoint.of(x0, u2), kappa,
                                      horizon, grid=int(params.get("grid", 6)), step=step)
        rows = [{"input": repr(r.t), "lower": r.lhs, "upper": r.rhs, "exact": r.ok} for r in rows_s]
        write_csv(out / "riemann_spread.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
        ok = all(r.ok for r in rows_s)
        print(f"spread ok={ok}")
        return 0 if ok else 1
    if op == "backward":
        theta = float(params.get("angle", 1e-3))
        eps = float(params.get("eps", 0.1))
        u1 = m.unit(x0, v0)
        u2 = m.unit(x0, _rotate_first_plane(v0, theta))
        ratio = riemann.backward_estimate(m, riemann.TangentPoint.of(x0, u1),
                                          riemann.TangentPoint.of(x0, u2), eps)
        ratio_half = riemann.backward_estimate(m, riemann.TangentPoint.of(x0, u1),
                                               riemann.TangentPoint.of(x0, u2), eps / 2)
        write_json(out / "riemann_backward.json",
                   {"ratio": ratio, "ratio_half_eps": ratio_half, "eps": eps})
        print(f"backward ratio {ratio:.4f} (eps/2: {ratio_half:.4f})")
        return 0
    raise ConfigInvalid(f"unknown riemann op {op!r}")


def _rotate_first_plane(v: np.ndarray, theta: float) -> np.ndarray:
    out = np.asarray(v, dtype=float).copy()
    c, s = math.cos(theta), math.sin(theta)
    a, b = out[0], out[1]
    out[0], out[1] = c * a - s * b, s * a + c * b
    return out


def _run_kahler(cfg: RunConfig) -> int:
    opts = cfg.options
    check = opts.get("check", "bg")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = opts.get("params", {})
    if check == "bg":
        name = opts.get("metric", "poincare")
        name = name.get("name") if isinstance(name, dict) else name
        kf = kahler.KAHLER_MODELS[name]() if name in kahler.KAHLER_MODELS else None
        if kf is None:
            raise ConfigInvalid(f"unknown Kahler model {name!r}")
        dom = domain_from_config(opts.get("domain", {"kind": "disk" if kf.complex_dim == 1 else "ball",
                                                     **({} if kf.complex_dim == 1 else {"dimension": kf.complex_dim})}))
        rep = kahler.property_bg_estimate(kf, dom)
        write_json(out / "kahler_bg.json", {"kappa_est": rep.kappa_est, "A_est": rep.A_est,
                                            "a_est": rep.a_est, "complete": rep.complete,
                                            "passed": rep.passed})
        print(f"BG: kappa={rep.kappa_est:.4f} A={rep.A_est:.4f} a={rep.a_est:.4f} "
              f"complete={rep.complete} passed={rep.passed}")
        return 0 if rep.passed else 1
    if check == "squeeze":
        dom = domain_from_config(opts.get("domain", {"kind": "disk"}))
        z = np.asarray(params.get("z", [0.0] * dom.dimension), dtype=complex)
        s = kahler.squeezing_lower_bound(dom, z)
        write_json(out / "kahler_squeeze.json", {"z": z, "squeezing_lower_bound": s})
        print(f"squeezing lower bound {s:.6f}")
        return 0
    if check == "inj":
        v = float(params.get("volume", 1.0))
        kap = float(params.get("kappa", 1.0))
        r = float(params.get("r", 0.5))
        d = int(params.get("d", 1))
        val = kahler.cgt_inj_lower(v, kap, r, d)
        write_json(out / "kahler_inj.json", {"inj_lower": val})
        print(f"injectivity lower bound {val:.6f}")
        return 0
    if check == "threshold":
        val = kahler.rigidity_threshold(int(params.get("d", 1)), float(params.get("kappa", 1.0)),
                                        float(params.get("A", 1.0)), float(params.get("theta", math.pi / 2)),
                                        bool(params.get("positive_injectivity", False)))
        write_json(out / "kahler_threshold.json", {"L_threshold": val})
        print(f"rigidity threshold L > {val:.6f}")
        return 0
    raise ConfigInvalid(f"unknown kahler check {check!r}")


def _run_rigidity(cfg: RunConfig) -> int:
    opts = cfg.options
    pipeline = opts.get("pipeline", "convex")
    dom = domain_from_config(opts.get("domain", {"kind": "disk"}))
    f = map_from_config(opts.get("map", "id"), dom.dimension)
    schedule = opts.get("schedule")
    xi = np.asarray(opts.get("xi", [1.0] + [0.0] * (dom.dimension - 1)), dtype=complex)
    if pipeline == "convex":
        rep = rigidity.convex_pipeline(dom, f, xi0=xi, schedule=schedule)
    elif pipeline == "biholo":
        theta = float(opts.get("theta", math.pi / 3))
        length = float(opts.get("cone_length", 0.5))
        bd = boundary_data(dom, xi, tol=1e-9)
        cone = Cone(apex=bd.point, direction=bd.inward_normal, aperture=theta, length=length)
        name = opts.get("metric", "poincare" if dom.dimension == 1 else "bergman-ball")
        name = name.get("name") if isinstance(name, dict) else name
        kf = kahler.KAHLER_MODELS[name]() if name in ("poincare", "flat") else kahler.bergman_kahler(dom.dimension)
        z0 = np.asarray(opts["z0"], dtype=complex) if "z0" in opts else None
        rep = rigidity.biholo_pipeline(dom, f, kf, xi0=xi, cone=cone,
                                       schedule=schedule, z0=z0)
    else:
        raise ConfigInvalid(f"unknown pipeline {pipeline!r}")
    emit_report(rep, cfg, f"rigidity_{pipeline}_{f.name}")
    print(f"{rep.name}: verdict={rep.verdict} (checks pass: {rep.all_checks_pass})")
    return 0 if rep.all_checks_pass else 1


def _quick_checks(seed: int) -> list[tuple[str, bool]]:
    """Fast closed-form acceptance-style checks (the slow Riemannian and
    pipeline criteria live in the pytest acceptance module)."""
    rng = np.random.default_rng(seed)
    checks = []

    ok = True
    dom = disk()
    for _ in range(200):
        z, w = (np.array([0.97 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())])
                for _ in range(2))
        if not kobayashi.dist_bounds(dom, z, w).contains(kobayashi.model_dist(dom, z, w), slack=1e-9):
            ok = False
    checks.append(("disk distance intervals contain the closed form", ok))

    zoo = schwarz.disk_zoo()
    ok = True
    n = 0
    while n < 200:
        f = zoo[rng.integers(len(zoo))]
        a, b, z = (0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                   for _ in range(3))
        if kobayashi.disk_distance(a, b) < 1e-3:
            continue
        n += 1
        ok = ok and schwarz.cs_bound_check(f, a, b, z).passed
    checks.append(("two-anchor displacement bound on the zoo", ok))

    phis = np.linspace(1e-6, math.pi, 1000)
    checks.append(("fiber angle <= (pi+1) chord on (0, pi]",
                   bool(np.all(phis <= (math.pi + 1) * 2 * np.sin(phis / 2) + 1e-12))))

    checks.append(("rigidity thresholds 7 and 3",
                   kahler.rigidity_threshold(1, 1, 1, math.pi / 2) == 7.0
                   and kahler.rigidity_threshold(1, 1, 1, math.pi / 2, True) == 3.0))

    vm = kahler.model_volume(2, -1.0, 1.0)
    checks.append(("hyperbolic ball area matches 2 pi (cosh 1 - 1)",
                   abs(vm - 2 * math.pi * (math.cosh(1.0) - 1.0)) < 1e-8))
    checks.append(("volume-ratio injectivity limits r/2 and r/4",
                   abs(kahler.cgt_inj_lower(1e15, 1.0, 0.5, 1) - 0.25) < 1e-9
                   and kahler.cgt_inj_lower(vm, 1.0, 0.5, 1) == 0.125))

    ok = True
    for _ in range(2000):
        X, Y = rng.standard_normal((2, 3))
        _, _, passed = riemann.segment_max_lower_bound(X, Y, rng.uniform(1e-3, 1.999))
        ok = ok and passed
    checks.append(("segment max lower bound sweep", ok))
    return checks


def _run_suite(cfg: RunConfig) -> int:
    checks = _quick_checks(cfg.seed)
    summary = rigidity.counterexample_suite()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "suite.json", {
        "passed": summary.passed and all(ok for _, ok in checks),
        "quick_checks": [{"check": c, "ok": ok} for c, ok in checks],
        "entries": [{"pipeline": e.pipeline, "map": e.map_name,
                     "displacement": e.displacement, "verdict": e.verdict,
                     "indistinguishable": e.indistinguishable} for e in summary.entries],
    })
    for c, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {c}")
    for e in summary.entries:
        print(f"{e.pipeline:12s} {e.map_name:30s} disp={e.displacement:.2e} {e.verdict}")
    passed = summary.passed and all(ok for _, ok in checks)
    print("suite passed" if passed else "suite FAILED")
    return 0 if passed else 1


_RUNNERS = {
    "kob": _run_kob,
    "cgeo": _run_cgeo,
    "schwarz": _run_schwarz,
    "riemann": _run_riemann,
    "kahler": _run_kahler,
    "rigidity": _run_rigidity,
    "suite": _run_suite,
}


def run(cfg: RunConfig) -> int:
    return _RUNNERS[cfg.subcommand](cfg)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rigidlab",
                                     description="numerical laboratory for boundary rigidity")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--format", choices=["csv", "json", "both"], default=None)
    sub = parser.add_subparsers(dest="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        if name == "kob":
            p.add_argument("--domain", help="JSON domain spec")
            p.add_argument("--op", choices=["metric", "dist", "ball"], default=None)
            p.add_argument("--points", help="JSON list of points")
        elif name == "cgeo":
            p.add_argument("--domain")
            p.add_argument("--points")
        elif name == "schwarz":
            p.add_argument("--map", help="map name or JSON spec")
            p.add_argument("--xi", default=None)
            p.add_argument("--schedule", help="JSON schedule spec")
        elif name == "riemann":
            p.add_argument("--metric")
            p.add_argument("--op", choices=["flow", "jacobi", "spread", "backward"], default=None)
            p.add_argument("--params", help="JSON op parameters")
        elif name == "kahler":
            p.add_argument("--metric")
            p.add_argument("--check", choices=["bg", "squeeze", "inj", "threshold"], default=None)
            p.add_argument("--params")
        elif name == "rigidity":
            p.add_argument("--pipeline", choices=["convex", "biholo"], default=None)
            p.add_argument("--domain")
            p.add_argument("--map")
            p.add_argument("--metric")
            p.add_argument("--xi")
            p.add_argument("--theta", type=float, default=None)
            p.add_argument("--schedule")
    return parser


def _maybe_json(value: str):
    if value is None:
        return None
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value  # plain name


def config_from_args(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if args.subcommand:
        raw["subcommand"] = args.subcommand
    for key in ("seed", "format"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if getattr(args, "out_dir", None) is not None:
        raw["out_dir"] = args.out_dir
    for key in ("domain", "map", "metric", "points", "params", "schedule", "xi"):
        val = _maybe_json(getattr(args, key, None))
        if val is not None:
            raw[key] = val
    for key in ("op", "check", "pipeline", "theta"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    return parse_config(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except RigidLabError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
