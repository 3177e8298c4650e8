"""Command-line front end: configuration, dispatch, and report emission.

Runs are described either by flags or by a JSON config file (flags win).
Every config key of a subcommand is also its ``--key`` flag (``cone_length``
is ``--cone-length``), and both are checked against one table.
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
from .domain import Cone, ball, boundary_data, disk, domain_from_config
from .errors import ConfigInvalid, IoFailure, RigidLabError
from .report import COLUMN_REGISTRY, PipelineReport

#: the value kind of a key whose runner reads it further (a domain, map,
#: point list, ...); a flag's token is parsed as JSON, else kept as a name
JSON = "a JSON value or a name"

#: subcommand -> {config key: value kind}; a kind is JSON, float, int, list,
#: dict, or the tuple of allowed values
SUBCOMMAND_KEYS = {
    "kob": {"domain": JSON, "op": ("metric", "dist", "ball"), "points": list,
            "vectors": list, "radius": float},
    "cgeo": {"domain": JSON, "points": list, "zeta": JSON, "k_max": int},
    "schwarz": {"map": JSON, "xi": JSON, "schedule": JSON},
    "riemann": {"metric": JSON, "op": ("flow", "jacobi", "spread", "backward"), "params": dict},
    "kahler": {"metric": JSON, "check": ("bg", "squeeze", "inj", "threshold"), "domain": JSON,
               "params": dict},
    "rigidity": {"pipeline": ("convex", "biholo"), "domain": JSON, "map": JSON, "metric": JSON,
                 "xi": JSON, "theta": float, "cone_length": float, "schedule": JSON, "z0": JSON},
    "suite": {},
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

def _read(kind, value, key: str):
    """``value`` checked against ``kind``: a JSON value, a choice, a list or a
    dict comes back as is, a finite number as ``kind``; a mismatch raises
    ``ConfigInvalid``."""
    if (kind is JSON or (isinstance(kind, tuple) and value in kind)
            or (kind in (list, dict) and isinstance(value, kind))):
        return value
    if kind in (float, int) and type(value) in (int, float):
        try:
            number = kind(value)
        except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
            number = math.nan
        if number == value if kind is int else math.isfinite(number):
            return number
    want = f"one of {', '.join(map(str, kind))}" if isinstance(kind, tuple) else kind.__name__
    raise ConfigInvalid(f"{key} must be {want}, got {value!r}")


def _param(opts: dict, key: str, kind, default):
    """``params[key]`` checked against ``kind`` (see ``_read``), or ``default``."""
    params = opts.get("params", {})
    return _read(kind, params[key], f"params.{key}") if key in params else default


def _vector(value, key: str, dim: int | None = None, dtype=complex) -> np.ndarray:
    """``value`` as a flat vector of finite numbers, of length ``dim`` if given."""
    try:
        vec = np.asarray(value, dtype=dtype).reshape(-1)
    except (TypeError, ValueError):
        vec = None
    if vec is None or not np.all(np.isfinite(vec)) or (dim is not None and vec.shape != (dim,)):
        count = f"{dim} " if dim else ""
        raise ConfigInvalid(f"{key} must be a vector of {count}finite numbers, got {value!r}")
    return vec


def _complex(value, key: str) -> complex:
    """A complex number given as a real number or as ``[re, im]``."""
    parts = value if isinstance(value, list) else [value]
    if len(parts) not in (1, 2):
        raise ConfigInvalid(f"{key} must be a number or [re, im], got {value!r}")
    return complex(*(_read(float, p, key) for p in parts))


def _named(spec, what: str) -> dict:
    """A spec given as a name or as an object with a 'name' field."""
    if isinstance(spec, str):
        return {"name": spec}
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigInvalid(f"{what} config must be a name or an object with 'name'")
    return spec


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping; unknown keys and values of the wrong
    kind are rejected."""
    if "subcommand" not in raw:
        raise ConfigInvalid("config needs a 'subcommand' field")
    sub = _read(tuple(SUBCOMMAND_KEYS), raw["subcommand"], "subcommand")
    kinds = SUBCOMMAND_KEYS[sub]
    unknown = set(raw) - set(kinds) - _GLOBAL_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys for {sub}: {sorted(unknown)}")
    options = {k: _read(kinds[k], v, k) for k, v in raw.items() if k in kinds}
    if "schedule" in options:
        options["schedule"] = parse_schedule(options["schedule"])
    return RunConfig(subcommand=sub, seed=_read(int, raw.get("seed", 42), "seed"),
                     out_dir=str(raw.get("out_dir", "out")),
                     format=_read(("csv", "json", "both"), raw.get("format", "both"), "format"),
                     options=options)


def parse_schedule(spec) -> np.ndarray:
    """Geometric or explicit schedules; values strictly decreasing in (0, 1)."""
    if isinstance(spec, dict):
        kind = spec.get("kind", "geometric")
        if kind == "geometric":
            extra = set(spec) - {"kind", "ratio", "n_lo", "n_hi"}
            if extra:
                raise ConfigInvalid(f"unknown schedule keys {sorted(extra)}")
            ratio = _read(float, spec.get("ratio", 0.5), "schedule.ratio")
            n_lo = _read(int, spec.get("n_lo", 3), "schedule.n_lo")
            n_hi = _read(int, spec.get("n_hi", 14), "schedule.n_hi")
            if not (0 < ratio < 1 and n_lo <= n_hi):
                raise ConfigInvalid("need 0 < ratio < 1 and n_lo <= n_hi")
            values = ratio ** np.arange(n_lo, n_hi + 1, dtype=float)
        elif kind == "list":
            values = _vector(spec.get("values", []), "schedule.values", dtype=float)
        else:
            raise ConfigInvalid(f"unknown schedule kind {kind!r}")
    else:
        values = _vector(spec, "schedule", dtype=float)
    if len(values) == 0:
        raise ConfigInvalid("schedule needs at least one value")
    if np.any(values <= 0) or np.any(values >= 1):
        raise ConfigInvalid("schedule values must lie in (0, 1)")
    if np.any(np.diff(values) >= 0):
        raise ConfigInvalid("schedule values must be strictly decreasing")
    return values


def map_from_config(cfg: dict, dimension: int = 1) -> schwarz.HoloMap:
    cfg = _named(cfg, "map")
    name = cfg["name"]

    def arg(key: str, kind=float):
        if key not in cfg:
            raise ConfigInvalid(f"map {name!r} is missing parameter {key!r}")
        return _complex(cfg[key], f"map.{key}") if kind is complex else _read(kind, cfg[key], f"map.{key}")

    if name == "id":
        return schwarz.identity_map(dimension)
    if name == "rotation":
        return schwarz.rotation(arg("theta"))
    if name == "mobius":
        return schwarz.mobius_map(arg("a", complex))
    if name == "power":
        return schwarz.power_map(arg("p", int))
    if name == "blaschke":
        return schwarz.blaschke_product([_complex(a, "map.zeros") for a in arg("zeros", list)])
    if name == "cubic_contact":
        return schwarz.cubic_contact(arg("c"))
    if name == "bk_extremal":
        return schwarz.bk_extremal()
    if name == "halfplane_contact":
        return schwarz.halfplane_contact(arg("c"), arg("beta"))
    if name == "poly_contact":
        return schwarz.poly_contact(arg("c", complex), arg("m", int))
    if name == "unitary_rotation":
        u = np.eye(dimension, dtype=complex)
        u[0, 0] = np.exp(1j * arg("theta"))
        return schwarz.unitary_map(u)
    if name == "ball_automorphism":
        return schwarz.ball_automorphism(_vector(arg("a", JSON), "map.a", dimension))
    if name == "ball_contact":
        return schwarz.ball_coordinate_contact(arg("c", complex), arg("m", int), dimension)
    raise ConfigInvalid(f"unknown map {name!r}")


def metric_from_config(cfg) -> riemann.MetricField:
    cfg = _named(cfg, "metric")
    name = cfg["name"]
    if name == "poincare":
        return riemann.poincare_disk()
    if name == "sphere":
        return riemann.sphere_stereographic()
    if name not in ("euclid", "bergman-ball"):
        raise ConfigInvalid(f"unknown metric {name!r}")
    d = _read(int, cfg.get("dimension", 2), "metric.dimension")
    if d < 1:
        raise ConfigInvalid(f"metric.dimension must be at least 1, got {d}")
    return riemann.euclidean(d) if name == "euclid" else riemann.bergman_ball(d)


def kahler_from_config(cfg, dimension: int | None = None) -> kahler.KahlerField:
    """The Kähler model ``cfg`` names, in its own dimension, else the domain's
    ``dimension``, else 2 for the Bergman ball and 1 otherwise."""
    cfg = _named(cfg, "Kahler model")
    name = cfg["name"]
    if name not in ("poincare", "flat", "bergman-ball"):
        raise ConfigInvalid(f"unknown Kahler model {name!r}")
    d = _read(int, cfg.get("dimension", dimension or (2 if name == "bergman-ball" else 1)),
              "metric.dimension")
    if d < 1 or d != (dimension or d) or (name == "poincare" and d != 1):
        raise ConfigInvalid(f"no Kahler model {name!r} of dimension {d} for a domain "
                            f"of dimension {dimension or d}")
    if name == "poincare":
        return kahler.poincare_kahler()
    return kahler.flat_kahler(d) if name == "flat" else kahler.bergman_kahler(d)


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


def _out(cfg: RunConfig) -> Path:
    """The output directory, made when the first artifact is written."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return out


def emit_report(report: PipelineReport, cfg: RunConfig, basename: str) -> list[Path]:
    out = _out(cfg)
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
                       "options": cfg.options},
        })
        written.append(p)
    return written


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_kob(cfg: RunConfig) -> int:
    opts = cfg.options
    dom = domain_from_config(opts.get("domain", {"kind": "disk"}))
    op = opts.get("op", "dist")
    points = [_vector(p, "points", dom.dimension) for p in opts.get("points", [])]
    rows = []
    if op == "metric":
        vectors = [_vector(v, "vectors", dom.dimension) for v in opts.get("vectors", [])]
        if len(vectors) != len(points):
            raise ConfigInvalid(f"kob metric needs one vector per point, got {len(points)} "
                                f"points and {len(vectors)} vectors")
        for z, v in zip(points, vectors):
            iv = kobayashi.metric_bounds(dom, z, v, tighten_with_model=False)
            exact = kobayashi.model_metric(dom, z, v) if kobayashi.has_model_formulas(dom) else ""
            rows.append({"input": f"{z};{v}", "lower": iv.lower, "upper": iv.upper, "exact": exact})
    elif op == "dist":
        if len(points) % 2:
            raise ConfigInvalid(f"kob dist needs pairs of points, got {len(points)} points")
        for z, w in zip(points[0::2], points[1::2]):
            iv = kobayashi.dist_bounds(dom, z, w, tighten_with_model=False)
            exact = kobayashi.model_dist(dom, z, w) if kobayashi.has_model_formulas(dom) else ""
            rows.append({"input": f"{z};{w}", "lower": iv.lower, "upper": iv.upper, "exact": exact})
    else:
        rho = opts.get("radius", 0.1)
        for z in points:
            eps = kobayashi.kob_ball_inclusion(dom, z, rho)
            rows.append({"input": f"{z};rho={rho}", "lower": eps, "upper": eps, "exact": ""})
    path = _out(cfg) / "kob.csv"
    write_csv(path, ["input", "lower", "upper", "exact"], rows, anchors=False)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _run_cgeo(cfg: RunConfig) -> int:
    opts = cfg.options
    dom = domain_from_config(opts.get("domain", {"kind": "ball", "dimension": 2}))
    pts = opts.get("points", [])
    if len(pts) != 2:
        raise ConfigInvalid("cgeo needs 'points': [z, w]")
    z, w = (_vector(p, "points", dom.dimension) for p in pts)
    geo = cgeo.complex_geodesic(dom, z, w)
    probe = cgeo.boundary_hyperplane_probe(geo, zeta=_complex(opts.get("zeta", 1.0), "zeta"),
                                           radii=cgeo.default_radii_schedule(opts.get("k_max", 16)))
    rows = [{"input": f"r={r!r}", "lower": res, "upper": ang, "exact": geo.defect}
            for r, res, ang in zip(probe.radii, probe.residuals, probe.normal_angles)]
    write_csv(_out(cfg) / "cgeo_probe.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
    print(f"geodesic tag={geo.tag} defect={geo.defect:.3e}; residual tail {probe.residuals[-1]:.3e}")
    return 0 if probe.decay_ok else 1


def _run_schwarz(cfg: RunConfig) -> int:
    opts = cfg.options
    f = map_from_config(opts.get("map", "id"))
    rep = schwarz.disk_rigidity_pipeline(f, schedule=opts.get("schedule"),
                                         xi0=_complex(opts.get("xi", 1.0), "xi"))
    emit_report(rep, cfg, f"schwarz_{f.name}")
    print(f"{rep.name}: verdict={rep.verdict}")
    return 0 if rep.all_checks_pass else 1


def _run_riemann(cfg: RunConfig) -> int:
    opts = cfg.options
    m = metric_from_config(opts.get("metric", "poincare"))
    op = opts.get("op", "flow")
    x0 = _vector(_param(opts, "x0", JSON, [0.0] * m.dim), "params.x0", m.dim, float)
    v0 = _vector(_param(opts, "v0", JSON, [1.0] + [0.0] * (m.dim - 1)), "params.v0", m.dim, float)
    horizon = _param(opts, "horizon", float, 1.0)
    step = _param(opts, "step", float, riemann.DEFAULT_STEP)

    if op == "flow":
        path = riemann.geodesic_flow(m, riemann.TangentPoint.of(x0, v0), horizon, step=step)
        rows = [{"input": repr(float(t)), "lower": float(np.linalg.norm(x)),
                 "upper": m.norm(x, v), "exact": path.speed_drift}
                for t, x, v in zip(path.ts[::50], path.xs[::50], path.vs[::50])]
        write_csv(_out(cfg) / "riemann_flow.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
        print(f"speed drift {path.speed_drift:.3e}")
        return 0 if path.speed_drift < 1e-6 else 1
    if op == "jacobi":
        rep = riemann.jacobi_flow(m, riemann.TangentPoint.of(x0, m.unit(x0, v0)), horizon,
                                  J0=[np.zeros(m.dim)], W0=[m.unit(x0, v0)], step=step)
        rows = [{"input": repr(float(t)), "lower": float(fv[0]), "upper": float(fv[0]),
                 "exact": rep.kappa_measured} for t, fv in zip(rep.ts[::50], rep.f[::50])]
        write_csv(_out(cfg) / "riemann_jacobi.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
        print(f"growth ok={rep.growth_ok} kappa={rep.kappa_measured:.4f}")
        return 0 if rep.growth_ok else 1
    if op == "spread":
        theta = _param(opts, "angle", float, 0.01)
        u1 = m.unit(x0, v0)
        rot = _vector(_param(opts, "v1", JSON, _rotate_first_plane(v0, theta)), "params.v1", m.dim, float)
        u2 = m.unit(x0, rot)
        kappa = _param(opts, "kappa", float, abs(m.kappa_model) if m.kappa_model else 1.0)
        rows_s = riemann.spread_check(m, riemann.TangentPoint.of(x0, u1),
                                      riemann.TangentPoint.of(x0, u2), kappa,
                                      horizon, grid=_param(opts, "grid", int, 6), step=step)
        rows = [{"input": repr(r.t), "lower": r.lhs, "upper": r.rhs, "exact": r.ok} for r in rows_s]
        write_csv(_out(cfg) / "riemann_spread.csv", ["input", "lower", "upper", "exact"], rows, anchors=False)
        ok = all(r.ok for r in rows_s)
        print(f"spread ok={ok}")
        return 0 if ok else 1
    theta = _param(opts, "angle", float, 1e-3)
    eps = _param(opts, "eps", float, 0.1)
    u1 = m.unit(x0, v0)
    u2 = m.unit(x0, _rotate_first_plane(v0, theta))
    ratio = riemann.backward_estimate(m, riemann.TangentPoint.of(x0, u1),
                                      riemann.TangentPoint.of(x0, u2), eps)
    ratio_half = riemann.backward_estimate(m, riemann.TangentPoint.of(x0, u1),
                                           riemann.TangentPoint.of(x0, u2), eps / 2)
    write_json(_out(cfg) / "riemann_backward.json",
               {"ratio": ratio, "ratio_half_eps": ratio_half, "eps": eps})
    print(f"backward ratio {ratio:.4f} (eps/2: {ratio_half:.4f})")
    return 0


def _rotate_first_plane(v: np.ndarray, theta: float) -> np.ndarray:
    out = np.asarray(v, dtype=float).copy()
    if len(out) < 2:
        raise ConfigInvalid(f"spread and backward need a metric of at least 2 real dimensions, got {len(out)}")
    c, s = math.cos(theta), math.sin(theta)
    a, b = out[0], out[1]
    out[0], out[1] = c * a - s * b, s * a + c * b
    return out


def _run_kahler(cfg: RunConfig) -> int:
    opts = cfg.options
    check = opts.get("check", "bg")
    if check == "bg":
        metric = opts.get("metric", "poincare")
        if "domain" in opts:
            dom = domain_from_config(opts["domain"])
            kf = kahler_from_config(metric, dom.dimension)
        else:
            kf = kahler_from_config(metric)
            dom = disk() if kf.complex_dim == 1 else ball(kf.complex_dim)
        rep = kahler.property_bg_estimate(kf, dom)
        write_json(_out(cfg) / "kahler_bg.json", {"kappa_est": rep.kappa_est, "A_est": rep.A_est,
                                                  "a_est": rep.a_est, "complete": rep.complete,
                                                  "passed": rep.passed})
        print(f"BG: kappa={rep.kappa_est:.4f} A={rep.A_est:.4f} a={rep.a_est:.4f} "
              f"complete={rep.complete} passed={rep.passed}")
        return 0 if rep.passed else 1
    if check == "squeeze":
        dom = domain_from_config(opts.get("domain", {"kind": "disk"}))
        z = _vector(_param(opts, "z", JSON, [0.0] * dom.dimension), "params.z", dom.dimension)
        s = kahler.squeezing_lower_bound(dom, z)
        write_json(_out(cfg) / "kahler_squeeze.json", {"z": z, "squeezing_lower_bound": s})
        print(f"squeezing lower bound {s:.6f}")
        return 0
    d = _param(opts, "d", int, 1)
    kappa = _param(opts, "kappa", float, 1.0)
    if check == "inj":
        val = kahler.cgt_inj_lower(_param(opts, "volume", float, 1.0), kappa,
                                   _param(opts, "r", float, 0.5), d)
        write_json(_out(cfg) / "kahler_inj.json", {"inj_lower": val})
        print(f"injectivity lower bound {val:.6f}")
        return 0
    val = kahler.rigidity_threshold(d, kappa, _param(opts, "A", float, 1.0),
                                    _param(opts, "theta", float, math.pi / 2),
                                    _param(opts, "positive_injectivity", (False, True), False))
    write_json(_out(cfg) / "kahler_threshold.json", {"L_threshold": val})
    print(f"rigidity threshold L > {val:.6f}")
    return 0


def _run_rigidity(cfg: RunConfig) -> int:
    opts = cfg.options
    pipeline = opts.get("pipeline", "convex")
    dom = domain_from_config(opts.get("domain", {"kind": "disk"}))
    f = map_from_config(opts.get("map", "id"), dom.dimension)
    schedule = opts.get("schedule")
    xi = _vector(opts.get("xi", [1.0] + [0.0] * (dom.dimension - 1)), "xi", dom.dimension)
    z0 = _vector(opts["z0"], "z0", dom.dimension) if "z0" in opts else None
    if pipeline == "convex":
        rep = rigidity.convex_pipeline(dom, f, xi0=xi, schedule=schedule, z0=z0)
    else:
        kf = kahler_from_config(opts.get("metric", "poincare" if dom.dimension == 1 else "bergman-ball"),
                                dom.dimension)
        bd = boundary_data(dom, xi, tol=1e-9)
        try:
            cone = Cone(apex=bd.point, direction=bd.inward_normal,
                        aperture=opts.get("theta", math.pi / 3), length=opts.get("cone_length", 0.5))
        except ValueError as exc:  # theta outside (0, pi/2] or cone_length <= 0
            raise ConfigInvalid(str(exc)) from exc
        rep = rigidity.biholo_pipeline(dom, f, kf, xi0=xi, cone=cone,
                                       schedule=schedule, z0=z0)
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
        iv = kobayashi.dist_bounds(dom, z, w, tighten_with_model=False)
        if not iv.contains(kobayashi.model_dist(dom, z, w), slack=1e-9):
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
    write_json(_out(cfg) / "suite.json", {
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
    for name, kinds in SUBCOMMAND_KEYS.items():
        p = sub.add_parser(name)
        for key, kind in kinds.items():
            choices = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None
            p.add_argument("--" + key.replace("_", "-"), type=_maybe_json, metavar=choices)
    return parser


def _maybe_json(value: str):
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
        if not isinstance(raw, dict):
            raise ConfigInvalid("config must be a JSON object")
    if args.subcommand:
        raw["subcommand"] = args.subcommand
    for key in ("seed", "out_dir", "format", *SUBCOMMAND_KEYS.get(args.subcommand, ())):
        val = getattr(args, key)
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
