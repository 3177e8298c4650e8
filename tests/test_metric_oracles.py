"""The closed-form metric oracles against independent references.

The reference metrics are built here with sympy from their textbook
formulas and differentiated symbolically; sympy is a test-only dependency.
The closed-form inverse is checked against ``g`` itself, and the matmul
curvature kernel against the ``einsum`` formulas with a numerical inverse.
"""

import os
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from rigidlab import riemann as rm

REL_TOL = 1e-12


def _conformal(xs, sign):
    s = sum(x**2 for x in xs)
    lam = 4 / (1 + sign * s) ** 2
    return sp.diag(lam, lam)


def _bergman(xs):
    """Real form, interleaved coordinates, of the Hermitian form
    ``(d+1) [(1-|z|^2) delta_jk + zbar_j z_k] / (1-|z|^2)^2``."""
    d = len(xs) // 2
    zs = [xs[2 * j] + sp.I * xs[2 * j + 1] for j in range(d)]
    u = 1 - sum(z * sp.conjugate(z) for z in zs)
    gm = sp.zeros(2 * d, 2 * d)
    for j in range(d):
        for k in range(d):
            h = sp.expand((d + 1) * (u * (1 if j == k else 0) + sp.conjugate(zs[j]) * zs[k]) / u**2)
            hre, him = sp.re(h), sp.im(h)
            gm[2 * j, 2 * k] += 2 * hre
            gm[2 * j + 1, 2 * k + 1] += 2 * hre
            gm[2 * j, 2 * k + 1] += 2 * him
            gm[2 * j + 1, 2 * k] += -2 * him
    return gm.applyfunc(sp.cancel)


@lru_cache(maxsize=None)
def _reference(name: str):
    """``(g, dg, d2g)`` lambdas of the symbolic metric ``name``."""
    n = 2 if name in ("euclid", "poincare", "sphere") else 2 * int(name.rsplit("-", 1)[1])
    xs = sp.symbols(f"x1:{n + 1}", real=True)
    if name == "euclid":
        gm = sp.eye(n)
    elif name == "poincare":
        gm = _conformal(xs, -1)
    elif name == "sphere":
        gm = _conformal(xs, +1)
    else:
        gm = _bergman(xs)
    dg = [[[sp.diff(gm[i, j], xs[k]) for j in range(n)] for i in range(n)] for k in range(n)]
    d2g = [[[[sp.diff(dg[k][i][j], xs[l]) for j in range(n)] for i in range(n)]
            for l in range(n)] for k in range(n)]
    return tuple(sp.lambdify(xs, expr, modules="numpy", cse=True) for expr in (gm, dg, d2g))


def _chart_points(dim: int, seed: int, count: int = 20) -> list[np.ndarray]:
    """Seeded points with |x|^2 in [0, 0.95], plus the origin and three at |x|^2 = 0.95."""
    rng = np.random.default_rng(seed)
    radii2 = np.concatenate([rng.uniform(0.0, 0.95, count - 4), [0.0, 0.95, 0.95, 0.95]])
    points = []
    for r2 in radii2:
        u = rng.standard_normal(dim)
        points.append(np.sqrt(r2) * u / np.linalg.norm(u))
    return points


# the models by test id; bergman_ball(1) is the Poincare disk, so its own name is "poincare"
MODELS = {"euclid": rm.euclidean(2), "poincare": rm.poincare_disk(), "sphere": rm.sphere_stereographic(),
          **{f"bergman-ball-{d}": rm.bergman_ball(d) for d in (1, 2, 3)}}


def _params(*names, scaled=()):
    """``parametrize`` values: the models ``names``, then the scaled metrics, each with its id."""
    return [pytest.param(MODELS[n], id=n) for n in names] + [pytest.param(m, id=m.name) for m in scaled]


def test_bergman_ball_of_dimension_one_is_the_poincare_disk():
    assert rm.bergman_ball(1) is rm.poincare_disk()


@pytest.mark.parametrize("name", ["poincare", "sphere", "bergman-ball-1", "bergman-ball-2"])
def test_oracles_match_symbolic_reference(name):
    # bergman-ball-1 checks the Poincare disk against the symbolic Bergman metric of C
    metric, refs = MODELS[name], _reference(name)
    for i, x in enumerate(_chart_points(metric.dim, seed=7)):
        for oracle, ref in zip((metric.g, metric.dg, metric.d2g), refs):
            want = np.asarray(ref(*x), dtype=float)
            got = oracle(x)
            assert got.shape == want.shape
            err = np.max(np.abs(got - want))
            assert err <= REL_TOL * np.max(np.abs(want)), f"{metric.name} point {i}: error {err:.2e}"


SPRAY_CASES = [(rm.euclidean(2), "euclid", 1.0), (rm.poincare_disk(), "poincare", 1.0),
               (rm.sphere_stereographic(), "sphere", 1.0), (rm.bergman_ball(1), "bergman-ball-1", 1.0),
               (rm.bergman_ball(2), "bergman-ball-2", 1.0),
               (rm.scale_metric(rm.bergman_ball(2), 2.5), "bergman-ball-2", 2.5)]


@pytest.mark.parametrize("metric, base, lam", SPRAY_CASES,
                         ids=[base if lam == 1.0 else f"{base}*{lam:g}" for _, base, lam in SPRAY_CASES])
def test_spray_matches_the_symbolic_christoffel_contraction(metric, base, lam):
    # Gamma(v, v) = g^-1 ((d_v g) v - grad g(v, v) / 2) from the symbolic lam * g and its dg;
    # the spray maps the flat list x + v to v + (-Gamma(v, v)), all Python floats
    g_ref, dg_ref, _ = _reference(base)
    n = metric.dim
    rng = np.random.default_rng(13)
    for i, x in enumerate(_chart_points(n, seed=13)):
        v = rng.standard_normal(n)
        dg = lam * np.asarray(dg_ref(*x), dtype=float)
        w = np.einsum("kij,k,j->i", dg, v, v) - 0.5 * np.einsum("kij,i,j->k", dg, v, v)
        want = np.linalg.solve(lam * np.asarray(g_ref(*x), dtype=float), w)
        y = np.concatenate((x, v)).tolist()
        out = metric.spray(y)
        assert type(out) is list and len(out) == 2 * n
        assert all(type(c) is float for c in out), f"{metric.name}: a non-float in the spray"
        assert out[:n] == y[n:]
        err = np.max(np.abs(-np.array(out[n:]) - want))
        assert err <= REL_TOL * np.max(np.abs(want)), f"{metric.name} point {i}: error {err:.2e}"


def test_bergman_ball_3_spray_matches_the_christoffel_tensor():
    # the rank-2 spray's J runs over dim // 2 coordinate pairs; three of them here
    m = rm.bergman_ball(3)
    rng = np.random.default_rng(29)
    for i, x in enumerate(_chart_points(m.dim, seed=29, count=12)):
        v = rng.standard_normal(m.dim)
        want = -np.einsum("kij,i,j->k", rm.christoffel(m, x), v, v)
        out = m.spray(np.concatenate((x, v)).tolist())
        err = np.max(np.abs(np.array(out[m.dim:]) - want))
        assert err <= REL_TOL * np.max(np.abs(want)), f"point {i}: error {err:.2e}"


def test_bergman_ball_3_derivatives_match_central_differences():
    m = rm.bergman_ball(3)
    h = 1e-5
    for x in _chart_points(m.dim, seed=3, count=12):
        steps = h * np.eye(m.dim)
        fd_dg = np.stack([(m.g(x + e) - m.g(x - e)) / (2 * h) for e in steps])
        fd_d2g = np.stack([(m.dg(x + e) - m.dg(x - e)) / (2 * h) for e in steps])
        for fd, exact in ((fd_dg, m.dg(x)), (fd_d2g, m.d2g(x))):
            assert np.max(np.abs(fd - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_model_metrics_build_without_sympy():
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from rigidlab import cli, riemann as rm
        for build in (rm.euclidean, rm.poincare_disk, rm.sphere_stereographic, rm.bergman_ball):
            m = build()
            rm.christoffel_curvature(m, [0.1] * m.dim).sectional(*np.eye(m.dim)[:2])
        assert "sympy" not in sys.modules, "sympy was imported"
    """)
    src = str(Path(rm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("metric", _params(*MODELS, scaled=[rm.scale_metric(rm.bergman_ball(2), 2.0 / 3.0)]))
def test_stacked_oracles_match_single_point_calls(metric):
    # only g stacks; every other oracle takes one point
    xs = np.array(_chart_points(metric.dim, seed=11, count=25))
    want = np.stack([metric.g(x) for x in xs])
    got = metric.g(xs)
    assert got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= 1e-13 * np.max(np.abs(want)), f"{metric.name}: error {err:.2e}"


INVERSE_MODELS = _params(*MODELS, scaled=[rm.scale_metric(rm.poincare_disk(), 2.5)])


@pytest.mark.parametrize("metric", INVERSE_MODELS)
def test_closed_form_inverse(metric):
    eye = np.eye(metric.dim)
    for x in _chart_points(metric.dim, seed=5):
        assert np.max(np.abs(metric.ginv(x) @ metric.g(x) - eye)) <= 1e-13


@pytest.mark.parametrize("metric", _params(*MODELS, scaled=[rm.scale_metric(rm.bergman_ball(2), 2.5)]))
def test_min_eig_is_the_smallest_eigenvalue(metric):
    for x in _chart_points(metric.dim, seed=9, count=40):
        want = np.min(np.linalg.eigvalsh(metric.g(x)))
        assert abs(metric.min_eig(x) - want) <= 1e-13 * want, f"{metric.name} at {x}"


def _einsum_curvature(m, x):
    """``(gamma, dgamma, riem)`` by the per-index ``einsum`` formulas and
    ``np.linalg.inv``: the reference for ``christoffel_curvature``."""
    gx, dg, d2g = m.g(x), m.dg(x), m.d2g(x)
    ginv = np.linalg.inv(gx)
    term = np.einsum("ijm->mij", dg) + np.einsum("jim->mij", dg) - dg
    dterm = np.einsum("aijm->amij", d2g) + np.einsum("ajim->amij", d2g) - d2g
    gamma = 0.5 * np.einsum("km,mij->kij", ginv, term)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("akm,mij->akij", dginv, term)
                    + np.einsum("km,amij->akij", ginv, dterm))
    riem = (np.einsum("iljk->lijk", dgamma)
            - np.einsum("jlik->lijk", dgamma)
            + np.einsum("lim,mjk->lijk", gamma, gamma)
            - np.einsum("ljm,mik->lijk", gamma, gamma))
    return gamma, dgamma, riem


@pytest.mark.parametrize("metric", INVERSE_MODELS)
def test_curvature_kernel_matches_einsum_reference(metric):
    for i, x in enumerate(_chart_points(metric.dim, seed=17)):
        cd = rm.christoffel_curvature(metric, x)
        for name, got, want in zip(("gamma", "dgamma", "riem"),
                                   (cd.gamma, cd.dgamma, cd.riem), _einsum_curvature(metric, x)):
            assert got.shape == want.shape
            err = np.max(np.abs(got - want))
            assert err <= 1e-12 * np.max(np.abs(want)), f"{metric.name} {name} point {i}: {err:.2e}"
