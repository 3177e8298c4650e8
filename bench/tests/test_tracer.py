"""The outside-in tracer: call counts on bergman-ball-2, import sites, restore."""

import math

import numpy as np
import pytest

import rigidlab.cli  # noqa: F401  (imports every layer, so every binding site exists)
from rigidlab import cgeo, domain, kahler, kobayashi, riemann, rigidity, schwarz
from rigidlab.errors import ApexNotOnBoundary

from bench import tracer as tr

BERGMAN = "bergman-ball-2"


@pytest.fixture(scope="module")
def bergman():
    return riemann.bergman_ball(2)


def _start(bergman):
    x = np.array([0.1, -0.05, 0.2, 0.0])
    return riemann.TangentPoint.of(x, bergman.unit(x, np.array([1.0, 0.3, -0.2, 0.5])))


def _traced(metrics, call):
    t = tr.Tracer()
    t.install(metrics)
    try:
        call()
    finally:
        t.restore()
    return t


def test_geodesic_flow_calls_christoffel_and_dg_four_times_per_step(bergman):
    steps, start = 25, _start(bergman)
    t = _traced([bergman], lambda: riemann.geodesic_flow(bergman, start, steps * 1e-2, step=1e-2))
    assert t.calls("riemann.geodesic_flow") == 1
    assert t.calls("riemann.christoffel") == 4 * steps
    assert t.calls(f"riemann.dg.{BERGMAN}") == 4 * steps
    assert t.calls(f"riemann.d2g.{BERGMAN}") == 0


@pytest.mark.parametrize("batch", [1, 10])
def test_jacobi_flow_counts_include_the_duplicate_geodesic_pass(bergman, batch):
    rng = np.random.default_rng(batch)
    J0, W0 = rng.standard_normal((2, batch, 4))
    start = _start(bergman)
    t = _traced([bergman], lambda: riemann.jacobi_flow(bergman, start, 1.5, J0, W0, step=1.5 / 200))
    # 4 RK stages x 200 steps + 17 curvature probes; the 800 christoffel calls
    # are jacobi_flow integrating its own geodesic a second time
    assert t.calls("riemann.christoffel_curvature") == 817
    assert t.calls(f"riemann.d2g.{BERGMAN}") == 817
    assert t.calls("riemann.christoffel") == 800
    assert t.calls("riemann.geodesic_flow") == 1


def test_biholo_pipeline_tangent_distances_are_seen_through_rigidity_import():
    cone = domain.Cone(apex=np.array([1.0 + 0j]), direction=np.array([-1.0 + 0j]),
                       aperture=math.pi / 3, length=0.5)
    k = kahler.poincare_kahler()
    t = _traced([k.metric], lambda: rigidity.biholo_pipeline(
        domain.disk(), schwarz.rotation(1e-3), k, xi0=[1.0], cone=cone,
        schedule=0.5 ** np.arange(2, 5, dtype=float)))
    assert t.calls("rigidity.biholo_pipeline") == 1
    assert t.calls("riemann.tangent_distances") == 3
    assert t.calls("kahler.property_bg_estimate") == 1
    assert t.calls("riemann.christoffel") > 0


def test_spans_nest_and_self_time_excludes_children(bergman):
    x = _start(bergman).x
    t = _traced([bergman], lambda: riemann.christoffel_curvature(bergman, x))
    spans = [s for s in t.spans if s is not None]
    outer = [i for i, s in enumerate(spans) if s[0] == "riemann.christoffel_curvature"]
    assert len(outer) == 1
    children = [s for s in spans if s[3] == outer[0]]
    assert {s[0] for s in children} == {f"riemann.{o}.{BERGMAN}" for o in ("g", "dg", "d2g")}
    name, start, end, _, _ = spans[outer[0]]
    table = t.layer_table()
    child_time = sum(s[2] - s[1] for s in children)
    assert table["riemann.christoffel_curvature.self_s"] == pytest.approx(end - start - child_time)
    assert t.covered == pytest.approx(end - start)


def test_errors_are_counted_even_when_a_caller_swallows_them():
    ell = domain.ellipsoid((1, 2))
    t = _traced([], lambda: kobayashi.supporting_halfplanes(ell, np.array([0.5, 0.3])))
    table = t.layer_table()
    assert table["kobayashi.supporting_halfplanes.calls"] == 1
    assert table["kobayashi.supporting_halfplanes.planes"] > 0
    assert table["domain.project_to_boundary.calls"] > 0

    def swallowed():
        try:
            domain.boundary_data(ell, np.array([0.1, 0.1]))
        except ApexNotOnBoundary:
            pass

    t = _traced([], swallowed)
    assert t.layer_table()["domain.boundary_data.errors"] == 1


def test_restore_puts_every_binding_back(bergman):
    modules = tr._rigidlab_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    methods = {cls: vars(cls).get("project_to_boundary") for cls in tr._subclasses(domain.Domain)}
    oracles = {o: getattr(bergman, o) for o in tr.ORACLES}

    transport, boundary = riemann.tangent_distances, domain.boundary_data

    t = tr.Tracer()
    t.install([bergman])
    assert rigidity.tangent_distances.__wrapped__ is transport
    assert kobayashi.boundary_data is cgeo.boundary_data is domain.boundary_data is not boundary
    assert bergman.dg is not oracles["dg"]
    t.restore()

    for name, mod in modules.items():
        after = vars(mod)
        assert all(after[k] is v for k, v in before[name].items()), name
    assert all(vars(cls).get("project_to_boundary") is m for cls, m in methods.items())
    assert all(getattr(bergman, o) is f for o, f in oracles.items())


def test_a_deleted_target_is_reported_missing_instead_of_crashing(monkeypatch):
    monkeypatch.setitem(tr.FUNCTION_TARGETS, "riemann", tr.FUNCTION_TARGETS["riemann"] + ("exp_map_gone",))
    t = _traced([], lambda: riemann.christoffel(riemann.euclidean(2), np.zeros(2)))
    assert t.missing == ["riemann.exp_map_gone"]
    assert t.calls("riemann.christoffel") == 1


def test_layer_metric_names_are_unique_and_well_formed():
    names = [n for n, _ in tr.layer_metric_names()]
    assert len(names) == len(set(names)) <= 128
    assert all(len(n) <= 64 for n in names)
