import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import schwarz as sw
from rigidlab import cli, domain as dm
from rigidlab.errors import CoincidentAnchors, NotSelfMap, SamplingEmpty
from rigidlab.kobayashi import disk_distance
from rigidlab.report import FORCES_IDENTITY, INCONCLUSIVE
from rigidlab.rigidity import ball_zoo


@pytest.fixture(scope="module")
def zoo():
    return sw.disk_zoo()


class TestCertification:
    def test_blaschke_maps_certify(self):
        for f in (sw.identity_map(), sw.power_map(2), sw.bk_extremal(),
                  sw.cubic_contact(0.25), sw.halfplane_contact(0.1, 1.0)):
            assert sw.certify_self_map(f).passed

    def test_large_quartic_fails(self):
        # no self-map has contact beyond cubic order at the boundary, so the
        # quartic family only certifies at coefficients inside the margin
        cert = sw.certify_self_map(sw.poly_contact(1e-3, 4))
        assert not cert.passed
        assert cert.max_excess > 1e-5

    def test_tiny_quartic_passes(self):
        cert = sw.certify_self_map(sw.poly_contact(1e-9, 4))
        assert cert.passed

    def test_require_self_map_raises(self):
        with pytest.raises(NotSelfMap):
            sw.require_self_map(sw.poly_contact(1e-3, 4))

    @pytest.mark.parametrize("dom", [dm.ellipsoid((1, 2)),
                                     dm.modulus_polynomial([(1.0, (1, 0)), (1.0, (0, 2)), (0.5, (1, 1))], 2)],
                             ids=["ellipsoid", "modulus-polynomial"])
    def test_generic_domains_certify_without_projections(self, dom, monkeypatch):
        # the boundary samples are ray exits from the center, not nearest points
        calls = []
        original = dom.project_to_boundary
        monkeypatch.setattr(dom, "project_to_boundary", lambda z: calls.append(z) or original(z))
        cert = sw.certify_self_map(sw.identity_map(2), dom)
        assert cert.passed and cert.samples == sw.CERT_SAMPLES
        assert -2.1e-6 < cert.max_excess < -1.9e-6
        scaled = sw.certify_self_map(sw.HoloMap(lambda z: 1.01 * z, 2, "scale"), dom)
        assert not scaled.passed and scaled.max_excess > 0.04
        assert calls == []

    def test_a_certificate_on_one_domain_does_not_pass_a_map_on_another(self):
        # a 45 degree rotation mixing the coordinates keeps ball(2) but not the
        # bidisk; a certificate made on the ball was once reused on the bidisk,
        # where the pipeline ran to a verdict with disp_sup 4.43
        c = math.sqrt(0.5)
        f = sw.unitary_map(np.array([[c, -c], [c, c]]))
        assert sw.certify_self_map(f, dm.ball(2)).passed
        with pytest.raises(NotSelfMap):
            sw.convex_pipeline(dm.polydisk(2), f, [1.0, 0.0])

    def test_every_zoo_map_certifies_on_its_domain(self):
        # the zoos filter nothing, so a map that failed would raise in its verdict
        for maps, dom in ((sw.disk_zoo(), dm.disk()), (ball_zoo(2), dm.ball(2))):
            assert all(sw.certify_self_map(f, dom).passed for f in maps)
        assert (len(sw.disk_zoo()), len(ball_zoo(2))) == (13, 5)

    def test_cubic_contact_is_exact_self_map(self):
        # |z - c (z-1)^3| <= 1 on the circle for c <= 1/4 (explicit algebra)
        f = sw.cubic_contact(0.25)
        theta = np.linspace(0, 2 * math.pi, 2000)
        vals = np.abs([f.func(complex(z)) for z in np.exp(1j * theta)])
        assert vals.max() <= 1 + 1e-12


class TestCSBound:
    def test_identity_trivial(self):
        chk = sw.cs_bound_check(sw.identity_map(), 0.2, -0.3, 0.5)
        assert chk.lhs == 0.0 and chk.passed

    def test_constant_value(self):
        # a = 0, K(a, b) = 1, z = a gives C = e^4 / 2; f(0) = 0 leaves C K(f(b), b)
        b = math.tanh(1.0)
        chk = sw.cs_bound_check(sw.power_map(2), 0.0, b, 0.0)
        assert chk.rhs == pytest.approx(math.exp(4) / 2 * disk_distance(b**2, b), rel=1e-12)

    def test_square_map_example(self):
        chk = sw.cs_bound_check(sw.power_map(2), 0.2, -0.3, 0.5)
        assert chk.passed

    def test_coincident_anchors(self):
        with pytest.raises(CoincidentAnchors):
            sw.cs_bound_check(sw.identity_map(), 0.2, 0.2, 0.0)

    def test_zoo_sweep(self, zoo):
        rng = np.random.default_rng(17)
        count = 0
        while count < 200:
            f = zoo[rng.integers(len(zoo))]
            a, b, z = (0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                       for _ in range(3))
            if disk_distance(a, b) < 1e-3:
                continue
            count += 1
            assert sw.cs_bound_check(f, a, b, z).passed


def _loglog_slope(em) -> float:
    """The fitted log-log slope of an error modulus's envelope."""
    pos = em.values > 0
    return float(np.polyfit(np.log(em.radii[pos]), np.log(em.values[pos]), 1)[0])


class TestErrorModulus:
    def test_identity_zero(self):
        em = sw.error_modulus(sw.identity_map(), 1.0, np.geomspace(1e-3, 0.3, 8))
        assert np.all(em.values == 0)

    def test_cubic_slope(self):
        em = sw.error_modulus(sw.poly_contact(1e-2, 3), 1.0, np.geomspace(1e-3, 0.3, 12))
        assert _loglog_slope(em) == pytest.approx(3.0, abs=0.1)

    def test_rotation_slope_flat(self):
        # |f(z) - z| = |e^{i theta} - 1||z| is nearly constant near the
        # boundary point, so the log-log slope vanishes
        em = sw.error_modulus(sw.rotation(math.pi / 100), 1.0, np.geomspace(1e-3, 0.3, 12))
        assert abs(_loglog_slope(em)) < 0.1
        assert em.values[-1] == pytest.approx(abs(np.exp(1j * math.pi / 100) - 1), rel=0.05)

    def test_monotone_envelope(self):
        em = sw.error_modulus(sw.bk_extremal(), 1.0, np.geomspace(1e-3, 0.5, 15))
        assert np.all(np.diff(em.values) >= 0)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.01, 0.24))
    def test_envelope_monotone_for_cubics(self, c):
        em = sw.error_modulus(sw.cubic_contact(c), 1.0, np.geomspace(1e-2, 0.4, 6))
        assert np.all(np.diff(em.values) >= 0)


class TestQuantIdTerm:
    """The quantitative-identity term is the ``composite`` column of the disk
    entry of the convex pipeline."""

    def test_quartic_probe_decreases(self):
        # a quartic small enough to certify; its composite falls until it rounds to 0
        f = sw.poly_contact(1e-6, 4)
        comp = sw.disk_rigidity_pipeline(f).column("composite")
        assert comp[0] > 0 and comp[-1] == 0
        assert all(a > b or a == b == 0 for a, b in zip(comp, comp[1:]))

    def test_rotation_diverges(self):
        comp = sw.disk_rigidity_pipeline(sw.rotation(1e-2)).column("composite")
        assert all(a < b for a, b in zip(comp, comp[1:]))
        assert comp[-1] > 1e2


class TestDiskPipeline:
    def test_identity_forces(self):
        rep = sw.disk_rigidity_pipeline(sw.identity_map())
        assert rep.verdict == FORCES_IDENTITY
        assert rep.all_checks_pass
        assert all(row["composite"] == 0 for row in rep.rows)

    def test_uniform_eps_floor(self):
        rep = sw.disk_rigidity_pipeline(sw.identity_map())
        assert min(rep.column("eps_n")) == 0.1

    def test_tiny_quartic_forces(self):
        rep = sw.disk_rigidity_pipeline(sw.poly_contact(1e-9, 4))
        assert rep.verdict == FORCES_IDENTITY
        assert sw.interior_displacement(sw.poly_contact(1e-9, 4)) < 1e-4

    def test_extremal_inconclusive(self):
        rep = sw.disk_rigidity_pipeline(sw.bk_extremal())
        assert rep.verdict == INCONCLUSIVE
        comp = rep.column("composite")
        assert min(comp) > 1e-2  # bounded away from the identification threshold

    def test_rows_satisfy_half_log_bound(self):
        # at the center, C0 = 0.5 log 2 in closed form, so the K row check is
        # K(0, p_n) = atanh(1 - r_n) <= 0.5 log(2/r_n)
        for rep in (sw.disk_rigidity_pipeline(sw.cubic_contact(0.05)),
                    sw.convex_pipeline(dm.ball(2), sw.identity_map(2), [1.0, 0.0])):
            assert rep.fitted["C0"] == 0.5 * math.log(2)
            for row in rep.rows:
                assert row["K_z0_pn_bound"] == pytest.approx(0.5 * math.log(2 / row["r_n"]), rel=1e-15)
                assert row["K_z0_pn"] <= row["K_z0_pn_bound"]
            assert rep.all_checks_pass

    @pytest.mark.parametrize("u", [[1.0, 0.0], [math.cos(0.7), math.sin(0.7) * np.exp(0.3j)]],
                             ids=["axis", "off-axis"])
    def test_k_row_check_is_live_off_the_model_balls(self, monkeypatch, u):
        # on ellipsoid((1, 2)), C0 = 0.5 log(2/c) with c = (1 - h(p_0))/r_0 - eta/r_min
        # for the gauge h(z) = sqrt((a + sqrt(a^2 + 4b))/2), a = |z1|^2, b = |z2|^4
        def gauge(z):
            a, b = abs(z[0]) ** 2, abs(z[1]) ** 4
            return math.sqrt((a + math.sqrt(a * a + 4 * b)) / 2)

        dom, f, schedule = dm.ellipsoid((1, 2)), sw.identity_map(2), sw.geometric_schedule(3, 6)
        xi = np.asarray(u, dtype=complex) / gauge(u)
        bd = dm.boundary_data(dom, xi, tol=1e-9)
        c = (1 - gauge(bd.point + schedule[0] * bd.inward_normal)) / schedule[0] \
            - max(0.0, gauge(bd.point) - 1) / schedule[-1]
        rep = sw.convex_pipeline(dom, f, xi, schedule)
        assert rep.fitted["C0"] == pytest.approx(0.5 * math.log(2 / c), rel=1e-12, abs=0)
        assert rep.fitted["residual_slope"] < 0.02
        assert rep.all_checks_pass and rep.notes == []
        # the check compares K with that bound, so a K above it fails the check
        real = sw.dist_uppers
        monkeypatch.setattr(sw, "dist_uppers", lambda dom, zs, ws: real(dom, zs, ws) + 0.01)
        raised = dict(sw.convex_pipeline(dom, f, xi, schedule).checks)
        assert raised["K(z0,p_0) <= C0 + 0.5 log(1/r_n)"]
        assert not raised["K(z0,p_3) <= C0 + 0.5 log(1/r_n)"]

    def test_c0_is_infinite_when_the_gauge_gives_no_slope(self):
        # xi is 4e-10 outside the polydisk, within the on-boundary tolerance: then
        # c = (1 - h(p_0))/r_0 - eta/r_min = 0.5/0.9 - 4e-10/5.6e-10 < 0, C0 = inf
        rep = sw.convex_pipeline(dm.polydisk(2), sw.identity_map(2), [1 + 4e-10, 0.5], [0.9, 5.6e-10])
        assert rep.fitted["C0"] == math.inf
        assert not any(ok for name, ok in rep.checks if name.startswith(("K(z0", "e4K")))
        assert rep.verdict == INCONCLUSIVE

    def test_c0_when_the_first_radius_reaches_the_center(self):
        # on 4|z1|^2 + |z2|^2 < 1 at (1/2, 0), r_0 = 1/2 puts p_0 at the center:
        # h(p_0) = 0, c = (1 - 0)/r_0 = 2 and C0 = 0.5 log(2/c) = 0
        dom = dm.modulus_polynomial([(4.0, (1, 0)), (1.0, (0, 1))], 2)
        rep = sw.convex_pipeline(dom, sw.identity_map(2), [0.5, 0], [0.5, 0.25])
        assert rep.fitted["C0"] == 0.0
        assert rep.all_checks_pass

    def test_uncertified_map_rejected(self):
        with pytest.raises(NotSelfMap):
            sw.disk_rigidity_pipeline(sw.poly_contact(1e-3, 4))

    def test_certified_quartic_probe_runs(self):
        # a quartic a thousand times the tiny one still certifies and runs the cascade
        f = sw.poly_contact(1e-6, 4)
        rep = sw.disk_rigidity_pipeline(f, schedule=sw.geometric_schedule(3, 10))
        assert rep.verdict == FORCES_IDENTITY

    def test_zoo_displacements(self, zoo):
        # every non-identity zoo map moves some sampled interior point visibly
        for f in zoo:
            disp = sw.interior_displacement(f, samples=200)
            if f.name in ("id", "poly_contact(1e-09,4)"):
                assert disp <= 1e-4
            else:
                assert disp > 1e-4

    def test_displacement_of_a_domain_that_misses_its_sample_ball_raises(self):
        # the disk of radius 1e-3 is about 1e-6 of B(0, 0.95): 50,000 candidates miss it
        tiny = dm.modulus_polynomial([(1e6, [1])], 1)
        with pytest.raises(SamplingEmpty, match="0 of 1000 points"):
            sw.interior_displacement(sw.identity_map(), tiny)


# every name cli.map_from_config accepts, in the dimension it is used in
CONFIG_MAPS = [
    ({"name": "id"}, 1), ({"name": "id"}, 2),
    ({"name": "rotation", "theta": 0.3}, 1),
    ({"name": "mobius", "a": [0.2, -0.1]}, 1),
    ({"name": "power", "p": 3}, 1),
    ({"name": "blaschke", "zeros": [0.4, [-0.3, 0.2]]}, 1),
    ({"name": "cubic_contact", "c": 0.1}, 1),
    ({"name": "bk_extremal"}, 1),
    ({"name": "halfplane_contact", "c": 0.1, "beta": 0.5}, 1),
    ({"name": "poly_contact", "c": 1e-3, "m": 4}, 1),
    ({"name": "unitary_rotation", "theta": 0.3}, 2),
    ({"name": "ball_automorphism", "a": [0.2, 0.1]}, 2),
    ({"name": "ball_contact", "c": 1e-3, "m": 4}, 2),
]


def _all_maps():
    maps = sw.disk_zoo() + ball_zoo(2)
    return maps + [cli.map_from_config(cfg, d) for cfg, d in CONFIG_MAPS]


@pytest.mark.parametrize("f", _all_maps(), ids=lambda f: f"{f.name}-C{f.dimension}")
def test_stacked_evaluation_matches_pointwise(f):
    zs = dm.sample_ball(dm.ball(f.dimension), np.zeros(f.dimension), 0.95, 64, np.random.default_rng(5))
    stacked = f.many(zs)
    assert stacked.shape == zs.shape
    # a map of C also against its func on Python scalars, which share no numpy loop with the stack
    rows = np.array([[f.func(complex(z[0]))] if f.dimension == 1 else f(z) for z in zs])
    assert np.all(np.linalg.norm(stacked - rows, axis=1) <= 1e-14 * np.linalg.norm(rows, axis=1))


def test_call_rejects_a_point_of_the_wrong_shape():
    with pytest.raises(ValueError):
        sw.power_map(2)(np.array([0.5, 0.9]))
    with pytest.raises(ValueError):
        sw.unitary_map(np.eye(2))(np.zeros(3))
