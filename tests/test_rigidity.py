import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import domain as dm
from rigidlab import rigidity as rg
from rigidlab import schwarz as sw
from rigidlab.domain import Cone
from rigidlab.errors import (ApexNotOnBoundary, ConeUncertified, ConfigInvalid, NotIsometry, PropertyBGFail,
                             SuiteSoundnessViolation)
from rigidlab.kahler import bergman_kahler, flat_kahler, poincare_kahler
from rigidlab.report import FORCES_IDENTITY, INCONCLUSIVE, PipelineReport

DISK = dm.disk()
BALL2 = dm.ball(2)

CONE_D = Cone(apex=np.array([1.0 + 0j]), direction=np.array([-1.0 + 0j]),
              aperture=math.pi / 3, length=0.5)
CONE_B = Cone(apex=np.array([1.0, 0.0], dtype=complex),
              direction=np.array([-1.0, 0.0], dtype=complex),
              aperture=math.pi / 3, length=0.5)
SHORT = 0.5 ** np.arange(2, 8, dtype=float)
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestConvexPipeline:
    def test_disk_identity(self):
        rep = rg.convex_pipeline(DISK, sw.identity_map(1), xi0=[1.0],
                                 schedule=sw.geometric_schedule(3, 10))
        assert rep.verdict == FORCES_IDENTITY
        assert rep.all_checks_pass
        assert all(row["composite"] == 0.0 for row in rep.rows)

    def test_ball_identity(self):
        rep = rg.convex_pipeline(BALL2, sw.identity_map(2), xi0=[1.0, 0.0],
                                 schedule=sw.geometric_schedule(3, 10))
        assert rep.verdict == FORCES_IDENTITY
        assert rep.fitted["C0"] <= 0.5 * math.log(2) + 1e-6
        assert abs(rep.fitted["residual_slope"]) < 0.02

    def test_ball_tiny_quartic(self):
        f = sw.ball_coordinate_contact(1e-9, 4, 2)
        rep = rg.convex_pipeline(BALL2, f, xi0=[1.0, 0.0],
                                 schedule=sw.geometric_schedule(3, 10))
        assert rep.verdict == FORCES_IDENTITY
        assert sw.interior_displacement(f, BALL2, samples=300) <= 1e-4

    def test_disk_extremal_inconclusive(self):
        rep = rg.convex_pipeline(DISK, sw.bk_extremal(), xi0=[1.0],
                                 schedule=sw.geometric_schedule(3, 10))
        assert rep.verdict == INCONCLUSIVE
        assert min(rep.column("composite")) > 1e-2

    def test_rows_hold(self):
        rep = rg.convex_pipeline(DISK, sw.cubic_contact(0.05), xi0=[1.0],
                                 schedule=sw.geometric_schedule(3, 9))
        assert rep.all_checks_pass

    def test_off_boundary_apex_keeps_its_error_type(self):
        with pytest.raises(ApexNotOnBoundary):
            rg.convex_pipeline(BALL2, sw.identity_map(2), xi0=[0.5, 0.0], schedule=SHORT)

    def test_eps_rate_reported(self):
        rep = rg.convex_pipeline(BALL2, sw.identity_map(2), xi0=[1.0, 0.0],
                                 schedule=sw.geometric_schedule(3, 10))
        assert rep.fitted["eps_exponent"] == pytest.approx(1.0, abs=1e-9)


class TestBiholoPipeline:
    def test_disk_identity(self):
        rep = rg.biholo_pipeline(DISK, sw.identity_map(1), poincare_kahler(),
                                 xi0=[1.0], cone=CONE_D, schedule=SHORT)
        assert rep.verdict == FORCES_IDENTITY
        assert rep.all_checks_pass

    def test_disk_rotation_inconclusive_offcenter(self):
        # z0 off the rotation axis so the measured displacement is visible
        rep = rg.biholo_pipeline(DISK, sw.rotation(1e-3), poincare_kahler(),
                                 xi0=[1.0], cone=CONE_D, schedule=SHORT, z0=[0.3])
        assert rep.verdict == INCONCLUSIVE
        assert rep.rows[0]["d_z0_phi_z0"] > 0
        assert rep.all_checks_pass  # the spread product still dominates

    def test_ball_identity(self):
        rep = rg.biholo_pipeline(BALL2, sw.identity_map(2), bergman_kahler(2),
                                 xi0=[1.0, 0.0], cone=CONE_B,
                                 schedule=0.5 ** np.arange(2, 6, dtype=float))
        assert rep.verdict == FORCES_IDENTITY

    def test_ball_automorphism_inconclusive(self):
        f = rg.near_identity_automorphism(2)
        rep = rg.biholo_pipeline(BALL2, f, bergman_kahler(2),
                                 xi0=[1.0, 0.0], cone=CONE_B,
                                 schedule=0.5 ** np.arange(2, 6, dtype=float), z0=[0.2, 0.1])
        assert rep.verdict == INCONCLUSIVE
        assert rep.rows[0]["d_z0_phi_z0"] > 0

    def test_threshold_report(self):
        rep = rg.biholo_pipeline(DISK, sw.identity_map(1), poincare_kahler(),
                                 xi0=[1.0], cone=CONE_D, schedule=SHORT)
        # normalized constants: poincare has kappa 1, A 2: L > 4d+2+A/sin(theta)
        assert rep.fitted["threshold_L"] == pytest.approx(
            4 + 2 + rep.fitted["A_eff"] / math.sin(math.pi / 3), rel=1e-9)

    def test_scaling_invariance_of_verdict(self):
        # the pipeline normalizes curvature, so scaling the metric is inert
        from rigidlab.kahler import KahlerField
        from rigidlab.riemann import scale_metric
        scaled = KahlerField(metric=scale_metric(poincare_kahler().metric, 3.7),
                             complex_dim=1, name="poincare-scaled", complete=True)
        rep1 = rg.biholo_pipeline(DISK, sw.rotation(1e-3), poincare_kahler(),
                                  xi0=[1.0], cone=CONE_D, schedule=SHORT, z0=[0.3])
        rep2 = rg.biholo_pipeline(DISK, sw.rotation(1e-3), scaled,
                                  xi0=[1.0], cone=CONE_D, schedule=SHORT, z0=[0.3])
        assert rep1.verdict == rep2.verdict
        for a, b in zip(rep1.column("spread_product"), rep2.column("spread_product")):
            assert a == pytest.approx(b, rel=1e-4)

    def test_non_isometry_rejected(self):
        with pytest.raises(NotIsometry):
            rg.biholo_pipeline(DISK, sw.power_map(2), poincare_kahler(),
                               xi0=[1.0], cone=CONE_D, schedule=SHORT)

    def test_incomplete_metric_rejected(self):
        # the flat metric has bounded geometry on the disk but is not complete there
        with pytest.raises(PropertyBGFail):
            rg.biholo_pipeline(DISK, sw.identity_map(1), flat_kahler(1),
                               xi0=[1.0], cone=CONE_D, schedule=SHORT)

    def test_bad_cone_rejected(self):
        wide = Cone(apex=np.array([1.0 + 0j]), direction=np.array([1.0 + 0j]),
                    aperture=math.pi / 4, length=0.3)
        with pytest.raises(ConeUncertified):
            rg.biholo_pipeline(DISK, sw.identity_map(1), poincare_kahler(),
                               xi0=[1.0], cone=wide, schedule=SHORT)


class TestImageTangent:
    @pytest.mark.parametrize("k, f, z0r", [
        (poincare_kahler(), sw.rotation(1e-3), [0.0, 0.3]),
        (bergman_kahler(2), sw.ball_automorphism(np.array([1e-3, 0.0])), [0.0, 0.0, 0.3, -0.1]),
    ], ids=["disk-rotation", "ball-automorphism"])
    def test_matches_a_central_difference_of_the_mapped_geodesic(self, k, f, z0r):
        m, action = k.metric, rg._chart_map(f)
        z0r = np.asarray(z0r)
        h = 1e-6
        for r_n in SHORT:
            pnr = np.zeros(m.dim)
            pnr[0] = 1.0 - r_n
            _, _, sampler = m.closed_geodesic(pnr, z0r)
            qdot = (action(sampler(h)) - action(sampler(-h))) / (2.0 * h)
            qdot = qdot / m.norm(action(pnr), qdot)
            Y = rg._image_tangent(m, action, pnr, z0r)
            assert np.array_equal(Y.x, action(pnr))
            assert np.max(np.abs(Y.vec - qdot)) <= 1e-8 * np.max(np.abs(qdot))


class TestSuite:
    def test_soundness_guard_fires(self):
        summary = rg.SuiteSummary()
        fake = sw.rotation(0.5)
        with pytest.raises(SuiteSoundnessViolation):
            rg._record(summary, "disk", fake, 0.5, FORCES_IDENTITY)

    def test_small_suite(self):
        # the acceptance module runs the full zoo; here a focused slice
        for f in (sw.identity_map(1), sw.bk_extremal()):
            disp = sw.interior_displacement(f, samples=200)
            rep = sw.disk_rigidity_pipeline(f, schedule=sw.geometric_schedule(3, 10))
            if f.name == "id":
                assert rep.verdict == FORCES_IDENTITY and disp == 0.0
            else:
                assert rep.verdict == INCONCLUSIVE and disp > 1e-4


def _report(values, failing_check=False):
    rep = PipelineReport(name="hand-built", columns=["n", "composite"])
    rep.rows = [{"n": i, "composite": v} for i, v in enumerate(values)]
    rep.add_check("row 0 holds", True)
    rep.add_check("row 1 holds", not failing_check)
    return rep


class TestVerdictRule:
    def test_decaying_tail_with_passing_checks_identifies(self):
        rep = _report([1.0, 0.1, 1e-6])
        assert rep.decide("composite", 1e-3) == FORCES_IDENTITY
        assert rep.verdict == FORCES_IDENTITY

    @pytest.mark.parametrize("values, failing_check, consistent", [
        ([1.0, 0.1, 1e-6], True, True),          # a row check failed
        ([1.0, 0.1, math.nan], False, True),     # non-finite tail
        ([1e-6, 1e-5, 2e-6], False, True),       # tail above the first row
        ([1.0, 0.1, 1e-3], False, True),         # tail at the threshold
        ([1.0, 0.1, math.inf], False, True),     # infinite tail
        ([1.0, 0.1, 1e-6], False, False),        # the pipeline's extra evidence failed
    ], ids=["failing-check", "nan-tail", "tail-above-first", "tail-at-threshold",
            "inf-tail", "inconsistent"])
    def test_inconclusive(self, values, failing_check, consistent):
        rep = _report(values, failing_check)
        assert rep.decide("composite", 1e-3, consistent=consistent) == INCONCLUSIVE
        assert rep.verdict == INCONCLUSIVE

    def test_every_convex_ball_identification_passes_its_checks(self):
        # the convex-ball slice of counterexample_suite: a failing row check
        # must never sit under forces-identity
        verdicts = []
        for f in rg.ball_zoo(2):
            rep = rg.convex_pipeline(BALL2, f, xi0=np.array([1.0, 0.0]),
                                     schedule=sw.geometric_schedule(3, 11))
            verdicts.append(rep.verdict)
            if rep.verdict == FORCES_IDENTITY:
                assert rep.all_checks_pass, (f.name, [c for c, ok in rep.checks if not ok])
        assert FORCES_IDENTITY in verdicts


class TestNonFiniteEntryPoints:
    """A non-finite ``xi0`` or ``z0`` fails at entry with ``ConfigInvalid``, not
    later as a misleading sampling or boundary-data error."""

    @settings(max_examples=12, deadline=None)
    @given(NONFINITE, st.booleans())
    def test_disk_pipeline(self, bad, imag):
        xi0 = complex(1.0, bad) if imag else complex(bad, 0.0)
        with pytest.raises(ConfigInvalid):
            sw.disk_rigidity_pipeline(sw.identity_map(), xi0=xi0)

    @settings(max_examples=30, deadline=None)
    @given(NONFINITE, st.sampled_from(["xi0", "z0"]), st.integers(0, 3))
    def test_convex_and_biholo_pipelines(self, bad, name, slot):
        point = np.array([1.0, 0.0], dtype=complex) if name == "xi0" else np.zeros(2, dtype=complex)
        point.view(float)[slot] = bad
        kwargs = {"xi0": [1.0, 0.0], name: point}
        with pytest.raises(ConfigInvalid):
            rg.convex_pipeline(BALL2, sw.identity_map(2), **kwargs)
        with pytest.raises(ConfigInvalid):
            rg.biholo_pipeline(BALL2, sw.identity_map(2), bergman_kahler(2), cone=CONE_B, **kwargs)
