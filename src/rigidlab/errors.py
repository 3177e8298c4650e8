"""Exception types shared across the laboratory."""


class RigidLabError(Exception):
    """Base class for all laboratory errors."""


# -- domain geometry ---------------------------------------------------------

class PointOutsideDomain(RigidLabError):
    pass


class DegenerateGradient(RigidLabError):
    pass


class ApexNotOnBoundary(RigidLabError):
    pass


class NotConvex(RigidLabError):
    pass


# -- invariant-metric estimators ---------------------------------------------

class RadiusTooLarge(RigidLabError):
    pass


class CoincidentPoints(RigidLabError):
    pass


class CoincidentAnchors(RigidLabError):
    pass


class NumericDefectTooLarge(RigidLabError):
    pass


class NoConvergence(RigidLabError):
    pass


class SamplingEmpty(RigidLabError):
    pass


class NotSelfMap(RigidLabError):
    pass


# -- Riemannian engine --------------------------------------------------------

class SingularMetric(RigidLabError):
    pass


class LeftChart(RigidLabError):
    pass


class StepTooLarge(RigidLabError):
    pass


class ShootingDiverged(RigidLabError):
    pass


class NotUnit(RigidLabError):
    pass


class EpsilonTooLarge(RigidLabError):
    pass


class ZeroVector(RigidLabError):
    pass


class PositiveCurvatureUnsupported(RigidLabError):
    pass


class RadiusOutOfRange(RigidLabError):
    pass


# -- pipelines ----------------------------------------------------------------

class NotIsometry(RigidLabError):
    pass


class PropertyBGFail(RigidLabError):
    pass


class ConeUncertified(RigidLabError):
    pass


class SuiteSoundnessViolation(RigidLabError):
    pass


# -- CLI / plumbing -----------------------------------------------------------

class ConfigInvalid(RigidLabError):
    pass


class IoFailure(RigidLabError):
    pass
