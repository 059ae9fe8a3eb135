"""Exception hierarchy shared across the package."""


class OcromError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OcromError):
    pass


class SingularMatrix(OcromError):
    pass


class NotSymmetric(OcromError):
    pass


class ConvergenceFailure(OcromError):
    pass


class ParseError(OcromError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(OcromError):
    pass


class DegenerateGeometry(OcromError):
    pass


class NonIntersectingBranches(OcromError):
    pass


class UnknownTag(OcromError):
    pass


class ParameterOutOfDomain(OcromError):
    pass


class NewtonDiverged(OcromError):
    """A Newton loop stopped without converging.

    ``residual_norms`` holds the residual norm at the starting point and
    after every step taken, in order.
    """

    def __init__(self, message, residual_norms=()):
        super().__init__(message)
        self.residual_norms = [float(r) for r in residual_norms]


class AllSnapshotsFailed(OcromError):
    pass


class RankDeficiency(Warning):
    """Snapshot set has lower numerical rank than the requested mode count."""


class ConfigError(OcromError):
    pass


class MissingArtifact(OcromError):
    pass


class IoError(OcromError):
    pass
