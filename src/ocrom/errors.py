"""Exception hierarchy shared across the package.

Each class carries the exit code the command-line interface returns for it
as ``exit_code``: 2 when the input (config, mesh, artifact or parameter) is
at fault, 3 for a solver failure, 4 for an I/O error.
"""


class OcromError(Exception):
    """Base class for all package-specific errors; a solver failure unless
    a subclass says otherwise."""

    exit_code = 3


class InputError(OcromError):
    """The input (config, mesh, artifact or parameter) is at fault."""

    exit_code = 2


class DimensionMismatch(InputError):
    pass


class SingularMatrix(OcromError):
    pass


class NotSymmetric(OcromError):
    pass


class ConvergenceFailure(OcromError):
    pass


class ParseError(InputError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(OcromError):
    pass


class DegenerateGeometry(InputError):
    pass


class NonIntersectingBranches(InputError):
    pass


class UnknownTag(InputError):
    pass


class ParameterOutOfDomain(InputError):
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


class ConfigError(InputError):
    pass


class IoError(OcromError):
    exit_code = 4


class MissingArtifact(IoError):
    pass
