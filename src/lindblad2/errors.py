"""Exception types shared across the package."""


class LindbladError(Exception):
    """Base class for all validation and computation errors in lindblad2."""


class BadValueError(LindbladError, ValueError):
    """A NaN, infinite or misshapen rate or field, or a rate that is not positive."""


class NotHermitianError(LindbladError):
    pass


class BadTraceError(LindbladError):
    pass


class BlochOutOfBallError(LindbladError):
    pass


class NotUnitError(LindbladError):
    pass


class NotSymmetricError(LindbladError):
    pass


class NotCPError(LindbladError):
    pass


NotPSDError = NotCPError


class VerdictMismatchError(LindbladError):
    """A CP route's inequalities disagreed with the smallest eigenvalue of M:
    implementation bug."""


class BadStepError(LindbladError):
    pass


class StepSizeError(BadStepError):
    """dt is too large for the generator: one RK4 step is not finite or grows
    states, where the exact flow of a CP generator does not.

    ``reason`` says how much the step grows. The message names the ``dt``
    parameter; the CLI names its own flags.
    """

    def __init__(self, reason: str):
        super().__init__(f"{reason}; use a smaller dt")
        self.reason = reason


class NegativeTimeError(LindbladError):
    pass


class NegativeHorizonError(LindbladError):
    pass
