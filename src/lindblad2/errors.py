"""Exception types shared across the package."""


class LindbladError(Exception):
    """Base class for all validation and computation errors in lindblad2."""


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


class NotPSDError(LindbladError):
    pass


class NotCPError(LindbladError):
    pass


class VerdictMismatchError(LindbladError):
    """The two mathematically equivalent CP checks disagreed: implementation bug."""


class BadStepError(LindbladError):
    pass


class NegativeTimeError(LindbladError):
    pass


class NegativeHorizonError(LindbladError):
    pass
