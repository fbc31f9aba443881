"""Exception hierarchy shared by all levyflow modules."""


class LevyflowError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LevyflowError):
    pass


class UnsupportedMeasure(LevyflowError):
    pass


class EmptyGrid(LevyflowError):
    pass


class ExponentOutOfRange(LevyflowError):
    pass


class GridMismatch(LevyflowError):
    pass


class SolverDiverged(LevyflowError):
    """A solve failed; ``row`` is the failing system's row in its stack, 0
    where the error names none."""

    def __init__(self, message="", row=0):
        super().__init__(message)
        self.row = row


class ConfigInvalid(LevyflowError):
    pass


class InvariantViolation(LevyflowError):
    """A runtime invariant was broken; the message names the invariant."""


class EnsembleSampleError(LevyflowError):
    """A Monte Carlo sample failed; carries the seed needed to replay it."""

    def __init__(self, base_seed, sample_index, cause):
        self.base_seed = base_seed
        self.sample_index = sample_index
        self.cause = cause
        super().__init__(
            f"sample {sample_index} failed (base_seed={base_seed}, "
            f"stream_index={sample_index}): {type(cause).__name__}: {cause}"
        )
