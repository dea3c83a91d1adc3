"""Exception types shared across the library."""


class OrbkError(Exception):
    """Base class for all library errors.

    field, when set, names the argument at fault (m for a degree), as the
    command line names its parameters.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class ParameterError(OrbkError, ValueError):
    """An argument outside the domain of the function it was passed to."""


class ModelSpecError(OrbkError):
    """Invalid or inconsistent model/group specification."""


class IllConditionedBasisError(OrbkError):
    """Gram matrix condition number exceeds the safe threshold."""


class NoiseFloorError(OrbkError):
    """Residuals are below the noise floor; no decay rate can be fitted.

    This is a structured outcome, not a failure: it occurs e.g. on the
    quotient sphere at r = 1 where the oscillatory term vanishes exactly.
    """


class UnsupportedModelError(OrbkError):
    """Operation not defined for this model kind."""


class QuadratureError(OrbkError):
    """Non-finite samples or failed convergence in numerical integration."""
