"""Exception types, mapped to CLI exit codes by sfwmlab.cli."""


class ConfigError(ValueError):
    """Invalid configuration: bad value, bad schema, or inconsistent fields."""

    exit_code = 2


class FieldError(ConfigError):
    """A field of a domain object is out of range.  ``field`` names it, so a
    document loader can name the key the value was read from; ``index``, if
    given, is the entry of a tabulated field at fault, and ``value`` is that
    entry."""

    def __init__(self, field: str, requirement: str, value, index: int | None = None):
        super().__init__(f"{requirement}, got {value!r}")
        self.field = field
        self.requirement = requirement
        self.index = index


class InconsistentMeasurementError(ValueError):
    """A calibration input violates a bound implied by the model."""

    exit_code = 3


class NumericsError(RuntimeError):
    """A numerical procedure could not produce a result."""

    exit_code = 4


class ExtrapolationError(NumericsError):
    """A lookup fell outside the tabulated domain; no silent extrapolation."""


class PowerSolveError(NumericsError):
    """The requested operating point is unreachable on the monotone branch."""
