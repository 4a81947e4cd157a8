"""Exception hierarchy shared by all linscat modules."""


class LinscatError(Exception):
    """Base class for all errors raised by linscat."""


class NonMonic(LinscatError):
    """Defining polynomial is not monic with integer coefficients."""


class Reducible(LinscatError):
    """Defining polynomial factors over the rationals."""


class FieldMismatch(LinscatError):
    """Operands belong to different number fields."""


class PrecisionExhausted(LinscatError):
    """A floating computation could not be decided at the requested
    precision, or a value is outside the float range."""


class UnsupportedRamification(LinscatError):
    """A prime dividing disc(min_poly) on a field of degree > 2; outside
    supported scope.  This includes unramified index divisors, such as 2
    in Dedekind's cubic field of x^3 + x^2 - 2x + 8."""


class OnSupport(LinscatError):
    """Point lies on the support of the divisor; the Weil function is
    undefined there."""


class ThresholdNotMet(LinscatError):
    """Weight total does not exceed n+1."""


class BadParameter(LinscatError):
    """Parameter outside its documented range."""


class SumCheckFailed(LinscatError):
    """Constructed scattering weights fail the exact sum condition
    (epsilon too large)."""


class GeneralPositionViolated(LinscatError):
    """Some (n+1)-subset of the supplied forms is linearly dependent."""


class BudgetExceeded(LinscatError):
    """Enumeration would exceed the configured output cap."""


class Infeasible(LinscatError):
    """No cover within the requested number of subspaces exists."""


class EmptyDelta(LinscatError):
    """The weighted lattice slice is empty; incompatible beta grid."""


class ConfigInvalid(LinscatError):
    """Experiment configuration failed validation."""
