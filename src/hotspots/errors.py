"""Exception hierarchy for the hotspots package."""


class HotspotsError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleParameterError(HotspotsError):
    """A parameter combination lies outside its mathematical domain.

    Examples: a ratio bound >= 1, epsilon outside (0, 1], an asymptotic
    dimension whose epsilon_d is not below 1 - 4/d.
    """


class AccuracyError(HotspotsError):
    """A computed quantity could not be certified (CLI exit code 4).

    Raised when a root search finds no sign change, or when the exact-sign
    certificate of a root's directed squares still fails after its bracket
    has been widened the allowed number of times.
    """


class FiniteHorizonConstraintError(InfeasibleParameterError):
    """The finite-horizon bound's denominator is not positive.

    The four-parameter bound divides by 1 - V(delta, d) * exp(-(1-delta-r)*b);
    the weight V(delta, d) * exp(-(1-delta-r)*b) must be strictly below 1 for
    the inequality to be usable. Larger b or smaller delta restores positivity.
    """
