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

    Raised by each certificate that fails: a root bracket without a sign
    change, or a root's one-attempt directed squares or first-root proof
    (`zeros`, at the first grid margin, never retried on a wider one); the
    proof that a later zero is the k-th or that a refined zero changes sign
    (`zeros.next_bessel_zero`, `montecarlo._refined_zero`); an exit-time
    table's step or error bound (`montecarlo._fixed_point_table`); a
    Clopper-Pearson limit that does not converge; and a tail estimate that
    fails its own checks (`TailEstimate`).
    """


class FiniteHorizonConstraintError(InfeasibleParameterError):
    """The finite-horizon bound's denominator is not positive.

    The four-parameter bound divides by 1 - V(delta, d) * exp(-(1-delta-r)*b);
    the weight V(delta, d) * exp(-(1-delta-r)*b) must be strictly below 1 for
    the inequality to be usable. Larger b or smaller delta restores positivity.
    """
