"""Exception and warning types shared across the package."""


class TruncationWarning(UserWarning):
    """Emitted when a constructed state leaves more probability mass above
    the Fock cutoff than the package's tail tolerance, fock.TAIL_TOL, allows.

    Carries the measured tail mass in the message so sweep drivers can count
    and report suspect points without aborting.
    """


class DegeneratePostSelectionError(ValueError):
    """Raised when a post-selection succeeds with probability numerically
    indistinguishable from zero, so no conditional state exists."""


class NumericalRangeError(ArithmeticError):
    """Raised when a requested evaluation leaves the numerically validated
    range of the truncated basis (displacements pushing mass past the
    cutoff, finite-difference steps dominated by cancellation, ...)."""
