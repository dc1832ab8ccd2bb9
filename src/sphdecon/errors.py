"""Exception types shared across the package.

The CLI maps these onto exit codes: InvalidArgumentError and config
validation problems exit with 2, I/O problems with 1, numerical
failures with 3.
"""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class IllConditionedError(ArithmeticError):
    """A linear solve is too ill-conditioned to trust; message carries the condition estimate."""


class NumericalError(ArithmeticError):
    """A numerical failure (NaN/Inf) was detected during computation."""
