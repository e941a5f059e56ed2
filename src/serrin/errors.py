"""Exception types shared across the toolkit."""


class SerrinError(Exception):
    """Base class for all toolkit-specific failures.

    ``exit_code`` is the command-line exit status for the failure: 4 for a
    numerical failure (the default), 2 for invalid input or configuration,
    3 for data in the unproven regime.
    """

    exit_code = 4


class InvalidInputError(SerrinError, ValueError):
    """Arguments are malformed (non-finite, wrong sign, wrong shape)."""

    exit_code = 2


class InvalidDomainError(SerrinError, ValueError):
    """A curve or domain violates a geometric precondition."""

    exit_code = 2


class ConfigError(SerrinError, ValueError):
    """A scenario configuration file is malformed."""

    exit_code = 2


class UnsupportedRegimeError(SerrinError, ValueError):
    """Boundary data falls outside the regimes the model fitter covers.

    Carries the classification tag (a ``ProblemCase``), whose ``exit_code``
    tells the unproven decreasing regime from outright inadmissible data.
    """

    def __init__(self, message, case):
        super().__init__(message)
        self.case = case

    @property
    def exit_code(self):
        return self.case.exit_code


class RootBracketError(SerrinError, RuntimeError):
    """The compatibility root could not be bracketed or resolved to the fit tolerance."""


class OutOfRangeError(SerrinError, ValueError):
    """A value lies outside the range the inverse map is defined on."""


class SingularEvaluationError(SerrinError, ValueError):
    """Evaluation was requested inside a singular neighbourhood."""


class InconsistentModelError(SerrinError, ValueError):
    """Field values or derived quantities contradict the fitted model."""


class SolverFailureError(SerrinError, RuntimeError):
    """The linear solver did not meet its residual contract.

    ``residuals`` holds the relative residual history that was observed.
    """

    def __init__(self, message, residuals=()):
        super().__init__(message)
        self.residuals = list(residuals)
