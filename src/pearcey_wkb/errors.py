"""Exception hierarchy.

Two broad classes matter to callers (and to the CLI exit-code contract):
``ValidationError`` for inputs that violate a precondition, and
``NumericError`` for computations that start out well-posed but fail or
degenerate along the way.
"""


class PearceyError(Exception):
    """Base class for all package errors."""


class ValidationError(PearceyError):
    """Invalid input or precondition violation (CLI exit code 2)."""


class NumericError(PearceyError):
    """Numerical failure during an otherwise valid computation (CLI exit 3)."""


class TurningPointError(ValidationError):
    """Point lies on the turning-point locus; root labels are undefined."""


class EvaluationError(ValidationError):
    """Evaluation at or too near a pole of the coefficient ring."""


class CutError(ValidationError):
    """Evaluation requested on a branch cut where no boundary value is defined."""


class DegenerateLeadingCoefficient(ValidationError):
    """Polynomial leading coefficient vanishes below tolerance."""


class RootConvergenceError(NumericError):
    """A polynomial's computed roots failed the solver's residual test.

    Carries those roots as ``last_iterate`` so callers can diagnose
    near-multiple roots.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ContinuationError(NumericError):
    """Sheet tracking could not proceed (near-discriminant passage).

    ``location`` is the path point where refinement gave up.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class LabelMatchError(NumericError):
    """Nearest-neighbour sheet matching was ambiguous (tie within guard)."""


class DominanceError(NumericError):
    """Dominant/recessive order undecidable at a Stokes crossing."""


class TailBoundError(NumericError):
    """Quadrature truncation could not reach the requested tail bound."""


class QuadratureConvergenceError(NumericError):
    """Adaptive quadrature could not reach its tolerance on a segment."""
