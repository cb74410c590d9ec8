"""Exception hierarchy shared by all openmap modules.

Three families, matching the CLI exit-code contract:

* ``InputError`` -- malformed inputs (bad JSON, wrong shapes), exit 2.
* ``DomainRefusal`` -- the operation ran and refused for a stated
  mathematical reason (target out of certified range, point not open,
  construction precondition absent), exit 3.
* ``NumericalFailure`` -- the computation itself could not be trusted
  (SVD non-convergence, cross-check disagreement), exit 4.
"""


class OpenMapError(Exception):
    """Base class for all library errors."""


class InputError(OpenMapError):
    """Malformed or inconsistent input data."""


class NumericalFailure(OpenMapError):
    """A numerical routine failed or produced untrustworthy output."""


class IllConditioned(NumericalFailure):
    """Two independent computations of the same quantity disagree.

    Raised when a verdict would depend on rank decisions too close to
    the tolerance threshold to be trusted.
    """


class GenericScaleFailed(NumericalFailure):
    """A generically-valid construction failed after seeded retries."""


class DomainRefusal(OpenMapError):
    """The operation refused its input for a stated mathematical reason."""


class NotRankDeficient(DomainRefusal):
    """Row-basis selection requires a matrix with rank below its row count."""


class NotOpen(DomainRefusal):
    """The factor pair is not locally open, so no witness exists."""


class RankInfeasible(DomainRefusal):
    """Target rank exceeds what the factor dimensions can produce."""


class NotPSD(DomainRefusal):
    """Target matrix has an eigenvalue below the admitted tolerance."""


class DeltaTooLarge(DomainRefusal):
    """Perturbation exceeds the certified radius.

    ``delta0`` carries the largest input distance the construction
    certifies at the offending point (``None`` when unbounded).
    """

    def __init__(self, message, delta0=None):
        super().__init__(message)
        self.delta0 = delta0


class RadicandNegative(DeltaTooLarge):
    """A diagonal-recursion radicand dropped below its safety floor."""

    def __init__(self, message, index, delta0=None):
        super().__init__(message, delta0=delta0)
        self.index = index


class PivotTooSmall(DomainRefusal):
    """A diagonal-recursion pivot dropped below its safety floor."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class NotConstructible(DomainRefusal):
    """No layer-width pair admits the ``counterexample_factory`` construction."""
