"""Exception taxonomy shared by all layers.

Contract violations (bad charts, malformed input, impossible requests) raise;
refuted mathematical identities are reported through certificate objects with
witness points instead, so a failed check is data, not control flow.  The CLI
maps ScenarioError/UsageError-like conditions to exit code 2 and refuted
certificates to exit code 1.
"""

from __future__ import annotations


class CinfstructError(Exception):
    """Base class for every error raised by this package."""


class ExpressionSyntaxError(CinfstructError):
    """Input text does not conform to the expression grammar."""


class UnknownSymbolError(CinfstructError):
    """An expression references a symbol outside the chart."""


class SingularExpressionError(CinfstructError):
    """A denominator is identically zero (construction or substitution)."""


class RewriteError(CinfstructError):
    """A rewrite rule set is invalid or fails to terminate."""


class EvaluationError(CinfstructError):
    """A point evaluation could not be completed."""


class SingularPointError(EvaluationError):
    """Evaluation hit a (near-)vanishing denominator or a domain boundary."""


class SamplingError(CinfstructError):
    """Every sampled point violated the singularity guard."""


class ChartError(CinfstructError):
    """Objects from different charts were mixed, or a chart is malformed."""


class DegreeError(CinfstructError):
    """A form operation received arguments of unusable degree."""


class LinearSolveError(CinfstructError):
    """Base class for symbolic linear algebra failures."""


class InconsistentSystemError(LinearSolveError):
    """The linear system has no solution; carries a witness point."""

    def __init__(self, message, witness=None, residual=None):
        super().__init__(message)
        self.witness = witness
        self.residual = residual


class RankDeficientError(LinearSolveError):
    """The linear system does not determine a unique solution."""


class NotTangentError(CinfstructError):
    """A field cannot be pushed through a map; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificationError(CinfstructError):
    """An operation's precondition certificate was refuted."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BadArgumentError(CinfstructError, ValueError):
    """A caller's value outside what an operation accepts: a zero-test policy
    field or a structure level."""


class ScenarioError(CinfstructError):
    """A scenario file is missing, unreadable, or malformed."""
