"""cinfstruct: certified symbolic calculus for C-infinity structures.

Exact rational-function kernel, exterior calculus on explicit charts,
certification of involutive distributions and their ordered symmetry
structures, symmetrizing/integrating factor calculus, and stepwise reduction
of the dual Pfaffian system to integral manifolds.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .charts import Chart, format_expression, parse_expression, parse_rule
from .errors import (
    CertificationError,
    ChartError,
    CinfstructError,
    DegreeError,
    EvaluationError,
    ExpressionSyntaxError,
    LinearSolveError,
    NotTangentError,
    RankDeficientError,
    RewriteError,
    SamplingError,
    ScenarioError,
    SingularExpressionError,
    SingularPointError,
    UnknownSymbolError,
)
from .kernel import Expression, RewriteRule, differentiate, substitute
from .zerotest import (
    DEFAULT_POLICY,
    Certainty,
    Point,
    ZeroTestPolicy,
    ZeroTestResult,
    evaluate,
    is_zero,
)

__all__ = [
    "Chart",
    "Expression",
    "RewriteRule",
    "parse_expression",
    "parse_rule",
    "format_expression",
    "differentiate",
    "substitute",
    "evaluate",
    "is_zero",
    "Certainty",
    "Point",
    "ZeroTestPolicy",
    "ZeroTestResult",
    "DEFAULT_POLICY",
    "CinfstructError",
    "__version__",
]
