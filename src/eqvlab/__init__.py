"""Point transformations of differential-equation families.

The package provides an exact expression kernel, jet prolongation of point
transformations, form-preservation checks with induced coefficient actions,
a check that an expression in a family's coefficients is a relative
invariant of the family's group, the Laplace and contact invariants of the
linear hyperbolic equation, plus a small session-file language and a command
line front end.
"""

from .errors import (
    AssumptionViolationError,
    DegenerateTransformationError,
    EqvError,
    EvaluationError,
    ParseError,
    SingularTransformationError,
    TheoremPreconditionError,
    UnknownFamilyError,
    UnsupportedAtomError,
    VariableMismatchError,
    ZeroDenominatorError,
)
from .expressions import (
    ONE,
    ZERO,
    Antideriv,
    Atom,
    DependencySet,
    Expression,
    Func,
    Jet,
    Log,
    Monomial,
    Param,
    Var,
    antiderivative,
    as_atom,
    as_expression,
    collect,
    collect_numerators,
    dependency_closure,
    derive,
    exp,
    expr_prod,
    expr_sum,
    fraction,
    from_monomial,
    func,
    jet,
    jet_split,
    log,
    normalize,
    param,
    partial,
    polynomial_jets,
    closure_jets,
    rename_atoms,
    sign_canonical,
    substitute,
    substitute_functions,
    var,
)

from .prolongation import (
    PointTransformation,
    ProlongedMap,
    identity_transformation,
    total_derivative,
    transform_derivatives,
    transform_equation,
)
from .families import (
    EQUIVALENCE,
    NOT_EQUIVALENCE,
    CoefficientSlot,
    EquationFamily,
    MatchFailure,
    MatchReport,
    TheoremCheckResult,
    catalog,
    catalog_names,
    check_equivalence,
    invariant_check,
    match,
    theorem_instance_check,
)
from .hyperbolic import (
    HyperbolicEquation,
    InvariantReport,
    Reduction,
)
from .oracle import (
    DEFAULT_SEED,
    CheckResult,
    Instantiation,
    PolyFunc,
    check_identity,
    draw_point,
    evaluate,
    fd_total,
    required_point_names,
)
from .parser import Session, parse, parse_expression

__version__ = "0.1.0"

