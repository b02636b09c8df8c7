"""Jet prolongation of point transformations.

A :class:`PointTransformation` writes the source variables of an equation in
terms of target variables: ``x_i = phi_i(z, w)`` for the independent
variables and ``u = psi(z, w)`` for the dependent one.  Prolonging it to
order ``n`` expresses every source derivative ``u_{x^J}`` with ``|J| <= n``
through target jet variables, by repeatedly solving the linear system

    sum_i  D_k(phi_i) * u_{x^J x_i}  =  D_k(value of u_{x^J})

with ``D_k`` the total derivative along target variable ``z_k``.  The
system's matrix determinant is recorded as a non-vanishing assumption; a
determinant that is identically zero means the map is not a transformation
of this shape at all.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import (
    DegenerateTransformationError,
    SingularTransformationError,
    VariableMismatchError,
)
from .expressions import (
    Expression,
    ExpressionLike,
    Jet,
    Var,
    as_expression,
    closure_jets,
    dependency_closure,
    derive,
    expr_sum,
    jet,
    substitute,
    var,
)

__all__ = [
    "PointTransformation",
    "ProlongedMap",
    "total_derivative",
    "transform_derivatives",
    "transform_equation",
    "identity_transformation",
]


def total_derivative(e: ExpressionLike, variable: str, dep: str) -> Expression:
    """The total derivative of ``e`` along ``variable``.

    Jet variables of ``dep`` are treated as functions of the independent
    variables: each occurrence, including inside function arguments,
    contributes its next-higher jet times the matching partial.  The total
    derivative ``D_v = d/dv + sum_J u_{J,v} d/du_J`` (Olver 1986, Thm. 2.36)
    is applied as one derivation, so the quotient rule runs once over the
    numerator and denominator of ``e``, not once per jet.
    """
    e = as_expression(e)
    derivation = {Var(variable): 1}
    for j in sorted(closure_jets(e, dep), key=lambda a: a.text):
        derivation[j] = j.extended(variable)
    return derive(e, derivation)


class PointTransformation:
    """Source variables written in terms of target variables.

    ``indep_map`` maps each source independent-variable name to an expression
    in the target variables and the bare target dependent variable; ``dep_map``
    does the same for the source dependent variable.  Expressions may involve
    function symbols, parameters, antiderivatives, exponentials and logs, but
    no target jet of positive order: this is a point transformation.
    """

    __slots__ = ("old_vars", "old_dep", "new_vars", "new_dep", "indep_map", "dep_map")

    def __init__(
        self,
        old_vars: Sequence[str],
        old_dep: str,
        new_vars: Sequence[str],
        new_dep: str,
        indep_map: Mapping[str, ExpressionLike],
        dep_map: ExpressionLike,
    ):
        self.old_vars = tuple(old_vars)
        self.old_dep = old_dep
        self.new_vars = tuple(new_vars)
        self.new_dep = new_dep
        if len(set(self.old_vars)) != len(self.old_vars) or self.old_dep in self.old_vars:
            raise VariableMismatchError(f"bad source variables {self.old_vars} / {self.old_dep}")
        if len(set(self.new_vars)) != len(self.new_vars) or self.new_dep in self.new_vars:
            raise VariableMismatchError(f"bad target variables {self.new_vars} / {self.new_dep}")
        if set(indep_map) != set(self.old_vars):
            raise VariableMismatchError(
                f"independent map covers {sorted(indep_map)}, need {sorted(self.old_vars)}")
        self.indep_map = {n: as_expression(indep_map[n]) for n in self.old_vars}
        self.dep_map = as_expression(dep_map)
        for name, e in list(self.indep_map.items()) + [(self.old_dep, self.dep_map)]:
            deps = dependency_closure(e)
            stray = deps.variables - set(self.new_vars)
            if stray:
                raise DegenerateTransformationError(
                    f"map for {name!r} uses undeclared variables {sorted(stray)}")
            for j in deps.jets:
                if j.dep != self.new_dep or j.order != 0:
                    raise DegenerateTransformationError(
                        f"map for {name!r} involves the jet {j.text}; "
                        "a point transformation may only use the bare dependent variable")

    def __repr__(self):
        pieces = ["%s = %s" % (n, self.indep_map[n].text) for n in self.old_vars]
        pieces.append("%s = %s" % (self.old_dep, self.dep_map.text))
        return "PointTransformation(%s)" % "; ".join(pieces)

    def as_bindings(self) -> dict:
        binds = {Var(n): self.indep_map[n] for n in self.old_vars}
        binds[Jet(self.old_dep, ())] = self.dep_map
        return binds

    def compose(self, other: "PointTransformation") -> "PointTransformation":
        """The composite map: first ``other``, then this one.

        Target variables of this transformation must be the source variables
        of ``other``; the result writes this map's source variables directly
        in ``other``'s target variables.
        """
        if set(self.new_vars) != set(other.old_vars) or self.new_dep != other.old_dep:
            raise VariableMismatchError(
                f"cannot compose: {self.new_vars}/{self.new_dep} vs "
                f"{other.old_vars}/{other.old_dep}")
        binds = other.as_bindings()
        return PointTransformation(
            self.old_vars,
            self.old_dep,
            other.new_vars,
            other.new_dep,
            {n: substitute(self.indep_map[n], binds) for n in self.old_vars},
            substitute(self.dep_map, binds),
        )


def identity_transformation(
    old_vars: Sequence[str], old_dep: str,
    new_vars: Sequence[str], new_dep: str,
) -> PointTransformation:
    """The positional relabeling ``x_i = z_i``, ``u = w``."""
    if len(old_vars) != len(new_vars):
        raise VariableMismatchError("variable counts differ")
    return PointTransformation(
        old_vars, old_dep, new_vars, new_dep,
        {o: var(n) for o, n in zip(old_vars, new_vars)},
        jet(new_dep),
    )


class ProlongedMap:
    """A point transformation together with its derivative expressions.

    ``entries`` maps each source jet (order 1 up to ``order``) to its
    expression in target jets; ``det`` is the determinant of the
    derivative-change matrix and ``assumptions`` the recorded non-vanishing
    requirements (the determinant of the solve).
    """

    __slots__ = ("transformation", "order", "entries", "det", "assumptions")

    def __init__(self, transformation, order, entries, det, assumptions):
        self.transformation = transformation
        self.order = order
        self.entries = entries
        self.det = det
        self.assumptions = tuple(assumptions)

    def __getitem__(self, index: Sequence[str]) -> Expression:
        return self.entries[Jet(self.transformation.old_dep, tuple(index))]

    def apply(self, e: ExpressionLike) -> Expression:
        """The image of ``e`` under the transformation and its prolongation."""
        e = as_expression(e)
        tr = self.transformation
        deps = dependency_closure(e)
        stray_vars = deps.variables - set(tr.old_vars)
        if stray_vars:
            raise VariableMismatchError(
                f"expression uses variables {sorted(stray_vars)} outside {tr.old_vars}")
        binds = tr.as_bindings()
        binds.update({j: v for j, v in self.entries.items()})
        for j in deps.jets:
            if j.dep != tr.old_dep:
                raise VariableMismatchError(
                    f"expression involves jets of {j.dep!r}; transformation handles {tr.old_dep!r}")
            if j.order > self.order:
                raise VariableMismatchError(
                    f"jet {j.text} exceeds prolongation order {self.order}")
            stray = set(j.index) - set(tr.old_vars)
            if stray:
                raise VariableMismatchError(
                    f"jet {j.text} differentiates by undeclared variables {sorted(stray)}")
        return substitute(e, binds)


def _det(M: list[list[Expression]]) -> Expression:
    n = len(M)
    if n == 1:
        return M[0][0]
    terms = []
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in M[1:]]
        term = M[0][c] * _det(minor)
        terms.append(term if c % 2 == 0 else -term)
    return expr_sum(terms)


def _cramer(M, rhs, i, det):
    """Component ``i`` of the solution of ``M x = rhs``, by Cramer's rule
    against the precomputed determinant.

    The systems here are tiny (one row per independent variable), and every
    cofactor term contains exactly one right-hand-side entry, so all the
    terms of the numerator share a denominator and the only division is by
    ``det`` itself.  That keeps intermediate swell down on higher-order
    solves, where the right-hand sides already carry determinant powers.
    """
    n = len(M)
    Mi = [[rhs[r] if c == i else M[r][c] for c in range(n)] for r in range(n)]
    return _det(Mi) / det


def transform_derivatives(tr: PointTransformation, order: int) -> ProlongedMap:
    """Prolong ``tr`` to the given jet order.

    Raises :class:`SingularTransformationError` when the derivative-change
    matrix has identically vanishing determinant; pointwise non-vanishing of
    the determinant is recorded as an assumption instead.
    """
    if order < 1:
        raise ValueError("prolongation order must be at least 1")
    dep = tr.new_dep
    M = [
        [total_derivative(tr.indep_map[xi], zk, dep) for xi in tr.old_vars]
        for zk in tr.new_vars
    ]
    det = _det(M)
    if det.is_zero():
        raise SingularTransformationError(
            "the independent-variable maps have identically vanishing Jacobian system")
    entries: dict[Jet, Expression] = {}
    level = {(): tr.dep_map}
    for _ in range(order):
        next_level: dict[tuple, Expression] = {}
        for J in sorted(level):
            rhs = [total_derivative(level[J], zk, dep) for zk in tr.new_vars]
            for i, xi in enumerate(tr.old_vars):
                # a jet an earlier J already reached is not solved for again
                K = tuple(sorted(J + (xi,)))
                if K not in next_level:
                    next_level[K] = _cramer(M, rhs, i, det)
        for K, v in next_level.items():
            entries[Jet(tr.old_dep, K)] = v
        level = next_level
    assumptions = () if det.is_constant() else (det,)
    return ProlongedMap(tr, order, entries, det, assumptions)


def transform_equation(e: ExpressionLike, tr: PointTransformation, order: int | None = None) -> Expression:
    """The image of an equation's left-hand side under ``tr``.

    ``order`` defaults to the highest jet order occurring in ``e``.
    """
    e = as_expression(e)
    if order is None:
        order = max((j.order for j in closure_jets(e, tr.old_dep)), default=0)
    if order == 0:
        return ProlongedMap(tr, 0, {}, as_expression(1), ()).apply(e)
    return transform_derivatives(tr, order).apply(e)
