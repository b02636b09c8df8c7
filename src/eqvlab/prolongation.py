"""Jet prolongation of point transformations.

A :class:`PointTransformation` writes the source variables of an equation in
terms of target variables: ``x_i = phi_i(z, w)`` for the independent
variables and ``u = psi(z, w)`` for the dependent one.  Prolonging it to
order ``n`` expresses every source derivative ``u_{x^J}`` with ``|J| <= n``
through target jet variables, by solving the linear system

    sum_i  D_k(phi_i) * u_{x^J x_i}  =  D_k(value of u_{x^J})

with ``D_k`` the total derivative along target variable ``z_k``.  The
system's matrix determinant is recorded as a non-vanishing assumption; a
determinant that is identically zero means the map is not a transformation
of this shape at all.

:func:`transform_derivatives` builds only the matrix, its determinant and
the singular-map check.  The entries are solved on demand: a jet is solved
the first time it is asked for, from its parent ``J = K[:-1]``, and kept.
An equation that reaches only some jets of an order costs only those.
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

    ``matrix[k][i]`` is ``D_k(phi_i)``, the total derivative of the map of
    source variable ``x_i`` along target variable ``z_k``; ``det`` is its
    determinant and ``assumptions`` the recorded non-vanishing requirements
    (the determinant, unless constant).

    Entries are solved on demand.  ``pm[K]`` solves the source jet ``K``
    (order 1 up to ``order``) the first time it is asked for, and
    :meth:`apply` solves the jets its expression reaches.  ``entries`` is the
    plain dict of the entries solved so far, keyed by source jet.  It is not a
    property that solves the rest: the benchmark's tracer sizes ``entries``
    after every traced operation, and solving there would put the unneeded
    work back.  The right-hand sides ``D_k(entry J)`` are kept too, see
    :meth:`total_derivatives`.
    """

    __slots__ = ("transformation", "order", "matrix", "det", "assumptions",
                 "entries", "_rhs")

    def __init__(self, transformation, order, matrix, det):
        self.transformation = transformation
        self.order = order
        self.matrix = matrix
        self.det = det
        self.assumptions = () if det.is_constant() else (det,)
        self.entries: dict[Jet, Expression] = {}
        self._rhs: dict[tuple, list[Expression]] = {}

    def __getitem__(self, index: Sequence[str]) -> Expression:
        """The entry of source jet ``index``, solved if not yet solved.

        Raises ``KeyError`` (with the jet) unless ``1 <= len(index) <= order``
        and every name in ``index`` is a source variable.
        """
        tr = self.transformation
        key = Jet(tr.old_dep, index)
        got = self.entries.get(key)
        if got is not None:
            return got
        K = key.index
        if not 0 < len(K) <= self.order or not set(K) <= set(tr.old_vars):
            raise KeyError(key)
        # each prefix of the sorted index is the parent of the next one, and the
        # smallest sorted jet one order down that reaches it
        for m in range(1, len(K) + 1):
            jm = Jet(tr.old_dep, K[:m])
            if jm not in self.entries:
                rhs = self.total_derivatives(K[:m - 1])
                i = tr.old_vars.index(K[m - 1])
                self.entries[jm] = _cramer(self.matrix, rhs, i, self.det)
        return self.entries[key]

    def total_derivatives(self, index: Sequence[str] = ()) -> list[Expression]:
        """``[D_k(entry of index) for z_k in new_vars]``, computed once.

        The empty index stands for the dependent map ``psi`` itself, so
        ``total_derivatives()`` is ``[D_k(psi)]``.  These are the right-hand
        sides the solve of ``index``'s children reads.
        """
        tr = self.transformation
        J = tuple(sorted(index))
        got = self._rhs.get(J)
        if got is None:
            value = self[J] if J else tr.dep_map
            got = self._rhs[J] = [total_derivative(value, zk, tr.new_dep) for zk in tr.new_vars]
        return got

    def apply(self, e: ExpressionLike) -> Expression:
        """The image of ``e`` under the transformation and its prolongation.

        Only the jets ``e`` reaches, function arguments included, are solved.
        """
        e = as_expression(e)
        tr = self.transformation
        deps = dependency_closure(e)
        stray_vars = deps.variables - set(tr.old_vars)
        if stray_vars:
            raise VariableMismatchError(
                f"expression uses variables {sorted(stray_vars)} outside {tr.old_vars}")
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
        binds = tr.as_bindings()
        # in order of the jets, so that ``entries`` does not follow the hash seed
        for j in sorted(deps.jets, key=lambda a: (a.order, a.index)):
            if j.order:
                binds[j] = self[j.index]
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

    Builds the matrix ``D_k(phi_i)`` and its determinant; the entries are
    solved when the returned map is asked for them.  Raises
    :class:`SingularTransformationError` when the derivative-change matrix has
    identically vanishing determinant; pointwise non-vanishing of the
    determinant is recorded as an assumption instead.
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
    return ProlongedMap(tr, order, M, det)


def transform_equation(e: ExpressionLike, tr: PointTransformation, order: int | None = None) -> Expression:
    """The image of an equation's left-hand side under ``tr``.

    ``order`` defaults to the highest jet order occurring in ``e``.
    """
    e = as_expression(e)
    if order is None:
        order = max((j.order for j in closure_jets(e, tr.old_dep)), default=0)
    if order == 0:
        return ProlongedMap(tr, 0, [], as_expression(1)).apply(e)
    return transform_derivatives(tr, order).apply(e)
