"""Jet prolongation of point transformations.

A :class:`PointTransformation` writes the source variables of an equation in
terms of target variables: ``x_i = phi_i(z, w)`` for the independent
variables and ``u = psi(z, w)`` for the dependent one.  Prolonging it
expresses every source derivative ``u_J`` through target jet variables by the
implicit prolongation formula (Olver, *Applications of Lie Groups to
Differential Equations*, 1986, Sec. 2.3 and Thm. 2.36):

    sum_i  D_k(phi_i) * u_{J x_i}  =  D_k(u_J)

with ``D_k`` the total derivative along target variable ``z_k``.  The
determinant ``det`` of ``M[k][i] = D_k(phi_i)`` is recorded as a
non-vanishing assumption; one that is identically zero means the map is not
a transformation of this shape at all.

Solved by Cramer's rule, each entry is a numerator over a known power of
``det``: ``u_J = N_J / det**m_J``, with ``N_() = psi`` and ``m_() = 0``.  With
``C_i(r)`` the determinant of ``M`` with column ``i`` replaced by ``r``, the
child ``K = J + (x_i,)`` has

    N_K = C_i(D_k(N_J)*det - N_J*m_J*D_k(det)),    m_K = m_J + 2,

unless ``m_J == 0`` or ``det`` is free of ``x_i`` (``C_i(D_k(det)) == 0``):
then one ``det`` cancels, ``N_K = C_i(D_k(N_J))`` and ``m_K = m_J + 1``.  An
order-k entry is over ``det**(2k-1)`` at most, and ``det**m`` divides only
when an entry is handed out, so the kernel never has to find that
denominator itself.  This holds for every ``det``, a constant or a monomial
included.

Most maps of the paper's families separate their variables: ``t = R(y)``,
``x = S(z)``.  When each column ``i`` of ``M`` is nonzero in one row
``sigma(i)`` only, no two columns sharing a row, ``phi_i`` depends on
``z_sigma(i)`` alone, and so does ``d_i = M[sigma(i)][i]``.  Then ``D_{x_i} =
D_{z_sigma(i)} / d_i``, and each jet is solved over its own factor instead of
all of ``det``: ``u_J = N_J / prod_i d_i**m_i``, and the child along ``x_i``
differentiates along ``z_sigma(i)`` only and raises ``m_i`` alone, by the rule
above with ``d_i`` for ``det`` and ``D_{z_sigma(i)}(N_J)`` for the Cramer
column.  The other factors have a zero derivative along ``z_sigma(i)``, so
they never enter the long form.
This is the rule above for the ``1x1`` system of row ``sigma(i)``; a map
that is not diagonal is the one-factor case.

:func:`transform_derivatives` builds only the matrix, its determinant and
the singular-map check.  Entries are solved on demand, to any order: a jet
the first time it is asked for, from its parent ``J = K[:-1]``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import (
    DegenerateTransformationError,
    SingularTransformationError,
    VariableMismatchError,
)
from .expressions import (
    ONE,
    Expression,
    ExpressionLike,
    Jet,
    Var,
    _derive,
    as_expression,
    closure_jets,
    dependency_closure,
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

    The derivation answers one atom at a time, as the differentiation meets
    it, so ``e``'s jets are never collected first.  A jet's next-higher jet
    is kept on the jet (:meth:`Jet.higher`); filling it is a benign race, as
    for the atoms cached inside composite atoms.
    """
    return _derive(as_expression(e), _TotalDerivation(variable, dep))


class _TotalDerivation:
    """``D_v`` as a derivation: ``1`` for ``Var(v)``, its next-higher jet
    along ``v`` for a jet of ``dep``, ``0`` for any other atom."""

    __slots__ = ("variable", "dep", "_var")

    def __init__(self, variable: str, dep: str):
        self.variable, self.dep, self._var = variable, dep, Var(variable)

    def get(self, a, default):
        if isinstance(a, Jet):
            return a.higher(self.variable) if a.dep == self.dep else default
        return ONE if a == self._var else default

    def entries(self, integrand: Expression) -> list:
        """The entries an antiderivative's ``integrand`` can meet:
        ``Var(v)`` first, then the integrand's jets of ``dep`` by text.
        Listing every jet of ``dep`` in the whole expression instead would
        add only zero terms."""
        jets = sorted(closure_jets(integrand, self.dep), key=lambda a: a.text)
        return [(self._var, ONE), *((j, j.higher(self.variable)) for j in jets)]


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
        if len(self.old_vars) != len(self.new_vars):
            # the Jacobian must be square for the jets to be solved
            raise VariableMismatchError(
                f"{len(self.old_vars)} source variables against {len(self.new_vars)} targets")
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
            # the first by text: a set of atoms iterates in the order of their ids
            bad = sorted(j.text for j in deps.jets if j.dep != self.new_dep or j.order != 0)
            if bad:
                raise DegenerateTransformationError(
                    f"map for {name!r} involves the jet {bad[0]}; "
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

    When the matrix is diagonal up to a permutation, column ``i`` nonzero in
    row ``sigma(i)`` only, ``D_{x_i} = D_{z_sigma(i)} / d_i`` with ``d_i =
    matrix[sigma(i)][i]``, and each jet is solved over its own factor ``d_i``
    (see the module docstring).  Otherwise every jet is solved over ``det`` by
    Cramer's rule.  Either way, whatever its number of terms, each factor
    divides an entry once, when it is handed out.

    Entries are solved on demand: ``pm[K]`` solves the source jet ``K`` the
    first time it is asked for, and :meth:`apply` the jets its expression
    reaches.  ``entries`` is the plain dict of the entries handed out so far,
    keyed by source jet.  It is not a property that solves the rest: the
    benchmark's tracer sizes ``entries`` after every traced operation, and
    solving there would put the unneeded work back.
    """

    __slots__ = ("transformation", "matrix", "det", "assumptions", "entries",
                 "_factors", "_axes", "_solved", "_derivatives", "_free")

    def __init__(self, transformation, matrix, det):
        self.transformation = transformation
        self.matrix = matrix
        self.det = det
        self.assumptions = () if det.is_constant() else (det,)
        self.entries: dict[Jet, Expression] = {}
        n, sigma = len(matrix), _diagonal_rows(matrix)
        # source index i -> (factor f, rows k of the system, its matrix, the
        # column replaced): Cramer's rule over the whole matrix and det, or
        # over the 1x1 matrix [[d_i]] of row sigma[i]
        if sigma is None:
            self._factors = (det,)
            self._axes = [(0, range(n), matrix, i) for i in range(n)]
        else:
            self._factors = tuple(matrix[k][i] for i, k in enumerate(sigma))
            self._axes = [(i, (k,), [[matrix[k][i]]], 0) for i, k in enumerate(sigma)]
        # sorted source index -> (N, (m_f, ...)), the entry being N / prod d_f**m_f
        self._solved: dict[tuple, tuple[Expression, tuple[int, ...]]] = {
            (): (transformation.dep_map, (0,) * len(self._factors))}
        # sorted source index -> [D_k(N)]; factor f -> [D_k(d_f)]; by row k,
        # each taken the first time a solve reads its row
        self._derivatives: dict[tuple | int, list[Expression | None]] = {}
        self._free: dict[int, bool] = {}

    def __getitem__(self, index: Sequence[str]) -> Expression:
        """The entry of source jet ``index``, solved if not yet solved.

        Raises ``KeyError`` (with the jet) unless ``index`` is nonempty and
        every name in it is a source variable.
        """
        tr = self.transformation
        key = Jet(tr.old_dep, index)
        got = self.entries.get(key)
        if got is None:
            K = key.index
            if not K or not set(K) <= set(tr.old_vars):
                raise KeyError(key)
            # each prefix of the sorted index is the parent of the next one
            for r in range(1, len(K) + 1):
                if K[:r] not in self._solved:
                    self._solved[K[:r]] = self._solve(K[:r - 1], K[r - 1])
            num, powers = self._solved[K]
            den = None
            for d, m in zip(self._factors, powers):
                if m:
                    den = d ** m if den is None else den * d ** m
            got = self.entries[key] = num if den is None else num / den
        return got

    def _solve(self, J: tuple, xi: str) -> tuple[Expression, tuple[int, ...]]:
        """``(N, powers)`` of the jet ``J + (xi,)``, from that of its parent ``J``."""
        num, powers = self._solved[J]
        i = self.transformation.old_vars.index(xi)
        f, rows = self._axes[i][:2]
        d, m = self._factors[f], powers[f]
        dn = self._total_derivatives(J, num, rows)
        if not m or self._free_of(i):
            return self._numerator(dn, i), powers[:f] + (m + 1,) + powers[f + 1:]
        dd = self._total_derivatives(f, d, rows)
        long = {k: dn[k] * d - num * m * dd[k] for k in rows}
        return self._numerator(long, i), powers[:f] + (m + 2,) + powers[f + 1:]

    def _numerator(self, rhs, i: int) -> Expression:
        """Cramer's numerator of ``x_i``'s system: the determinant of its
        matrix with its column replaced by ``rhs``, indexed by row."""
        _f, rows, M, c = self._axes[i]
        return _det([[rhs[k] if col == c else v for col, v in enumerate(row)]
                     for k, row in zip(rows, M)])

    def _free_of(self, i: int) -> bool:
        """Whether the numerator of ``D_k(d_f)`` for ``x_i`` is zero: whether
        ``x_i``'s factor has a zero derivative along ``x_i``."""
        if i not in self._free:
            f, rows = self._axes[i][:2]
            self._free[i] = self._numerator(
                self._total_derivatives(f, self._factors[f], rows), i).is_zero()
        return self._free[i]

    def _total_derivatives(self, key: tuple | int, e: Expression, rows) -> list:
        """``[D_k(e)]`` by row, kept under ``key``, each row ``k`` of ``rows``
        taken the first time it is asked for."""
        got = self._derivatives.get(key)
        if got is None:
            got = self._derivatives[key] = [None] * len(self.matrix)
        tr = self.transformation
        for k in rows:
            if got[k] is None:
                got[k] = total_derivative(e, tr.new_vars[k], tr.new_dep)
        return got

    def total_derivatives(self) -> list[Expression]:
        """``[D_k(psi) for z_k in new_vars]``, computed once: the right-hand
        sides of the first-order solves."""
        return self._total_derivatives((), self.transformation.dep_map, range(len(self.matrix)))

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
        others = {j.dep for j in deps.jets} - {tr.old_dep}
        if others:
            raise VariableMismatchError(f"expression involves jets of {min(others)!r}; "
                                        f"transformation handles {tr.old_dep!r}")
        binds = tr.as_bindings()
        # in order of the jets, so that ``entries`` does not follow the atom ids
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


def transform_derivatives(tr: PointTransformation) -> ProlongedMap:
    """Prolong ``tr``.

    Builds the matrix ``D_k(phi_i)`` and its determinant; the entries are
    solved when the returned map is asked for them.  Raises
    :class:`SingularTransformationError` when the derivative-change matrix has
    identically vanishing determinant; pointwise non-vanishing of the
    determinant is recorded as an assumption instead.
    """
    dep = tr.new_dep
    M = [
        [total_derivative(tr.indep_map[xi], zk, dep) for xi in tr.old_vars]
        for zk in tr.new_vars
    ]
    det = _det(M)
    if det.is_zero():
        raise SingularTransformationError(
            "the independent-variable maps have identically vanishing Jacobian system")
    return ProlongedMap(tr, M, det)


def _diagonal_rows(M: list[list[Expression]]) -> tuple[int, ...] | None:
    """``sigma``, column ``i`` of ``M`` being nonzero in row ``sigma[i]``
    only; None unless each column has one such row and no two share it."""
    sigma = []
    for i in range(len(M)):
        rows = [k for k, row in enumerate(M) if not row[i].is_zero()]
        if len(rows) != 1:
            return None
        sigma.append(rows[0])
    return tuple(sigma) if len(set(sigma)) == len(sigma) else None


def transform_equation(e: ExpressionLike, tr: PointTransformation) -> Expression:
    """The image of an equation's left-hand side under ``tr``."""
    return transform_derivatives(tr).apply(e)
