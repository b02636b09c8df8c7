"""Numeric cross-validation of symbolic identities.

Expressions are evaluated at random rational points after instantiating every
function symbol with a random polynomial, every parameter with a random
rational, and every dependent variable with a random polynomial in its
independent variables.  Jet symbols take the induced values: ``D[w, y, z]``
evaluates as the mixed partial of the polynomial standing in for ``w``.  That
keeps jets consistent with the dependent variable, which is what total
derivatives and prolongation formulas assume.

Arithmetic stays in :class:`fractions.Fraction` wherever possible, so purely
rational identities check to error zero; ``exp`` and ``log`` drop to floats.
Antiderivative symbols are evaluated by building the integrand as a univariate
polynomial in the integration variable and integrating it with constant term
zero.  The choice of constant never matters for the identities checked here
because both sides share the antiderivative atom itself.

Denominators, explicit assumptions, and ``log`` arguments are guarded by a
magnitude floor; a point that violates the floor is discarded and redrawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping, Sequence

from .errors import AssumptionViolationError, EvaluationError
from .expressions import (
    Antideriv,
    Atom,
    Expression,
    ExpressionLike,
    Func,
    Jet,
    Log,
    Param,
    Var,
    _reach,
    as_expression,
    dependency_closure,
    expr_sum,
    var,
)

__all__ = [
    "DEFAULT_SEED",
    "ASSUMPTION_FLOOR",
    "PolyFunc",
    "UPoly",
    "Instantiation",
    "evaluate",
    "required_point_names",
    "draw_point",
    "fd_total",
    "CheckResult",
    "check_identity",
    "check_zero",
]

DEFAULT_SEED = 1729
ASSUMPTION_FLOOR = Fraction(1, 10**6)
FD_STEP = Fraction(1, 10**5)

Number = Fraction | float


class UPoly:
    """Univariate polynomial with rational or float coefficients.

    Used as a duck-typed value during evaluation so that an integrand can be
    assembled as a polynomial in the integration variable.  Division is exact
    and only by constants.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Number]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs) if cs else (Fraction(0),)

    @classmethod
    def indeterminate(cls) -> "UPoly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def constant(self) -> Number:
        if self.degree > 0:
            raise EvaluationError("polynomial value where a number was required")
        return self.coeffs[0]

    def __call__(self, x: Number) -> Number:
        acc: Number = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def antiderivative(self) -> "UPoly":
        return UPoly((Fraction(0), *(c / (i + 1) for i, c in enumerate(self.coeffs))))

    def _coerce(self, other) -> "UPoly | None":
        if isinstance(other, UPoly):
            return other
        if isinstance(other, (int, float, Fraction)):
            return UPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UPoly(tuple(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (o.coeffs[i] if i < len(o.coeffs) else 0) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, UPoly):
            other = other.constant()
        if isinstance(other, (int, float, Fraction)):
            if abs(other) < ASSUMPTION_FLOOR:
                raise AssumptionViolationError("division by a near-zero constant")
            return UPoly(tuple(c / other for c in self.coeffs))
        return NotImplemented

    def __rtruediv__(self, other):
        return other / self.constant()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = UPoly((Fraction(1),))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, float, Fraction)):
            return self.degree == 0 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UPoly({list(self.coeffs)})"


class PolyFunc:
    """Polynomial in several slots, standing in for an arbitrary function.

    Coefficients are keyed by exponent tuples.  Partial derivatives stay in
    the class, so slot-derivative symbols evaluate exactly.
    """

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: Mapping[tuple[int, ...], Fraction]):
        self.arity = arity
        self.coeffs = {
            tuple(e): Fraction(c) for e, c in coeffs.items() if c != 0}
        for e in self.coeffs:
            if len(e) != arity:
                raise ValueError(f"exponent tuple {e} does not match arity {arity}")

    def evaluate(self, args: Sequence) -> Number:
        if len(args) != self.arity:
            raise EvaluationError(
                f"function of {self.arity} slots called with {len(args)} arguments")
        total = Fraction(0)
        for expo, c in self.coeffs.items():
            term = c
            for a, k in zip(args, expo):
                for _ in range(k):
                    term = term * a
            total = total + term
        return total

    def partial(self, slot: int) -> "PolyFunc":
        """Derivative with respect to the 1-based slot number."""
        i = slot - 1
        if not 0 <= i < self.arity:
            raise EvaluationError(f"no slot {slot} in a function of {self.arity} slots")
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.coeffs.items():
            if expo[i] == 0:
                continue
            dexpo = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
            out[dexpo] = out.get(dexpo, Fraction(0)) + c * expo[i]
        return PolyFunc(self.arity, out)

    def to_expression(self, names: Sequence[str]) -> Expression:
        """The polynomial as a symbolic expression in the given variable names."""
        if len(names) != self.arity:
            raise ValueError(
                f"{len(names)} names for a function of {self.arity} slots")
        terms = []
        for expo in sorted(self.coeffs):
            e = as_expression(self.coeffs[expo])
            for n, k in zip(names, expo):
                if k:
                    e = e * var(n) ** k
            terms.append(e)
        return expr_sum(terms) if terms else as_expression(0)

    @classmethod
    def random(cls, rng: Random, arity: int, degree: int = 2,
               require: Iterable[int] = ()) -> "PolyFunc":
        """Random polynomial of bounded total degree.

        Slots listed in ``require`` (1-based) are guaranteed to appear, so the
        corresponding partials do not vanish identically.
        """
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for expo in _exponents(arity, degree):
            if rng.random() < 0.6:
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                if c != 0:
                    coeffs[expo] = c
        if not coeffs:
            coeffs[(0,) * arity] = Fraction(rng.randint(1, 5))
        for slot in require:
            if not any(e[slot - 1] > 0 for e in coeffs):
                expo = tuple(1 if j == slot - 1 else 0 for j in range(arity))
                coeffs[expo] = Fraction(rng.randint(1, 4))
        return cls(arity, coeffs)


def _exponents(arity: int, degree: int):
    if arity == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in _exponents(arity - 1, degree - head):
            yield (head, *tail)


@dataclass
class Instantiation:
    """Concrete stand-ins for the symbols of a set of expressions.

    ``dependents`` maps a dependent variable name to its independent-variable
    names and the polynomial giving its value; jets evaluate as partials of
    that polynomial.
    """

    functions: dict[str, PolyFunc] = field(default_factory=dict)
    params: dict[str, Fraction] = field(default_factory=dict)
    dependents: dict[str, tuple[tuple[str, ...], PolyFunc]] = field(default_factory=dict)

    @classmethod
    def for_expressions(
        cls,
        exprs: Iterable[ExpressionLike],
        rng: Random,
        dep_vars: Mapping[str, Sequence[str]],
        degree: int = 2,
    ) -> "Instantiation":
        """Draw random stand-ins for every symbol appearing in ``exprs``.

        ``dep_vars`` names the independent variables of each dependent
        variable; any jet whose name is missing from it is an error.
        """
        reached = set().union(*(_reach(as_expression(e)) for e in exprs))
        arities: dict[str, set[int]] = {}
        params: set[str] = set()
        deps: set[str] = set()
        for a in reached:
            if isinstance(a, Jet):
                deps.add(a.dep)
            elif isinstance(a, Param):
                params.add(a.name)
            elif isinstance(a, Func):
                arities.setdefault(a.name, set()).add(a.arity)
        for name, ns in sorted(arities.items()):
            if len(ns) > 1:
                raise EvaluationError(
                    f"function {name} used with {' and '.join(map(str, sorted(ns)))} arguments")

        inst = cls()
        for name in sorted(arities):
            (arity,) = arities[name]
            inst.functions[name] = PolyFunc.random(
                rng, arity, degree, require=range(1, arity + 1))
        for name in sorted(params):
            inst.params[name] = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        for name in sorted(deps):
            if name not in dep_vars:
                raise EvaluationError(
                    f"dependent variable {name!r} has no declared independent variables")
            slots = tuple(dep_vars[name])
            inst.dependents[name] = (
                slots,
                PolyFunc.random(rng, len(slots), max(degree, 2),
                                require=range(1, len(slots) + 1)))
        return inst


class _Eval:
    """One evaluation pass: a point plus caches."""

    __slots__ = ("inst", "point", "expr_cache", "atom_cache")

    def __init__(self, inst: Instantiation, point: Mapping[str, Number]):
        self.inst = inst
        self.point = point
        self.expr_cache: dict[Expression, object] = {}
        self.atom_cache: dict[Atom, object] = {}

    def expr(self, e: Expression):
        hit = self.expr_cache.get(e)
        if hit is not None:
            return hit
        num_p, den_p, lc = e.integer_form()
        num = self.poly(num_p)
        den = self.poly(den_p)
        den_c = den.constant() if isinstance(den, UPoly) else den
        # the floor applies to the monic denominator, den/lc
        if isinstance(den_c, (int, float, Fraction)) and abs(den_c) < ASSUMPTION_FLOOR * lc:
            raise AssumptionViolationError("denominator within the magnitude floor")
        val = num / den
        self.expr_cache[e] = val
        return val

    def poly(self, p: dict):
        total = Fraction(0)
        for m, c in p.items():
            term = c * self.monomial(m)
            total = total + term
        return total

    def monomial(self, m):
        val: object = Fraction(1)
        for a, k in m.atoms:
            val = val * self.atom(a) ** k
        if m.exparg is not None:
            val = val * self.exp_value(self.expr(m.exparg))
        return val

    def exp_value(self, v):
        if isinstance(v, UPoly):
            v = v.constant()
        if v == 0:
            return Fraction(1)
        try:
            return math.exp(float(v))
        except OverflowError:
            raise AssumptionViolationError("exponential overflow at this point") from None

    def atom(self, a: Atom):
        hit = self.atom_cache.get(a)
        if hit is not None:
            return hit
        val = self._atom_value(a)
        self.atom_cache[a] = val
        return val

    def _atom_value(self, a: Atom):
        if isinstance(a, Var):
            return self._slot_value(a.name)
        if isinstance(a, Jet):
            return self._dependent_value(a.dep, a.index)
        if isinstance(a, Param):
            try:
                return self.inst.params[a.name]
            except KeyError:
                raise EvaluationError(f"no value for parameter {a.name!r}") from None
        if isinstance(a, Func):
            try:
                poly = self.inst.functions[a.name]
            except KeyError:
                raise EvaluationError(f"no stand-in for function {a.name!r}") from None
            for slot in a.dindex:
                poly = poly.partial(slot)
            return poly.evaluate([self.expr(arg) for arg in a.args])
        if isinstance(a, Antideriv):
            return self._antiderivative_value(a)
        if isinstance(a, Log):
            v = self.expr(a.arg)
            if isinstance(v, UPoly):
                v = v.constant()
            if v < ASSUMPTION_FLOOR:
                raise AssumptionViolationError("logarithm argument within the floor")
            return math.log(float(v))
        raise EvaluationError(f"cannot evaluate atom {a.text}")

    def _dependent_value(self, dep: str, index: tuple[str, ...]):
        try:
            slots, poly = self.inst.dependents[dep]
        except KeyError:
            raise EvaluationError(f"no stand-in for dependent variable {dep!r}") from None
        for name in index:
            try:
                poly = poly.partial(slots.index(name) + 1)
            except ValueError:
                raise EvaluationError(
                    f"jet of {dep!r} along {name!r}, which is not one of its variables") from None
        return poly.evaluate([self._slot_value(n) for n in slots])

    def _slot_value(self, name: str):
        try:
            return self.point[name]
        except KeyError:
            raise EvaluationError(f"no value for variable {name!r}") from None

    def _antiderivative_value(self, a: Antideriv):
        inner = _Eval(self.inst, {**self.point, a.var: UPoly.indeterminate()})
        body = inner.expr(a.integrand)
        if not isinstance(body, UPoly):
            body = UPoly((body,))
        x = self._slot_value(a.var)
        if isinstance(x, UPoly):
            raise EvaluationError("nested antiderivatives in the same variable")
        return body.antiderivative()(x)


def evaluate(e: ExpressionLike, inst: Instantiation, point: Mapping[str, Number]) -> Number:
    """Value of ``e`` at ``point`` under ``inst``; exact when no exp or log occurs."""
    val = _Eval(inst, point).expr(as_expression(e))
    if isinstance(val, UPoly):
        val = val.constant()
    return val


def required_point_names(
    exprs: Iterable[ExpressionLike], inst: Instantiation,
) -> tuple[str, ...]:
    """Variables a point must assign: free variables plus every dependent's slots."""
    names: set[str] = set()
    for e in exprs:
        names |= dependency_closure(as_expression(e)).variables
    for slots, _poly in inst.dependents.values():
        names |= set(slots)
    return tuple(sorted(names))


def draw_point(rng: Random, names: Sequence[str]) -> dict[str, Fraction]:
    """Random rational point with coordinates in [-2, 2] at resolution 1/100."""
    return {n: Fraction(rng.randint(-200, 200), 100) for n in names}


def fd_total(
    e: ExpressionLike,
    inst: Instantiation,
    point: Mapping[str, Number],
    variable: str,
    h: Fraction = FD_STEP,
) -> Number:
    """Central-difference total derivative along ``variable``.

    Jets are induced from the dependents' polynomials, so shifting the point
    shifts them consistently; the quotient therefore approximates the total
    derivative, not the plain partial.
    """
    e = as_expression(e)
    x0 = point[variable]
    hi = evaluate(e, inst, {**point, variable: x0 + h})
    lo = evaluate(e, inst, {**point, variable: x0 - h})
    return (hi - lo) / (2 * h)


@dataclass
class CheckResult:
    ok: bool
    points: int
    max_error: float
    worst_point: dict[str, Fraction] | None = None

    def __bool__(self):
        return self.ok


def check_identity(
    lhs: ExpressionLike,
    rhs: ExpressionLike,
    dep_vars: Mapping[str, Sequence[str]],
    *,
    seed: int | None = None,
    rng: Random | None = None,
    points: int = 10,
    tol: float = 1e-6,
    degree: int = 2,
    assumptions: Sequence[ExpressionLike] = (),
    max_attempts: int = 100,
) -> CheckResult:
    """Compare two expressions numerically at random admissible points.

    Every point gets a fresh instantiation.  A draw is discarded when an
    assumption or an internal denominator lands within the magnitude floor;
    after ``max_attempts`` discards in a row the check errors out.  The error
    measure is ``|L - R| / (1 + max(|L|, |R|))``.  ``points`` must be at
    least 1 and ``tol`` finite and non-negative, so a pass means something
    was compared.
    """
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    lhs = as_expression(lhs)
    rhs = as_expression(rhs)
    assumptions = tuple(as_expression(a) for a in assumptions)
    if rng is None:
        rng = Random(DEFAULT_SEED if seed is None else seed)
    everything = (lhs, rhs, *assumptions)
    ok = True
    max_err = 0.0
    worst = None
    for _ in range(points):
        for attempt in range(max_attempts):
            inst = Instantiation.for_expressions(everything, rng, dep_vars, degree)
            pt = draw_point(rng, required_point_names(everything, inst))
            try:
                for a in assumptions:
                    if abs(evaluate(a, inst, pt)) < ASSUMPTION_FLOOR:
                        raise AssumptionViolationError("assumption within the floor")
                v1 = evaluate(lhs, inst, pt)
                v2 = evaluate(rhs, inst, pt)
            except AssumptionViolationError:
                continue
            except ZeroDivisionError:
                continue
            break
        else:
            raise EvaluationError(
                f"no admissible point found in {max_attempts} attempts")
        err = abs(v1 - v2) / (1 + max(abs(v1), abs(v2)))
        if err > max_err:
            max_err = float(err)
            worst = pt
        if err > tol:
            ok = False
    return CheckResult(ok=ok, points=points, max_error=max_err, worst_point=worst)


def check_zero(
    e: ExpressionLike,
    dep_vars: Mapping[str, Sequence[str]],
    **kwargs,
) -> CheckResult:
    return check_identity(e, 0, dep_vars, **kwargs)
