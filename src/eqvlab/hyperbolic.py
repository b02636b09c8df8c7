"""Laplace and contact invariants of the linear hyperbolic equation.

The equation ``u_tx + a1*u_t + a2*u_x + a3*u = 0`` carries the two Laplace
combinations

    H = d(a1)/dt + a1*a2 - a3        K = d(a2)/dx + a1*a2 - a3

and, where defined, the derived quantities ``P = H/K`` and
``Q = (H*H_tx - H_t*H_x)/H^3``, the latter being the mixed second derivative
of ``log H`` divided by ``H``.  Under the maps ``t = R(y)``, ``x = S(z)``,
``u = L(y,z)*w`` of the family's group, ``H`` and ``K`` are relative
invariants of weight 1 and ``P`` and ``Q`` absolute ones; the check for that
is :func:`~eqvlab.families.invariant_check`, run on ``catalog("hyper")``.

The template is the family ``catalog("hyper")`` in the equation's variable
names, read with :func:`~eqvlab.families.match`.

When ``a1`` depends only on ``x`` and ``a2`` only on ``t`` the substitution
``u = exp(f(y) + g(z)) * w`` with antiderivative weights removes both
first-order terms; :meth:`HyperbolicEquation.reduce_to_canonical` performs
it, leaving ``w_yz + b*w = 0`` with ``b = a3 - a1*a2``, and flags the wave
equation case ``b = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateTransformationError, EqvError, VariableMismatchError
from .expressions import (
    Expression,
    ExpressionLike,
    Var,
    antiderivative,
    as_expression,
    dependency_closure,
    exp,
    jet,
    partial,
    substitute,
    var,
)
from .families import EquationFamily, catalog, match
from .prolongation import PointTransformation, transform_equation

__all__ = [
    "HyperbolicEquation",
    "InvariantReport",
    "Reduction",
]


@dataclass
class InvariantReport:
    """Laplace invariants plus the derived contact quantities.

    ``p`` is ``None`` exactly when ``k`` vanishes identically, ``q`` exactly
    when ``h`` does; the flags ``k_zero`` and ``h_zero`` say so.
    """

    h: Expression
    k: Expression
    p: Expression | None
    q: Expression | None
    h_zero: bool
    k_zero: bool
    wave_reducible: bool

    def to_json(self):
        return {
            "H": self.h.text,
            "K": self.k.text,
            "P": None if self.p is None else self.p.text,
            "Q": None if self.q is None else self.q.text,
            "flags": {
                "H_zero": self.h_zero,
                "K_zero": self.k_zero,
                "wave_reducible": self.wave_reducible,
            },
        }


@dataclass
class Reduction:
    """Outcome of the canonical reduction."""

    transformation: PointTransformation
    b: Expression
    reduced: Expression
    wave: bool
    # b in closed form, a3 - a1*a2 in the new variables; equal to b
    b_closed: Expression

    def to_json(self):
        tr = self.transformation
        return {
            "b": self.b.text,
            "reduced": self.reduced.text,
            "wave": self.wave,
            "transformation": {
                **{n: tr.indep_map[n].text for n in tr.old_vars},
                tr.old_dep: tr.dep_map.text,
            },
        }


class HyperbolicEquation:
    """``u_tx + a1*u_t + a2*u_x + a3*u = 0`` with named variables."""

    __slots__ = ("a1", "a2", "a3", "t", "x", "u")

    def __init__(
        self,
        a1: ExpressionLike,
        a2: ExpressionLike,
        a3: ExpressionLike,
        t: str = "t",
        x: str = "x",
        u: str = "u",
    ):
        self.a1 = as_expression(a1)
        self.a2 = as_expression(a2)
        self.a3 = as_expression(a3)
        self.t, self.x, self.u = t, x, u
        if len({t, x, u}) != 3:
            raise VariableMismatchError("variable names must be distinct")
        for name, e in (("a1", self.a1), ("a2", self.a2), ("a3", self.a3)):
            deps = dependency_closure(e)
            stray = deps.variables - {t, x}
            if stray:
                raise VariableMismatchError(
                    f"coefficient {name} uses variables {sorted(stray)} outside ({t}, {x})")
            if deps.jets:
                raise VariableMismatchError(
                    f"coefficient {name} involves jets; the equation would not be linear")

    @classmethod
    def generic(cls, t: str = "t", x: str = "x", u: str = "u") -> "HyperbolicEquation":
        """The equation with three fully arbitrary two-variable coefficients."""
        return cls(**{s.name: s.func_expr() for s in _template(t, x, u).slots}, t=t, x=x, u=u)

    @classmethod
    def from_expression(cls, e: ExpressionLike, t: str, x: str, u: str) -> tuple["HyperbolicEquation", Expression]:
        """Read coefficients off an expression matching the template.

        Returns the equation together with the lead coefficient that was
        divided out; the coefficients themselves are collected numerators
        over the lead numerator, free of the shared denominator.
        """
        report = match(e, _template(t, x, u))
        if report.lead_coefficient.is_zero():  # no lead, or jets in the denominator
            raise VariableMismatchError(
                f"no {report.family.lead.text} term; expression is not of the hyperbolic shape")
        if not report.residual.is_zero():
            raise VariableMismatchError(
                f"terms outside the hyperbolic template: {report.residual.text}")
        return cls(**report.coefficients, t=t, x=x, u=u), report.lead_coefficient

    def expression(self) -> Expression:
        return _template(self.t, self.x, self.u).equation(
            {"a1": self.a1, "a2": self.a2, "a3": self.a3})

    def laplace_h(self) -> Expression:
        return partial(self.a1, Var(self.t)) + self.a1 * self.a2 - self.a3

    def laplace_k(self) -> Expression:
        return partial(self.a2, Var(self.x)) + self.a1 * self.a2 - self.a3

    def invariants(self) -> InvariantReport:
        h = self.laplace_h()
        k = self.laplace_k()
        h_zero = h.is_zero()
        k_zero = k.is_zero()
        p = None if k_zero else h / k
        q = None if h_zero else _log_mixed_over(h, self.t, self.x)
        return InvariantReport(
            h=h, k=k, p=p, q=q,
            h_zero=h_zero, k_zero=k_zero,
            wave_reducible=(self.a3 - self.a1 * self.a2).is_zero(),
        )

    def reduce_to_canonical(
        self, constants: tuple[ExpressionLike, ExpressionLike] = (0, 0),
    ) -> Reduction:
        """Remove the first-order terms by an exponential-weight substitution.

        Requires ``a1`` to depend only on ``x`` and ``a2`` only on ``t``.  The
        substitution is ``t = y``, ``x = z``,
        ``u = exp((c1 - int(a2)) + (c2 - int(a1))) * w`` with the integration
        constants ``constants`` (zero by default, for a reproducible choice).
        The reduced equation is ``w_yz + b*w`` with ``b = a3 - a1*a2`` in the
        new variables.
        """
        y, z, new_dep = "y", "z", "w"
        d1 = dependency_closure(self.a1)
        d2 = dependency_closure(self.a2)
        if not d1.variables <= {self.x}:
            raise DegenerateTransformationError(
                f"a1 must depend only on {self.x}; it uses {sorted(d1.variables)}")
        if not d2.variables <= {self.t}:
            raise DegenerateTransformationError(
                f"a2 must depend only on {self.t}; it uses {sorted(d2.variables)}")
        c1, c2 = (as_expression(c) for c in constants)
        for c in (c1, c2):
            dc = dependency_closure(c)
            if dc.variables or dc.jets:
                raise DegenerateTransformationError("integration constants must be constant")
        a2_y = substitute(self.a2, {Var(self.t): var(y)})
        a1_z = substitute(self.a1, {Var(self.x): var(z)})
        f = c1 - antiderivative(a2_y, y)
        g = c2 - antiderivative(a1_z, z)
        tr = PointTransformation(
            (self.t, self.x), self.u, (y, z), new_dep,
            {self.t: var(y), self.x: var(z)}, exp(f + g) * jet(new_dep))
        try:
            reduced, _ = HyperbolicEquation.from_expression(
                transform_equation(self.expression(), tr), y, z, new_dep)
        except VariableMismatchError:
            raise EqvError("reduction produced an unexpected shape") from None
        if not reduced.a1.is_zero() or not reduced.a2.is_zero():
            raise EqvError("first-order terms survived the reduction")
        b = reduced.a3
        b_closed = substitute(self.a3, {Var(self.t): var(y), Var(self.x): var(z)}) - a1_z * a2_y
        if not (b - b_closed).is_zero():
            raise EqvError("reduced coefficient disagrees with its closed form")
        return Reduction(
            transformation=tr,
            b=b,
            reduced=reduced.expression(),
            wave=b.is_zero(),
            b_closed=b_closed,
        )


def _template(t: str, x: str, u: str) -> EquationFamily:
    """The hyperbolic template, ``catalog("hyper")`` in ``(t, x, u)``."""
    return catalog("hyper").rename((t, x), u)


def _log_mixed_over(h: Expression, t: str, x: str) -> Expression:
    """``(h*h_tx - h_t*h_x)/h^3``: the mixed log-derivative divided by ``h``."""
    ht = partial(h, Var(t))
    hx = partial(h, Var(x))
    htx = partial(ht, Var(x))
    return (h * htx - ht * hx) / (h * h * h)
