"""Laplace and contact invariants of the linear hyperbolic equation.

The equation ``u_tx + a1*u_t + a2*u_x + a3*u = 0`` carries the two Laplace
combinations

    H = d(a1)/dt + a1*a2 - a3        K = d(a2)/dx + a1*a2 - a3

and, where defined, the derived quantities ``P = H/K`` and
``Q = (H*H_tx - H_t*H_x)/H^3``, the latter being the mixed second derivative
of ``log H`` divided by ``H``.  ``P`` and ``Q`` are unchanged under the
variable rescalings ``t = R(y)``, ``x = S(z)``, ``u = L(y,z)*w``; the check
for that is :meth:`HyperbolicEquation.contact_invariance_check`.

When ``a1`` depends only on ``x`` and ``a2`` only on ``t`` the substitution
``u = exp(f(y) + g(z)) * w`` with antiderivative weights removes both
first-order terms; :meth:`HyperbolicEquation.reduce_to_canonical` performs
it, leaving ``w_yz + b*w = 0`` with ``b = a3 - a1*a2``, and flags the wave
equation case ``b = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateTransformationError,
    EqvError,
    UndefinedInvariantError,
    VariableMismatchError,
)
from .expressions import (
    Expression,
    ExpressionLike,
    Jet,
    Var,
    antiderivative,
    as_expression,
    collect_numerators,
    dependency_closure,
    exp,
    jet,
    partial,
    substitute,
    var,
)
from .prolongation import PointTransformation, transform_equation

__all__ = [
    "HyperbolicEquation",
    "InvariantReport",
    "Reduction",
    "ContactInvarianceResult",
]


@dataclass
class InvariantReport:
    """Laplace invariants plus the derived contact quantities.

    ``p`` and ``q`` are ``None`` exactly when their divisor vanishes
    identically; :meth:`require_p` and :meth:`require_q` turn that into
    :class:`UndefinedInvariantError` with the vanishing combination attached.
    """

    h: Expression
    k: Expression
    p: Expression | None
    q: Expression | None
    h_zero: bool
    k_zero: bool
    wave_reducible: bool

    def require_p(self) -> Expression:
        if self.p is None:
            raise UndefinedInvariantError(
                "second Laplace combination normalizes to zero; the ratio is undefined",
                certificate=self.k)
        return self.p

    def require_q(self) -> Expression:
        if self.q is None:
            raise UndefinedInvariantError(
                "first Laplace combination normalizes to zero; its logarithm has no "
                "mixed derivative", certificate=self.h)
        return self.q

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


@dataclass
class ContactInvarianceResult:
    """Outcome of checking that ``P`` and ``Q`` survive a transformation."""

    holds: bool
    p_difference: Expression
    q_difference: Expression
    transformed: "HyperbolicEquation"
    lead_coefficient: Expression


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
        from .expressions import func

        tv, xv = var(t), var(x)
        return cls(func("a1", tv, xv), func("a2", tv, xv), func("a3", tv, xv), t, x, u)

    @classmethod
    def from_expression(cls, e: ExpressionLike, t: str, x: str, u: str) -> tuple["HyperbolicEquation", Expression]:
        """Read coefficients off an expression of the right shape.

        Returns the equation together with the lead coefficient that was
        divided out; the coefficients themselves are collected numerators
        over the lead numerator, free of the shared denominator.
        """
        e = as_expression(e)
        lead = jet(u, t, x)
        monos = [lead, jet(u, t), jet(u, x), jet(u)]
        nums, residual, den = collect_numerators(e, monos)
        n = nums[lead]
        if n.is_zero():
            raise VariableMismatchError(
                f"no {lead.text} term; expression is not of the hyperbolic shape")
        if not residual.is_zero():
            raise VariableMismatchError(
                f"terms outside the hyperbolic template: {(residual / den).text}")
        eq = cls(nums[monos[1]] / n, nums[monos[2]] / n, nums[monos[3]] / n, t, x, u)
        return eq, n / den

    def expression(self) -> Expression:
        return (jet(self.u, self.t, self.x)
                + self.a1 * jet(self.u, self.t)
                + self.a2 * jet(self.u, self.x)
                + self.a3 * jet(self.u))

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
        self,
        constants: tuple[ExpressionLike, ExpressionLike] = (0, 0),
        new_vars: tuple[str, str] = ("y", "z"),
        new_dep: str = "w",
    ) -> Reduction:
        """Remove the first-order terms by an exponential-weight substitution.

        Requires ``a1`` to depend only on ``x`` and ``a2`` only on ``t``.  The
        substitution is ``t = y``, ``x = z``,
        ``u = exp((c1 - int(a2)) + (c2 - int(a1))) * w`` with the integration
        constants ``constants`` (zero by default, for a reproducible choice).
        The reduced equation is ``w_yz + b*w`` with ``b = a3 - a1*a2`` in the
        new variables.
        """
        y, z = new_vars
        if len({y, z, new_dep}) != 3:
            raise VariableMismatchError("target variable names must be distinct")
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
        te = transform_equation(self.expression(), tr)
        try:
            reduced, _ = HyperbolicEquation.from_expression(te, y, z, new_dep)
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

    def contact_invariance_check(
        self,
        tr: PointTransformation,
    ) -> ContactInvarianceResult:
        """Verify that ``P`` and ``Q`` are unchanged by ``tr``.

        ``tr`` must reparametrize each variable separately and rescale the
        dependent variable: first target variable only in the ``t`` map,
        second only in the ``x`` map, and a dependent map that is a multiple
        of the bare target dependent variable.  The transformed equation's
        invariants are compared against the originals composed with the
        variable maps; both differences must normalize to zero.
        """
        if tuple(tr.old_vars) != (self.t, self.x) or tr.old_dep != self.u:
            raise VariableMismatchError(
                f"transformation source is {tr.old_vars}/{tr.old_dep}, "
                f"equation uses ({self.t}, {self.x})/{self.u}")
        y, z = tr.new_vars
        for name, allowed in ((self.t, {y}), (self.x, {z})):
            deps = dependency_closure(tr.indep_map[name])
            if not deps.variables <= allowed or deps.jets:
                raise DegenerateTransformationError(
                    f"map for {name!r} must involve only {sorted(allowed)}")
        wj = Jet(tr.new_dep, ())
        scale = partial(tr.dep_map, wj)
        if scale.is_zero() or not (tr.dep_map - scale * as_expression(wj)).is_zero():
            raise DegenerateTransformationError(
                "dependent map must be a multiple of the target dependent variable")
        if dependency_closure(scale).jets:
            raise DegenerateTransformationError("the multiplier must not involve the target")

        te = transform_equation(self.expression(), tr)
        transformed, _lead = HyperbolicEquation.from_expression(te, y, z, tr.new_dep)

        binds = {Var(self.t): tr.indep_map[self.t], Var(self.x): tr.indep_map[self.x]}
        inv_src = self.invariants()
        inv_tgt = transformed.invariants()
        p_src = substitute(inv_src.require_p(), binds)
        q_src = substitute(inv_src.require_q(), binds)
        p_diff = inv_tgt.require_p() - p_src
        q_diff = inv_tgt.require_q() - q_src
        return ContactInvarianceResult(
            holds=p_diff.is_zero() and q_diff.is_zero(),
            p_difference=p_diff,
            q_difference=q_diff,
            transformed=transformed,
            lead_coefficient=_lead,
        )


def _log_mixed_over(h: Expression, t: str, x: str) -> Expression:
    """``(h*h_tx - h_t*h_x)/h^3``: the mixed log-derivative divided by ``h``."""
    ht = partial(h, Var(t))
    hx = partial(h, Var(x))
    htx = partial(ht, Var(x))
    return (h * htx - ht * hx) / (h * h * h)
