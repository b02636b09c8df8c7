"""Families of equations and form preservation under point transformations.

An :class:`EquationFamily` is a template ``lead + sum_j a_j(args_j) * M_j``
where the lead and the ``M_j`` are jet monomials of one dependent variable
and each coefficient ``a_j`` is an arbitrary function of a declared argument
tuple.  :func:`match` decides whether a concrete expression is a member of a
family and, when it is, extracts the induced action on the coefficient
functions; :func:`check_equivalence` runs that decision on the image of the
generic member under a point transformation, which is exactly the question
"does this transformation preserve the family's form".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .errors import TheoremPreconditionError, UnknownFamilyError, VariableMismatchError
from .expressions import (
    ZERO,
    Atom,
    Expression,
    ExpressionLike,
    Jet,
    Monomial,
    Var,
    as_expression,
    collect_numerators,
    dependency_closure,
    expr_sum,
    from_monomial,
    func,
    jet,
    jet_split,
    partial,
    polynomial_jets,
    sign_canonical,
)
from .prolongation import PointTransformation, ProlongedMap, transform_derivatives

__all__ = [
    "EQUIVALENCE",
    "NOT_EQUIVALENCE",
    "CoefficientSlot",
    "EquationFamily",
    "MatchFailure",
    "MatchReport",
    "TheoremCheckResult",
    "match",
    "check_equivalence",
    "theorem_instance_check",
    "compose",
    "catalog",
    "catalog_names",
]

EQUIVALENCE = "equivalence"
NOT_EQUIVALENCE = "not-equivalence"


def _jet_monomial(e: Expression, dep: str) -> Monomial:
    terms = e.num_terms()
    if len(terms) != 1 or e.denominator() != as_expression(1):
        raise ValueError(f"{e.text} is not a single monomial")
    c, m = terms[0]
    if c != 1 or m.exparg is not None:
        raise ValueError(f"{e.text} is not a coefficient-one jet monomial")
    for a, _ in m.atoms:
        if not isinstance(a, Jet) or a.dep != dep:
            raise ValueError(f"{e.text} contains {a!r}, not a jet of {dep!r}")
    return m


class CoefficientSlot:
    """One arbitrary-function coefficient of a family.

    ``args`` lists the atoms the function may depend on: independent
    variables and jets of the family's dependent variable.  ``monomial`` is
    the jet monomial the coefficient multiplies.
    """

    __slots__ = ("name", "args", "monomial")

    def __init__(self, name: str, args: Sequence[Atom], monomial: ExpressionLike):
        self.name = name
        self.args = tuple(args)
        self.monomial = as_expression(monomial)

    def __repr__(self):
        return "%s(%s)*%s" % (
            self.name, ",".join(a.text for a in self.args), self.monomial.text)

    def __eq__(self, other):
        if not isinstance(other, CoefficientSlot):
            return NotImplemented
        return (self.name == other.name and self.args == other.args
                and self.monomial == other.monomial)

    def __hash__(self):
        return hash((self.name, self.args, self.monomial))

    def func_expr(self) -> Expression:
        return func(self.name, *[as_expression(a) for a in self.args])

    def allowed_variables(self) -> frozenset:
        return frozenset(a.name for a in self.args if isinstance(a, Var))

    def allowed_jets(self) -> frozenset:
        return frozenset(a for a in self.args if isinstance(a, Jet))


class EquationFamily:
    """A quasilinear template over one dependent variable."""

    __slots__ = ("name", "indep_vars", "dep", "lead", "slots")

    def __init__(
        self,
        name: str,
        indep_vars: Sequence[str],
        dep: str,
        lead: ExpressionLike,
        slots: Sequence[CoefficientSlot],
    ):
        self.name = name
        self.indep_vars = tuple(indep_vars)
        self.dep = dep
        self.lead = as_expression(lead)
        self.slots = tuple(slots)
        lead_m = _jet_monomial(self.lead, self.dep)
        seen = {lead_m}
        names = set()
        for s in self.slots:
            if s.name in names:
                raise ValueError(f"duplicate slot name {s.name!r}")
            names.add(s.name)
            m = _jet_monomial(s.monomial, self.dep)
            if m in seen:
                raise ValueError(f"slot monomial {s.monomial.text} repeats")
            seen.add(m)
            for a in s.args:
                if isinstance(a, Var):
                    if a.name not in self.indep_vars:
                        raise VariableMismatchError(
                            f"slot {s.name!r} argument {a.text} is not a family variable")
                elif isinstance(a, Jet):
                    if a.dep != self.dep or not set(a.index) <= set(self.indep_vars):
                        raise VariableMismatchError(
                            f"slot {s.name!r} argument {a.text} does not fit the family")
                else:
                    raise VariableMismatchError(
                        f"slot {s.name!r} argument {a!r} must be a variable or jet")

    def __repr__(self):
        return "EquationFamily(%s: %s + %s = 0)" % (
            self.name, self.lead.text,
            " + ".join(repr(s) for s in self.slots))

    def __eq__(self, other):
        # the name is a label; two families are the same template when the
        # variables, lead, and slots agree
        if not isinstance(other, EquationFamily):
            return NotImplemented
        return (self.indep_vars == other.indep_vars and self.dep == other.dep
                and self.lead == other.lead
                and sorted(self.slots, key=lambda s: s.name)
                == sorted(other.slots, key=lambda s: s.name))

    def __hash__(self):
        return hash((self.indep_vars, self.dep, self.lead,
                     tuple(sorted(self.slots, key=lambda s: s.name))))

    def member(self) -> Expression:
        """The generic member's left-hand side."""
        return self.lead + expr_sum(s.func_expr() * s.monomial for s in self.slots)

    def rename(self, new_vars: Sequence[str], new_dep: str) -> "EquationFamily":
        """The same family written in other variable names, positionally."""
        new_vars = tuple(new_vars)
        if len(new_vars) != len(self.indep_vars):
            raise VariableMismatchError(
                f"{self.name}: got {len(new_vars)} variables, need {len(self.indep_vars)}")
        if new_vars == self.indep_vars and new_dep == self.dep:
            return self
        vmap = dict(zip(self.indep_vars, new_vars))

        def ratom(a: Atom) -> Atom:
            if isinstance(a, Var):
                return Var(vmap[a.name])
            return Jet(new_dep, tuple(vmap[i] for i in a.index))

        def rmono(e: Expression) -> Expression:
            m = _jet_monomial(e, self.dep)
            out = as_expression(1)
            for a, k in m.atoms:
                out = out * as_expression(ratom(a)) ** k
            return out

        return EquationFamily(
            self.name, new_vars, new_dep, rmono(self.lead),
            [CoefficientSlot(s.name, [ratom(a) for a in s.args], rmono(s.monomial))
             for s in self.slots],
        )


@dataclass
class MatchFailure:
    """One reason a match came out negative.

    ``kind`` is one of ``denominator-jets`` (jet variables in a denominator;
    the coefficient shown must vanish for the form to survive),
    ``missing-lead``, ``unmatched-term`` (a jet monomial outside the
    template), or ``forbidden-dependency`` (a coefficient depends on more
    than its slot allows).
    """

    kind: str
    monomial: Expression
    coefficient: Expression
    slot: str | None = None
    forbidden: tuple[str, ...] = ()

    def to_json(self):
        out = {
            "kind": self.kind,
            "monomial": self.monomial.text,
            "coefficient": self.coefficient.text,
        }
        if self.slot is not None:
            out["slot"] = self.slot
        if self.forbidden:
            out["forbidden"] = list(self.forbidden)
        return out


@dataclass
class MatchReport:
    """The result of matching an expression against a family.

    ``action`` is the induced action of an equivalence, the transformed
    coefficient function of each slot by name; ``None`` otherwise.
    """

    verdict: str
    family: EquationFamily
    expression: Expression
    lead_coefficient: Expression
    coefficients: dict = field(default_factory=dict)
    action: dict[str, Expression] | None = None
    failures: list = field(default_factory=list)
    assumptions: tuple = ()
    absorbed_slot: str | None = None
    residual: Expression = ZERO

    def reconstruction(self) -> Expression:
        """``lead_coefficient * template(coefficients) + residual``; equals the
        matched expression identically whenever the lead was found."""
        body = self.family.lead + expr_sum(
            self.coefficients[s.name] * s.monomial for s in self.family.slots
            if s.name in self.coefficients)
        return self.lead_coefficient * body + self.residual

    def to_json(self):
        return {
            "verdict": self.verdict,
            "induced_action": {name: e.text for name, e in (self.action or {}).items()},
            "assumptions": [a.text for a in self.assumptions],
            "failures": [f.to_json() for f in self.failures],
        }


def _jet_failures(groups: dict, divisor: Expression, kind: str) -> list[MatchFailure]:
    """One failure per jet monomial of a :func:`jet_split`, its coefficient
    divided by ``divisor`` and made sign-canonical."""
    return [MatchFailure(kind, from_monomial(jp), sign_canonical(groups[jp] / divisor))
            for jp in sorted(groups, key=Monomial.order_key)]


def match(
    e: ExpressionLike,
    family: EquationFamily,
    *,
    denominator_evidence: Expression | None = None,
    assumptions: Iterable[Expression] = (),
) -> MatchReport:
    """Decide membership of ``e`` in ``family`` and extract the coefficient map.

    The expression is collected over the lead and slot monomials, as
    numerators ``N_j`` over the shared denominator ``D``.  The lead numerator
    ``N_L`` must be present; each slot coefficient is ``N_j / N_L``, so ``D``
    never enters it, while the report's ``lead_coefficient`` is ``N_L / D``.
    The part of the leftover free of dependent-variable jets is absorbed
    into the unique slot whose monomial is the bare dependent variable and
    whose argument list contains it, when such a slot exists; jet-bearing
    leftovers are reported as unmatched terms.  Finally each coefficient
    must depend on nothing outside its slot's argument list; function base
    names and parameters are never constrained.  An atom the dependency
    closure shows but the coefficient's partial derivative in it cancels is
    not a dependency, except for a variable in the index of a jet that is.

    When the denominator of ``e`` contains jet variables of the dependent
    variable no form of this shape exists; the report then carries one
    failure per jet monomial of the denominator (or of
    ``denominator_evidence``, when the caller has a sharper certificate such
    as the first-order prolongation denominator).
    """
    e = as_expression(e)
    dep = family.dep
    base_assumptions = tuple(assumptions)

    monos = [family.lead] + [s.monomial for s in family.slots]
    nums, residual, den = collect_numerators(e, monos)
    lead_n = nums[family.lead]
    if lead_n.is_zero():
        # nothing is attributed when the denominator carries jets
        if polynomial_jets(den, dep):
            evidence = denominator_evidence if denominator_evidence is not None else den
            groups = jet_split(evidence, (dep,))
            groups.pop(Monomial(), None)
            failures = _jet_failures(groups, evidence.denominator(), "denominator-jets")
        else:
            failures = [MatchFailure("missing-lead", family.lead, ZERO)]
        return MatchReport(
            verdict=NOT_EQUIVALENCE,
            family=family,
            expression=e,
            lead_coefficient=ZERO,
            failures=failures,
            assumptions=base_assumptions,
            residual=e,
        )

    lead_c = lead_n / den
    B = {s.name: nums[s.monomial] / lead_n for s in family.slots}
    # only the part free of dep jets can legally ride in a bare-dep slot
    # (divided by the dependent variable); jet-bearing leftovers never can
    groups = jet_split(residual, (dep,))
    free = groups.pop(Monomial(), ZERO)
    failures = _jet_failures(groups, lead_n, "unmatched-term")
    absorbed = None
    if not free.is_zero():
        bare = Jet(dep, ())
        candidates = [
            s for s in family.slots
            if _jet_monomial(s.monomial, dep).atoms == ((bare, 1),) and bare in s.args
        ]
        if len(candidates) == 1:
            s = candidates[0]
            B[s.name] = B[s.name] + free / (lead_n * as_expression(bare))
            absorbed = s.name
            residual = residual - free
        else:
            failures.extend(_jet_failures({Monomial(): free}, lead_n, "unmatched-term"))

    for s in family.slots:
        b = B[s.name]
        d = dependency_closure(b)
        okv = s.allowed_variables()
        okj = s.allowed_jets()
        if d.within(okv, okj):
            continue
        # the closure is syntactic: keep only what b really varies with
        jets = [j for j in d.jets - okj if not partial(b, j).is_zero()]
        carried = {v for j in jets for v in j.index}
        names = [v for v in d.variables - okv
                 if v in carried or not partial(b, Var(v)).is_zero()]
        if names or jets:
            failures.append(MatchFailure(
                "forbidden-dependency", s.monomial, b, slot=s.name,
                forbidden=tuple(sorted(names) + sorted(j.text for j in jets))))

    verdict = EQUIVALENCE if not failures else NOT_EQUIVALENCE
    all_assumptions = []
    if not lead_c.is_constant():
        all_assumptions.append(lead_c)
    all_assumptions.extend(base_assumptions)
    return MatchReport(
        verdict=verdict,
        family=family,
        expression=e,
        lead_coefficient=lead_c,
        coefficients=B,
        action=dict(B) if verdict == EQUIVALENCE else None,
        failures=failures,
        assumptions=tuple(all_assumptions),
        absorbed_slot=absorbed,
        residual=residual / den,
    )


def check_equivalence(family: EquationFamily, tr: PointTransformation) -> MatchReport:
    """Is ``tr`` an equivalence transformation of ``family``?

    The generic member is transformed, then matched against the family
    written in the target variables.  The report's assumptions include the
    prolongation denominators.  When the transformed equation's denominator
    picks up target jets, the failure evidence shown is the first-order
    prolongation denominator's jet coefficients: those must vanish for any
    transformation of this shape to stay pointwise.
    """
    return _check_prolonged(family, transform_derivatives(tr))


def _check_prolonged(family: EquationFamily, pm: ProlongedMap) -> MatchReport:
    """:func:`check_equivalence` for a map already prolonged."""
    tr = pm.transformation
    te = pm.apply(family.rename(tr.old_vars, tr.old_dep).member())
    fam_tgt = family.rename(tr.new_vars, tr.new_dep)
    evidence = pm.det if polynomial_jets(pm.det, tr.new_dep) else None
    return match(
        te, fam_tgt,
        denominator_evidence=evidence,
        assumptions=pm.assumptions,
    )


@dataclass
class TheoremCheckResult:
    """Outcome of one dummy-variables containment check."""

    holds: bool
    source_report: MatchReport
    target_report: MatchReport


def _full_jet_args(indep_vars: Sequence[str], dep: str, order: int) -> set:
    out = set()
    for r in range(order + 1):
        for comb in combinations_with_replacement(sorted(indep_vars), r):
            out.add(Jet(dep, comb))
    return out


def _validate_enlargement(famA: EquationFamily, famB: EquationFamily) -> None:
    if famA.indep_vars != famB.indep_vars or famA.dep != famB.dep:
        raise VariableMismatchError("families live over different variables")
    if famA.lead != famB.lead:
        raise VariableMismatchError("families have different lead monomials")
    slots_a = {s.name: s for s in famA.slots}
    slots_b = {s.name: s for s in famB.slots}
    if set(slots_a) != set(slots_b):
        raise VariableMismatchError("families have different slot names")
    arg_sets = {frozenset(s.args) for s in famB.slots}
    if len(arg_sets) != 1:
        raise VariableMismatchError("enlarged family must use one argument tuple everywhere")
    b_args = next(iter(arg_sets))
    jets = [a for a in b_args if isinstance(a, Jet)]
    max_order = max((j.order for j in jets), default=-1)
    expected = {Var(v) for v in famB.indep_vars}
    if max_order >= 0:
        expected |= _full_jet_args(famB.indep_vars, famB.dep, max_order)
    if set(b_args) != expected:
        raise VariableMismatchError(
            "enlarged family arguments must be the variables plus all jets up to one order")
    for name, sa in slots_a.items():
        sb = slots_b[name]
        if sa.monomial != sb.monomial:
            raise VariableMismatchError(f"slot {name!r} multiplies different monomials")
        if not set(sa.args) <= set(sb.args):
            raise VariableMismatchError(f"slot {name!r} arguments shrink instead of growing")


def theorem_instance_check(
    famA: EquationFamily,
    famB: EquationFamily,
    tr: PointTransformation,
) -> TheoremCheckResult:
    """Check one instance of the dummy-variables containment.

    ``famB`` must be ``famA`` with every coefficient's argument list enlarged
    to the full set of variables and jets up to a fixed order.  ``tr`` must be
    an equivalence transformation of ``famA``; the result records whether it
    is one of ``famB`` as well, which the containment asserts it always is.
    Raises :class:`TheoremPreconditionError` when ``tr`` fails the
    ``famA``-membership precondition, with the failing report attached.
    """
    _validate_enlargement(famA, famB)
    # famB differs from famA only in argument lists, so one prolongation serves both
    pm = transform_derivatives(tr)
    rep_a = _check_prolonged(famA, pm)
    if rep_a.verdict != EQUIVALENCE:
        raise TheoremPreconditionError(
            f"transformation is not an equivalence transformation of {famA.name}",
            report=rep_a)
    rep_b = _check_prolonged(famB, pm)
    return TheoremCheckResult(
        holds=rep_b.verdict == EQUIVALENCE,
        source_report=rep_a,
        target_report=rep_b,
    )


def compose(first: PointTransformation, second: PointTransformation) -> PointTransformation:
    """The composite transformation: apply ``second``'s substitution to ``first``.

    Equivalence transformations of a family are closed under this operation.
    """
    return first.compose(second)


def catalog_names() -> tuple[str, ...]:
    return ("glin", "gliny", "glin0y", "hyper", "hyperu", "hyperxp", "hypertt")


def catalog(name: str, order: int | None = None) -> EquationFamily:
    """A named family.

    ``glin``, ``gliny`` and ``glin0y`` are the linear ordinary families of a
    given order (at least 3): highest derivative plus one arbitrary-function
    coefficient per lower derivative, the coefficients depending on the
    independent variable, on both variables, or on the dependent variable
    alone.  The hyperbolic families share the template
    ``u_tx + a1*u_t + a2*u_x + a3*u`` and differ in the coefficients'
    argument lists: both variables for ``hyper``, both plus ``u`` for
    ``hyperu``, ``a1(x)/a2(t)/a3(t,x)`` for ``hyperxp`` and
    ``a1(t)/a2(t)/a3(t,x)`` for ``hypertt``.
    """
    if name in ("glin", "gliny", "glin0y"):
        if order is None:
            raise UnknownFamilyError(f"{name} needs an order")
        if order < 3:
            raise ValueError(f"{name} is defined for order 3 and up, got {order}")
        x = Var("x")
        y0 = Jet("y", ())
        argspec = {
            "glin": (x,),
            "gliny": (x, y0),
            "glin0y": (y0,),
        }[name]
        lead = jet("y", *("x",) * order)
        slots = [
            CoefficientSlot("a%d" % j, argspec, jet("y", *("x",) * (order - j)))
            for j in range(1, order + 1)
        ]
        return EquationFamily(name, ("x",), "y", lead, slots)
    if name in ("hyper", "hyperu", "hyperxp", "hypertt"):
        if order is not None:
            raise ValueError(f"{name} does not take an order")
        t, x = Var("t"), Var("x")
        u0 = Jet("u", ())
        argspecs = {
            "hyper": {"a1": (t, x), "a2": (t, x), "a3": (t, x)},
            "hyperu": {"a1": (t, x, u0), "a2": (t, x, u0), "a3": (t, x, u0)},
            "hyperxp": {"a1": (x,), "a2": (t,), "a3": (t, x)},
            "hypertt": {"a1": (t,), "a2": (t,), "a3": (t, x)},
        }[name]
        monos = {"a1": jet("u", "t"), "a2": jet("u", "x"), "a3": jet("u")}
        slots = [CoefficientSlot(n, argspecs[n], monos[n]) for n in ("a1", "a2", "a3")]
        return EquationFamily(name, ("t", "x"), "u", jet("u", "t", "x"), slots)
    raise UnknownFamilyError(f"no family named {name!r}")
