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
from typing import Iterable, Mapping, Sequence

from . import expressions
from .errors import (
    TheoremPreconditionError,
    UnknownFamilyError,
    UnsupportedAtomError,
    VariableMismatchError,
)
from .expressions import (
    ZERO,
    Atom,
    Expression,
    ExpressionLike,
    Func,
    Jet,
    Monomial,
    Var,
    _jet_monomial,
    _pmul,
    as_atom,
    as_expression,
    dependency_closure,
    expr_sum,
    from_monomial,
    func,
    jet,
    partial,
    polynomial_jets,
    sign_canonical,
    substitute,
    substitute_functions,
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
    "invariant_check",
    "catalog",
    "catalog_names",
]

EQUIVALENCE = "equivalence"
NOT_EQUIVALENCE = "not-equivalence"


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

    __slots__ = ("name", "indep_vars", "dep", "lead", "slots", "_monomials", "_key")

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
        if len(set(self.indep_vars)) != len(self.indep_vars) or dep in self.indep_vars:
            raise VariableMismatchError(f"{name}: bad variables {self.indep_vars} / {dep}")
        self.lead = as_expression(lead)
        self.slots = tuple(slots)
        monos = [_jet_monomial(self.lead, self.dep, "lead ")]
        names = set()
        for s in self.slots:
            if s.name in names:
                raise ValueError(f"duplicate slot name {s.name!r}")
            names.add(s.name)
            m = _jet_monomial(s.monomial, self.dep, f"slot {s.name!r} monomial ")
            if m in monos:
                raise ValueError(f"slot {s.name!r} monomial {s.monomial.text} repeats")
            monos.append(m)
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
        # the template's jet monomials, lead first, for rename and match
        self._monomials = tuple(monos)
        self._key = None  # the template key, built by _template_key()

    @classmethod
    def from_template(cls, name: str, expression: ExpressionLike,
                      variables: Sequence[str]) -> "EquationFamily":
        """The family an inline template writes: one bare lead monomial plus
        terms ``a_j(args_j) * M_j``, each with coefficient 1 and one
        undifferentiated function whose arguments are bare atoms.

        The family's variables are those of ``variables`` the template
        reaches, in that order, and its dependent variable is the one whose
        jets it reaches; the slots are sorted by name.  The constructor
        checks the kinds of the factors, arguments and monomials.  Every
        refusal is a ``ValueError`` or an :class:`~eqvlab.errors.EqvError`.
        """
        e = as_expression(expression)
        if not e.denominator().is_one():
            raise ValueError("a family template must be polynomial")
        lead = None
        slots = []
        for c, m in reversed(e.num_terms()):
            fn = [a for a, _k in m.atoms if isinstance(a, Func)]
            if not fn:
                if c != 1:
                    raise ValueError("the lead monomial must have coefficient 1")
                if lead is not None:
                    raise ValueError("two terms without a coefficient function")
                lead = from_monomial(m)
                continue
            f = fn[0]
            if len(fn) > 1 or dict(m.atoms)[f] != 1:
                raise ValueError("each term may carry one coefficient function, once")
            if f.dindex:
                raise ValueError("a family template cannot differentiate its coefficients")
            if c != 1:
                raise ValueError(f"slot {f.name!r} must have coefficient 1")
            try:
                args = [as_atom(a) for a in f.args]
            except UnsupportedAtomError as exc:
                raise ValueError(f"slot {f.name!r} argument {exc}") from None
            slots.append(CoefficientSlot(f.name, args, from_monomial(m.without({f: 1}))))
        if lead is None:
            raise ValueError("a family template needs a bare lead monomial")
        deps = dependency_closure(e)
        dep = {j.dep for j in deps.jets}
        if len(dep) != 1:
            raise ValueError("a family template must use exactly one dependent variable")
        slots.sort(key=lambda s: s.name)
        return cls(name, [v for v in variables if v in deps.variables], dep.pop(), lead, slots)

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

    def _template_key(self) -> tuple:
        """Everything the family's template is, in strings and ints, so that
        it hashes and compares in C: the name, the variables, the dependent
        variable, the lead monomial as ``((rank, text), power)`` pairs, then
        per slot, in order, its name, its arguments' ``(rank, text)`` keys and
        its monomial's pairs.  Built once, on first use."""
        key = self._key
        if key is None:
            lead, *monos = [tuple((a._skey, k) for a, k in m.atoms) for m in self._monomials]
            key = self._key = (
                self.name, self.indep_vars, self.dep, lead,
                tuple((s.name, tuple(a._skey for a in s.args), m)
                      for s, m in zip(self.slots, monos)))
        return key

    def equation(self, coefficients: Mapping[str, ExpressionLike]) -> Expression:
        """``lead + sum_j c_j * M_j`` over the slots ``coefficients`` names,
        in slot order."""
        return self.lead + expr_sum(coefficients[s.name] * s.monomial for s in self.slots
                                    if s.name in coefficients)

    def member(self) -> Expression:
        """The generic member's left-hand side.

        Templates equal in name, variables, lead and slots, in order, share one
        member from a bounded table, so it must not be mutated.
        """
        return _written(self, self.indep_vars, self.dep)[1]

    def rename(self, new_vars: Sequence[str], new_dep: str) -> "EquationFamily":
        """The same family written in other variable names, positionally.

        ``self`` when nothing changes.  Otherwise templates equal in name,
        variables, lead and slots, in order, share one result from a bounded
        table, so it must not be mutated.
        """
        new_vars = tuple(new_vars)
        if len(new_vars) != len(self.indep_vars):
            raise VariableMismatchError(
                f"{self.name}: got {len(new_vars)} variables, need {len(self.indep_vars)}")
        if new_vars == self.indep_vars and new_dep == self.dep:
            return self
        return _written(self, new_vars, new_dep)[0]

    def _renamed(self, new_vars: tuple, new_dep: str) -> "EquationFamily":
        """:meth:`rename` built afresh, without its checks or the table."""
        if new_vars == self.indep_vars and new_dep == self.dep:
            return self
        vmap = dict(zip(self.indep_vars, new_vars))

        def ratom(a: Atom) -> Atom:
            if isinstance(a, Var):
                return Var(vmap[a.name])
            return Jet(new_dep, tuple(vmap[i] for i in a.index))

        lead, *monos = [from_monomial(Monomial([(ratom(a), k) for a, k in m.atoms]))
                        for m in self._monomials]
        return EquationFamily(
            self.name, new_vars, new_dep, lead,
            [CoefficientSlot(s.name, [ratom(a) for a in s.args], m)
             for s, m in zip(self.slots, monos)],
        )

    def enlarged(self, order: int) -> "EquationFamily":
        """The same template with every slot taking the family's variables,
        then every jet of ``dep`` of order 0 to ``order``, in that order; an
        ``order`` of -1 means the variables alone.  :func:`theorem_instance_check`
        compares its ``famB`` against this family."""
        args = _enlarged_args(self.indep_vars, self.dep, order)
        return EquationFamily(self.name, self.indep_vars, self.dep, self.lead,
                              [CoefficientSlot(s.name, args, s.monomial) for s in self.slots])


# Two tables, each least recently used first.  _WRITTEN: (template key, new
# variables, new dependent variable) -> (written family, its generic member).
# _ENLARGEMENTS: (famA's template key, famB's) -> True, for each pair that
# passed the shape check; a refusal is not kept.  A batch of checks meets few
# templates in few variable sets; the bound keeps a long run from holding
# every family it was given.
_WRITTEN: dict = {}
_ENLARGEMENTS: dict = {}
_WRITTEN_SIZE = 128


def _kept(table: dict, key: tuple, build):
    """``table[key]``, made the most recently used entry; when absent, the
    value of ``build()``, kept unless it raises, after the least recently
    used entry of a full table goes."""
    entry = table.pop(key, None)
    if entry is None:
        entry = build()
        if len(table) >= _WRITTEN_SIZE:
            del table[next(iter(table))]
    table[key] = entry
    return entry


def _written(family: EquationFamily, new_vars: tuple, new_dep: str) -> tuple:
    """``family`` written in ``new_vars`` and ``new_dep``, and its generic member.

    The key is everything the two depend on: the family's template key and
    the new names.  ``EquationFamily.__eq__`` ignores the name and the slot
    order, so it cannot be the key: the slot order fixes the order of a
    report's induced action.
    """
    def build():
        fam = family._renamed(new_vars, new_dep)
        return fam, fam.equation({s.name: s.func_expr() for s in fam.slots})

    return _kept(_WRITTEN, (family._template_key(), new_vars, new_dep), build)


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
        return self.lead_coefficient * self.family.equation(self.coefficients) + self.residual

    def to_json(self):
        return {
            "verdict": self.verdict,
            "induced_action": {name: e.text for name, e in (self.action or {}).items()},
            "assumptions": [a.text for a in self.assumptions],
            "failures": [f.to_json() for f in self.failures],
        }


def _jet_failures(groups: dict, divisor: dict, kind: str) -> list[MatchFailure]:
    """One failure per jet monomial of a raw split, its coefficient
    ``groups[jp] / divisor`` made sign-canonical."""
    return [MatchFailure(kind, from_monomial(jp), sign_canonical(Expression(groups[jp], divisor)))
            for jp in sorted(groups, key=Monomial.order_key)]


def _split(e: Expression, dep: str) -> dict:
    """The numerator of ``e`` grouped raw by its jet content in ``dep``."""
    # read through the module, where a test may count the splits
    return expressions._jet_groups(e.integer_form()[0], frozenset((dep,)))


def match(
    e: ExpressionLike,
    family: EquationFamily,
    *,
    denominator_evidence: Expression | None = None,
    assumptions: Iterable[Expression] = (),
) -> MatchReport:
    """Decide membership of ``e`` in ``family`` and extract the coefficient map.

    The numerator of ``e`` is split once by its jet content
    (:func:`~eqvlab.expressions.jet_split`, read raw) and the family's kept
    monomials, the lead's and each slot's, are popped from that split:
    numerators ``N_j`` over the shared denominator ``D``.  The lead numerator
    ``N_L`` must be present; each slot coefficient is ``N_j / N_L``, so ``D``
    never enters it, while the report's ``lead_coefficient`` is ``N_L / D``.
    Every ``N`` is a raw group of one numerator, over one leading coefficient,
    so each quotient is normalized once, from its two raw polynomials.  The
    jet-free part of what is left is absorbed into the unique slot whose
    monomial is the bare dependent variable and whose argument list contains
    it, when such a slot exists; jet-bearing leftovers are reported as
    unmatched terms.  Finally each coefficient must depend on nothing outside
    its slot's argument list; function base names and parameters are never
    constrained.  An atom the dependency closure shows but the coefficient's
    partial derivative in it cancels is not a dependency, except for a
    variable in the index of a jet that is.

    When the denominator of ``e`` contains jet variables of the dependent
    variable no form of this shape exists; the report then carries one
    failure per jet monomial of the denominator (or of
    ``denominator_evidence``, when the caller has a sharper certificate such
    as the first-order prolongation denominator).
    """
    e = as_expression(e)
    dep = family.dep
    base_assumptions = tuple(assumptions)

    lead_m, *slot_ms = family._monomials
    _, den_p, lc = e.integer_form()
    den = e.denominator()
    # nothing is attributed when the denominator carries jets
    den_jets = polynomial_jets(den, dep)
    groups = {} if den_jets else _split(e, dep)
    lead_n = groups.pop(lead_m, None)
    if lead_n is None:
        if den_jets:
            evidence = denominator_evidence if denominator_evidence is not None else den
            groups = _split(evidence, dep)
            groups.pop(Monomial(), None)
            failures = _jet_failures(groups, evidence.integer_form()[1], "denominator-jets")
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

    lead_c = Expression(lead_n, den_p)
    B = {s.name: Expression(groups.pop(m), lead_n) if m in groups else ZERO
         for s, m in zip(family.slots, slot_ms)}
    # only the part free of dep jets can legally ride in a bare-dep slot
    # (divided by the dependent variable); jet-bearing leftovers never can
    free = groups.pop(Monomial(), None)
    failures = _jet_failures(groups, lead_n, "unmatched-term")
    absorbed = None
    if free is not None:
        bare = Jet(dep, ())
        candidates = [
            (s, m) for s, m in zip(family.slots, slot_ms)
            if m.atoms == ((bare, 1),) and bare in s.args
        ]
        if len(candidates) == 1:
            (s, m), = candidates
            B[s.name] = B[s.name] + Expression(free, _pmul(lead_n, {m: 1}))
            absorbed = s.name
        else:
            failures.extend(_jet_failures({Monomial(): free}, lead_n, "unmatched-term"))
            groups[Monomial()] = free

    residual = expr_sum(Expression(g, {Monomial(): lc}) * from_monomial(jp)
                        for jp, g in groups.items()) / den
    return _found_lead_report(family, e, lead_c, B, failures, base_assumptions,
                              absorbed, residual)


def _found_lead_report(
    family: EquationFamily, e: Expression, lead_c: Expression, B: dict,
    failures: list, assumptions: tuple, absorbed: str | None, residual: Expression,
) -> MatchReport:
    """The report of a match that found its lead: each coefficient in ``B``
    checked against its slot's argument list, a failure added per slot that
    depends on more, and the lead coefficient, when not constant, put before
    ``assumptions``."""
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
    all_assumptions.extend(assumptions)
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
        residual=residual,
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


def _enlarged_args(indep_vars: Sequence[str], dep: str, order: int) -> tuple:
    """The variables, then every jet of ``dep`` of order 0 to ``order``."""
    return (*map(Var, indep_vars), *(Jet(dep, index) for r in range(order + 1)
                                     for index in combinations_with_replacement(indep_vars, r)))


def _validate_enlargement(famA: EquationFamily, famB: EquationFamily) -> None:
    """Raise unless ``famB`` is ``famA.enlarged(r)``, each slot's arguments in
    any order, for ``r`` the highest jet order among ``famB``'s arguments, and
    every argument of ``famA`` is one of ``famB``'s.  A pair of templates
    that passed is not checked again while the table keeps it."""
    _kept(_ENLARGEMENTS, (famA._template_key(), famB._template_key()),
          lambda: _check_enlargement(famA, famB))


def _check_enlargement(famA: EquationFamily, famB: EquationFamily) -> bool:
    """:func:`_validate_enlargement` without the table: True, or a
    :class:`VariableMismatchError` naming the first part that differs."""
    if famA.indep_vars != famB.indep_vars or famA.dep != famB.dep:
        raise VariableMismatchError(
            f"{famB.name} lives over {', '.join(famB.indep_vars)} and {famB.dep}, "
            f"{famA.name} over {', '.join(famA.indep_vars)} and {famA.dep}")
    if famB.lead != famA.lead:
        raise VariableMismatchError(
            f"{famB.name} leads with {famB.lead.text}, {famA.name} with {famA.lead.text}")
    slots_b = {s.name: s for s in famB.slots}
    if slots_b.keys() != {s.name for s in famA.slots}:
        raise VariableMismatchError(
            f"{famB.name} has slots {', '.join(sorted(slots_b))}, "
            f"{famA.name} {', '.join(sorted(s.name for s in famA.slots))}")
    for s in famA.slots:
        if slots_b[s.name].monomial != s.monomial:
            raise VariableMismatchError(
                f"{famB.name}'s slot {s.name!r} multiplies {slots_b[s.name].monomial.text}, "
                f"{famA.name}'s {s.monomial.text}")
    r = max((a.order for s in famB.slots for a in s.args if isinstance(a, Jet)), default=-1)
    # famA.enlarged(r)'s arguments, compared without building it
    enlarged = _enlarged_args(famA.indep_vars, famA.dep, r)
    args = frozenset(enlarged)
    for s in famB.slots:
        if frozenset(s.args) != args:
            raise VariableMismatchError(
                f"{famB.name}'s slot {s.name!r} takes {', '.join(a.text for a in s.args)}, "
                f"not {famA.name}'s arguments enlarged to order {r}: "
                + ", ".join(a.text for a in enlarged))
    missing = {a for s in famA.slots for a in s.args}.difference(args)
    if missing:
        raise VariableMismatchError(f"{famB.name} lacks arguments of {famA.name}: "
                                    + ", ".join(sorted(a.text for a in missing)))
    return True


def theorem_instance_check(
    famA: EquationFamily,
    famB: EquationFamily,
    tr: PointTransformation,
) -> TheoremCheckResult:
    """Check one instance of the dummy-variables containment.

    ``famB`` must be ``famA.enlarged(r)`` for some order ``r``, each slot's
    arguments in any order, and must keep every argument of ``famA``;
    otherwise a :class:`VariableMismatchError` says how it differs.  ``tr``
    must be an equivalence transformation of ``famA``; the result records
    whether it is one of ``famB`` as well, which the containment asserts it
    always is.
    Raises :class:`TheoremPreconditionError` when ``tr`` fails the
    ``famA``-membership precondition, with the failing report attached.

    One prolongation serves both families, and famB's report is read off
    famA's.  famB's members differ from famA's only in the argument lists of
    the slot functions, so famB's image is famA's image with each slot atom
    ``a_j(phi(args_A))`` renamed to ``a_j(phi(args_B))``, the arguments'
    images read off the map.  The rename keeps each atom's function name,
    which decides its order against every other atom, so it commutes with
    :func:`match`: famB's image, coefficients, lead coefficient and residual
    are famA's renamed, its absorbed slot is famA's, and only the dependency
    check, the containment's content, runs on famB's slots.  When a function
    in the map's components has a slot's name, a map atom could coincide with
    a slot atom; famB's member is then transformed and matched directly.
    """
    _validate_enlargement(famA, famB)
    pm = transform_derivatives(tr)
    rep_a = _check_prolonged(famA, pm)
    if rep_a.verdict != EQUIVALENCE:
        raise TheoremPreconditionError(
            f"transformation is not an equivalence transformation of {famA.name}",
            report=rep_a)
    renames = _slot_renames(famA, famB, pm)
    if renames is None:
        rep_b = _check_prolonged(famB, pm)
    else:
        def renamed(e: Expression) -> Expression:
            return expressions.rename_atoms(e, renames)

        fam_b = famB.rename(tr.new_vars, tr.new_dep)
        rep_b = _found_lead_report(
            fam_b, renamed(rep_a.expression), renamed(rep_a.lead_coefficient),
            {s.name: renamed(rep_a.coefficients[s.name]) for s in fam_b.slots}, [],
            pm.assumptions, rep_a.absorbed_slot, renamed(rep_a.residual))
    return TheoremCheckResult(
        holds=rep_b.verdict == EQUIVALENCE,
        source_report=rep_a,
        target_report=rep_b,
    )


def _slot_renames(famA: EquationFamily, famB: EquationFamily, pm: ProlongedMap) -> dict | None:
    """Each slot atom of famA's image to famB's, ``a_j(phi(args_A))`` to
    ``a_j(phi(args_B))``, leaving out the slots whose atom stays the same;
    None when a function of the map has a slot's name.  The slots are read in
    the families' own names, each variable taken positionally to the map's
    source variable, as :meth:`EquationFamily.rename` would write them."""
    tr = pm.transformation
    names = {s.name for s in famA.slots}
    if any(names & dependency_closure(e).functions
           for e in (*tr.indep_map.values(), tr.dep_map)):
        return None
    source = dict(zip(famA.indep_vars, tr.old_vars))

    def arg_image(a: Atom) -> Expression:
        if isinstance(a, Var):
            return tr.indep_map[source[a.name]]
        return pm[tuple(source[i] for i in a.index)] if a.index else tr.dep_map

    def slot_atom(s: CoefficientSlot) -> Func:
        return Func(s.name, [arg_image(a) for a in s.args])

    slots_b = {s.name: s for s in famB.slots}
    pairs = ((slot_atom(s), slot_atom(slots_b[s.name])) for s in famA.slots)
    return {a: b for a, b in pairs if a != b}


def invariant_check(family: EquationFamily, tr: PointTransformation,
                    invariant: ExpressionLike, weight: int) -> Expression:
    """The defect of ``invariant`` as a relative invariant of ``weight``
    under ``tr``: zero exactly when the claim holds.

    ``invariant`` is an expression in the family's slot atoms, their slot
    derivatives and the family's variables.  ``tr`` must be an equivalence
    transformation of ``family``; otherwise a :class:`TheoremPreconditionError`
    carries the failing report.  The invariant of the image is ``invariant``
    written in the target variables with each slot put in as its induced
    action; the returned defect is that minus ``det**weight`` times
    ``invariant`` composed with the map, ``det`` the map's Jacobian.  The
    family's variables are taken positionally to the map's, as
    :func:`check_equivalence` writes the family.  A family whose slots take
    jets is refused with :class:`VariableMismatchError`: its slot atoms would
    be bound to expressions in more than the variables.
    """
    jetted = [s.name for s in family.slots if s.allowed_jets()]
    if jetted:
        raise VariableMismatchError(
            f"{family.name}'s slots {', '.join(jetted)} take jets; an invariant is checked "
            "only over slots that take variables")
    pm = transform_derivatives(tr)
    rep = _check_prolonged(family, pm)
    if rep.verdict != EQUIVALENCE:
        raise TheoremPreconditionError(
            f"transformation is not an equivalence transformation of {family.name}",
            report=rep)
    written = substitute(invariant, {Var(v): Var(n)
                                     for v, n in zip(family.indep_vars, tr.new_vars)})
    image = substitute_functions(written, {
        s.name: ([a.name for a in s.args], rep.action[s.name]) for s in rep.family.slots})
    pulled = substitute(invariant, {Var(v): tr.indep_map[o]
                                    for v, o in zip(family.indep_vars, tr.old_vars)})
    return image - pm.det ** weight * pulled


def catalog_names() -> tuple[str, ...]:
    return ("glin", "gliny", "glin0y", "hyper", "hyperu", "hyperxp", "hypertt")


def catalog(name: str, order: int | None = None) -> EquationFamily:
    """A named family.

    ``glin``, ``gliny`` and ``glin0y`` are the linear ordinary families of a
    given order (at least 3): highest derivative plus one arbitrary-function
    coefficient per lower derivative, the coefficients depending on the
    independent variable, on both variables (``glin`` enlarged to order 0,
    :meth:`EquationFamily.enlarged`), or on the dependent variable alone.
    The hyperbolic families share the template
    ``u_tx + a1*u_t + a2*u_x + a3*u`` and differ in the coefficients'
    argument lists: both variables for ``hyper``, both plus ``u`` for
    ``hyperu`` (``hyper`` enlarged to order 0), ``a1(x)/a2(t)/a3(t,x)`` for
    ``hyperxp`` and ``a1(t)/a2(t)/a3(t,x)`` for ``hypertt``.
    """
    if name in ("glin", "gliny", "glin0y"):
        if order is None:
            raise UnknownFamilyError(f"{name} needs an order")
        if order < 3:
            raise ValueError(f"{name} is defined for order 3 and up, got {order}")
        if name == "glin0y":
            args = (Jet("y", ()),)
        else:
            args = _enlarged_args(("x",), "y", 0 if name == "gliny" else -1)
        lead = jet("y", *("x",) * order)
        slots = [
            CoefficientSlot("a%d" % j, args, jet("y", *("x",) * (order - j)))
            for j in range(1, order + 1)
        ]
        return EquationFamily(name, ("x",), "y", lead, slots)
    if name in ("hyper", "hyperu", "hyperxp", "hypertt"):
        if order is not None:
            raise ValueError(f"{name} does not take an order")
        if name in ("hyperxp", "hypertt"):
            t, x = Var("t"), Var("x")
            argspecs = ((x,) if name == "hyperxp" else (t,), (t,), (t, x))
        else:
            argspecs = (_enlarged_args(("t", "x"), "u", 0 if name == "hyperu" else -1),) * 3
        monos = (jet("u", "t"), jet("u", "x"), jet("u"))
        slots = [CoefficientSlot("a%d" % j, a, m)
                 for j, a, m in zip((1, 2, 3), argspecs, monos)]
        return EquationFamily(name, ("t", "x"), "u", jet("u", "t", "x"), slots)
    raise UnknownFamilyError(f"no family named {name!r}")
