"""Family templates, matching, induced actions, and the containment check."""

import sys
from fractions import Fraction
from random import Random

import pytest

import eqvlab.expressions as expressions
import eqvlab.families as families
import eqvlab.prolongation as prolongation
from eqvlab import (
    EQUIVALENCE,
    NOT_EQUIVALENCE,
    CoefficientSlot,
    EquationFamily,
    Expression,
    Jet,
    PointTransformation,
    PolyFunc,
    ProlongedMap,
    TheoremPreconditionError,
    UnknownFamilyError,
    ZERO,
    Monomial,
    Var,
    VariableMismatchError,
    as_expression,
    catalog,
    catalog_names,
    check_equivalence,
    collect_numerators,
    dependency_closure,
    exp,
    from_monomial,
    func,
    invariant_check,
    jet,
    jet_split,
    match,
    parse,
    partial,
    polynomial_jets,
    sign_canonical,
    theorem_instance_check,
    transform_derivatives,
    var,
)

from conftest import CORPUS

x, t, y, z = var("x"), var("t"), var("y"), var("z")


def test_catalog_names_and_argument_lists():
    assert set(catalog_names()) == {
        "glin", "gliny", "glin0y", "hyper", "hyperu", "hyperxp", "hypertt"}
    g = catalog("glin", 4)
    assert [s.name for s in g.slots] == ["a1", "a2", "a3", "a4"]
    assert all(s.args == (Var("x"),) for s in g.slots)
    assert g.lead == jet("y", "x", "x", "x", "x")
    gy = catalog("gliny", 3)
    assert all(s.args == (Var("x"), Jet("y", ())) for s in gy.slots)
    g0 = catalog("glin0y", 3)
    assert all(s.args == (Jet("y", ()),) for s in g0.slots)

    h = catalog("hyper")
    assert h.indep_vars == ("t", "x") and h.dep == "u"
    assert h.lead == jet("u", "t", "x")
    assert {s.name: s.args for s in h.slots} == {
        "a1": (Var("t"), Var("x")),
        "a2": (Var("t"), Var("x")),
        "a3": (Var("t"), Var("x"))}
    hu = catalog("hyperu")
    assert all(s.args == (Var("t"), Var("x"), Jet("u", ())) for s in hu.slots)
    hx = catalog("hyperxp")
    assert {s.name: s.args for s in hx.slots} == {
        "a1": (Var("x"),), "a2": (Var("t"),), "a3": (Var("t"), Var("x"))}
    ht = catalog("hypertt")
    assert {s.name: s.args for s in ht.slots} == {
        "a1": (Var("t"),), "a2": (Var("t"),), "a3": (Var("t"), Var("x"))}


def test_catalog_rejects_bad_requests():
    with pytest.raises(UnknownFamilyError):
        catalog("nosuch")
    with pytest.raises(UnknownFamilyError):
        catalog("glin")
    with pytest.raises(ValueError):
        catalog("glin", 2)
    with pytest.raises(ValueError):
        catalog("hyper", 3)


def test_family_equality_tracks_structure_not_name():
    g = catalog("glin", 3)
    rebuilt = EquationFamily(
        "anything", ("x",), "y", jet("y", "x", "x", "x"),
        [CoefficientSlot("a1", (Var("x"),), jet("y", "x", "x")),
         CoefficientSlot("a2", (Var("x"),), jet("y", "x")),
         CoefficientSlot("a3", (Var("x"),), jet("y"))])
    assert g == rebuilt
    assert hash(g) == hash(rebuilt)
    assert g != catalog("gliny", 3)
    assert catalog("hyper") != catalog("hyperu")


def test_rename_round_trip():
    h = catalog("hyper")
    r = h.rename(("y", "z"), "w")
    assert r.lead == jet("w", "y", "z")
    assert r.slots[0].args == (Var("y"), Var("z"))
    assert r.rename(("t", "x"), "u") == h
    assert h.rename(("t", "x"), "u") is h
    with pytest.raises(VariableMismatchError):
        h.rename(("y",), "w")


def test_a_family_refuses_its_dependent_variable_among_its_variables():
    h = catalog("hyper")
    with pytest.raises(VariableMismatchError):
        EquationFamily("F", ("t", "u"), "u", jet("u", "t", "u"), [])
    with pytest.raises(VariableMismatchError):
        h.rename(("u", "x"), "u")
    with pytest.raises(VariableMismatchError):
        EquationFamily("F", ("t", "t"), "u", jet("u", "t", "t"), [])
    with pytest.raises(VariableMismatchError):
        h.rename(("t", "t"), "u")
    # as a point transformation does
    with pytest.raises(VariableMismatchError):
        PointTransformation(("t", "u"), "u", ("y", "z"), "w", {"t": y, "u": z}, jet("w"))
    assert h.rename(("u", "x"), "w").dep == "w"


def test_equal_templates_share_one_written_family_and_member():
    h1, h2 = catalog("hyper"), catalog("hyper")
    assert h1 is not h2
    r = h1.rename(("y", "z"), "w")
    assert h2.rename(("y", "z"), "w") is r
    assert h2.rename(("y", "z"), "w").member() is r.member()
    assert h1.member() is h2.member()


def _hyper_as(name, order):
    h = catalog("hyper")
    slots = {s.name: s for s in h.slots}
    return EquationFamily(name, h.indep_vars, h.dep, h.lead, [slots[n] for n in order])


@pytest.mark.parametrize("name, order", [
    ("H", ("a3", "a1", "a2")),
    ("H", ("a1", "a2", "a3")),
    ("hyper", ("a3", "a1", "a2")),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
def test_a_written_family_keeps_its_name_and_slot_order(name, order):
    fam = _hyper_as(name, order)
    assert fam == catalog("hyper")
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y ** 3 + y, "x": 2 * z + 1}, (1 + y * y) * jet("w"))
    # hyper is written first: a key that confuses fam with it serves hyper's entry
    for f in (catalog("hyper"), fam):
        written = f.rename(("y", "z"), "w")
        assert written.name == f.name
        assert [s.name for s in written.slots] == [s.name for s in f.slots]
        rep = check_equivalence(f, tr)
        assert rep.family.name == f.name
        assert list(rep.to_json()["induced_action"]) == [s.name for s in f.slots]
    assert list(check_equivalence(fam, tr).to_json()["induced_action"]) == list(order)


def test_the_written_table_drops_its_least_recently_used_entry(monkeypatch):
    monkeypatch.setattr(families, "_WRITTEN", {})
    h = catalog("hyper")
    sets = [((f"p{i}", f"q{i}"), "w") for i in range(129)]
    entries = [families._written(h, *s) for s in sets[:128]]
    # the first set again: served from the table, now the most recently used
    assert families._written(h, *sets[0]) is entries[0]
    families._written(h, *sets[128])
    assert len(families._WRITTEN) == 128
    assert [k[-2:] for k in families._WRITTEN] == sets[2:128] + [sets[0], sets[128]]
    assert families._written(h, *sets[0]) is entries[0]
    fam, member = families._written(h, *sets[1])
    assert fam is not entries[1][0] and member is not entries[1][1]
    assert fam == entries[1][0] and member == entries[1][1]
    assert (fam.name, fam.indep_vars, fam.dep) == ("hyper", ("p1", "q1"), "w")


def _hyper_variants():
    """A template like hyper's and, by label, each template one change away
    from it; the last two differ in the dependent variable alone."""
    T, X = Var("t"), Var("x")
    ut = jet("u", "t")
    a1, a2, a3 = ("a1", (T, X), ut), ("a2", (T, X), jet("u", "x")), ("a3", (T, X), jet("u"))

    def fam(name="F", variables=("t", "x"), lead=jet("u", "t", "x"), slots=(a1, a2, a3)):
        return EquationFamily(name, variables, "u", lead,
                              [CoefficientSlot(*s) for s in slots])

    return {
        "base": fam(),
        "name": fam(name="G"),
        "variable-order": fam(variables=("x", "t")),
        "lead": fam(lead=jet("u", "t", "t")),
        "slot-name": fam(slots=(("b1", (T, X), ut), a2, a3)),
        "argument-list": fam(slots=(("a1", (T,), ut), a2, a3)),
        "argument-order": fam(slots=(("a1", (X, T), ut), a2, a3)),
        "slot-monomial": fam(slots=(("a1", (T, X), jet("u", "t", "t")), a2, a3)),
        "slot-order": fam(slots=(a2, a1, a3)),
        "dep-u": EquationFamily("F", ("t", "x"), "u", 1, []),
        "dep-v": EquationFamily("F", ("t", "x"), "v", 1, []),
    }


@pytest.mark.hashseed
def test_each_change_to_a_template_writes_a_family_of_its_own(monkeypatch):
    monkeypatch.setattr(families, "_WRITTEN", {})
    variants = _hyper_variants()
    written = {label: families._written(f, ("y", "z"), "w") for label, f in variants.items()}
    assert len(families._WRITTEN) == len(variants)
    for label, f in variants.items():
        fam = written[label][0]
        assert (fam.name, [s.name for s in fam.slots]) == (f.name, [s.name for s in f.slots])
        assert fam == f._renamed(("y", "z"), "w")
    # built apart, an equal template is written from the table
    for label, f in _hyper_variants().items():
        assert families._written(f, ("y", "z"), "w") is written[label], label
    assert len(families._WRITTEN) == len(variants)


@pytest.mark.hashseed
def test_equal_template_pairs_built_apart_share_one_enlargement_check(monkeypatch):
    monkeypatch.setattr(families, "_ENLARGEMENTS", {})
    checks = []
    check = families._check_enlargement
    monkeypatch.setattr(families, "_check_enlargement",
                        lambda *a: checks.append(a) or check(*a))
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y ** 3 + y, "x": 2 * z + 1}, (1 + y * y) * jet("w"))
    for _ in range(2):
        assert theorem_instance_check(catalog("hyper"), catalog("hyperu"), tr).holds
    assert len(checks) == 1 and len(families._ENLARGEMENTS) == 1
    # another famB, with the same famA, is checked on its own
    assert theorem_instance_check(catalog("hyper"), catalog("hyper"), tr).holds
    assert len(checks) == 2 and len(families._ENLARGEMENTS) == 2


def test_warm_lookups_compare_no_expressions_slots_or_atoms(monkeypatch):
    # families built fresh for each instance, as a batch builds them, meet
    # warm tables: each lookup hashes and compares strings, ints and atoms,
    # and an interned atom hashes and compares as an object, in C
    def batch():
        return [(catalog("glin", 3), catalog("gliny", 3)), (catalog("hyper"), catalog("hyperu")),
                (catalog("hyperxp"), catalog("hyperu")), (catalog("hypertt"), catalog("hyperu"))]

    def lookups(fam_a, fam_b):
        families._validate_enlargement(fam_a, fam_b)
        new_vars = ("z",) if fam_a.indep_vars == ("x",) else ("y", "z")
        for f in (fam_a, fam_b):
            f.member()
            f.rename(new_vars, "w").member()

    for fam_a, fam_b in batch():
        lookups(fam_a, fam_b)
    fresh = batch()

    def compared(*args):
        raise AssertionError("a lookup compared or hashed an expression, slot or atom")

    for cls in (Expression, CoefficientSlot):
        for name in ("__eq__", "__hash__"):
            monkeypatch.setattr(cls, name, compared)
    assert expressions.Atom.__hash__ is object.__hash__
    monkeypatch.setattr(expressions.Atom, "__eq__", compared)
    for fam_a, fam_b in fresh:
        lookups(fam_a, fam_b)


@pytest.mark.hashseed
def test_reports_are_the_same_with_the_table_cold_or_warm_bulk(monkeypatch):
    monkeypatch.setattr(families, "_WRITTEN", {})
    instances = _enlargement_instances()[:40]

    def outputs(clear):
        out = []
        for famA, famB, tr in instances:
            if clear:
                families._WRITTEN.clear()
            res = theorem_instance_check(famA, famB, tr)
            out.append([(rep.to_json(), rep.reconstruction().text)
                        for rep in (res.source_report, res.target_report)])
        return out

    cold = outputs(True)
    assert outputs(False) == cold
    # one entry per template and variable set: each famA's member in its own
    # variables, and each family in the map's target variables
    names_a = {famA.name for famA, famB, tr in instances}
    names = names_a | {famB.name for famA, famB, tr in instances}
    assert len(families._WRITTEN) == len(names_a) + len(names)


def test_member_reconstruction_certificate():
    fam = catalog("glin", 3)
    tr = PointTransformation(
        ("x",), "y", ("z",), "w", {"x": 2 * z + 1}, exp(z) * jet("w"))
    rep = check_equivalence(fam, tr)
    assert rep.verdict == EQUIVALENCE
    assert rep.action is not None
    # the report must rebuild the matched expression exactly
    assert (rep.reconstruction() - rep.expression).is_zero()
    # the action lands back inside the family: coefficients in z alone
    for s in fam.slots:
        assert not rep.action[s.name].is_zero() or s.name == "a3"


def test_ode_scaling_action_values():
    fam = catalog("glin", 3)
    tr = PointTransformation(("x",), "y", ("z",), "w", {"x": z}, 5 * jet("w"))
    rep = check_equivalence(fam, tr)
    assert rep.verdict == EQUIVALENCE
    # constant rescaling of the dependent variable leaves every slot alone
    for name in ("a1", "a2", "a3"):
        assert (rep.action[name] - func(name, z)).is_zero()


def test_free_term_absorbs_only_with_a_bare_dep_slot():
    gy = catalog("gliny", 3)
    e = gy.member() + x * x
    rep = match(e, gy)
    assert rep.verdict == EQUIVALENCE
    assert rep.absorbed_slot == "a3"
    assert (rep.reconstruction() - e).is_zero()
    # a3 picked up the free term divided by the dependent variable
    extra = rep.action["a3"] - func("a3", x, jet("y"))
    assert (extra - x * x / jet("y")).is_zero()

    # same expression against the family without the dependent argument:
    # nothing may absorb, the free term is an unmatched constant monomial
    g = catalog("glin", 3)
    e2 = g.member() + x * x
    rep2 = match(e2, g)
    assert rep2.verdict == NOT_EQUIVALENCE
    kinds = {(f.kind, f.monomial.text) for f in rep2.failures}
    assert ("unmatched-term", "1") in kinds


def test_jet_bearing_leftovers_never_absorb():
    gy = catalog("gliny", 3)
    e = gy.member() + jet("y") * jet("y", "x")
    rep = match(e, gy)
    assert rep.verdict == NOT_EQUIVALENCE
    assert rep.absorbed_slot is None
    assert [f.kind for f in rep.failures] == ["unmatched-term"]
    assert rep.failures[0].monomial == jet("y") * jet("y", "x")


def test_missing_lead_failure():
    g = catalog("glin", 3)
    rep = match(jet("y", "x", "x") + jet("y"), g)
    assert rep.verdict == NOT_EQUIVALENCE
    assert [f.kind for f in rep.failures] == ["missing-lead"]
    assert rep.failures[0].monomial == g.lead


def test_denominator_jets_failure():
    g = catalog("glin", 3)
    rep = match(g.member() + 1 / jet("y"), g)
    assert rep.verdict == NOT_EQUIVALENCE
    assert rep.failures[0].kind == "denominator-jets"
    assert rep.failures[0].monomial == jet("y")


def test_forbidden_variable_dependency():
    hx = catalog("hyperxp")
    e = jet("u", "t", "x") + t * jet("u", "t") + func("a2", t) * jet("u", "x") \
        + func("a3", t, x) * jet("u")
    rep = match(e, hx)
    assert rep.verdict == NOT_EQUIVALENCE
    bad = [f for f in rep.failures if f.kind == "forbidden-dependency"]
    assert len(bad) == 1
    assert bad[0].slot == "a1"
    assert bad[0].forbidden == ("t",)
    j = bad[0].to_json()
    assert j["slot"] == "a1" and j["forbidden"] == ["t"]

    # t shows in a1's normal form, which has no gcd, but a1 equals x
    a1 = (x * t - x) / (t - 1)
    assert "t" in a1.text
    e2 = jet("u", "t", "x") + a1 * jet("u", "t") + func("g", t) * jet("u", "x") \
        + func("h", t, x) * jet("u")
    assert match(e2, hx).verdict == EQUIVALENCE


def test_slot_coefficients_divide_numerators():
    # a non-monomial denominator must not end up in the slot coefficients
    den = t * x + t + 1
    n_lead, n_1 = t + x * x, x * t - 1
    e = (n_lead * jet("u", "t", "x") + n_1 * jet("u", "t")) / den
    rep = match(e, catalog("hyper"))
    assert rep.verdict == EQUIVALENCE
    assert rep.coefficients["a1"] == n_1 / n_lead
    assert rep.lead_coefficient == n_lead / den
    assert (rep.reconstruction() - e).is_zero()


def test_dependent_argument_separates_the_enlarged_family():
    e = catalog("hyperu").member()
    wide = match(e, catalog("hyperu"))
    assert wide.verdict == EQUIVALENCE
    narrow = match(e, catalog("hyper"))
    assert narrow.verdict == NOT_EQUIVALENCE
    assert {f.slot for f in narrow.failures} == {"a1", "a2", "a3"}
    assert all(f.kind == "forbidden-dependency" and f.forbidden == ("u",)
               for f in narrow.failures)


def test_nonlinear_dependent_map_breaks_linearity():
    g = catalog("glin", 3)
    # pure square: everything is nonlinear, even the lead monomial is gone
    tr = PointTransformation(("x",), "y", ("z",), "w", {"x": z}, jet("w") ** 2)
    rep = check_equivalence(g, tr)
    assert rep.verdict == NOT_EQUIVALENCE
    assert [f.kind for f in rep.failures] == ["missing-lead"]
    # with a linear part the lead survives and the quadratic terms stand out
    tr2 = PointTransformation(
        ("x",), "y", ("z",), "w", {"x": z}, jet("w") + jet("w") ** 2)
    rep2 = check_equivalence(g, tr2)
    assert rep2.verdict == NOT_EQUIVALENCE
    kinds = {f.kind for f in rep2.failures}
    assert "unmatched-term" in kinds


def test_composition_of_equivalence_maps_is_one():
    g = catalog("glin", 3)
    tr1 = PointTransformation(
        ("x",), "y", ("r",), "v", {"x": var("r") ** 3 + var("r")}, var("r") * jet("v"))
    tr2 = PointTransformation(
        ("r",), "v", ("z",), "w", {"r": z + 4}, exp(z) * jet("w"))
    assert check_equivalence(g, tr1).verdict == EQUIVALENCE
    assert check_equivalence(g.rename(("r",), "v"), tr2).verdict == EQUIVALENCE
    both = tr1.compose(tr2)
    assert both.old_vars == ("x",) and both.new_vars == ("z",)
    assert check_equivalence(g, both).verdict == EQUIVALENCE


def test_a_family_renames_into_each_variable_set_once(monkeypatch):
    # families written in other variables than the map's: famA is renamed
    # into the source and the target variables, famB into the target ones,
    # three renames; the slot renames read the slots in the families' own
    # names, so famB is never written in the source variables
    monkeypatch.setattr(families, "_WRITTEN", {})
    fam_a = catalog("hyper").rename(("p", "q"), "v")
    fam_b = catalog("hyperu").rename(("p", "q"), "v")
    built = []
    init = families.EquationFamily.__init__
    monkeypatch.setattr(families.EquationFamily, "__init__",
                        lambda self, *a: built.append(a[1:3]) or init(self, *a))
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y ** 3 + y, "x": 2 * z + 1}, (1 + y * y) * jet("w"))
    assert theorem_instance_check(fam_a, fam_b, tr).holds
    assert sorted(built) == [(("t", "x"), "u")] + [(("y", "z"), "w")] * 2
    # equal families, built again, are written from the table
    fam_a = catalog("hyper").rename(("p", "q"), "v")
    fam_b = catalog("hyperu").rename(("p", "q"), "v")
    built.clear()
    assert theorem_instance_check(fam_a, fam_b, tr).holds
    assert built == []


def test_a_warm_containment_instance_renames_its_families_three_times(monkeypatch):
    # famA into the source and the target variables for its match, famB into
    # the target variables for its report; the slot renames take the slots
    # positionally and rename neither family
    calls = []
    rename = families.EquationFamily.rename
    monkeypatch.setattr(families.EquationFamily, "rename",
                        lambda self, *a: calls.append(a) or rename(self, *a))
    instances = _enlargement_instances()[:-2]
    for famA, famB, tr in instances:
        theorem_instance_check(famA, famB, tr)
    calls.clear()
    for famA, famB, tr in instances:
        assert theorem_instance_check(famA, famB, tr).holds
    assert len(calls) == 3 * len(instances)


def test_theorem_instance_holds_for_a_member_map(monkeypatch):
    calls = []
    prolong = families.transform_derivatives
    monkeypatch.setattr(families, "transform_derivatives",
                        lambda *a: calls.append(a) or prolong(*a))
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y ** 3 + y, "x": 2 * z + 1}, (1 + y * y) * jet("w"))
    res = theorem_instance_check(catalog("hyper"), catalog("hyperu"), tr)
    assert res.holds
    # both families share one prolongation of the map
    assert len(calls) == 1
    assert res.source_report.verdict == EQUIVALENCE
    assert res.target_report.verdict == EQUIVALENCE


def test_equivalence_checks_solve_only_the_jets_the_member_reaches(monkeypatch):
    maps, calls = [], []
    prolong, derive = families.transform_derivatives, prolongation.total_derivative
    monkeypatch.setattr(families, "transform_derivatives",
                        lambda *a: maps.append(prolong(*a)) or maps[-1])
    monkeypatch.setattr(prolongation, "total_derivative",
                        lambda *a: calls.append(a) or derive(*a))
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y ** 3 + y, "x": 2 * z + 1}, (1 + y * y) * jet("w"))
    assert check_equivalence(catalog("hyper"), tr).verdict == EQUIVALENCE
    # u_t, u_x and u_tx, not u_tt or u_xx: four matrix entries, D_k(psi) and
    # D_z(N_t).  The map is diagonal, so u_tx differentiates N_t along z
    # alone, over d_x = 2, which divides out at once: D_y(N_t), D_k(det) and
    # the derivatives of d_t are not taken
    assert set(maps[0].entries) == {Jet("u", ("t",)), Jet("u", ("x",)), Jet("u", ("t", "x"))}
    assert len(calls) == 7
    assert len(set(calls)) == len(calls)
    # a one-variable family of order 3 still needs every order
    calls.clear()
    glin = PointTransformation(("x",), "y", ("z",), "w", {"x": z ** 3 + z}, jet("w"))
    assert check_equivalence(catalog("glin", 3), glin).verdict == EQUIVALENCE
    assert set(maps[1].entries) == {Jet("y", ("x",) * r) for r in (1, 2, 3)}
    assert len(calls) == 5
    assert len(set(calls)) == len(calls)


def test_theorem_precondition_failure_carries_the_report():
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y + z, "x": z}, jet("w"))
    with pytest.raises(TheoremPreconditionError) as exc:
        theorem_instance_check(catalog("hyper"), catalog("hyperu"), tr)
    assert exc.value.report is not None
    assert exc.value.report.verdict == NOT_EQUIVALENCE


def test_enlargement_shape_is_validated():
    tr = PointTransformation(("x",), "y", ("z",), "w", {"x": z}, jet("w"))
    with pytest.raises(VariableMismatchError):
        theorem_instance_check(catalog("glin", 3), catalog("glin0y", 3), tr)
    with pytest.raises(VariableMismatchError):
        theorem_instance_check(catalog("glin", 3), catalog("gliny", 4), tr)
    # glin -> gliny is the legal ordinary enlargement
    res = theorem_instance_check(catalog("glin", 3), catalog("gliny", 3), tr)
    assert res.holds


def _glin3(*args, lead=jet("y", "x", "x", "x"), names=("a1", "a2", "a3"),
           monos=(jet("y", "x", "x"), jet("y", "x"), jet("y"))):
    """glin(3)'s template with slot j taking ``args[j]``, or every slot the
    one tuple given."""
    args = args * 3 if len(args) == 1 else args
    return EquationFamily("g", ("x",), "y", lead,
                          [CoefficientSlot(n, a, m) for n, a, m in zip(names, args, monos)])


_XA, _Y0, _YX = Var("x"), Jet("y", ()), Jet("y", ("x",))


def _enlargement_named(famA, name):
    """famA enlarged to order 1, under ``name``."""
    e = famA.enlarged(1)
    return EquationFamily(name, e.indep_vars, e.dep, e.lead, e.slots)


# (famA, famB, the refusal's message, or None when famB is famA's enlargement)
@pytest.mark.parametrize("famA, famB, refusal", [
    (catalog("glin", 3), catalog("glin", 3).rename(("t",), "y"),
     "glin lives over t and y, glin over x and y"),
    (catalog("glin", 3), _glin3((_XA, _Y0), lead=jet("y", "x", "x", "x", "x")),
     "g leads with D[y,x,x,x,x], glin with D[y,x,x,x]"),
    (catalog("glin", 3), catalog("gliny", 4),
     "gliny leads with D[y,x,x,x,x], glin with D[y,x,x,x]"),
    (catalog("glin", 3), _glin3((_XA, _Y0), names=("a1", "a2", "b3")),
     "g has slots a1, a2, b3, glin a1, a2, a3"),
    (catalog("glin", 3), _glin3((_XA, _Y0), monos=(jet("y", "x", "x"), jet("y"), jet("y", "x"))),
     "g's slot 'a2' multiplies y, glin's D[y,x]"),
    (catalog("glin", 3), _glin3((_XA, _Y0), (_XA, _Y0), (_XA,)),
     "g's slot 'a3' takes x, not glin's arguments enlarged to order 0: x, y"),
    (catalog("glin", 3), _glin3((_XA, _YX)),
     "g's slot 'a1' takes x, D[y,x], not glin's arguments enlarged to order 1: x, y, D[y,x]"),
    (catalog("glin0y", 3), catalog("glin", 3), "glin lacks arguments of glin0y: y"),
    (_glin3((_XA, _Y0, _YX)), catalog("gliny", 3), "gliny lacks arguments of g: D[y,x]"),
    (catalog("glin", 3), _glin3((_Y0, _XA)), None),
    (catalog("glin", 3), _glin3((_XA, _Y0, _YX)), None),
], ids=["variables", "lead", "lead-and-order", "slot-names", "slot-monomial", "argument-sets",
        "jets-skip-an-order", "famA-argument-missing", "famA-jet-missing",
        "arguments-reordered", "order-1"])
def test_each_enlargement_shape_is_refused_or_accepted(monkeypatch, famA, famB, refusal):
    monkeypatch.setattr(families, "_ENLARGEMENTS", {})
    tr = PointTransformation(("x",), "y", ("z",), "w", {"x": 2 * z + 1}, 3 * jet("w"))
    if refusal is None:
        assert theorem_instance_check(famA, famB, tr).holds
        return
    with pytest.raises(VariableMismatchError) as exc:
        theorem_instance_check(famA, famB, tr)
    assert str(exc.value) == refusal
    # a pair of families with the same names that passed is no pass for this one
    assert theorem_instance_check(famA, _enlargement_named(famA, famB.name), tr).holds
    with pytest.raises(VariableMismatchError) as exc:
        theorem_instance_check(famA, famB, tr)
    assert str(exc.value) == refusal
    assert list(families._ENLARGEMENTS) == [
        (famA._template_key(), _enlargement_named(famA, famB.name)._template_key())]


def test_match_report_json_shape():
    g = catalog("glin", 3)
    rep = match(g.member(), g)
    j = rep.to_json()
    assert j["verdict"] == EQUIVALENCE
    assert set(j["induced_action"]) == {"a1", "a2", "a3"}
    assert j["failures"] == []
    assert isinstance(j["assumptions"], list)


def _direct_report(fam, pm):
    """famB's report the direct way, the reference the rename must reproduce:
    the generic member transformed by substitution, then matched."""
    tr = pm.transformation
    te = pm.apply(fam.rename(tr.old_vars, tr.old_dep).member())
    fam_tgt = fam.rename(tr.new_vars, tr.new_dep)
    evidence = pm.det if polynomial_jets(pm.det, tr.new_dep) else None
    return match(te, fam_tgt, denominator_evidence=evidence, assumptions=pm.assumptions)


def _same_layout(got, want):
    """Equal text and the same numerator and denominator key order."""
    g_num, g_den, g_lc = got.integer_form()
    w_num, w_den, w_lc = want.integer_form()
    return (got.text == want.text and list(g_num) == list(w_num)
            and list(g_den) == list(w_den) and g_lc == w_lc)


def _enlargement_instances():
    """Criterion 5's four pairs on seeded maps, a glin family enlarged to
    ``(x, y, D[y,x])``, shifted maps whose free term famA absorbs, with jet
    arguments in famB's slots, and last the two gauge maps whose factor is a
    slot's function."""
    w = jet("w")

    def poly(rng, arity, names):
        return PolyFunc.random(rng, arity, 2, require=range(1, arity + 1)).to_expression(names)

    glin = catalog("glin", 3)
    glin_x = EquationFamily(
        "glin_x", ("x",), "y", glin.lead,
        [CoefficientSlot(s.name, (Var("x"), Jet("y", ()), Jet("y", ("x",))), s.monomial)
         for s in glin.slots])
    args_1 = (Var("t"), Var("x"), Jet("u", ()), Jet("u", ("t",)), Jet("u", ("x",)))
    hyper_1 = EquationFamily(
        "hyper_1", ("t", "x"), "u", jet("u", "t", "x"),
        [CoefficientSlot(s.name, args_1, s.monomial) for s in catalog("hyper").slots])
    hyper = (("t", "x"), "u", ("y", "z"), "w")
    rng = Random(517)
    out = []
    for _ in range(12):
        out.append((glin, catalog("gliny", 3), PointTransformation(
            ("x",), "y", ("z",), "w", {"x": poly(rng, 1, ("z",))}, poly(rng, 1, ("z",)) * w)))
        out.append((glin, glin_x, PointTransformation(
            ("x",), "y", ("z",), "w", {"x": poly(rng, 1, ("z",)) ** 2},
            poly(rng, 1, ("z",)) * exp(z) * w)))
        out.append((catalog("hyper"), catalog("hyperu"), PointTransformation(
            *hyper, {"t": poly(rng, 1, ("y",)), "x": poly(rng, 1, ("z",))},
            poly(rng, 2, ("y", "z")) * w)))
        out.append((catalog("hyperxp"), catalog("hyperu"), PointTransformation(
            *hyper, {"t": y, "x": z},
            exp(poly(rng, 1, ("y",)) + poly(rng, 1, ("z",))) * w)))
        out.append((catalog("hypertt"), catalog("hyperu"), PointTransformation(
            *hyper, {"t": poly(rng, 1, ("y",)), "x": rng.randint(1, 9) * z + rng.randint(-5, 5)},
            poly(rng, 1, ("y",)) * exp(rng.randint(-4, 4) * z) * w)))
    # y = L(z)*w + J(z) as in corpus/ode_shift.eqv: the free term rides in a3,
    # whose arguments hold the dependent variable
    for _ in range(4):
        out.append((catalog("gliny", 3), glin_x, PointTransformation(
            ("x",), "y", ("z",), "w", {"x": poly(rng, 1, ("z",))},
            poly(rng, 1, ("z",)) * w + poly(rng, 1, ("z",)))))
        out.append((catalog("hyperu"), hyper_1, PointTransformation(
            *hyper, {"t": poly(rng, 1, ("y",)), "x": poly(rng, 1, ("z",))},
            poly(rng, 1, ("y",)) * w + poly(rng, 2, ("y", "z")))))
    # a3(y,z) is both the gauge factor and the image of the slot atom a3(t,x)
    out.append((catalog("hyper"), catalog("hyperu"), PointTransformation(
        *hyper, {"t": y, "x": z}, func("a3", y, z) * w)))
    out.append((glin, glin_x, PointTransformation(
        ("x",), "y", ("z",), "w", {"x": z ** 3 + z}, func("a1", z) * w)))
    return out


def _assert_direct_report(famA, famB, tr):
    """famB's report from ``theorem_instance_check`` laid out as the direct
    ``match`` lays it out, dict key order included; returns it."""
    res = theorem_instance_check(famA, famB, tr)
    assert res.holds
    got = res.target_report
    want = _direct_report(famB, transform_derivatives(tr))
    assert got.family is want.family
    assert _same_layout(got.expression, want.expression), tr
    assert got.verdict == want.verdict
    assert _same_layout(got.lead_coefficient, want.lead_coefficient), tr
    assert _same_layout(got.residual, want.residual), tr
    assert [a.text for a in got.assumptions] == [a.text for a in want.assumptions]
    assert [f.to_json() for f in got.failures] == [f.to_json() for f in want.failures]
    assert got.absorbed_slot == want.absorbed_slot
    assert list(got.coefficients) == list(want.coefficients)
    for name, c in got.coefficients.items():
        assert _same_layout(c, want.coefficients[name]), (tr, name)
    assert list(got.action) == list(want.action)
    return got


@pytest.mark.hashseed
def test_enlarged_image_equals_the_direct_image_bulk():
    absorbed = 0
    for famA, famB, tr in _enlargement_instances():
        absorbed += _assert_direct_report(famA, famB, tr).absorbed_slot is not None
    # each shifted map's free term rides in a slot
    assert absorbed == 8


@pytest.mark.hashseed
def test_every_catalog_family_enlarged_keeps_its_maps_bulk():
    # a family's maps are those _enlargement_instances draws with it as famA
    # or famB; none is in glin0y's group, which takes affine maps of its own
    maps = {}
    for famA, famB, tr in _enlargement_instances():
        for fam in (famA, famB):
            maps.setdefault(fam.name, []).append(tr)
    rng = Random(518)
    maps["glin0y"] = [PointTransformation(
        ("x",), "y", ("z",), "w", {"x": rng.randint(1, 9) * z + rng.randint(-5, 5)},
        rng.randint(1, 9) * jet("w") + rng.randint(-5, 5)) for _ in range(6)]
    assert catalog("glin", 3).enlarged(0) == catalog("gliny", 3)
    assert catalog("hyper").enlarged(0) == catalog("hyperu")
    assert catalog("hyperxp").enlarged(1).slots[0].args == (
        Var("t"), Var("x"), Jet("u", ()), Jet("u", ("t",)), Jet("u", ("x",)))
    refused, held = [], 0
    for name in catalog_names():
        fam = catalog(name, 3) if name.startswith("glin") else catalog(name)
        for r in (-1, 0, 1):
            famB = fam.enlarged(r)
            assert [(s.name, s.monomial) for s in famB.slots] == [
                (s.name, s.monomial) for s in fam.slots]
            if any(isinstance(a, Jet) and a.order > r for s in fam.slots for a in s.args):
                # famB lacks an argument of fam
                with pytest.raises(VariableMismatchError):
                    theorem_instance_check(fam, famB, maps[name][0])
                refused.append((name, r))
                continue
            for tr in maps[name]:
                assert theorem_instance_check(fam, famB, tr).holds, (name, r, tr)
                held += 1
    assert refused == [("gliny", -1), ("glin0y", -1), ("hyperu", -1)]
    assert held == 312


def test_enlarged_image_transforms_one_member_unless_a_slot_name_clashes(monkeypatch):
    # famB's report is famA's renamed: one member transformed and one raw
    # split per instance, famA's; a clash transforms and matches famB's too
    applied, splits = [], []
    apply = ProlongedMap.apply
    monkeypatch.setattr(ProlongedMap, "apply", lambda pm, e: applied.append(e) or apply(pm, e))
    groups = expressions._jet_groups
    monkeypatch.setattr(expressions, "_jet_groups",
                        lambda p, deps: splits.append(p) or groups(p, deps))
    *plain, clash_hyper, clash_glin = _enlargement_instances()
    for (famA, famB, tr), n in [(inst, 1) for inst in plain] + [(clash_hyper, 2), (clash_glin, 2)]:
        applied.clear()
        splits.clear()
        assert theorem_instance_check(famA, famB, tr).holds
        assert (len(applied), len(splits)) == (n, n), (famA.name, famB.name)


@pytest.mark.hashseed
def test_a_family_enlarged_to_its_own_arguments_renames_nothing(monkeypatch):
    # glin enlarged to order -1 and hyperu to order 0 are themselves: every
    # slot atom of famB's image is famA's, so no pair is left to rename
    mappings = []
    rename = expressions.rename_atoms
    monkeypatch.setattr(expressions, "rename_atoms",
                        lambda e, mapping: mappings.append(dict(mapping)) or rename(e, mapping))
    orders = {"glin": -1, "hyper": -1, "gliny": 0, "hyperu": 0}
    checked = set()
    for famA, _, tr in _enlargement_instances()[:-2]:
        if famA.name not in orders:
            continue
        famB = famA.enlarged(orders[famA.name])
        assert famB == famA
        mappings.clear()
        res = theorem_instance_check(famA, famB, tr)
        assert res.holds
        # the image, the three coefficients, the lead and the residual
        assert mappings == [{}] * 6, (famA.name, tr)
        got, src = res.target_report, res.source_report
        assert list(got.coefficients) == list(src.coefficients)
        for name, c in got.coefficients.items():
            assert _same_layout(c, src.coefficients[name]), (famA.name, tr, name)
        for mine, theirs in ((got.expression, src.expression), (got.residual, src.residual),
                             (got.lead_coefficient, src.lead_coefficient)):
            assert _same_layout(mine, theirs), (famA.name, tr)
        assert got.absorbed_slot == src.absorbed_slot
        # and it is the report the direct match gives
        _assert_direct_report(famA, famB, tr)
        checked.add(famA.name)
    assert checked == set(orders)


@pytest.mark.hashseed
@pytest.mark.parametrize("names", [("a1x", "a"), ("a3x", "a2_"), ("a0", "a4")])
def test_map_functions_named_next_to_a_slot_take_the_renamed_path(monkeypatch, names):
    # a name that extends a slot's, or sorts just before or after it, keeps
    # its atoms on their side of every slot atom, the order the rename needs
    calls = []
    apply = ProlongedMap.apply
    monkeypatch.setattr(ProlongedMap, "apply", lambda pm, e: calls.append(e) or apply(pm, e))
    f, g = names
    w = jet("w")
    for famA, famB, tr in (
        (catalog("glin", 3), catalog("gliny", 3), PointTransformation(
            ("x",), "y", ("z",), "w", {"x": z ** 3 + z}, func(f, z) * func(g, z) * w)),
        (catalog("hyper"), catalog("hyperu"), PointTransformation(
            ("t", "x"), "u", ("y", "z"), "w", {"t": y, "x": z + 1},
            func(f, y, z) * func(g, y) * w)),
    ):
        calls.clear()
        _assert_direct_report(famA, famB, tr)
        # one apply here, famA's member, and one in the direct reference
        assert len(calls) == 2


def _two_pass_match(e, family, *, denominator_evidence=None, assumptions=()):
    """``match`` read twice over, the reference the one-split ``match`` must
    reproduce: the expression is collected over the template's monomials
    with ``collect_numerators``, then the residual rebuilt from the groups
    left over is split again with ``jet_split``."""
    e = as_expression(e)
    dep = family.dep
    base_assumptions = tuple(assumptions)

    def failures_of(groups, divisor, kind):
        return [families.MatchFailure(
                    kind, from_monomial(jp), sign_canonical(groups[jp] / divisor))
                for jp in sorted(groups, key=Monomial.order_key)]

    monos = [family.lead] + [s.monomial for s in family.slots]
    nums, residual, den = collect_numerators(e, monos)
    lead_n = nums[family.lead]
    if lead_n.is_zero():
        if polynomial_jets(den, dep):
            evidence = denominator_evidence if denominator_evidence is not None else den
            groups = jet_split(evidence, (dep,))
            groups.pop(Monomial(), None)
            failures = failures_of(groups, evidence.denominator(), "denominator-jets")
        else:
            failures = [families.MatchFailure("missing-lead", family.lead, ZERO)]
        return families.MatchReport(
            verdict=NOT_EQUIVALENCE, family=family, expression=e, lead_coefficient=ZERO,
            failures=failures, assumptions=base_assumptions, residual=e)

    lead_c = lead_n / den
    B = {s.name: nums[s.monomial] / lead_n for s in family.slots}
    groups = jet_split(residual, (dep,))
    free = groups.pop(Monomial(), ZERO)
    failures = failures_of(groups, lead_n, "unmatched-term")
    absorbed = None
    if not free.is_zero():
        bare = Jet(dep, ())
        candidates = [s for s in family.slots
                      if s.monomial == as_expression(bare) and bare in s.args]
        if len(candidates) == 1:
            s = candidates[0]
            B[s.name] = B[s.name] + free / (lead_n * as_expression(bare))
            absorbed = s.name
            residual = residual - free
        else:
            failures.extend(failures_of({Monomial(): free}, lead_n, "unmatched-term"))

    for s in family.slots:
        b = B[s.name]
        d = dependency_closure(b)
        okv, okj = s.allowed_variables(), s.allowed_jets()
        if d.within(okv, okj):
            continue
        jets = [j for j in d.jets - okj if not partial(b, j).is_zero()]
        carried = {v for j in jets for v in j.index}
        names = [v for v in d.variables - okv
                 if v in carried or not partial(b, Var(v)).is_zero()]
        if names or jets:
            failures.append(families.MatchFailure(
                "forbidden-dependency", s.monomial, b, slot=s.name,
                forbidden=tuple(sorted(names) + sorted(j.text for j in jets))))

    verdict = EQUIVALENCE if not failures else NOT_EQUIVALENCE
    all_assumptions = [] if lead_c.is_constant() else [lead_c]
    all_assumptions.extend(base_assumptions)
    return families.MatchReport(
        verdict=verdict, family=family, expression=e, lead_coefficient=lead_c,
        coefficients=B, action=dict(B) if verdict == EQUIVALENCE else None,
        failures=failures, assumptions=tuple(all_assumptions), absorbed_slot=absorbed,
        residual=residual / den)


def _match_cases():
    """``(expression, family, keywords)`` for ``match``: criterion 5's pairs on
    seeded maps, each image also against a narrower family; the corpus's
    negative general, mixed and separated maps; and hand-made members with a
    forbidden dependency, a missing lead, denominator jets and free terms."""
    out = []

    def image_cases(fam, tr, others=()):
        pm = transform_derivatives(tr)
        te = pm.apply(fam.rename(tr.old_vars, tr.old_dep).member())
        evidence = pm.det if polynomial_jets(pm.det, tr.new_dep) else None
        for f in (fam, *others):
            out.append((te, f.rename(tr.new_vars, tr.new_dep),
                        {"denominator_evidence": evidence, "assumptions": pm.assumptions}))

    narrower = {"hyper": (catalog("hyperxp"), catalog("hypertt")), "glin": (catalog("glin0y", 3),)}
    for famA, famB, tr in _enlargement_instances()[::3]:
        image_cases(famA, tr, narrower.get(famA.name, ()))
        image_cases(famB, tr)
    for name, tname in (("hyperbolic_general", "Tgen"), ("hyperbolic_mixed", "Tmixed"),
                        ("hyperbolic_tlinear", "Tsep")):
        session = parse((CORPUS / f"{name}.eqv").read_text(encoding="utf-8"))
        image_cases(session.families["F"], session.transforms[tname])

    g, gy, hx = catalog("glin", 3), catalog("gliny", 3), catalog("hyperxp")
    u = jet("u")
    out += [(e, fam, {}) for e, fam in (
        # a1 of hyperxp may not depend on t
        (jet("u", "t", "x") + t * jet("u", "t") + func("a2", t) * jet("u", "x")
         + func("a3", t, x) * u, hx),
        (jet("y", "x", "x") + jet("y"), g),
        (g.member() + 1 / jet("y"), g),
        # absorbed into gliny's a3, and with a jet-bearing leftover beside it
        (gy.member() + x * x, gy),
        (gy.member() + x * x + jet("y") * jet("y", "x"), gy),
        # no slot may take the free term: glin's a3 lacks y, hyper has no u slot
        (g.member() + x * x, g),
        ((t + 1) * jet("u", "t", "x") + x * x * t + u * u, catalog("hyper")),
    )]
    return out


@pytest.mark.hashseed
def test_one_split_match_equals_the_two_pass_match_bulk():
    cases = _match_cases()
    verdicts = set()
    for e, fam, kw in cases:
        got, want = match(e, fam, **kw), _two_pass_match(e, fam, **kw)
        where = (fam.name, e.text[:80])
        assert got.verdict == want.verdict, where
        verdicts.add(got.verdict)
        assert [f.to_json() for f in got.failures] == [f.to_json() for f in want.failures], where
        assert _same_layout(got.lead_coefficient, want.lead_coefficient), where
        assert list(got.coefficients) == list(want.coefficients), where
        for name, c in got.coefficients.items():
            assert _same_layout(c, want.coefficients[name]), (where, name)
        assert [a.text for a in got.assumptions] == [a.text for a in want.assumptions], where
        assert got.absorbed_slot == want.absorbed_slot, where
        assert (got.action is None) == (want.action is None), where
        assert (got.residual - want.residual).is_zero(), where
    kinds = {f.kind for e, fam, kw in cases for f in match(e, fam, **kw).failures}
    assert verdicts == {EQUIVALENCE, NOT_EQUIVALENCE}
    assert kinds == {"denominator-jets", "missing-lead", "unmatched-term", "forbidden-dependency"}
    # two slots can never both take a free term: a slot monomial may not repeat
    with pytest.raises(ValueError, match="repeats"):
        EquationFamily("two", ("x",), "y", jet("y", "x"),
                       [CoefficientSlot(n, (Var("x"), Jet("y", ())), jet("y")) for n in "ab"])


def test_match_splits_each_image_once(monkeypatch):
    calls = []
    groups = expressions._jet_groups
    monkeypatch.setattr(expressions, "_jet_groups",
                        lambda p, deps: calls.append(p) or groups(p, deps))
    for e, fam, kw in _match_cases():
        calls.clear()
        match(e, fam, **kw)
        assert len(calls) == 1, (fam.name, e.text[:80])


def test_a_positive_match_forms_no_quotient(monkeypatch):
    # the lead and each slot coefficient are normalized once, from raw groups;
    # an empty residual's ZERO / den forms nothing
    calls = []
    div = Expression.__truediv__

    def counting(self, other):
        if (sys._getframe(1).f_globals["__name__"] == families.__name__
                and not self.is_zero()):
            calls.append((self, other))
        return div(self, other)

    monkeypatch.setattr(Expression, "__truediv__", counting)
    positive = 0
    for e, fam, kw in _match_cases():
        calls.clear()
        report = match(e, fam, **kw)
        if report.verdict == EQUIVALENCE:
            positive += 1
            assert not calls, (fam.name, e.text[:80])
    assert positive > 10


def _laguerre_forsyth():
    """``P2`` and ``Theta3 = P3 - (3/2)*P2'`` of ``glin(3)``, with ``p1 = a1/3``,
    ``p2 = a2/3``, ``p3 = a3``, ``P2 = p2 - p1^2 - p1'`` and ``P3 = p3 -
    3*p1*p2 + 2*p1^3 - p1''``."""
    X = Var("x")
    a1, a2, a3 = (func(f"a{j}", x) for j in (1, 2, 3))
    p1, p2, p3 = a1 / 3, a2 / 3, a3
    P2 = p2 - p1 * p1 - partial(p1, X)
    P3 = p3 - 3 * p1 * p2 + 2 * p1 ** 3 - partial(partial(p1, X), X)
    return P2, P3 - Fraction(3, 2) * partial(P2, X)


def test_theta3_is_a_relative_invariant_of_weight_3_and_p2_is_not():
    tr = PointTransformation(("x",), "y", ("z",), "w",
                             {"x": func("S", z)}, func("L", z) * jet("w"))
    P2, theta3 = _laguerre_forsyth()
    glin = catalog("glin", 3)
    assert invariant_check(glin, tr, theta3, 3).is_zero()
    # the negative control: P2 picks up a Schwarzian term
    assert not invariant_check(glin, tr, P2, 2).is_zero()
    assert not invariant_check(glin, tr, theta3, 2).is_zero()


def test_an_invariant_is_checked_only_over_slots_that_take_variables():
    # a slot that takes a jet would be bound to an expression in more than
    # its variables, which substitute_functions cannot bind
    tr = PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                             {"t": func("R", y), "x": func("S", z)}, func("L", y, z) * jet("w"))
    with pytest.raises(VariableMismatchError, match="hyperu's slots a1, a2, a3 take jets"):
        invariant_check(catalog("hyperu"), tr, func("a3", t, x), 1)
