"""Family templates, matching, induced actions, and the containment check."""

import pytest

import eqvlab.families as families
import eqvlab.prolongation as prolongation
from eqvlab import (
    EQUIVALENCE,
    NOT_EQUIVALENCE,
    CoefficientSlot,
    EquationFamily,
    Jet,
    PointTransformation,
    TheoremPreconditionError,
    UnknownFamilyError,
    Var,
    VariableMismatchError,
    catalog,
    catalog_names,
    check_equivalence,
    compose,
    exp,
    func,
    jet,
    match,
    theorem_instance_check,
    var,
)

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
    both = compose(tr1, tr2)
    assert both.old_vars == ("x",) and both.new_vars == ("z",)
    assert check_equivalence(g, both).verdict == EQUIVALENCE


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
    # u_t, u_x and u_tx, not u_tt or u_xx: four matrix entries, D_k(psi),
    # D_k(N_t) and D_k(det) (is det free of x?), where solving every order-2
    # jet also needed D_k(N_x)
    assert set(maps[0].entries) == {Jet("u", ("t",)), Jet("u", ("x",)), Jet("u", ("t", "x"))}
    assert len(calls) == 10
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


def test_match_report_json_shape():
    g = catalog("glin", 3)
    rep = match(g.member(), g)
    j = rep.to_json()
    assert j["verdict"] == EQUIVALENCE
    assert set(j["induced_action"]) == {"a1", "a2", "a3"}
    assert j["failures"] == []
    assert isinstance(j["assumptions"], list)
