"""Prolongation: chain-rule recurrences, finite-difference validation, errors."""

from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest

import eqvlab.prolongation as prolongation
from eqvlab import (
    Instantiation,
    Jet,
    Var,
    PointTransformation,
    SingularTransformationError,
    VariableMismatchError,
    as_expression,
    check_identity,
    compose,
    draw_point,
    closure_jets,
    evaluate,
    exp,
    expr_sum,
    fd_total,
    func,
    identity_transformation,
    jet,
    parse,
    partial,
    required_point_names,
    total_derivative,
    transform_derivatives,
    transform_equation,
    var,
)

from conftest import CORPUS, seeded_cases

y, z = var("y"), var("z")


def general_map() -> PointTransformation:
    """Fully general two-variable point transformation built from symbols."""
    return PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": func("R", y, z), "x": func("S", y, z)},
        func("T", y, z, jet("w")))


def triangular_map() -> PointTransformation:
    return PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": func("R", y), "x": func("S", z)},
        func("L", y, z) * jet("w"))


def every_entry(pm, order):
    """Every entry up to ``order``, solving those not yet solved."""
    old = pm.transformation.old_vars
    return [pm[K] for r in range(1, order + 1)
            for K in combinations_with_replacement(old, r)]


def test_total_derivative_basics():
    w, wy = jet("w"), jet("w", "y")
    assert total_derivative(w, "y", "w") == wy
    assert (total_derivative(y * w, "y", "w") - (w + y * wy)).is_zero()
    assert total_derivative(jet("w", "z"), "y", "w") == jet("w", "y", "z")
    assert total_derivative(as_expression(5), "y", "w").is_zero()


def per_atom_total_derivative(e, variable, dep):
    # the earlier assembly: one partial, and one quotient rule, per atom
    terms = [partial(e, Var(variable))]
    for j in sorted(closure_jets(e, dep), key=lambda a: a.text):
        de = partial(e, j)
        if not de.is_zero():
            terms.append(as_expression(j.extended(variable)) * de)
    return expr_sum(terms)


def test_total_derivative_equals_the_per_atom_sum_bulk():
    w, wy = jet("w"), jet("w", "y")
    R = func("R", y, z, w)
    tgen = PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                               {"t": R, "x": func("S", y, z, w)}, func("T", y, z, w))
    cases = [e for _, e in seeded_cases(707, 120)]
    # denominators that carry jets, bare and inside function arguments
    cases += [e / (w + wy * R) for e in cases[:40]]
    cases += every_entry(transform_derivatives(tgen), 1)
    for e in cases:
        for v in ("y", "z"):
            new = total_derivative(e, v, "w")
            assert (new - per_atom_total_derivative(e, v, "w")).is_zero(), (e.text, v)


def test_identity_prolongation_is_trivial():
    tr = identity_transformation(("t", "x"), "u", ("y", "z"), "w")
    pm = transform_derivatives(tr)
    assert pm[("t",)] == jet("w", "y")
    assert pm[("t", "x")] == jet("w", "y", "z")
    assert pm[("x", "x")] == jet("w", "z", "z")
    assert pm.det.is_one()
    assert pm.assumptions == ()


def test_chain_rule_recurrence_holds_symbolically():
    # D_k(entry[J]) == sum_i D_k(map_i) * entry[J + (x_i,)], exactly
    tr = general_map()
    pm = transform_derivatives(tr)
    dk = {k: {v: total_derivative(tr.indep_map[v], k, "w") for v in tr.old_vars}
          for k in tr.new_vars}
    for J in [(), ("t",), ("x",)]:
        base = tr.dep_map if J == () else pm[J]
        for k in tr.new_vars:
            rhs = sum((dk[k][v] * pm[tuple(sorted(J + (v,)))] for v in tr.old_vars),
                      start=as_expression(0))
            assert (total_derivative(base, k, "w") - rhs).is_zero(), (J, k)


def test_prolongation_against_finite_differences():
    tr = triangular_map()
    pm = transform_derivatives(tr)
    rng = Random(31)
    exprs = [tr.dep_map, *every_entry(pm, 2), *tr.indep_map.values(), pm.det]
    for _ in range(10):
        inst = Instantiation.for_expressions(exprs, rng, {"w": ("y", "z")}, degree=2)
        pt = draw_point(rng, required_point_names(exprs, inst))
        if abs(evaluate(pm.det, inst, pt)) < Fraction(1, 100):
            continue
        for J in [(), ("t",), ("x",)]:
            base = tr.dep_map if J == () else pm[J]
            for k in tr.new_vars:
                fd = fd_total(base, inst, pt, k)
                exact = sum(
                    fd_total(tr.indep_map[v], inst, pt, k)
                    * evaluate(pm[tuple(sorted(J + (v,)))], inst, pt)
                    for v in tr.old_vars)
                assert abs(fd - exact) / (1 + max(abs(fd), abs(exact))) <= 1e-6


def test_composition_matches_sequential_application():
    first = PointTransformation(
        ("t", "x"), "u", ("r", "s"), "v",
        {"t": var("r") + var("s") ** 2, "x": var("s")}, var("r") * jet("v"))
    second = PointTransformation(
        ("r", "s"), "v", ("y", "z"), "w",
        {"r": y * y + 1, "s": z - y}, exp(z) * jet("w"))
    both = compose(first, second)
    assert both.old_vars == ("t", "x") and both.new_vars == ("y", "z")
    e = jet("u", "t", "x") + var("t") * jet("u", "x") + var("x") * jet("u")
    once = transform_equation(transform_equation(e, first), second)
    at_once = transform_equation(e, both)
    assert (once - at_once).is_zero()


def test_order_bound_is_enforced():
    # there is no bound to give: the prolongation follows the expression
    tr = triangular_map()
    e = jet("u", "t", "x", "x")
    assert not transform_equation(e, tr).is_zero()
    # and an order-4 jet solves and keeps the chain rule
    pm = transform_derivatives(tr)
    J = ("t", "t", "x")
    for k, row in zip(tr.new_vars, pm.matrix):
        rhs = expr_sum(d * pm[J + (xi,)] for d, xi in zip(row, tr.old_vars))
        assert (total_derivative(pm[J], k, "w") - rhs).is_zero(), k


def test_singular_map_is_rejected():
    shared = func("R", y, z)
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": shared, "x": shared}, jet("w"))
    with pytest.raises(SingularTransformationError):
        transform_derivatives(tr)
    # a jet-free expression too: no jet to solve is no way around the check
    with pytest.raises(SingularTransformationError):
        transform_equation(var("t") + var("x") ** 2, tr)


def test_point_transformation_rejects_jets_in_maps():
    with pytest.raises(Exception, match="bare dependent variable"):
        PointTransformation(
            ("t", "x"), "u", ("y", "z"), "w",
            {"t": y, "x": z}, jet("w", "y"))


def test_assumptions_record_only_the_jacobian_determinant():
    tr = triangular_map()
    pm = transform_derivatives(tr)
    assert pm.assumptions == (pm.det,)
    assert (pm.det - func("R", y, d=[1]) * func("S", z, d=[1])).is_zero()
    # a constant-determinant map carries no assumptions at all
    lin = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": 2 * y + z, "x": y - z}, jet("w"))
    pml = transform_derivatives(lin)
    assert pml.assumptions == ()
    assert pml.det.is_constant()


def test_apply_rejects_foreign_jets_and_variables():
    tr = triangular_map()
    pm = transform_derivatives(tr)
    with pytest.raises(VariableMismatchError):
        pm.apply(jet("q", "t"))
    with pytest.raises(VariableMismatchError):
        pm.apply(var("elsewhere"))


def test_dependent_variable_in_independent_map():
    # genuine point transformation: the new independent variable mixes in w
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y + jet("w"), "x": z}, jet("w"))
    pm = transform_derivatives(tr)
    wy, wz, w = jet("w", "y"), jet("w", "z"), jet("w")
    assert (pm[("t",)] * (1 + wy) - wy).is_zero()
    det = pm.det
    assert (det - (1 + wy)).is_zero()


def test_general_hyperbolic_image_keeps_the_jacobian_cubed():
    # order-2 entries carry J^3, order-1 entries J: the sum stays over J^3
    session = parse((CORPUS / "hyperbolic_general.eqv").read_text(encoding="utf-8"))
    tr = session.transforms["Tgen"]
    fam = session.families["F"].rename(tr.old_vars, tr.old_dep)
    pm = transform_derivatives(tr)
    image = pm.apply(fam.member())
    assert len(image.den_terms()) == 54
    assert (image.denominator() / pm.det ** 3).is_constant()


def _cramer(M, rhs, i, det):
    """Component ``i`` of the solution of ``M x = rhs`` by Cramer's rule: the
    determinant with column ``i`` replaced, divided by ``det`` at every order."""
    n = len(M)
    Mi = [[rhs[r] if c == i else M[r][c] for c in range(n)] for r in range(n)]
    return prolongation._det(Mi) / det


def eager_entries(tr, order):
    """The level-by-level prolongation the lazy map replaced, kept as reference.

    Each level solves every jet one order up from every jet of the level
    below, in sorted order, and keeps the first solve of each jet.  Every
    solve differentiates the previous entry and divides by ``det`` again.
    """
    dep = tr.new_dep
    M = [[total_derivative(tr.indep_map[xi], zk, dep) for xi in tr.old_vars]
         for zk in tr.new_vars]
    det = prolongation._det(M)
    entries = {}
    level = {(): tr.dep_map}
    for _ in range(order):
        next_level = {}
        for J in sorted(level):
            rhs = [total_derivative(level[J], zk, dep) for zk in tr.new_vars]
            for i, xi in enumerate(tr.old_vars):
                K = tuple(sorted(J + (xi,)))
                if K not in next_level:
                    next_level[K] = _cramer(M, rhs, i, det)
        for K, v in next_level.items():
            entries[Jet(tr.old_dep, K)] = v
        level = next_level
    return entries


def test_lazy_entries_equal_the_level_loop_bulk():
    w = jet("w")
    tgen = PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                               {"t": func("R", y, z, w), "x": func("S", y, z, w)},
                               func("T", y, z, w))
    tri = triangular_map()
    # source variables listed out of sorted order
    swapped = PointTransformation(("x", "t"), "u", ("y", "z"), "w",
                                  {"x": tri.indep_map["x"], "t": tri.indep_map["t"]},
                                  tri.dep_map)
    glin = PointTransformation(("x",), "y", ("z",), "w",
                               {"x": func("F", z)}, func("G", z) * w + func("H", z))
    # det = -48*y - 2 is free of x: u_tx and u_xx are solved over det**2, not
    # det**3, and print as the reference's do
    free_of_x = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": -6 * y ** 2 - Fraction(1, 2) * y, "x": 4 * z + 2},
        (7 + 3 * y) * exp(-3 * z) * w)
    # the reference cancels the factor z of u_x before differentiating it
    # again, the numerator keeps it: u_tx is the same value in another form
    cancels_early = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": Fraction(5, 3) * y ** 2 - Fraction(5, 2) * y, "x": -2 * z ** 2 + Fraction(1, 3)},
        Fraction(7, 2) * z ** 2 * w - Fraction(4, 3) * y * w)
    same_value = {(cancels_early, "D[u,t,x]")}
    two = {"w": ("y", "z")}
    cases = [
        (identity_transformation(("t", "x"), "u", ("y", "z"), "w"), 3, two),
        (general_map(), 3, two),
        (tri, 3, two),
        (swapped, 3, two),
        # order 3 of this map takes most of a minute in the reference
        (tgen, 2, two),
        (glin, 3, {"w": ("z",)}),
        (free_of_x, 3, two),
        (cancels_early, 3, two),
    ]
    for tr, order, dep_vars in cases:
        want = eager_entries(tr, order)
        pm = transform_derivatives(tr)
        # highest orders first, so each solve walks its chain of parents
        for key in sorted(want, key=lambda j: (-j.order, j.index)):
            got = pm[reversed(key.index)]
            if key.order <= 2 and (tr, key.text) not in same_value:
                assert got.text == want[key].text, (tr, key.text)
                num, den, _ = got.integer_form()
                w_num, w_den, _ = want[key].integer_form()
                assert list(num) == list(w_num) and list(den) == list(w_den), (tr, key.text)
            else:
                assert (got - want[key]).is_zero(), (tr, key.text)
                assert check_identity(got, want[key], dep_vars, points=3).ok, (tr, key.text)
        assert set(pm.entries) == set(want)
    pm = transform_derivatives(general_map())
    assert pm[("x", "t")] is pm[("t", "x")]
    # u_t is solved as the parent of u_tx, but not handed out
    assert list(pm.entries) == [Jet("u", ("t", "x"))]


def test_general_map_third_order_entry_is_over_det_to_the_fifth():
    # u_ttt of the general hyperbolic map, by size: the reference's Cramer
    # loop gave 99 674 numerator terms over a 648-term denominator
    session = parse((CORPUS / "hyperbolic_general.eqv").read_text(encoding="utf-8"))
    pm = transform_derivatives(session.transforms["Tgen"])
    u_ttt = pm[("t", "t", "t")]
    assert len(u_ttt.num_terms()) == 16364
    assert len(u_ttt.den_terms()) == len((pm.det ** 5).num_terms()) == 222
    assert (u_ttt.denominator() / pm.det ** 5).is_constant()


def test_entries_are_solved_on_demand(monkeypatch):
    calls = []
    derive = prolongation.total_derivative
    monkeypatch.setattr(prolongation, "total_derivative",
                        lambda e, v, dep: calls.append((e.text, v)) or derive(e, v, dep))
    pm = transform_derivatives(general_map())
    assert pm.entries == {} and len(calls) == 4  # the matrix D_k(phi_i)
    pm[("x", "x")]
    # u_x is solved as the parent, but only u_xx is handed out
    assert set(pm.entries) == {Jet("u", ("x", "x"))}
    # D_k(psi), D_k(N_x), and D_k(det) to ask whether det is free of x, each once
    assert len(calls) == 10
    image = pm.apply(jet("u", "t") + jet("u"))
    assert set(pm.entries) == {Jet("u", ("t",)), Jet("u", ("x", "x"))}
    assert (image - pm[("t",)] - pm.transformation.dep_map).is_zero()
    # u_t reads the kept D_k(psi), as does asking for it again
    assert pm.total_derivatives() is pm.total_derivatives()
    assert len(calls) == 10 and len(set(calls)) == 10


# a target variable, the dependent name, and names of neither
@pytest.mark.parametrize("index", [(), ("y",), ("x", "u"), ("r",), ("t", "r")])
def test_entries_outside_the_map_raise_key_error(index):
    pm = transform_derivatives(general_map())
    with pytest.raises(KeyError) as exc:
        pm[index]
    assert exc.value.args == (Jet("u", index),)
    assert pm.entries == {}
