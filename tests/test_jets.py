"""Prolongation: chain-rule recurrences, finite-difference validation, errors."""

from fractions import Fraction
from random import Random

import pytest

from eqvlab import (
    Instantiation,
    Jet,
    Var,
    PointTransformation,
    SingularTransformationError,
    VariableMismatchError,
    as_expression,
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
    cases += list(transform_derivatives(tgen, 1).entries.values())
    for e in cases:
        for v in ("y", "z"):
            new = total_derivative(e, v, "w")
            assert (new - per_atom_total_derivative(e, v, "w")).is_zero(), (e.text, v)


def test_identity_prolongation_is_trivial():
    tr = identity_transformation(("t", "x"), "u", ("y", "z"), "w")
    pm = transform_derivatives(tr, 2)
    assert pm[("t",)] == jet("w", "y")
    assert pm[("t", "x")] == jet("w", "y", "z")
    assert pm[("x", "x")] == jet("w", "z", "z")
    assert pm.det.is_one()
    assert pm.assumptions == ()


def test_chain_rule_recurrence_holds_symbolically():
    # D_k(entry[J]) == sum_i D_k(map_i) * entry[J + (x_i,)], exactly
    tr = general_map()
    pm = transform_derivatives(tr, 2)
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
    pm = transform_derivatives(tr, 2)
    rng = Random(31)
    exprs = [tr.dep_map, *pm.entries.values(), *tr.indep_map.values(), pm.det]
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
    tr = triangular_map()
    e = jet("u", "t", "x", "x")
    with pytest.raises(VariableMismatchError, match="exceeds prolongation order"):
        transform_equation(e, tr, 2)
    # and the default order follows the expression
    assert not transform_equation(e, tr).is_zero()


def test_singular_map_is_rejected():
    shared = func("R", y, z)
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": shared, "x": shared}, jet("w"))
    with pytest.raises(SingularTransformationError):
        transform_derivatives(tr, 1)


def test_point_transformation_rejects_jets_in_maps():
    with pytest.raises(Exception, match="bare dependent variable"):
        PointTransformation(
            ("t", "x"), "u", ("y", "z"), "w",
            {"t": y, "x": z}, jet("w", "y"))


def test_assumptions_record_only_the_jacobian_determinant():
    tr = triangular_map()
    pm = transform_derivatives(tr, 2)
    assert pm.assumptions == (pm.det,)
    assert (pm.det - func("R", y, d=[1]) * func("S", z, d=[1])).is_zero()
    # a constant-determinant map carries no assumptions at all
    lin = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": 2 * y + z, "x": y - z}, jet("w"))
    pml = transform_derivatives(lin, 2)
    assert pml.assumptions == ()
    assert pml.det.is_constant()


def test_apply_rejects_foreign_jets_and_variables():
    tr = triangular_map()
    pm = transform_derivatives(tr, 1)
    with pytest.raises(VariableMismatchError):
        pm.apply(jet("q", "t"))
    with pytest.raises(VariableMismatchError):
        pm.apply(var("elsewhere"))


def test_dependent_variable_in_independent_map():
    # genuine point transformation: the new independent variable mixes in w
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y + jet("w"), "x": z}, jet("w"))
    pm = transform_derivatives(tr, 1)
    wy, wz, w = jet("w", "y"), jet("w", "z"), jet("w")
    assert (pm[("t",)] * (1 + wy) - wy).is_zero()
    det = pm.det
    assert (det - (1 + wy)).is_zero()


def test_general_hyperbolic_image_keeps_the_jacobian_cubed():
    # order-2 entries carry J^3, order-1 entries J: the sum stays over J^3
    session = parse((CORPUS / "hyperbolic_general.eqv").read_text(encoding="utf-8"))
    tr = session.transforms["Tgen"]
    fam = session.families["F"].rename(tr.old_vars, tr.old_dep)
    pm = transform_derivatives(tr, fam.jet_order())
    image = pm.apply(fam.member())
    assert len(image.den_terms()) == 54
    assert (image.denominator() / pm.det ** 3).is_constant()
