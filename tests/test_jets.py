"""Prolongation: chain-rule recurrences, finite-difference validation, errors."""

from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest

import eqvlab.expressions as expressions
import eqvlab.prolongation as prolongation
from eqvlab import (
    Instantiation,
    Jet,
    Var,
    PointTransformation,
    SingularTransformationError,
    VariableMismatchError,
    antiderivative,
    as_expression,
    check_identity,
    draw_point,
    closure_jets,
    derive,
    evaluate,
    exp,
    expr_sum,
    fd_total,
    func,
    identity_transformation,
    jet,
    param,
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


def tgen_map() -> PointTransformation:
    w = jet("w")
    return PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                               {"t": func("R", y, z, w), "x": func("S", y, z, w)},
                               func("T", y, z, w))


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
    cases = [e for _, e in seeded_cases(707, 120)]
    # denominators that carry jets, bare and inside function arguments
    cases += [e / (w + wy * func("R", y, z, w)) for e in cases[:40]]
    cases += every_entry(transform_derivatives(tgen_map()), 1)
    for e in cases:
        for v in ("y", "z"):
            new = total_derivative(e, v, "w")
            assert (new - per_atom_total_derivative(e, v, "w")).is_zero(), (e.text, v)


def closure_walk_total_derivative(e, variable, dep):
    # the earlier assembly: every jet of dep in e's closure, sorted by text,
    # in one dict over the variable, then one derivation
    derivation = {Var(variable): 1}
    for j in sorted(closure_jets(e, dep), key=lambda a: a.text):
        derivation[j] = j.extended(variable)
    return derive(e, derivation)


def total_derivative_cases(monkeypatch):
    """Expressions over jets of w and v: seeded, over jet-bearing
    denominators, with jets of v, under antiderivatives (nested too), inside
    function and exp arguments, and Tgen's: its order-1 entries and every
    expression solving its entries up to order 2 differentiates.  The second
    list holds the ones free of antiderivatives."""
    w, wy, wz = jet("w"), jet("w", "y"), jet("w", "z")
    v, vy, vyz = jet("v"), jet("v", "y"), jet("v", "y", "z")
    seeded = [e for _, e in seeded_cases(707, 300)]
    cases = seeded + [e / (w + wy * func("R", y, z, w)) for e in seeded]
    cases += [e * vy + v for e in seeded[:150]]
    cases += [antiderivative(e * wz + vyz, "y") for e in seeded[:70]]
    cases += [antiderivative(e * wy, "z") * v for e in seeded[70:140]]
    cases += [antiderivative(antiderivative(wy * e, "y") * vy + w, "z")
              for e in seeded[140:210]]
    cases += [func("F", y, wz * e) + exp(z * vy) * e for e in seeded[210:290]]
    cases.append(func("G", exp(y * w), v) / (1 + func("H", wy, vy) ** 2))
    # differentiating the order-2 entries is order 3's work, most of a minute
    seen = []
    derive = prolongation.total_derivative
    with monkeypatch.context() as m:
        m.setattr(prolongation, "total_derivative",
                  lambda e, variable, dep: seen.append(e) or derive(e, variable, dep))
        pm = transform_derivatives(tgen_map())
        every_entry(pm, 2)
    cases += dict.fromkeys(seen)
    cases += [pm[("t",)], pm[("x",)]]
    free = [e for e in cases if not any(
        isinstance(a, expressions.Antideriv) for a in expressions._reach(e))]
    return cases, free


@pytest.mark.hashseed
def test_total_derivative_matches_the_closure_walk_bulk(monkeypatch):
    cases, free = total_derivative_cases(monkeypatch)
    assert len(cases) - len(free) >= 210
    for e in cases:
        for variable in ("y", "z"):
            for dep in ("w", "v"):
                got = total_derivative(e, variable, dep)
                want = closure_walk_total_derivative(e, variable, dep)
                where = (e.text, variable, dep)
                assert got.text == want.text, where
                num, den, lc = got.integer_form()
                w_num, w_den, w_lc = want.integer_form()
                assert list(num.items()) == list(w_num.items()), where
                assert list(den.items()) == list(w_den.items()), where
                assert lc == w_lc, where


def test_total_derivative_walks_no_closure(monkeypatch):
    # built before the walks are patched; Tgen's are among them
    _, free = total_derivative_cases(monkeypatch)

    def walk(*args):
        raise AssertionError("a total derivative walked a closure")

    for module in (expressions, prolongation):
        for name in ("dependency_closure", "closure_jets"):
            monkeypatch.setattr(module, name, walk)
    for e in free:
        for variable in ("y", "z"):
            total_derivative(e, variable, "w")
    monkeypatch.undo()
    wz = Jet("w", ("z",))
    assert wz.higher("y") is wz.higher("y") == jet("w", "y", "z")
    assert wz.higher("z") is not wz.higher("y")
    assert wz.higher("z") == jet("w", "z", "z")


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
    both = first.compose(second)
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


@pytest.mark.parametrize("old_vars, new_vars, indep_map", [
    # two sources over one target: the Jacobian is 1x2, and once gave det = 1
    (("t", "x"), ("y",), {"t": y, "x": y * y}),
    # one source over two targets: the jets were solved from a 2x1 matrix
    (("x",), ("y", "z"), {"x": y + z}),
], ids=["more-sources", "more-targets"])
def test_point_transformation_must_be_square(old_vars, new_vars, indep_map):
    with pytest.raises(VariableMismatchError, match="source variables against"):
        PointTransformation(old_vars, "u", new_vars, "w", indep_map, jet("w"))
    with pytest.raises(VariableMismatchError):
        identity_transformation(old_vars, "u", new_vars, "w")


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
    # a jet's index names count as variables of the expression
    with pytest.raises(VariableMismatchError, match=r"variables \['r'\]"):
        pm.apply(jet("u", "r"))


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


@pytest.mark.hashseed
def test_lazy_entries_equal_the_level_loop_bulk():
    w = jet("w")
    tgen = tgen_map()
    tri = triangular_map()
    # source variables listed out of sorted order
    swapped = PointTransformation(("x", "t"), "u", ("y", "z"), "w",
                                  {"x": tri.indep_map["x"], "t": tri.indep_map["t"]},
                                  tri.dep_map)
    glin = PointTransformation(("x",), "y", ("z",), "w",
                               {"x": func("F", z)}, func("G", z) * w + func("H", z))
    # Two diagonal maps with a multi-term det, solved over their own factors
    # d_t and d_x instead of det: every entry is the reference's value in a
    # form no larger, pinned by (numerator, denominator) terms against the
    # reference's counts.  d_x = 4 divides out at once
    free_of_x = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": -6 * y ** 2 - Fraction(1, 2) * y, "x": 4 * z + 2},
        (7 + 3 * y) * exp(-3 * z) * w)
    # d_x = -4*z divides out at once, so d_t and z never share a denominator
    # as they do in det
    cancels_early = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": Fraction(5, 3) * y ** 2 - Fraction(5, 2) * y, "x": -2 * z ** 2 + Fraction(1, 3)},
        Fraction(7, 2) * z ** 2 * w - Fraction(4, 3) * y * w)
    smaller = {
        # reference: 3/2, 6/2, 6/4, 10/3, 12/3, 17/8, 18/5, 21/4, 20/4
        free_of_x: {"D[u,t]": (3, 2), "D[u,x]": (4, 1), "D[u,t,t]": (6, 4),
                    "D[u,t,x]": (6, 2), "D[u,x,x]": (6, 1), "D[u,t,t,t]": (9, 6),
                    "D[u,t,t,x]": (12, 4), "D[u,t,x,x]": (9, 2), "D[u,x,x,x]": (8, 1)},
        # reference: 3/2, 6/2, 8/4, 8/3, 16/4, 28/8, 18/5, 30/6, 48/8
        cancels_early: {"D[u,t]": (3, 2), "D[u,x]": (3, 1), "D[u,t,t]": (8, 4),
                        "D[u,t,x]": (4, 2), "D[u,x,x]": (4, 1), "D[u,t,t,t]": (14, 6),
                        "D[u,t,t,x]": (11, 4), "D[u,t,x,x]": (6, 2), "D[u,x,x,x]": (6, 1)},
    }
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
            if tr in smaller:
                assert (len(got.num_terms()), len(got.den_terms())) == smaller[tr][key.text]
            if key.order <= 2 and tr not in smaller:
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


def seeded_diagonal_maps(seed: int, count: int):
    """``count`` diagonal maps each of four kinds, every factor ``d_i`` a sum
    of terms: polynomial (``t = P(y)``, ``x = Q(z)``), exp-bearing
    (``x = exp(k*z) + c*z``), permuted (``t = P(z)``, ``x = Q(y)``), and
    parametric (``d_t = c1 + c2``, free of every variable)."""
    rng = Random(seed)

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    def poly(v):  # a*v^2 + b*v + c, with a and b nonzero
        return coeff() * v ** 2 + coeff() * v + rng.randint(-2, 2)

    w = jet("w")
    c1, c2 = param("c1"), param("c2")
    for _ in range(count):
        psi = (coeff() * y + coeff() * z ** 2 + rng.randint(1, 3)) * w + coeff() * y * z
        kinds = [
            ((0, 1), {"t": poly(y), "x": poly(z)}, psi),
            ((0, 1), {"t": poly(y), "x": exp(rng.choice([-2, -1, 1, 2]) * z) + coeff() * z},
             exp(coeff() * y) * psi),
            ((1, 0), {"t": poly(z), "x": poly(y)}, psi),
            ((0, 1), {"t": (c1 + c2) * y + coeff(), "x": poly(z)}, psi),
        ]
        for sigma, indep, dep in kinds:
            yield sigma, PointTransformation(("t", "x"), "u", ("y", "z"), "w", indep, dep)


def terms(e) -> int:
    return len(e.num_terms()) + len(e.den_terms())


@pytest.mark.hashseed
def test_diagonal_maps_solve_each_jet_over_its_own_factor_bulk():
    two = {"w": ("y", "z")}
    seen = {"entries": 0, "smaller": 0}
    for sigma, tr in seeded_diagonal_maps(2306, 2):
        pm = transform_derivatives(tr)
        assert prolongation._diagonal_rows(pm.matrix) == sigma, tr
        want = eager_entries(tr, 3)
        for key in sorted(want, key=lambda j: (-j.order, j.index)):
            got = pm[key.index]
            assert (got - want[key]).is_zero(), (tr, key.text)
            assert check_identity(got, want[key], two, points=3).ok, (tr, key.text)
            assert terms(got) <= terms(want[key]), (tr, key.text)
            seen["entries"] += 1
            seen["smaller"] += terms(got) < terms(want[key])
    # most entries print smaller: no other factor enters them
    assert seen["entries"] == 72 and seen["smaller"] > 60, seen


@pytest.mark.hashseed
@pytest.mark.parametrize("indep", [
    {"t": func("R", y), "x": func("S", y, z)},
    {"t": func("R", y), "x": func("S", z) + jet("w")},
    # permuted: column t is nonzero in row z alone, column x in both rows
    {"t": func("R", z), "x": func("S", y, z)},
    {"t": func("R", z), "x": func("S", y) + jet("w")},
    # det = 2*z + 1, free of t: u_tt is over det**2, as the reference's is
    {"t": y + z, "x": z ** 2 + z},
], ids=["S-of-yz", "S-of-z-plus-w", "permuted-S-of-yz", "permuted-S-of-y-plus-w",
        "free-of-t"])
def test_maps_that_are_not_diagonal_keep_cramers_rule(indep):
    tr = PointTransformation(("t", "x"), "u", ("y", "z"), "w", indep,
                             func("L", y, z) * jet("w"))
    pm = transform_derivatives(tr)
    assert prolongation._diagonal_rows(pm.matrix) is None
    for key, want in eager_entries(tr, 2).items():
        got = pm[key.index]
        assert got.text == want.text, key.text
        num, den, _ = got.integer_form()
        w_num, w_den, _ = want.integer_form()
        assert list(num) == list(w_num) and list(den) == list(w_den), key.text


@pytest.mark.hashseed
def test_general_map_third_order_entry_is_over_det_to_the_fifth():
    # u_ttt of the general hyperbolic map, by size: the reference's Cramer
    # loop gave 99 674 numerator terms over a 648-term denominator
    session = parse((CORPUS / "hyperbolic_general.eqv").read_text(encoding="utf-8"))
    pm = transform_derivatives(session.transforms["Tgen"])
    u_ttt = pm[("t", "t", "t")]
    assert len(u_ttt.num_terms()) == 16364
    assert len(u_ttt.den_terms()) == len((pm.det ** 5).num_terms()) == 222
    assert (u_ttt.denominator() / pm.det ** 5).is_constant()


class DivideEachSolve(prolongation.ProlongedMap):
    """The earlier solve: a one-term factor (a constant or a monomial) divided
    out at every solve, the entry kept with its powers unchanged."""

    def _solve(self, J, xi):
        i = self.transformation.old_vars.index(xi)
        f, rows = self._axes[i][:2]
        d = self._factors[f]
        if len(d.num_terms()) == len(d.den_terms()) == 1:
            num, powers = self._solved[J]
            return self._numerator(self._total_derivatives(J, num, rows), i) / d, powers
        return super()._solve(J, xi)


@pytest.mark.hashseed
@pytest.mark.parametrize("indep, order", [
    ({"t": 3 * y + 1, "x": 2 * z - 5}, 3),
    ({"t": y ** 2, "x": z ** 3}, 3),
    ({"t": func("R", y), "x": func("S", z)}, 3),
    ({"t": exp(y), "x": exp(2 * z)}, 3),
    # not diagonal: a shear with det = 1, and det = z
    ({"t": y + z, "x": z}, 3),
    ({"t": y * z, "x": z}, 3),
    ({"x": z ** 3}, 5),
    ({"x": func("X", z)}, 5),
], ids=["constant", "monomial", "func-atom", "exponential", "shear", "monomial-det",
        "one-variable-monomial", "one-variable-func-atom"])
def test_one_term_factors_follow_the_known_power_rule(indep, order):
    w = jet("w")
    if len(indep) == 2:
        tr = PointTransformation(("t", "x"), "u", ("y", "z"), "w", indep,
                                 func("L", y, z) * w)
    else:
        tr = PointTransformation(("x",), "u", ("z",), "w", indep,
                                 func("G", z) * w + func("H", z))
    pm = transform_derivatives(tr)
    ref = DivideEachSolve(tr, pm.matrix, pm.det)
    got, want = every_entry(pm, order), every_entry(ref, order)
    # a monomial or exponential factor can store a numerator's terms in
    # another order; what prints and what a state file holds are the same
    for g, r in zip(got, want):
        assert g.text == r.text
        assert g.to_tree() == r.to_tree()
        assert terms(g) <= terms(r)
    assert len(got) == len(want) == (9 if len(indep) == 2 else 5)


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


def test_siblings_of_one_parent_share_its_derivatives(monkeypatch):
    # det = 4*y*z - 1 is free of neither t nor x, so every child of an entry
    # over a power of det takes the long form of its parent's right-hand
    # sides; t and tt have two such children, which differentiate their
    # parent's numerator and det once between them
    tr = PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                             {"t": y ** 2 + z, "x": y + z ** 2}, y * jet("w"))
    third = list(combinations_with_replacement(tr.old_vars, 3))
    calls = []
    derive = prolongation.total_derivative
    monkeypatch.setattr(prolongation, "total_derivative",
                        lambda e, v, dep: calls.append((e.text, v)) or derive(e, v, dep))
    pm = transform_derivatives(tr)
    got = [pm[K] for K in third]
    assert len(set(calls)) == len(calls)
    for K, entry in zip(third, got):
        # alone on its own map, no sibling shares its parents' derivatives
        want = transform_derivatives(tr)[K]
        assert entry.text == want.text
        num, den, _ = entry.integer_form()
        w_num, w_den, _ = want.integer_form()
        assert list(num) == list(w_num) and list(den) == list(w_den)


# a target variable, the dependent name, and names of neither
@pytest.mark.parametrize("index", [(), ("y",), ("x", "u"), ("r",), ("t", "r")])
def test_entries_outside_the_map_raise_key_error(index):
    pm = transform_derivatives(general_map())
    with pytest.raises(KeyError) as exc:
        pm[index]
    assert exc.value.args == (Jet("u", index),)
    assert pm.entries == {}
