"""Laplace invariants, canonical reduction, and their invariance under ``hyper``'s group."""

from random import Random

import pytest

from eqvlab import (
    DegenerateTransformationError,
    HyperbolicEquation,
    PointTransformation,
    TheoremPreconditionError,
    Var,
    VariableMismatchError,
    antiderivative,
    catalog,
    collect_numerators,
    exp,
    func,
    invariant_check,
    jet,
    partial,
    transform_equation,
    var,
)

t, x, y, z = var("t"), var("x"), var("y"), var("z")


def test_laplace_combinations_on_the_generic_equation():
    eq = HyperbolicEquation.generic()
    a1, a2, a3 = eq.a1, eq.a2, eq.a3
    assert (eq.laplace_h() - (partial(a1, Var("t")) + a1 * a2 - a3)).is_zero()
    assert (eq.laplace_k() - (partial(a2, Var("x")) + a1 * a2 - a3)).is_zero()
    inv = eq.invariants()
    assert not inv.h_zero and not inv.k_zero and not inv.wave_reducible
    assert (inv.p - inv.h / inv.k).is_zero()
    h = inv.h
    ht, hx = partial(h, Var("t")), partial(h, Var("x"))
    q_closed = (h * partial(ht, Var("x")) - ht * hx) / h ** 3
    assert (inv.q - q_closed).is_zero()


def test_concrete_invariants_unit_ratio():
    eq = HyperbolicEquation(x, t, t * x + 1)
    inv = eq.invariants()
    assert (inv.h + 1).is_zero()
    assert (inv.k + 1).is_zero()
    assert inv.p is not None and inv.p.is_one()
    assert inv.q is not None and inv.q.is_zero()
    assert not inv.wave_reducible
    j = inv.to_json()
    assert j["P"] == "1" and j["Q"] == "0"
    assert j["flags"] == {"H_zero": False, "K_zero": False, "wave_reducible": False}


def test_degenerate_invariants_both_zero():
    eq = HyperbolicEquation(x, t, t * x)
    inv = eq.invariants()
    assert inv.h_zero and inv.k_zero and inv.wave_reducible
    assert inv.p is None and inv.q is None
    assert inv.to_json()["P"] is None and inv.to_json()["Q"] is None


def test_one_sided_degeneracy():
    # K vanishes but H does not: the ratio dies, the log invariant survives
    eq = HyperbolicEquation(t * t, x, 1 + t * t * x)
    inv = eq.invariants()
    assert inv.k_zero and not inv.h_zero
    assert (inv.h - (2 * t - 1)).is_zero()
    assert inv.p is None
    assert inv.q is not None


def test_reduction_removes_first_order_terms():
    eq = HyperbolicEquation(x, t, t * x + 1)
    red = eq.reduce_to_canonical()
    assert red.b.is_one()
    assert not red.wave
    assert (red.reduced - (jet("w", "y", "z") + jet("w"))).is_zero()
    tr = red.transformation
    assert tr.indep_map["t"] == y and tr.indep_map["x"] == z
    # the weight is exp(-(z^2/2) - (y^2/2)) here; check it differentiates back
    scale = tr.dep_map / jet("w")
    assert (partial(scale, Var("y")) + y * scale).is_zero()
    assert (partial(scale, Var("z")) + z * scale).is_zero()
    j = red.to_json()
    assert j["wave"] is False and j["b"] == "1"


def test_reduction_to_the_wave_equation():
    eq = HyperbolicEquation(x, t, t * x)
    red = eq.reduce_to_canonical()
    assert red.wave
    assert red.b.is_zero()
    assert (red.reduced - jet("w", "y", "z")).is_zero()


def test_reduction_with_function_coefficients():
    eq = HyperbolicEquation(func("f", x), func("g", t), func("f", x) * func("g", t))
    red = eq.reduce_to_canonical()
    assert red.wave
    # integration constants rescale the weight by exp(c1 + c2) and nothing else
    red2 = eq.reduce_to_canonical(constants=(3, -2))
    assert red2.wave
    ratio = red2.transformation.dep_map / red.transformation.dep_map
    assert (ratio - exp(1)).is_zero()


def test_reduction_preconditions():
    bad1 = HyperbolicEquation(t, t, t * x)
    with pytest.raises(DegenerateTransformationError, match="a1 must depend only"):
        bad1.reduce_to_canonical()
    bad2 = HyperbolicEquation(x, x, t * x)
    with pytest.raises(DegenerateTransformationError, match="a2 must depend only"):
        bad2.reduce_to_canonical()
    eq = HyperbolicEquation(x, t, t * x)
    with pytest.raises(DegenerateTransformationError, match="constant"):
        eq.reduce_to_canonical(constants=(var("y"), 0))


def test_from_expression_round_trip():
    eq = HyperbolicEquation(x, t, t * x + 1)
    e = (2 + t * t) * eq.expression()
    back, lead = HyperbolicEquation.from_expression(e, "t", "x", "u")
    assert (lead - (2 + t * t)).is_zero()
    assert (back.a1 - x).is_zero() and (back.a2 - t).is_zero()
    assert (back.a3 - (t * x + 1)).is_zero()


def test_from_expression_shape_errors():
    with pytest.raises(VariableMismatchError, match="not of the hyperbolic shape"):
        HyperbolicEquation.from_expression(jet("u", "t") + jet("u"), "t", "x", "u")
    extra = jet("u", "t", "x") + jet("u", "t", "t")
    with pytest.raises(VariableMismatchError, match="outside the hyperbolic template"):
        HyperbolicEquation.from_expression(extra, "t", "x", "u")


def test_equation_constructor_validation():
    with pytest.raises(VariableMismatchError):
        HyperbolicEquation(var("q"), t, t * x)
    with pytest.raises(VariableMismatchError):
        HyperbolicEquation(jet("u"), t, t * x)
    with pytest.raises(VariableMismatchError):
        HyperbolicEquation(x, t, t * x, t="s", x="s", u="u")


HYPER = catalog("hyper")
GENERIC = HyperbolicEquation.generic().invariants()
# each Laplace combination is multiplied by the Jacobian, their ratio and
# the mixed log-derivative over h are unchanged
WEIGHTS = {"h": 1, "k": 1, "p": 0, "q": 0}


def _separated(old=("t", "x"), swap=False):
    """``t = R(y), x = S(z), u = L(y,z)*w`` over the source names ``old``;
    with ``swap``, ``t = S(z)`` and ``x = R(y)``, also in ``hyper``'s group."""
    R, S = func("R", y), func("S", z)
    return PointTransformation(old, "u", ("y", "z"), "w",
                               dict(zip(old, (S, R) if swap else (R, S))),
                               func("L", y, z) * jet("w"))


def test_contact_invariance_concrete():
    tr = PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        {"t": y ** 3 + y, "x": 2 * z}, exp(y + z) * jet("w"))
    for name, weight in WEIGHTS.items():
        assert invariant_check(HYPER, tr, getattr(GENERIC, name), weight).is_zero(), name


def test_contact_invariance_generic():
    # the family's variables are taken positionally: source names (a, b)
    # read as (t, x)
    for old in (("t", "x"), ("a", "b")):
        for name, weight in WEIGHTS.items():
            assert invariant_check(HYPER, _separated(old), getattr(GENERIC, name),
                                   weight).is_zero(), (name, old)


def test_the_wrong_weight_or_the_swap_breaks_the_claim():
    assert not invariant_check(HYPER, _separated(), GENERIC.h, 0).is_zero()
    # the swap is in hyper's group but exchanges h and k: neither h nor p is
    # kept, so each is a negative control, not a defect
    assert not invariant_check(HYPER, _separated(swap=True), GENERIC.h, 1).is_zero()
    assert not invariant_check(HYPER, _separated(swap=True), GENERIC.p, 0).is_zero()


def test_contact_invariance_shape_violations():
    # a map outside hyper's group is refused with its not-equivalence report
    for indep_map, dep_map, kind in (
            ({"t": y + z, "x": z}, jet("w"), "unmatched-term"),   # mixing
            ({"t": y, "x": z}, jet("w") + 1, "unmatched-term"),   # offset
            ({"t": y, "x": z}, jet("w") ** 2, "missing-lead")):   # square
        tr = PointTransformation(("t", "x"), "u", ("y", "z"), "w", indep_map, dep_map)
        with pytest.raises(TheoremPreconditionError) as exc:
            invariant_check(HYPER, tr, GENERIC.p, 0)
        report = exc.value.report
        assert report.verdict == "not-equivalence"
        assert [f.kind for f in report.failures] == [kind], kind
    # other source names are no shape violation
    renamed = PointTransformation(
        ("a", "b"), "c", ("y", "z"), "w", {"a": y, "b": z}, jet("w"))
    assert invariant_check(HYPER, renamed, GENERIC.p, 0).is_zero()


def test_weight_antiderivative_agrees_with_closed_form():
    # for a1 = x, a2 = t the antiderivatives are elementary; the stored weight
    # can differ from exp(-y^2/2 - z^2/2) only by a constant
    eq = HyperbolicEquation(x, t, t * x + 1)
    scale = eq.reduce_to_canonical().transformation.dep_map / jet("w")
    closed = exp(-(y * y) / 2 - (z * z) / 2)
    ratio = scale / closed
    assert (partial(ratio, Var("y"))).is_zero()
    assert (partial(ratio, Var("z"))).is_zero()


def _collect_reader(e, t, x, u):
    """The reader the template reader replaced, the reference it must
    reproduce: the four monomials written out and collected with
    ``collect_numerators``."""
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
    eq = HyperbolicEquation(nums[monos[1]] / n, nums[monos[2]] / n, nums[monos[3]] / n, t, x, u)
    return eq, n / den


def _reader_cases():
    """``(expression, t, x, u)``: seeded members times a lead factor, some over
    a denominator; the images the acceptance maps' invariance check and
    reductions read; and one input per shape error."""
    out = []
    rng = Random(2011)
    for i in range(40):
        tn, xn, un = ("t", "x", "u") if i % 3 else ("y", "z", "w")
        if i % 5 == 4:
            tn, xn = xn, tn
        tv, xv = var(tn), var(xn)

        def coefficient():
            pieces = [tv, xv, tv * xv + 1, func("f", tv, xv), func("g", xv), exp(2 * tv),
                      antiderivative(func("f", tv, xv), tn), tv * tv - 3 * xv]
            c = rng.choice(pieces)
            if rng.random() < 0.5:
                c = c * rng.choice(pieces) + rng.randint(-3, 3)
            return c

        factor = rng.choice([tv * tv + 2, xv - tv, exp(xv), func("h", tv), 3 * tv * xv + 1])
        e = factor * HyperbolicEquation(coefficient(), coefficient(), coefficient(),
                                        tn, xn, un).expression()
        if i % 4 == 0:
            e = e / rng.choice([xv * xv + 2, tv + xv + 1, func("k", xv)])
        out.append((e, tn, xn, un))

    tr = PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                             {"t": func("R", y), "x": func("S", z)}, func("L", y, z) * jet("w"))
    out.append((transform_equation(HyperbolicEquation.generic().expression(), tr), "y", "z", "w"))
    a1, a2, a3 = func("a1", x), func("a2", t), func("a3", t, x)
    for eq in (HyperbolicEquation(a1, a2, a3), HyperbolicEquation(a1, a2, a1 * a2),
               HyperbolicEquation(a1, a2, a1 * a2 + 1)):
        image = transform_equation(eq.expression(), eq.reduce_to_canonical().transformation)
        out.append((image, "y", "z", "w"))

    lead = jet("u", "t", "x")
    for e in (jet("u", "t") + t * jet("u"),                   # no lead
              lead + x * jet("u", "t", "t") + jet("u"),       # an extra jet monomial
              lead + jet("u", "t") / (1 + jet("u", "x")),     # jets in a denominator
              lead + func("f", jet("u", "t")) * jet("u"),     # a jet in a coefficient
              lead + t * x + var("q") * jet("u", "x")):       # a free term, a stray variable
        out.append((e, "t", "x", "u"))
    return out


def _layout(e):
    num, den, lc = e.integer_form()
    return e.text, list(num), list(den), lc


@pytest.mark.hashseed
def test_template_reader_equals_the_collect_reader_bulk():
    errors = 0
    for e, t, x, u in _reader_cases():
        try:
            want = _collect_reader(e, t, x, u)
        except VariableMismatchError as exc:
            with pytest.raises(VariableMismatchError) as got:
                HyperbolicEquation.from_expression(e, t, x, u)
            assert str(got.value) == str(exc), e.text[:80]
            errors += 1
            continue
        eq, lead = HyperbolicEquation.from_expression(e, t, x, u)
        want_eq, want_lead = want
        assert (eq.t, eq.x, eq.u) == (t, x, u)
        assert _layout(lead) == _layout(want_lead), e.text[:80]
        for name in ("a1", "a2", "a3"):
            assert _layout(getattr(eq, name)) == _layout(getattr(want_eq, name)), (name, e.text[:80])
    assert errors == 5
