"""Acceptance gate: the eight headline checks, one test per criterion.

Each test prints a single ``criterion N: PASS`` line and enforces its own
60-second budget, so a red run points at the exact criterion that broke.
The symbolic targets here are frozen closed forms; they were derived once
with the numeric oracle as a cross-check and must not be edited to track
engine output.
"""

import time
from fractions import Fraction
from random import Random

from eqvlab import (
    HyperbolicEquation,
    PointTransformation,
    PolyFunc,
    catalog,
    check_equivalence,
    check_identity,
    collect,
    exp,
    func,
    invariant_check,
    jet,
    param,
    partial,
    sign_canonical,
    theorem_instance_check,
    transform_equation,
    var,
)

from conftest import seeded_cases

y, z = var("y"), var("z")
t, x = var("t"), var("x")
w = jet("w")
wy, wz, wyz = jet("w", "y"), jet("w", "z"), jet("w", "y", "z")

BUDGET = 60.0


def _finish(n: int, t0: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    line = f"criterion {n}: {'PASS' if elapsed < BUDGET else 'FAIL'} ({elapsed:.2f}s) {detail}"
    print(line)
    assert elapsed < BUDGET, line


def _hyper_tr(dep_map, indep_map=None):
    R, S = func("R", y), func("S", z)
    return PointTransformation(
        ("t", "x"), "u", ("y", "z"), "w",
        indep_map if indep_map is not None else {"t": R, "x": S}, dep_map)


def test_criterion_1_linear_weight_action():
    """Affine dependent map on the dependent-coefficient hyperbolic family.

    The map t=R(y), x=S(z), u=L(y,z)w + J(y,z) must come out an equivalence
    transformation, with the inhomogeneous part absorbed into the free slot
    and every induced coefficient matching its closed form.
    """
    t0 = time.perf_counter()
    R, S = func("R", y), func("S", z)
    L, J = func("L", y, z), func("J", y, z)
    Ry, Sz = partial(R, y), partial(S, z)
    Ly, Lz, Lyz = partial(L, y), partial(L, z), partial(partial(L, y), z)

    rep = check_equivalence(catalog("hyperu"), _hyper_tr(L * w + J))
    assert rep.verdict == "equivalence"
    assert rep.absorbed_slot == "a3"

    def comp(name):
        return func(name, R, S, L * w + J)

    b1 = comp("a1") * Sz + Lz / L
    b2 = comp("a2") * Ry + Ly / L
    b3 = (comp("a2") * Lz * Ry + comp("a1") * Ly * Sz
          + L * comp("a3") * Ry * Sz + Lyz) / L
    Jy, Jz = partial(J, y), partial(J, z)
    shift = (partial(Jy, z) + comp("a1") * Jy * Sz + comp("a2") * Jz * Ry
             + comp("a3") * J * Ry * Sz) / L
    assert (rep.action["a1"] - b1).is_zero()
    assert (rep.action["a2"] - b2).is_zero()
    assert (rep.action["a3"] - (b3 + shift / w)).is_zero()

    # constant offset: the same shape read off the raw transformed equation
    K = param("K")
    te = transform_equation(catalog("hyperu").member(), _hyper_tr(L * w + K))
    coeffs, resid = collect(te, [wyz, wy, wz, w])
    lead = coeffs[wyz]

    def compk(name):
        return func(name, R, S, L * w + K)

    b3k = (compk("a2") * Lz * Ry + compk("a1") * Ly * Sz
           + L * compk("a3") * Ry * Sz + Lyz) / L
    assert (coeffs[wy] / lead - (compk("a1") * Sz + Lz / L)).is_zero()
    assert (coeffs[wz] / lead - (compk("a2") * Ry + Ly / L)).is_zero()
    assert (coeffs[w] / lead - b3k).is_zero()
    assert (resid / lead - K * compk("a3") * Ry * Sz / L).is_zero()
    _finish(1, t0, "affine-weight action and constant-offset replay")


def test_criterion_2_shape_narrowing_stages():
    """Three candidate-map stages, from fully general down to separated.

    General maps fail on jets in the substitution denominator, maps mixing
    the two base variables leave second-order terms with pinned coefficient
    identities, and separated maps with a free dependent map fail only on
    the nonlinearity monomial.
    """
    t0 = time.perf_counter()

    # fully general candidate: all three maps may involve the dependent var
    R3, S3, T3 = func("R", y, z, w), func("S", y, z, w), func("T", y, z, w)
    rep1 = check_equivalence(
        catalog("hyper"),
        PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                            {"t": R3, "x": S3}, T3))
    assert rep1.verdict == "not-equivalence"
    Rw, Sw = partial(R3, w), partial(S3, w)
    evidence = {
        "D[w,y]": sign_canonical(partial(R3, z) * Sw - Rw * partial(S3, z)),
        "D[w,z]": sign_canonical(partial(R3, y) * Sw - Rw * partial(S3, y)),
    }
    assert {(f.kind, f.monomial.text) for f in rep1.failures} == {
        ("denominator-jets", "D[w,y]"), ("denominator-jets", "D[w,z]")}
    for f in rep1.failures:
        assert (f.coefficient - evidence[f.monomial.text]).is_zero()

    # base maps free of the dependent variable but mixing y and z
    R2, S2 = func("R", y, z), func("S", y, z)
    Tf = func("T", y, z, w)
    Tw = partial(Tf, w)
    te2 = transform_equation(
        catalog("hyper").member(),
        PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                            {"t": R2, "x": S2}, Tf))
    wyy, wzz = jet("w", "y", "y"), jet("w", "z", "z")
    co2, _ = collect(te2, [wyy, wzz, wyz])
    Ry2, Rz2 = partial(R2, y), partial(R2, z)
    Sy2, Sz2 = partial(S2, y), partial(S2, z)
    det = Ry2 * Sz2 - Rz2 * Sy2
    assert (co2[wyy] * det * det + Rz2 * Sz2 * Tw).is_zero()
    assert (co2[wzz] * det * det + Ry2 * Sy2 * Tw).is_zero()
    assert (co2[wyz] * det * det - (Ry2 * Sz2 + Rz2 * Sy2) * Tw).is_zero()
    # the same identities arranged without any division
    assert ((-det ** 3) * co2[wyy] - Rz2 * Sz2 * det * Tw).is_zero()
    assert ((-det ** 3) * co2[wzz] - Ry2 * Sy2 * det * Tw).is_zero()

    # separated base maps, dependent map still free
    R1, S1 = func("R", y), func("S", z)
    Ry, Sz = partial(R1, y), partial(S1, z)
    tr3 = PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                              {"t": R1, "x": S1}, Tf)
    te3 = transform_equation(catalog("hyperu").member(), tr3)
    co3, resid3 = collect(te3, [wyz, wy * wz, wy, wz])
    lead = co3[wyz]

    def comp(name):
        return func(name, R1, S1, Tf)

    Ty, Tz = partial(Tf, y), partial(Tf, z)
    assert (co3[wy * wz] / lead - partial(Tw, w) / Tw).is_zero()
    assert (co3[wy] / lead - (comp("a1") * Sz + partial(Tw, z) / Tw)).is_zero()
    assert (co3[wz] / lead - (comp("a2") * Ry + partial(Tw, y) / Tw)).is_zero()
    assert (resid3 / lead
            - (comp("a3") * Tf * Ry * Sz + comp("a1") * Ty * Sz
               + comp("a2") * Tz * Ry + partial(Ty, z)) / Tw).is_zero()

    rep3 = check_equivalence(catalog("hyperu"), tr3)
    assert rep3.verdict == "not-equivalence"
    assert [(f.kind, f.monomial.text) for f in rep3.failures] == [
        ("unmatched-term", "D[w,y]*D[w,z]")]
    assert (rep3.failures[0].coefficient
            - sign_canonical(partial(Tw, w) / Tw)).is_zero()
    _finish(2, t0, "general, mixed, and separated candidate maps")


def test_criterion_3_restricted_coefficient_families():
    """Induced actions for the two restricted-argument variants."""
    t0 = time.perf_counter()
    R, S = func("R", y), func("S", z)
    Ry, Sz = partial(R, y), partial(S, z)

    # exponentially separated weight
    f, g = func("f", y), func("g", z)
    repx = check_equivalence(catalog("hyperxp"), _hyper_tr(exp(f + g) * w))
    assert repx.verdict == "equivalence"
    fy, gz = partial(f, y), partial(g, z)
    a1S, a2R, a3RS = func("a1", S), func("a2", R), func("a3", R, S)
    assert (repx.action["a1"] - (gz + a1S * Sz)).is_zero()
    assert (repx.action["a2"] - (fy + a2R * Ry)).is_zero()
    assert (repx.action["a3"]
            - (fy * (gz + a1S * Sz) + Ry * (a2R * gz + a3RS * Sz))).is_zero()

    # affine second base map with an exponential-in-z weight
    k1, k2, k3 = param("k1"), param("k2"), param("k3")
    g1 = func("g", y)
    gy = partial(g1, y)
    rept = check_equivalence(
        catalog("hypertt"),
        _hyper_tr(g1 * exp(k3 * z) * w, {"t": R, "x": k1 * z + k2}))
    assert rept.verdict == "equivalence"
    a1R, a2Rt = func("a1", R), func("a2", R)
    a3Rx = func("a3", R, k1 * z + k2)
    assert (rept.action["a1"] - (a1R * k1 + k3)).is_zero()
    assert (rept.action["a2"] - (a2Rt * Ry + gy / g1)).is_zero()
    assert (rept.action["a3"]
            - (a1R * k1 * gy / g1 + k1 * a3Rx * Ry
               + a2Rt * k3 * Ry + k3 * gy / g1)).is_zero()
    # grouped through the full weight, as a consistency cross-check
    L = g1 * exp(k3 * z)
    grouped = (a1R * k1 * partial(L, y) + k1 * L * a3Rx * Ry
               + a2Rt * partial(L, z) * Ry + partial(partial(L, y), z)) / L
    assert (rept.action["a3"] - grouped).is_zero()
    _finish(3, t0, "separated-exponential and affine-map variants")


def test_criterion_4_ordinary_linear_families():
    """The three ordinary families at orders 3..5 under their stated maps."""
    t0 = time.perf_counter()
    S, L, J = func("S", z), func("L", z), func("J", z)
    k = [param(f"k{i}") for i in (1, 2, 3, 4)]
    for n in (3, 4, 5):
        scale = PointTransformation(("x",), "y", ("z",), "w", {"x": S}, L * w)
        shift = PointTransformation(("x",), "y", ("z",), "w", {"x": S}, L * w + J)
        affine = PointTransformation(("x",), "y", ("z",), "w",
                                     {"x": k[0] * z + k[1]}, k[2] * w + k[3])
        assert check_equivalence(catalog("glin", n), scale).verdict == "equivalence"
        assert check_equivalence(catalog("gliny", n), shift).verdict == "equivalence"
        assert check_equivalence(catalog("glin0y", n), affine).verdict == "equivalence"

    # constant-coefficient family under a genuinely variable weight: rejected
    neg = check_equivalence(
        catalog("glin0y", 3),
        PointTransformation(("x",), "y", ("z",), "w", {"x": S}, L * w + J))
    assert neg.verdict == "not-equivalence"
    assert {f.kind for f in neg.failures} == {"forbidden-dependency"}
    _finish(4, t0, "orders 3-5 equivalence plus the constant-family rejection")


def _rand_poly(rng, arity, names, require):
    return PolyFunc.random(rng, arity, 2, require=require).to_expression(names)


def test_criterion_5_containment_suites():
    """Seeded instances of the four containment statements, 50 each.

    Every equivalence transformation of the restricted family must also be
    one of its dependent-argument enlargement.  The converse fails, which
    the final witness demonstrates.
    """
    t0 = time.perf_counter()

    rng = Random(501)
    for _ in range(50):
        tr = PointTransformation(
            ("x",), "y", ("z",), "w",
            {"x": _rand_poly(rng, 1, ("z",), (1,))},
            _rand_poly(rng, 1, ("z",), (1,)) * w)
        assert theorem_instance_check(catalog("glin", 3), catalog("gliny", 3), tr).holds

    rng = Random(502)
    for _ in range(50):
        tr = PointTransformation(
            ("t", "x"), "u", ("y", "z"), "w",
            {"t": _rand_poly(rng, 1, ("y",), (1,)),
             "x": _rand_poly(rng, 1, ("z",), (1,))},
            _rand_poly(rng, 2, ("y", "z"), (1, 2)) * w)
        assert theorem_instance_check(catalog("hyper"), catalog("hyperu"), tr).holds

    rng = Random(503)
    for _ in range(50):
        tr = PointTransformation(
            ("t", "x"), "u", ("y", "z"), "w", {"t": y, "x": z},
            exp(_rand_poly(rng, 1, ("y",), (1,))
                + _rand_poly(rng, 1, ("z",), (1,))) * w)
        assert theorem_instance_check(catalog("hyperxp"), catalog("hyperu"), tr).holds

    rng = Random(504)
    for _ in range(50):
        k1 = rng.randint(1, 9)
        tr = PointTransformation(
            ("t", "x"), "u", ("y", "z"), "w",
            {"t": _rand_poly(rng, 1, ("y",), (1,)),
             "x": k1 * z + rng.randint(-5, 5)},
            _rand_poly(rng, 1, ("y",), (1,)) * exp(rng.randint(-4, 4) * z) * w)
        assert theorem_instance_check(catalog("hypertt"), catalog("hyperu"), tr).holds

    # not a two-way street: an inhomogeneous shift is an equivalence
    # transformation of the enlarged family only
    S, L, J = func("S", z), func("L", z), func("J", z)
    shift = PointTransformation(("x",), "y", ("z",), "w", {"x": S}, L * w + J)
    assert check_equivalence(catalog("gliny", 3), shift).verdict == "equivalence"
    assert check_equivalence(catalog("glin", 3), shift).verdict == "not-equivalence"
    _finish(5, t0, "200 seeded containment instances and the converse witness")


def test_criterion_6_invariants_and_reduction():
    """Contact quantities survive the generic map; reduction closed form."""
    t0 = time.perf_counter()

    inv = HyperbolicEquation.generic().invariants()
    tr = _hyper_tr(func("L", y, z) * w)
    assert invariant_check(catalog("hyper"), tr, inv.p, 0).is_zero()
    assert invariant_check(catalog("hyper"), tr, inv.q, 0).is_zero()

    sep = HyperbolicEquation(func("a1", x), func("a2", t), func("a3", t, x))
    red = sep.reduce_to_canonical()
    b_closed = func("a3", y, z) - func("a1", z) * func("a2", y)
    assert (red.b - b_closed).is_zero()
    assert not red.wave

    # b vanishes exactly on the product coefficient, giving the wave equation
    prod = HyperbolicEquation(func("a1", x), func("a2", t),
                              func("a1", x) * func("a2", t))
    redw = prod.reduce_to_canonical()
    assert redw.wave
    assert (redw.reduced - wyz).is_zero()
    off = HyperbolicEquation(func("a1", x), func("a2", t),
                             func("a1", x) * func("a2", t) + 1)
    assert not off.reduce_to_canonical().wave
    _finish(6, t0, "generic invariance, reduction closed form, wave threshold")


def test_criterion_7_numeric_companions():
    """Every symbolic headline above is re-checked on random numeric points.

    Ten points at 1e-6 for each identity, plus one scaled negative control
    per block so a silently vacuous check cannot pass.
    """
    t0 = time.perf_counter()
    dv2 = {"w": ("y", "z")}
    off = Fraction(1001, 1000)

    R, S = func("R", y), func("S", z)
    L, J = func("L", y, z), func("J", y, z)
    Ry, Sz = partial(R, y), partial(S, z)

    rep = check_equivalence(catalog("hyperu"), _hyper_tr(L * w + J))
    b1 = func("a1", R, S, L * w + J) * Sz + partial(L, z) / L
    assert check_identity(rep.action["a1"], b1, dv2, seed=901).ok
    assert not check_identity(rep.action["a1"], b1 * off, dv2, seed=901).ok

    R2, S2, Tf = func("R", y, z), func("S", y, z), func("T", y, z, w)
    te2 = transform_equation(
        catalog("hyper").member(),
        PointTransformation(("t", "x"), "u", ("y", "z"), "w",
                            {"t": R2, "x": S2}, Tf))
    wyy = jet("w", "y", "y")
    co2, _ = collect(te2, [wyy])
    det = partial(R2, y) * partial(S2, z) - partial(R2, z) * partial(S2, y)
    rhs = -partial(R2, z) * partial(S2, z) * partial(Tf, w)
    assert check_identity(co2[wyy] * det * det, rhs, dv2, seed=902).ok
    assert not check_identity(co2[wyy] * det * det, rhs * off, dv2, seed=902).ok

    repx = check_equivalence(catalog("hyperxp"),
                             _hyper_tr(exp(func("f", y) + func("g", z)) * w))
    fy, gz = partial(func("f", y), y), partial(func("g", z), z)
    a3x = (fy * (gz + func("a1", S) * Sz)
           + Ry * (func("a2", R) * gz + func("a3", R, S) * Sz))
    assert check_identity(repx.action["a3"], a3x, dv2, seed=903).ok
    assert not check_identity(repx.action["a3"], a3x * off, dv2, seed=903).ok

    dv1 = {"w": ("z",)}
    S1, L1 = func("S", z), func("L", z)
    rep4 = check_equivalence(
        catalog("glin", 3),
        PointTransformation(("x",), "y", ("z",), "w", {"x": S1}, L1 * w))
    assert check_identity(rep4.reconstruction(), rep4.expression, dv1,
                          seed=904, assumptions=rep4.assumptions).ok
    assert not check_identity(rep4.reconstruction(), rep4.expression * off, dv1,
                              seed=904, assumptions=rep4.assumptions).ok

    rng = Random(905)
    inst = theorem_instance_check(
        catalog("hypertt"), catalog("hyperu"),
        PointTransformation(
            ("t", "x"), "u", ("y", "z"), "w",
            {"t": _rand_poly(rng, 1, ("y",), (1,)), "x": 3 * z + 1},
            _rand_poly(rng, 1, ("y",), (1,)) * exp(2 * z) * w))
    assert inst.holds
    tgt = inst.target_report
    assert check_identity(tgt.reconstruction(), tgt.expression,
                          dv2, seed=905, assumptions=tgt.assumptions).ok
    assert not check_identity(tgt.reconstruction(), tgt.expression * off, dv2,
                              seed=905, assumptions=tgt.assumptions).ok

    sep = HyperbolicEquation(func("a1", x), func("a2", t), func("a3", t, x))
    red = sep.reduce_to_canonical()
    b_closed = func("a3", y, z) - func("a1", z) * func("a2", y)
    assert check_identity(red.b, b_closed, {}, seed=906).ok
    assert not check_identity(red.b, b_closed * off, {}, seed=906).ok
    _finish(7, t0, "ten-point checks with negative controls for all six blocks")


def test_criterion_8_kernel_bulk_properties():
    """200-case seeded sweeps of the four load-bearing kernel laws."""
    t0 = time.perf_counter()
    from eqvlab import (Var, as_expression, expr_sum, normalize,
                        polynomial_jets, substitute)

    for _, e in seeded_cases(101, 200):
        n = normalize(e)
        assert normalize(n) == n

    for _, e in seeded_cases(202, 200):
        d_yz = partial(partial(e, Var("y")), Var("z"))
        d_zy = partial(partial(e, Var("z")), Var("y"))
        assert (d_yz - d_zy).is_zero()

    binding = {Var("y"): 1 + z * z}
    pairs = list(seeded_cases(303, 200, transcendental=False))
    for (_, a), (_, b) in zip(pairs, reversed(pairs)):
        sa, sb = substitute(a, binding), substitute(b, binding)
        assert (substitute(a + b, binding) - (sa + sb)).is_zero()
        assert (substitute(a * b, binding) - (sa * sb)).is_zero()

    for _, e in seeded_cases(404, 200):
        monos = [as_expression(j) for j in
                 sorted(polynomial_jets(e, "w"), key=lambda j: j.text)]
        coeffs, residual = collect(e, monos)
        back = expr_sum(coeffs[m] * m for m in monos) + residual
        assert (back - e).is_zero()
    _finish(8, t0, "normalize, mixed partials, substitution, collect")
