"""The numeric side: polynomial stand-ins, evaluation, identity checking."""

import json
import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from random import Random

import pytest

from eqvlab import oracle
from eqvlab.expressions import _below, _reach, expr_prod, expr_sum, from_monomial, substitute
from eqvlab.oracle import RATIONALS
from eqvlab import (
    Antideriv,
    AssumptionViolationError,
    EvaluationError,
    Expression,
    Func,
    Instantiation,
    Jet,
    Log,
    Param,
    PolyFunc,
    Var,
    antiderivative,
    as_expression,
    check_identity,
    draw_point,
    evaluate,
    exp,
    func,
    jet,
    log,
    param,
    partial,
    required_point_names,
    var,
)
from conftest import seeded_cases

# draws, verdicts and miss bounds must not depend on the hash seed
pytestmark = pytest.mark.hashseed

y, z = var("y"), var("z")
DEP = {"w": ("y", "z")}
# the fixed primes of an earlier design, and a drawn one for tests of GF(p)
OLD_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
P61 = OLD_PRIMES[0]
GF = oracle._Modular(oracle._draw_prime(Random(0)))
# the count of primes in [2^61, 2^62) that the miss bound assumes
N = oracle._PRIME_COUNT


def test_upoly_arithmetic():
    ring = oracle._Polynomials(RATIONALS, Antideriv(y, "y"))
    add, mul, power, div = ring.add, ring.mul, ring.power, ring.div
    t = ring.indeterminate
    p = add(add(mul(3, power(t, 2)), t), -5)
    assert len(p.coeffs) == 3
    assert p(Fraction(2)) == Fraction(9)
    q = mul(p, p)
    assert len(q.coeffs) == 5
    assert q(3) == p(3) ** 2
    zero = add(p, mul(-1, p))
    assert len(zero.coeffs) == 1 and zero(7) == 0
    assert add(p, 1)(0) == -4
    assert div(p, 2)(4) == p(4) / 2
    assert power(p, 3) == mul(mul(p, p), p)
    assert add(2, mul(-1, p)) == mul(-1, add(p, -2))
    with pytest.raises(EvaluationError):
        div(p, t)
    with pytest.raises(EvaluationError):
        ring.vanishes(p)


def test_upoly_antiderivative():
    ring = oracle._Polynomials(RATIONALS, Antideriv(y, "y"))
    t = ring.indeterminate
    p = ring.add(ring.add(ring.mul(6, ring.power(t, 2)), ring.mul(-4, t)), 1)
    a = p.antiderivative()
    assert a.coeffs[0] == 0
    # differentiating the antiderivative recovers the coefficients exactly
    da = [a.coeffs[i] * i for i in range(1, len(a.coeffs))]
    assert da == list(p.coeffs)
    assert a(Fraction(2)) == Fraction(16 - 8 + 2)


def test_polyfunc_partial_matches_finite_differences():
    rng = Random(12)
    f = PolyFunc.random(rng, 3, degree=3, require=(1, 2, 3))
    h = Fraction(1, 10 ** 6)
    pt = [Fraction(5, 7), Fraction(-2, 3), Fraction(9, 5)]
    for slot in (1, 2, 3):
        d = f.partial(slot)
        hi = list(pt)
        lo = list(pt)
        hi[slot - 1] += h
        lo[slot - 1] -= h
        fd = (f.evaluate(hi) - f.evaluate(lo)) / (2 * h)
        assert abs(fd - d.evaluate(pt)) <= Fraction(1, 10 ** 4)


def test_polyfunc_random_require_guarantee():
    # required slots must genuinely appear for every seed
    for seed in range(40):
        f = PolyFunc.random(Random(seed), 2, degree=2, require=(1, 2))
        assert any(e[0] > 0 for e in f.coeffs)
        assert any(e[1] > 0 for e in f.coeffs)
        assert f.partial(1).coeffs and f.partial(2).coeffs


def test_polyfunc_to_expression_consistency():
    rng = Random(77)
    f = PolyFunc.random(rng, 2, degree=2, require=(1, 2))
    e = f.to_expression(("y", "z"))
    for pt in ([Fraction(1, 2), Fraction(3)], [Fraction(-2), Fraction(5, 3)]):
        inst = Instantiation()
        v = evaluate(e, inst, {"y": pt[0], "z": pt[1]})
        assert v == f.evaluate(pt)


def test_polyfunc_validation():
    with pytest.raises(ValueError):
        PolyFunc(2, {(1,): Fraction(1)})
    f = PolyFunc(1, {(2,): Fraction(3)})
    with pytest.raises(EvaluationError):
        f.evaluate([1, 2])
    with pytest.raises(EvaluationError):
        f.partial(5)


def test_evaluate_covers_every_atom_kind():
    e = (2 * y + param("c") * jet("w", "y") + func("F", y, z)
         + exp(y - y) + log(1 + z * z) + antiderivative(y, "y"))
    rng = Random(3)
    inst = Instantiation.for_expressions([e], rng, DEP)
    pt = draw_point(rng, required_point_names([e], inst))
    v = evaluate(e, inst, pt)
    assert v == pytest.approx(float(v))
    # the antiderivative of y in y evaluates to y^2/2 exactly
    a = evaluate(antiderivative(y, "y"), inst, pt)
    assert a == pt["y"] ** 2 / 2


def test_jets_evaluate_as_partials_of_the_dependent_polynomial():
    rng = Random(9)
    e = jet("w", "y", "z")
    inst = Instantiation.for_expressions([e], rng, DEP, degree=3)
    _slots, poly = inst.dependents["w"]
    pt = {"y": Fraction(1, 3), "z": Fraction(-2, 5)}
    direct = poly.partial(1).partial(2).evaluate([pt["y"], pt["z"]])
    assert evaluate(e, inst, pt) == direct


def test_check_identity_accepts_true_identities():
    lhs = (y + z) ** 2
    rhs = y * y + 2 * y * z + z * z
    res = check_identity(lhs, rhs, DEP, seed=1, points=12)
    assert res.ok and res.points == 12 and res.max_error <= 1e-6
    assert bool(res)
    f = func("F", y, z)
    res2 = check_identity(f * (y + 1) - f * y - f, 0, DEP, seed=2)
    assert res2.ok


def test_check_identity_rejects_near_misses():
    lhs = (y + z) ** 2
    rhs = y * y + 2 * y * z + z * z + y * Fraction(1, 10 ** 4)
    res = check_identity(lhs, rhs, DEP, seed=3)
    assert not res.ok
    assert res.worst_point is not None
    assert not bool(res)


@pytest.mark.parametrize("kwargs", [
    {"points": 0},
    {"points": -3},
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"tol": -1e-6},
])
def test_check_identity_refuses_settings_that_check_nothing(kwargs):
    # a false identity must never pass because no point was compared
    with pytest.raises(ValueError):
        check_identity(y, y + 1, DEP, seed=1, **kwargs)


def test_check_identity_allows_zero_tolerance():
    assert check_identity((y + z) ** 2, y * y + 2 * y * z + z * z, DEP, seed=1, tol=0).ok
    assert not check_identity(y, y + 1, DEP, seed=1, tol=0).ok


def test_check_identity_respects_assumptions():
    # an assumption that can never clear the floor must exhaust the attempts
    with pytest.raises(EvaluationError, match="no admissible point"):
        check_identity(y, y, DEP, seed=4, assumptions=[y - y + 0])
    # a generically nonzero assumption just filters points
    res = check_identity((y * y - 1) / (y - 1) * (y - 1), y * y - 1, DEP,
                         seed=5, assumptions=[y - 1])
    assert res.ok


def test_assumption_floor_applies_to_the_monic_denominator():
    # x - 1/3 is 5e-7 at this point, below the floor; 3*x - 1 would be 1.5e-6
    x = var("x")
    with pytest.raises(AssumptionViolationError):
        evaluate(1 / (3 * x - 1), Instantiation(), {"x": Fraction(1, 3) + Fraction(1, 2 * 10**6)})


def test_required_point_names_tracks_variables():
    e = func("F", y) + jet("w", "z")
    rng = Random(6)
    inst = Instantiation.for_expressions([e], rng, DEP)
    names = required_point_names([e], inst)
    assert set(names) == {"y", "z"}
    pt = draw_point(rng, names)
    assert set(pt) == {"y", "z"}
    assert all(isinstance(v, Fraction) for v in pt.values())


def test_undeclared_dependent_is_an_error():
    rng = Random(8)
    with pytest.raises(EvaluationError, match="no declared independent"):
        Instantiation.for_expressions([jet("q", "y")], rng, DEP)


def test_inconsistent_function_arity_is_an_error():
    rng = Random(8)
    e = func("F", y) + func("F", y, z)
    with pytest.raises(EvaluationError, match="F used with 1 and 2 arguments"):
        Instantiation.for_expressions([e], rng, DEP)


def reference_inventory(exprs):
    # every occurrence walked recursively, as the oracle once did
    funcs, params, deps = {}, set(), set()

    def walk_expr(e):
        for _c, m in e.num_terms() + e.den_terms():
            for a, _k in m.atoms:
                walk_atom(a)
            if m.exparg is not None:
                walk_expr(m.exparg)

    def walk_atom(a):
        if isinstance(a, Jet):
            deps.add(a.dep)
        elif isinstance(a, Param):
            params.add(a.name)
        elif isinstance(a, Func):
            assert funcs.setdefault(a.name, a.arity) == a.arity
        for child in a.children():
            walk_expr(child)

    for e in exprs:
        walk_expr(e)
    return funcs, params, deps


def reference_draw(exprs, rng, dep_vars, degree=2):
    funcs, params, deps = reference_inventory(exprs)
    functions = {name: PolyFunc.random(rng, funcs[name], degree,
                                       require=range(1, funcs[name] + 1))
                 for name in sorted(funcs)}
    values = {name: Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for name in sorted(params)}
    dependents = {name: (tuple(dep_vars[name]),
                         PolyFunc.random(rng, len(dep_vars[name]), max(degree, 2),
                                         require=range(1, len(dep_vars[name]) + 1)))
                  for name in sorted(deps)}
    return functions, values, dependents


def stand_ins(functions, params, dependents):
    return ({n: (f.arity, f.coeffs) for n, f in functions.items()}, params,
            {n: (slots, f.arity, f.coeffs) for n, (slots, f) in dependents.items()})


def test_instantiation_matches_reference_walk_bulk():
    for i, e in seeded_cases(505, 300):
        for x in (e, partial(e, var("y"))):
            exprs = [x, x * func("G", x, param("k"))]
            want = stand_ins(*reference_draw(exprs, Random(i), DEP))
            # drawn from the expressions, or from their walked inventory
            for source in (exprs, oracle._Inventory(exprs)):
                inst = Instantiation.for_expressions(source, Random(i), DEP)
                assert stand_ins(inst.functions, inst.params, inst.dependents) == want


def on_both_paths(monkeypatch, lhs, rhs, dep_vars=DEP, **kwargs):
    """``check_identity`` as routed (GF(p) here), then forced onto the float path
    as if it reached exp; an evaluation error stands in for the verdict."""
    out = []
    init = oracle._Inventory.__init__

    def float_init(inv, *args, **kwargs):
        init(inv, *args, **kwargs)
        inv.float_rules = ("exp",)

    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(oracle._Inventory, "__init__", float_init)
            try:
                out.append(check_identity(lhs, rhs, dep_vars, **kwargs))
            except EvaluationError as exc:
                out.append(f"EvaluationError: {exc}")
    return out


def test_modular_and_rational_paths_agree_bulk(monkeypatch):
    # every seeded expression without exp or log: true identities pass on both
    # paths, a scaled side fails on both, and what one path cannot evaluate
    # (a nested antiderivative in one variable, a denominator in the
    # integration variable) fails the same way on the other
    f = jet("w", "y") + z
    compared = 0
    for i, e in seeded_cases(505, 300):
        if oracle._Inventory([e]).float_rules or e.is_zero():
            continue
        compared += 1
        for lhs, rhs, want in (
                ((e * f) / f, e, True),
                (partial(partial(e, y), z), partial(partial(e, z), y), True),
                (e * Fraction(1001, 1000), e, False)):
            modular, rational = on_both_paths(monkeypatch, lhs, rhs, seed=i, points=4)
            if isinstance(modular, str):
                assert modular == rational, (i, e.text)
                continue
            assert modular.miss_bound is not None and rational.miss_bound is None
            assert (modular.ok, rational.ok) == (want, want), (i, e.text)
    assert compared > 100


def test_modular_path_rejects_a_near_miss_the_tol_path_accepts(monkeypatch):
    e = (y + z) ** 2
    near = y * y + 2 * y * z + z * z + y / 10 ** 12
    modular, rational = on_both_paths(monkeypatch, e, near, seed=3)
    assert rational.ok and 0 < rational.max_error <= 1e-6
    assert not modular.ok
    assert modular.max_error == 1.0 and modular.worst_point is not None
    assert all(isinstance(v, int) and 0 <= v < modular.prime
               for v in modular.worst_point.values())


def test_miss_bound_is_reported_only_on_the_modular_path():
    f = func("F", y, z)
    res = check_identity(f * (y + 1), f * y + f, DEP, seed=2)
    assert res.ok and isinstance(res.miss_bound, float) and 0 < res.miss_bound < 1
    for transcendental in (exp(y) * f, log(1 + z * z) * f):
        res = check_identity(transcendental, transcendental, DEP, seed=2)
        assert res.ok and res.miss_bound is None


def stated_bound(res, d, e, height):
    """The miss bound of a GF(p) result with degree bound d, redraw degrees
    e and height H: ceil(H/61)/N + (d/(p - e))^points, as an exact Fraction."""
    return Fraction(-(-height // 61), N) + Fraction(d, res.prime - e) ** res.points


def test_miss_bound_follows_the_stated_degree_bound():
    # y*z against z*y: each side is (2, 0), so d = 2 and nothing is redrawn;
    # each side has norm 1, so |C| <= 2, H = 3 with the margin, and at one
    # point the degree term shows beside the prime term
    res = check_identity(y * z, z * y, {}, seed=1, points=1)
    assert Fraction(res.miss_bound) >= stated_bound(res, 2, 0, 3)
    assert res.miss_bound == pytest.approx(float(stated_bound(res, 2, 0, 3)), rel=1e-15)
    # 1/(1 + y^2) is (0, 2): d = 2, and the denominator's numerator (degree 2)
    # is what a redraw rejects on, so one point misses at most 2/(p - 2)
    q = 1 / (1 + y * y)
    res = check_identity(q, q, {}, seed=1, points=1)
    assert res.miss_bound == pytest.approx(float(stated_bound(res, 2, 2, 3)), rel=1e-15)
    # F(y/(1 + z^2)) with a degree-2 stand-in: the argument is (1, 2), so the
    # value is (1 + 2*2 + 2*0, 2*2) = (5, 4) and the cleared difference has degree 9
    g = func("F", y / (1 + z * z))
    res = check_identity(g, g, {}, seed=1, points=1)
    assert res.miss_bound == pytest.approx(float(stated_bound(res, 9, 2, 61)), rel=1e-15)
    # at 40 points the prime term is all that shows, rounded up
    tiny = check_identity(y * z, z * y, {}, seed=1, points=40).miss_bound
    assert Fraction(tiny) >= Fraction(1, N) and tiny == pytest.approx(1 / N, rel=1e-15)


def test_the_prime_is_drawn_from_the_seed():
    # the same seed draws the same prime, whatever the check, from the
    # primes in [2^61, 2^62): never 2^61 - 1
    drawn = {seed: check_identity(y * z, z * y, {}, seed=seed).prime for seed in range(40)}
    for seed, p in drawn.items():
        assert 2**61 <= p < 2**62 and oracle._is_prime(p)
        assert check_identity((y + 1) ** 2, y * y + 2 * y + 1, DEP, seed=seed).prime == p
        assert oracle._draw_prime(Random(seed)) == p
    assert len(set(drawn.values())) == 40


def test_primality_agrees_with_trial_division():
    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, 10**5, i)))
    assert [n for n in range(10**5) if oracle._is_prime(n)] == [
        n for n in range(10**5) if sieve[n]]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
    for n in (3215031751, 3825123056546413051):
        assert not oracle._is_prime(n)
    assert oracle._is_prime(2**61 - 1) and oracle._is_prime(2**127 - 1)


def test_primality_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(61)

    def prime(bits):
        while not sympy.isprime(n := rng.randrange(2 ** (bits - 1), 2**bits) | 1):
            pass
        return n

    # odd numbers of the drawn primes' range, and products of two 31-bit primes
    cases = [rng.randrange(2**61, 2**62) | 1 for _ in range(3000)]
    cases += [prime(31) * prime(31) for _ in range(20)]
    for n in cases:
        assert oracle._is_prime(n) == sympy.isprime(n), n


def test_antiderivatives_integrate_in_gf_p():
    res = check_identity(antiderivative(y * z, "y"), y * y * z / 2, {}, seed=4)
    assert res.ok and res.miss_bound is not None
    nested = antiderivative(antiderivative(y * z, "y"), "z")
    assert check_identity(nested, y * y * z * z / 4, {}, seed=4).ok
    assert not check_identity(nested, y * y * z * z / 3, {}, seed=4).ok


def test_multiples_of_the_old_fixed_primes_get_their_verdicts():
    # mod the p it names, each of these agrees at every point or rejects
    # every draw; a drawn prime judges them all
    for p in OLD_PRIMES:
        q = y / p
        res = check_identity(q, q, {}, seed=1)
        assert res.ok and res.miss_bound < 1e-15
        for lhs, rhs, want in ((p * y, 0, False), (p * y, p * y, True),
                               ((1 - p) * y, y, False), ((1 - p) * y, y - z, False),
                               ((p + 1) * y - y - p * y, 0, True)):
            res = check_identity(lhs, rhs, {}, seed=1)
            assert res.ok is want and 0 < res.miss_bound < 1e-15, (p, lhs, rhs)
            assert 2**61 <= res.prime < 2**62
    # the difference is a multiple of the first three, or each coefficient
    # of another prime: the last exited 2, and now passes with a bound
    res = check_identity((1 - math.prod(OLD_PRIMES[:3])) * y, y, {}, seed=1)
    assert not res.ok and res.miss_bound < 1e-15
    v, w = var("v"), var("w")
    e = sum((p * a for p, a in zip(OLD_PRIMES, (y, z, w, v))), as_expression(0))
    res = check_identity(e, e, {}, seed=1)
    assert res.ok and 0 < res.miss_bound < 1e-15
    # f((x^2-1)/(x-1)) + (p-1)*f(x+1) is p*f(x+1): the kernel keeps its two
    # atoms apart, yet they are equal in value, so GF(p) would pass it
    x = var("x")
    lhs = func("f", (x * x - 1) / (x - 1)) + (P61 - 1) * func("f", x + 1)
    assert len(lhs.num_terms()) == 2
    res = check_identity(lhs, 0, {})
    assert not res.ok and res.max_error == 1.0 and 0 < res.miss_bound < 1e-15
    assert check_identity(lhs, P61 * func("f", x + 1), {}).ok
    # an ordinary polynomial check stays in GF(p) with its bound
    lhs, rhs = (y + 1) ** 2, y * y + 2 * y + 1
    res = check_identity(lhs, rhs, {}, seed=1)
    inv = oracle._Inventory([lhs, rhs])
    assert res.ok and res.miss_bound == pytest.approx(
        float(stated_bound(res, 2, 0, inv.height(*inv.program.roots))), rel=1e-15)
    res = check_identity((y + 1) ** 2, y * y + 2 * y + 2, {}, seed=1)
    assert not res.ok and res.miss_bound is not None


def test_a_coefficient_divisible_by_p_inside_an_argument_moves_the_check():
    # f(p*y) - f(0) is 0 at every GF(p) point for p = 2^61 - 1, and its
    # difference has the coefficients 1 and -1: the drawn prime is never p
    res = check_identity(func("f", P61 * y) - func("f", 0), 0, {}, seed=1)
    assert not res.ok and res.miss_bound is not None and res.prime != P61
    res = check_identity(func("f", P61 * y), func("f", P61 * y), {}, seed=1)
    assert res.ok and res.miss_bound < 1e-15


def test_a_degree_bound_at_p_is_an_error_not_a_pass():
    # each nested degree-2 stand-in doubles the degree bound and about the
    # bits of the height: 59 levels still certify something, though the
    # prime term is a quarter; 60 levels at one point sum past 1; and 61
    # reach 2^62 - 1, above any drawn p.  Each refusal comes before any
    # point is drawn
    e = var("x")
    for _ in range(59):
        e = func("a1", e)
    assert 0.2 < check_identity(e, e, {}, seed=1).miss_bound < 0.3
    e = func("a1", e)
    with pytest.raises(EvaluationError, match="miss bound of this check reaches 1"):
        check_identity(e, e, {}, seed=1, points=1)
    e = func("a1", e)
    with pytest.raises(EvaluationError, match="reaches p = .*certify nothing"):
        check_identity(e, e, {}, seed=1)


def reference_modular(exprs):
    # the routing rule as a separate walk: no log, and no exponential in any
    # expression evaluated
    atoms = set().union(*map(_reach, exprs))
    if any(isinstance(a, Log) for a in atoms):
        return False
    inner = (x for a in atoms for x in a.children())
    return all(m.exparg is None
               for x in chain(exprs, inner) for p in x.integer_form()[:2] for m in p)


def log2_sum(logs):
    logs = list(logs)
    if not logs:
        return 0.0
    top = max(logs)
    return top + math.log2(math.fsum([2.0 ** (x - top) for x in logs]))


def reference_stand_in(degree, counts, args):
    # sum over the exponents e of total degree <= `degree`: the falling
    # factorials the derivatives `counts` bring down, times prod |n_i|^f_i
    # |d_i|^(g - f_i) with f = e - counts, over prod |d_i|^g; log2 norms
    logs = [math.log2(math.prod(map(math.perm, e, counts)))
            + sum((ei - ci) * (hn - hd) for ei, ci, (hn, hd) in zip(e, counts, args))
            for e in product(range(degree + 1), repeat=len(args))
            if sum(e) <= degree and all(map(operator.ge, e, counts))]
    if not logs:
        return 0.0, 0.0
    den = (degree - sum(counts)) * sum(hd for _hn, hd in args)
    return den + log2_sum(logs), den


def reference_miss_bound(lhs, rhs, assumptions, degree, points, p):
    # the degree and height rules as a second walk of their own, with the
    # stand-in degrees written out again: `degree` for functions, max(degree,
    # 2) for dependents, of the variables DEP names.  Returns the bound, or
    # None where a GF(p) pass would certify nothing, and the height H
    dep_degree = max(degree, 2)
    atom_deg, expr_deg = {}, {}  # (deg N, deg D, log2 |N|, log2 |D|)
    rejected = 0

    def poly_degree(poly):
        powers = {}
        for m in poly:
            for a, k in m.atoms:
                if k > powers.get(a, 0):
                    powers[a] = k
        den = sum(k * atom_deg[a][1] for a, k in powers.items())
        hden = sum(k * atom_deg[a][3] for a, k in powers.items())
        lift = max((sum(k * (atom_deg[a][0] - atom_deg[a][1]) for a, k in m.atoms)
                    for m in poly), default=0)
        hlifts = [math.log2(abs(c)) + sum(k * (atom_deg[a][2] - atom_deg[a][3])
                                          for a, k in m.atoms) for m, c in poly.items()]
        return den + lift, den, hden + log2_sum(hlifts), hden

    def of(x):
        nonlocal rejected
        if x not in expr_deg:
            num, den, _lc = x.integer_form()
            (nn, nd, hnn, hnd), (dn, dd, hdn, hdd) = poly_degree(num), poly_degree(den)
            rejected += dn
            expr_deg[x] = (nn + dd, nd + dn, hnn + hdd, hnd + hdn)
        return expr_deg[x]

    atoms = set().union(*map(_reach, (lhs, rhs, *assumptions)))
    for a in sorted(atoms, key=lambda a: (len(_below(a)), a.text)):
        if isinstance(a, (Var, Param)):
            atom_deg[a] = (1, 0, 0.0, 0.0)
        elif isinstance(a, Jet):
            r = len(a.index)
            slots = DEP[a.dep]
            atom_deg[a] = ((dep_degree + 1 - r, 0) if r <= dep_degree else (0, 0)) + (
                reference_stand_in(dep_degree, [a.index.count(v) for v in slots],
                                   [(0.0, 0.0)] * len(slots)))
        elif isinstance(a, Func):
            args = [of(x) for x in a.args]
            g = degree - len(a.dindex)
            dsum = sum(d for _n, d, _hn, _hd in args)
            atom_deg[a] = ((0, 0) if g < 0 else (
                1 + g * dsum + g * max(0, *(n - d for n, d, _hn, _hd in args)), g * dsum)) + (
                reference_stand_in(degree, [a.dindex.count(i + 1) for i in range(len(args))],
                                   [x[2:] for x in args]))
        else:
            n, d, hn, hd = of(a.integrand)
            clear = 1.03883 / math.log(2) * (n + 1)  # log2 lcm(1, ..., n + 1)
            atom_deg[a] = (n + 1, d, hn + clear, hd + clear)
    (nl, dl, hnl, hdl), (nr, dr, hnr, hdr) = of(lhs), of(rhs)
    rejected += sum(of(x)[0] for x in assumptions)
    d = max(nl + dr, nr + dl)
    height = math.ceil(log2_sum((hnl + hdr, hnr + hdl)) * (1 + 2**-20)) + 1
    if d + rejected >= p:
        return None, height
    bound = Fraction(-(-height // 61), N) + Fraction(d, p - rejected) ** points
    if bound >= 1:
        return None, height
    rounded = float(bound)
    return (rounded if Fraction(rounded) >= bound else math.nextafter(rounded, math.inf)), height


def stand_in_degree(f):
    return max(map(sum, f.coeffs))


def test_one_walk_matches_the_reference_rules_bulk():
    # the inventory's routing, bound, height and drawn stand-in degrees
    # against a separate walk per rule; degrees 1 and 3 tell the function
    # rule from the dependent rule, so changing either in one place fails here
    f = jet("w", "y") + z
    cases = []
    for i, e in seeded_cases(505, 300):
        for x in (e, partial(e, y)):
            cases.append((x, x * func("G", x, param("k")), (f,), (1, 2, 3)))
    chain_e = var("x")
    for _ in range(59):
        chain_e = func("a1", chain_e)
        cases.append((chain_e, chain_e, (), (2,)))
    nested = antiderivative(antiderivative(y * z, "y"), "z")
    for lhs, rhs in ((antiderivative(y * z, "y"), y * y * z / 2),
                     (nested, y * y * z * z / 4), (nested, y * y * z * z / 3)):
        cases.append((lhs, rhs, (), (1, 2, 3)))
    modular = 0
    for n, (lhs, rhs, assumptions, degrees) in enumerate(cases):
        exprs = (lhs, rhs, *assumptions)
        for degree in degrees:
            inv = oracle._Inventory(exprs, degree, DEP)
            assert (not inv.float_rules) == reference_modular(exprs), lhs.text
            if inv.float_rules:
                continue
            modular += 1
            want, height = reference_miss_bound(lhs, rhs, assumptions, degree, 4, GF.p)
            li, ri, *assumed = inv.program.roots
            sides = li, ri, assumed
            assert inv.height(li, ri) == height, lhs.text
            if want is None:
                with pytest.raises(EvaluationError, match="certify nothing"):
                    inv.miss_bound(*sides, 4, GF.p)
            else:
                assert inv.miss_bound(*sides, 4, GF.p) == want, lhs.text
            inst = Instantiation.for_expressions(inv, Random(n), DEP, arith=GF)
            assert all(stand_in_degree(g) == degree for g in inst.functions.values())
            assert all(stand_in_degree(g) == max(degree, 2)
                       for _slots, g in inst.dependents.values())
    assert modular > 300
    # check_identity reports the same bound, in the prime it draws
    res = check_identity(chain_e, chain_e, {}, seed=1)
    assert res.miss_bound == reference_miss_bound(chain_e, chain_e, (), 2, 10, res.prime)[0]


def generic(e):
    """``e`` with its stand-ins written out as the evaluator forms them:
    each function and dependent a polynomial of degree 2 whose coefficients
    are parameters, each antiderivative integrated.  No exp and no log."""
    num, den, _lc = e.integer_form()

    def poly(p):
        assert all(m.exparg is None for m in p)
        return expr_sum(c * expr_prod(generic_atom(a) ** k for a, k in m.atoms)
                        for m, c in p.items())

    return poly(num) / poly(den)


def generic_polynomial(name, slots):
    return expr_sum(param(f"{name}_{'_'.join(map(str, ex))}")
                    * expr_prod(var(s) ** k for s, k in zip(slots, ex))
                    for ex in product(range(3), repeat=len(slots)) if sum(ex) <= 2)


def generic_atom(a):
    if isinstance(a, (Var, Param)):
        return as_expression(a)
    if isinstance(a, Jet):
        g = generic_polynomial(a.dep, DEP[a.dep])
        for v in a.index:
            g = partial(g, var(v))
        return g
    if isinstance(a, Func):
        slots = [f"slot{i}" for i in range(len(a.args))]
        g = generic_polynomial(a.name, slots)
        for j in a.dindex:
            g = partial(g, var(slots[j - 1]))
        return substitute(g, {var(s): generic(x) for s, x in zip(slots, a.args)})
    assert isinstance(a, Antideriv)
    integrand, t = generic(a.integrand), Var(a.var)
    assert t not in _reach(integrand.denominator())
    return expr_sum(from_monomial(m, c / (dict(m.atoms).get(t, 0) + 1)) * var(a.var)
                    for c, m in integrand.num_terms()) / integrand.denominator()


def test_the_height_bounds_the_expanded_difference_bulk():
    # C = N_L*D_R - N_R*D_L expanded over the integers by the kernel, with
    # every stand-in written out in parameters: each coefficient fits in the
    # H bits that the inventory and the reference walk agree on
    f = jet("w", "y") + z
    cases = [(antiderivative(func("F", y, z) * jet("w", "z") * param("c1"), "y"),
              func("F", y, z) * y), (antiderivative(y * z * f, "z"), f * f)]
    for i, e in seeded_cases(606, 40, transcendental=False):
        d2 = partial(partial(e, y), z)  # slot derivatives of F, jets of order 3
        cases.append((d2 + param("k") * e, e * f))
    checked = 0
    for lhs, rhs in cases:
        inv = oracle._Inventory((lhs, rhs), 2, DEP)
        height = inv.height(*inv.program.roots)
        assert height == reference_miss_bound(lhs, rhs, (), 2, 1, GF.p)[1], lhs.text
        num = (generic(lhs) - generic(rhs)).integer_form()[0]
        assert max(map(abs, num.values()), default=0) <= 2**height, lhs.text
        checked += bool(num)
    assert checked > 30


def test_antiderivative_that_is_not_a_polynomial_says_why():
    w_z = jet("w", "z")
    cases = (antiderivative(y * y * w_z / (y * y + 2), "y"), antiderivative(exp(y), "y"))
    for a in cases:
        with pytest.raises(EvaluationError) as err:
            check_identity(a, a, DEP, seed=1)
        assert str(err.value) == (
            f"cannot evaluate {a.text}: its integrand is not a polynomial in y")
    assert [a.text for a in cases] == ["int((y^2*D[w,z])/(y^2 + 2),y)", "int(exp(y),y)"]


class ReferenceWalk:
    """The evaluator the compiled program replaced, kept here as the
    reference: it walks each expression at the point, caching by object.
    Terms are summed in print order, as the expression's table lists them."""

    def __init__(self, inst, point, ar=None, bound=frozenset()):
        self.inst = inst
        self.point = point
        self.ar = inst.arith if ar is None else ar
        self.bound = bound
        self.expr_cache = {}
        self.atom_cache = {}

    def lincomb(self, items, value):
        ar = self.ar
        if isinstance(ar, oracle._Modular):
            total = 0
            for m, c in items:
                total += c * value(m)
            return total % ar.p
        total = ar.zero
        for m, c in items:
            total = ar.add(total, ar.mul(c, value(m)))
        return total

    def poly_value(self, poly, args):
        if len(args) != poly.arity:
            raise EvaluationError(
                f"function of {poly.arity} slots called with {len(args)} arguments")
        ar = self.ar
        total = ar.zero
        for expo, c in poly.coeffs.items():
            term = c
            for a, k in zip(args, expo):
                for _ in range(k):
                    term = ar.mul(term, a)
            total = ar.add(total, term)
        return total

    def expr(self, e):
        hit = self.expr_cache.get(e)
        if hit is not None:
            return hit
        ar = self.ar
        num_p, den_p, lc = e.integer_form()
        num = self.lincomb(in_print_order(num_p), self.monomial)
        den = self.lincomb(in_print_order(den_p), self.monomial)
        if ar.vanishes(den, lc):
            raise AssumptionViolationError("denominator vanishes at this point")
        val = ar.div(num, den)
        self.expr_cache[e] = val
        return val

    def monomial(self, m):
        ar = self.ar
        val = ar.one
        for a, k in m.atoms:
            x = self.atom(a)
            val = ar.mul(val, x if k == 1 else ar.power(x, k))
        if m.exparg is not None:
            val = ar.mul(val, ar.exp(self.expr(m.exparg)))
        return val

    def atom(self, a):
        val = self.atom_cache.get(a)
        if val is not None:
            return val
        if isinstance(a, Var):
            val = self.slot_value(a.name)
        elif isinstance(a, Jet):
            val = self.dependent_value(a.dep, a.index)
        elif isinstance(a, Param):
            try:
                val = self.inst.params[a.name]
            except KeyError:
                raise EvaluationError(f"no value for parameter {a.name!r}") from None
        elif isinstance(a, Func):
            try:
                poly = self.inst.functions[a.name]
            except KeyError:
                raise EvaluationError(f"no stand-in for function {a.name!r}") from None
            for slot in a.dindex:
                poly = poly.partial(slot)
            val = self.poly_value(poly, list(map(self.expr, a.args)))
        elif isinstance(a, Antideriv):
            val = self.antiderivative_value(a)
        elif isinstance(a, Log):
            val = self.ar.log(self.expr(a.arg))
        else:
            raise EvaluationError(f"cannot evaluate atom {a.text}")
        self.atom_cache[a] = val
        return val

    def dependent_value(self, dep, index):
        try:
            slots, poly = self.inst.dependents[dep]
        except KeyError:
            raise EvaluationError(f"no stand-in for dependent variable {dep!r}") from None
        for name in index:
            try:
                poly = poly.partial(slots.index(name) + 1)
            except ValueError:
                raise EvaluationError(
                    f"jet of {dep!r} along {name!r}, which is not one of its variables") from None
        return self.poly_value(poly, [self.slot_value(n) for n in slots])

    def slot_value(self, name):
        try:
            return self.point[name]
        except KeyError:
            raise EvaluationError(f"no value for variable {name!r}") from None

    def antiderivative_value(self, a):
        if a.var in self.bound:
            raise EvaluationError("nested antiderivatives in the same variable")
        ring = oracle._Polynomials(self.ar, a)
        point = {**self.point, a.var: ring.indeterminate}
        body = ReferenceWalk(self.inst, point, ring, self.bound | {a.var}).expr(a.integrand)
        return body.antiderivative()(self.slot_value(a.var))


def in_print_order(p):
    return sorted(p.items(), key=lambda mc: mc[0].order_key(), reverse=True)


def outcomes(values):
    """Each value as its type and value, a float by its bits; the first
    exception, by its type, ends the list."""
    out = []
    try:
        for get in values:
            v = get()
            out.append((type(v), v.hex() if isinstance(v, float) else v))
    except Exception as exc:  # noqa: BLE001 - the exception's type is the outcome
        out.append(type(exc))
    return out


def test_compiled_program_matches_the_walk_bulk():
    # every value, in both arithmetics, equal to the walk's: ints and
    # Fractions by value, floats bit for bit; where a denominator vanishes
    # (z = y in the last root) or a value cannot be formed, the same exception
    k = param("k")
    seen = {"values": 0, "floats": 0, "AssumptionViolationError": 0, "EvaluationError": 0}
    for i, e in seeded_cases(505, 300):
        d2 = partial(partial(e, y), z)  # slot derivatives of F, jets of order 3
        g = Func("G", (e, k), (1, 1))
        exprs = [e, d2 + func("G", e, k) * jet("w", "y", "y", "z") - as_expression(g) ** 2,
                 e / (y - z)]
        inv = oracle._Inventory(exprs, 3)
        for ar in (RATIONALS, GF):
            rng = Random(i)
            inst = Instantiation.for_expressions(inv, rng, DEP, arith=ar)
            pt = draw_point(rng, inv.point_names([DEP["w"]]), ar)
            for point in (pt, {**pt, "z": pt["y"]}):
                run = oracle._Run(inv.program, inst, point)
                walk = ReferenceWalk(inst, point)
                got = outcomes([lambda j=j: run.expr(j) for j in inv.program.roots])
                want = outcomes([lambda x=x: walk.expr(x) for x in exprs])
                assert got == want, (i, e.text, ar)
                for o in got:
                    if isinstance(o, tuple):
                        seen["values"] += 1
                        seen["floats"] += o[0] is float
                    elif o.__name__ in seen:
                        seen[o.__name__] += 1
    # the sweep reaches floats, vanishing denominators and values that
    # cannot be formed (exp and log in GF(p), nested antiderivatives)
    assert all(n > 20 for n in seen.values()), seen


def tables_of(*exprs):
    """The state file's form of each expression: its table through JSON."""
    return [json.loads(json.dumps(x.to_tree())) for x in exprs]


def replayed(check):
    """The result of ``check()``, or the type of the exception it raised."""
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - the exception's type is the outcome
        return type(exc)


def test_state_tables_replay_as_their_expressions_bulk():
    # a state file's tables, read back through JSON, against the expressions
    # they were written from: identities, near misses and pairs of unrelated
    # cases.  An expression is compiled from its own table, so every field
    # agrees on both paths, float sums included; the values themselves are
    # checked against a reference that does not compile the tables
    f = jet("w", "y") + z
    seen = {"modular": 0, "float": 0, "error": 0, "passed": 0}
    values = Counter()
    previous = y
    for i, e in seeded_cases(505, 300):
        lhs, rhs = ((e * f) / f, e + y / 1000, previous)[i % 3], e
        previous = e
        tables = tables_of(lhs, rhs, f)
        values.update(replay_against_the_walk(tables, i))
        want = replayed(lambda: check_identity(lhs, rhs, DEP, seed=i, points=4,
                                               assumptions=[f]))
        got = replayed(lambda: check_identity(*tables[:2], DEP, seed=i, points=4,
                                              assumptions=tables[2:]))
        if isinstance(want, type):
            assert got is want, (i, e.text)
            seen["error"] += 1
            continue
        assert got == want, (i, e.text)
        seen["modular" if want.miss_bound is not None else "float"] += 1
        seen["passed"] += got.ok
    assert all(n > 10 for n in seen.values()), seen
    # EvaluationError: exp and log in GF(p), antiderivatives that are not
    # polynomials
    assert values["values"] > 1000 and values["EvaluationError"] > 100, values


def replay_against_the_walk(tables, seed):
    """Compare the values the compiled tables give with a reference that
    does not go through ``_Program``: the kernel reads each table
    (``Expression.from_tree``) and :class:`ReferenceWalk` walks it.  The
    tables are read as written and written apart (:func:`written_apart`), in
    both arithmetics, at a drawn point and at the same point with ``y = 0``,
    where the denominators written apart vanish: the reader cancels no
    shared ``y**2``.  Returns the outcomes by kind."""
    apart = len(tables)
    tables = [*tables, *map(written_apart, tables)]
    prog = oracle._Program(tables)
    inv = oracle._Inventory(prog)
    exprs = [Expression.from_tree(t) for t in tables]
    seen = Counter()
    for ar in (RATIONALS, GF):
        rng = Random(seed)
        inst = Instantiation.for_expressions(inv, rng, DEP, arith=ar)
        pt = draw_point(rng, inv.point_names([DEP["w"]]), ar)
        for point in (pt, {**pt, "y": ar.zero}):
            run, walk = oracle._Run(prog, inst, point), ReferenceWalk(inst, point)
            for n, (j, x) in enumerate(zip(prog.roots, exprs)):
                (got,), (want,) = outcomes([lambda: run.expr(j)]), outcomes([lambda: walk.expr(x)])
                if isinstance(want, tuple) and n >= apart and point["y"] == 0:
                    assert got is AssumptionViolationError, (x.text, ar)
                elif isinstance(want, tuple) and want[0] is float:
                    # a table written apart sums its terms in another order
                    assert got[0] is float, (x.text, ar)
                    assert math.isclose(float.fromhex(got[1]), float.fromhex(want[1]),
                                        rel_tol=1e-9, abs_tol=1e-12), (x.text, ar)
                else:
                    assert got == want, (x.text, ar)
                seen["values" if isinstance(want, tuple) else want.__name__] += 1
    return seen


def written_apart(t):
    """The table ``t`` as another writer might put it: its terms reversed,
    numerator and denominator negated and multiplied by ``y**2``, the first
    numerator term split in halves, and an ``exp(0)`` factor on a numerator
    term without an exponential.  The kernel reads it back as ``t``."""
    atoms = [*t["atoms"], VAR_Y]
    y2 = [len(atoms) - 1, 2]

    def apart(terms):
        return [{**term, "coeff": str(-Fraction(term["coeff"])),
                 "factors": [*term["factors"], y2]} for term in reversed(terms)]

    num, den = apart(t["num"]), apart(t["den"])
    if num:
        half = str(Fraction(num[0]["coeff"]) / 2)
        num[:1] = [{**num[0], "coeff": half}, {**num[0], "coeff": half}]
        plain = [k for k, term in enumerate(num) if "exp" not in term]
        if plain:
            num[plain[-1]] = {**num[plain[-1]], "exp": ZERO_TABLE}
    return {"atoms": atoms, "num": num, "den": den}


def test_multiples_of_an_old_prime_get_the_kernel_subtractions_verdict_bulk():
    # each pair's tables pass exactly where the kernel's lhs - rhs is zero,
    # though 2^61 - 1 divides each difference or all of its coefficients
    verdicts = Counter()
    for i, e in seeded_cases(505, 150):
        if e.is_zero():
            continue
        for lhs, rhs in ((e * (1 - P61), e), (e * (1 - P61), e + y), (e * (P61 + 1), e),
                         (e * 3, e * 2 + e), (e * P61, e)):
            got = replayed(lambda: check_identity(*tables_of(lhs, rhs), DEP, seed=i, points=2))
            if isinstance(got, type) or got.float_rules:
                continue
            assert got.ok == (lhs - rhs).is_zero() and got.miss_bound < 1e-15, e.text
            verdicts[got.ok] += 1
    assert verdicts[True] > 50 and verdicts[False] > 100, verdicts


VAR_Y = {"kind": "var", "name": "y"}
VAR_Z = {"kind": "var", "name": "z"}
ONE_TERMS = [{"coeff": "1", "factors": []}]
ZERO_TABLE = {"atoms": [], "num": [], "den": ONE_TERMS}


def term(coeff, *factors):
    return {"coeff": str(coeff), "factors": [list(f) for f in factors]}


def table(num, den=ONE_TERMS, atoms=(VAR_Y,)):
    return {"atoms": list(atoms), "num": num, "den": den}


def normalized(t):
    """The kernel's table of the expression that table ``t`` describes."""
    return tables_of(Expression.from_tree(t))[0]


def both_forms(lhs, rhs, **kwargs):
    """A check of two tables, replayed as written and as the kernel
    normalizes them."""
    return (check_identity(lhs, rhs, {}, seed=3, **kwargs),
            check_identity(normalized(lhs), normalized(rhs), {}, seed=3, **kwargs))


def test_a_table_repeating_an_atom_in_one_monomial_reads_as_its_power():
    # 1/(y*y) written with the factor y twice: merged, the denominator keeps
    # its degree 2 in the bound and in the redraws, as 1/y^2 does
    twice = table([term(1)], [term(1, (0, 1), (0, 1))])
    square = table([term(1)], [term(1, (0, 2))])
    got, want = both_forms(twice, square)
    assert got == want and got.ok and got.miss_bound is not None
    got, want = both_forms(table([term(3, (0, 1), (0, 1))]), table([term(3, (0, 2))]))
    assert got == want and got.ok and got.miss_bound is not None


def test_a_table_repeating_a_monomial_reads_as_their_sum():
    # y + (p - 1)*y is p*y for p = 2^61 - 1: merged, it is the kernel's p*y,
    # and fails against 0 with the same bound
    split = table([term(1, (0, 1)), term(P61 - 1, (0, 1))])
    got, want = both_forms(split, ZERO_TABLE)
    assert got == want
    assert not got.ok and got.miss_bound is not None
    # inside an argument: f(y + (p - 1)*y) - f(0) is f(p*y) - f(0)
    atoms = [VAR_Y, {"kind": "func", "name": "f", "d": [], "args": [arg(split["num"])]},
             {"kind": "func", "name": "f", "d": [], "args": [arg([])]}]
    got, want = both_forms(table([term(1, (1, 1)), term(-1, (2, 1))], atoms=atoms), ZERO_TABLE)
    assert got == want
    assert not got.ok and got.miss_bound is not None
    # y - y is 0, and refused as a denominator or a log argument, as the
    # kernel refuses it
    zero = [term(1, (0, 1)), term(-1, (0, 1))]
    got, want = both_forms(table(zero), ZERO_TABLE)
    assert got == want and got.ok and got.miss_bound is not None
    with pytest.raises(ValueError, match="denominator normalizes to zero"):
        check_identity(table(ONE_TERMS, zero), ZERO_TABLE, {})
    logged = [VAR_Y, {"kind": "log", "arg": arg(zero)}]
    with pytest.raises(ValueError, match="log of an expression that normalizes to zero"):
        check_identity(table([term(1, (1, 1))], atoms=logged), ZERO_TABLE, {})


def arg(num, den=ONE_TERMS):
    return {"num": num, "den": den}


@pytest.mark.parametrize("first, second", [
    # the same argument in another term order and over a scaled denominator
    (arg([term(1, (0, 1)), term(1, (1, 1))]), arg([term(2, (1, 1)), term(2, (0, 1))], [term(2)])),
    # y*z/y and z: a power that numerator and denominator share cancels
    (arg([term(1, (0, 1), (1, 1))], [term(1, (0, 1))]), arg([term(1, (1, 1))])),
    # (2*y + 2)/(y + 1) and 2: a numerator proportional to its denominator
    (arg([term(2, (0, 1)), term(2)], [term(1, (0, 1)), term(1)]), arg([term(2)])),
    # -y/-1 and y: the leading denominator coefficient is made positive
    (arg([term(-1, (0, 1))], [term(-1)]), arg([term(1, (0, 1))])),
    # (y + 1)/(z - 1) and (-1 - y)/(1 - z), constant terms first: the key is
    # blind to the orientation a denominator is written in
    (arg([term(1, (0, 1)), term(1)], [term(1, (1, 1)), term(-1)]),
     arg([term(-1), term(-1, (0, 1))], [term(1), term(-1, (1, 1))])),
], ids=["order-and-scale", "shared-power", "proportional", "negative-denominator",
        "reoriented-denominator"])
def test_equal_arguments_written_apart_are_one_atom(first, second):
    # the table reader copies no normal-form rule, so as written f(first) and
    # f(second) take two slots; their stand-ins take one value at every
    # point, and verdicts and bounds rest on values only.  f(first) -
    # f(second) is 0, and f(first) + (p - 1)*f(second) is p*f(first), which
    # 2^61 - 1 would pass against 0.  Both fail or pass as the kernel's
    # normalized tables do, with a bound no tighter than theirs
    atoms = [VAR_Y, VAR_Z, {"kind": "func", "name": "f", "d": [], "args": [first]},
             {"kind": "func", "name": "f", "d": [], "args": [second]}]
    for coeff, ok in ((-1, True), (P61 - 1, False)):
        lhs = table([term(1, (2, 1)), term(coeff, (3, 1))], atoms=atoms)
        written, normalized = both_forms(lhs, ZERO_TABLE)
        for r in (written, normalized):
            assert (r.ok, r.float_rules) == (ok, ()) and 0 < r.miss_bound < 1e-15
        assert written.miss_bound >= normalized.miss_bound


def test_an_exponential_of_zero_is_one():
    # y*exp(0) is y: a polynomial check, in GF(p) with its bound
    got, want = both_forms(table([dict(term(1, (0, 1)), exp=arg([]))]),
                           table([term(1, (0, 1))]))
    assert got == want and got.ok and got.miss_bound is not None


@pytest.mark.parametrize("power", [0, -1])
def test_a_table_power_below_one_is_refused(power):
    with pytest.raises(ValueError, match=f"power {power} is not positive"):
        check_identity(table([term(1, (0, power))]), ZERO_TABLE, {})


def test_tables_route_like_expressions():
    # the prime seed 3 draws, or the float path, for a table as for its expression
    gf = oracle._draw_prime(Random(3))
    for lhs, rhs, prime, rules in (((1 - P61) * y, y, gf, ()), (P61 * y, y, gf, ()),
                                   (exp(y) * log(1 + z * z), y, None, ("exp", "log"))):
        got = check_identity(*tables_of(lhs, rhs), {}, seed=3)
        want = check_identity(lhs, rhs, {}, seed=3)
        assert got == want and (got.prime, got.float_rules) == (prime, rules)
        assert (got.miss_bound is None) == (prime is None)
