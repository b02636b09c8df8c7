"""Kernel laws: arithmetic, canonical form, derivatives, substitution, collect."""

import json
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqvlab import (
    ONE,
    ZERO,
    Antideriv,
    Expression,
    Func,
    Instantiation,
    Jet,
    Monomial,
    UnsupportedAtomError,
    Var,
    antiderivative,
    as_atom,
    as_expression,
    check_identity,
    collect,
    collect_numerators,
    dependency_closure,
    exp,
    expr_prod,
    expr_sum,
    fraction,
    from_monomial,
    func,
    jet,
    jet_split,
    log,
    normalize,
    param,
    partial,
    polynomial_jets,
    rename_atoms,
    substitute,
    substitute_functions,
    var,
)

import eqvlab.expressions as expressions
from eqvlab.cli import main
from conftest import random_expression, seeded_cases

y, z = var("y"), var("z")
DEP = {"w": ("y", "z"), "F": ("y", "z")}


def expr_from_seed(seed: int):
    return random_expression(Random(seed))


exprs = st.integers(0, 10**9).map(expr_from_seed)


@settings(max_examples=60, deadline=None)
@given(exprs, exprs, exprs)
def test_ring_laws(a, b, c):
    # commutativity is symmetric in the operands, so the canonical forms
    # coincide; regrouping can build the denominator along a different path
    # (no polynomial gcd), so associativity is a value-level law
    assert a + b == b + a
    assert a * b == b * a
    assert ((a + b) + c - (a + (b + c))).is_zero()
    assert ((a * b) * c - (a * (b * c))).is_zero()
    assert ((a * (b + c)) - (a * b + a * c)).is_zero()
    assert (a - a).is_zero()
    assert (a + ZERO) == a
    assert (a * ONE) == a
    assert (a * ZERO).is_zero()


@settings(max_examples=60, deadline=None)
@given(exprs, exprs)
def test_division_inverts_multiplication(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    assert ((a * b) / b - a).is_zero()
    assert ((a / b) * b - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_negation_and_double_negation(a):
    assert (-(-a)) == a
    assert (a + (-a)).is_zero()


def test_normalize_is_idempotent_bulk():
    for _, e in seeded_cases(101, 200):
        n = normalize(e)
        assert normalize(n) == n
        # value equality must back the structural one
        assert (n - e).is_zero()


def test_mixed_partials_commute_bulk():
    for _, e in seeded_cases(202, 200):
        d_yz = partial(partial(e, Var("y")), Var("z"))
        d_zy = partial(partial(e, Var("z")), Var("y"))
        assert (d_yz - d_zy).is_zero()


def test_substitution_is_a_homomorphism_bulk():
    binding = {Var("y"): 1 + z * z}
    for _, a in seeded_cases(303, 100, transcendental=False):
        b = random_expression(Random(909), transcendental=False)
        sa, sb = substitute(a, binding), substitute(b, binding)
        assert (substitute(a + b, binding) - (sa + sb)).is_zero()
        assert (substitute(a * b, binding) - (sa * sb)).is_zero()


def test_collect_round_trips_bulk():
    for _, e in seeded_cases(404, 200):
        monos = sorted(polynomial_jets(e, "w"), key=lambda j: j.text)
        coeffs, residual = collect(e, [as_expression(j) for j in monos])
        back = expr_sum(coeffs[as_expression(j)] * as_expression(j) for j in monos) + residual
        assert (back - e).is_zero()
        nums, rnum, den = collect_numerators(e, [as_expression(j) for j in monos])
        assert all(coeffs[m] == n / den for m, n in nums.items())
        assert residual == rnum / den
        assert (expr_sum(n * m for m, n in nums.items()) + rnum) / den == e
        groups = jet_split(e, ["w"])
        assert expr_sum(g * from_monomial(jp) for jp, g in groups.items()) / den == e


def table_indices(entry):
    """The atom indices an atom-table entry's argument term lists name."""
    todo = [*entry.get("args", ()), *(entry[k] for k in ("integrand", "arg") if k in entry)]
    while todo:
        x = todo.pop()
        for term in x["num"] + x["den"]:
            yield from (i for i, _k in term["factors"])
            if "exp" in term:
                todo.append(term["exp"])


def test_tree_round_trip_is_exact_bulk():
    # the cases carry parameters, the bare dependent w, slot derivatives of F,
    # antiderivatives, logarithms and exponentials
    for _, e in seeded_cases(505, 300):
        for x in (e, partial(e, Var("y"))):
            tree = x.to_tree()
            assert Expression.from_tree(json.loads(json.dumps(tree))) == x
            atoms = tree["atoms"]
            assert len({json.dumps(a) for a in atoms}) == len(atoms)
            assert all(i < pos for pos, a in enumerate(atoms) for i in table_indices(a))


def test_integer_normal_form_bulk():
    # the printed forms of these cases are pinned in tests/golden/corpus.json
    for _, e in seeded_cases(505, 300):
        for x in (e, partial(e, Var("y"))):
            num, den, lc = x.integer_form()
            coeffs = [*num.values(), *den.values()]
            assert all(type(c) is int for c in coeffs)
            assert math.gcd(*coeffs) == 1
            (one, lead), *_ = x.den_terms()
            assert lc > 0 and den[lead] == lc and one == 1


ONE_TERMS = [{"coeff": "1", "factors": []}]
VAR_Y = {"kind": "var", "name": "y"}


def table(factors, atoms=(), coeff="1"):
    return {"atoms": list(atoms), "num": [{"coeff": coeff, "factors": factors}],
            "den": ONE_TERMS}


def f_of(i):
    """A table entry for ``f`` applied to the atom at index ``i``."""
    return {"kind": "func", "name": "f", "d": [],
            "args": [{"num": [{"coeff": "1", "factors": [[i, 1]]}], "den": ONE_TERMS}]}


def test_the_monomial_constructor_merges_repeated_atoms_and_checks_powers():
    w = Jet("w", ())
    twice = from_monomial(Monomial([(Var("y"), 1), (w, 2), (Var("y"), 1)]))
    assert twice.text == "y^2*w^2"
    assert (twice - y ** 2 * jet("w") ** 2).is_zero()
    assert Monomial([(w, 1), (w, 2)]) == Monomial([(w, 3)])
    for bad in (1.5, True, Fraction(2)):
        with pytest.raises(ValueError, match="not an integer"):
            Monomial([(w, bad)])


def test_monomial_division_must_be_exact():
    x, z, e = Var("x"), Var("z"), var("z")
    m = Monomial([(x, 2)], e)
    for divisor in ({z: 1}, {x: 3}, {x: 1, z: 1}, {Jet("x", ()): 1}):
        with pytest.raises(ValueError, match="not exact"):
            m.without(divisor)
    assert m.without({x: 1}) is Monomial([(x, 1)], e)
    assert m.without({x: 2}) is Monomial((), e) and m.without({}) is m


def test_hand_written_tables_read_back():
    # the well-formed neighbours of the unreadable tables below
    assert Expression.from_tree(table([[0, 2]], [VAR_Y], "3/2")) == fraction(3, 2) * y ** 2
    assert Expression.from_tree(table([[1, 1]], [VAR_Y, f_of(0)])) == func("f", y)


UNREADABLE = [
    (None, "TypeError"),
    ([], "TypeError"),
    ({"atoms": [], "num": 5, "den": ONE_TERMS}, "not iterable"),
    ({"atoms": [], "num": [], "den": []}, "denominator normalizes to zero"),
    (table([], coeff="x"), "Invalid literal for Fraction"),
    (table([], coeff="1/0"), "ZeroDivisionError"),
    (table([[0, 1.5]], [VAR_Y]), r"power 1\.5 is not an integer"),
    (table([[0, 1]], [{"kind": "jet", "dep": "w", "index": "yz"}]), "jet index 'yz' is not a list"),
    (table([[0, 1]], [{"kind": "cos", "name": "y"}]), "unknown atom kind 'cos'"),
    ({"num": ONE_TERMS, "den": ONE_TERMS}, r"KeyError\('atoms'\)"),
    ({"atoms": [], "den": ONE_TERMS}, r"KeyError\('num'\)"),
    (table([[0, 1]], [{"kind": "var"}]), r"KeyError\('name'\)"),
    (table([[1.5, 1]], [VAR_Y]), r"atom index 1\.5 names no earlier atom"),
    (table([[True, 1]], [VAR_Y]), "atom index True names no earlier atom"),
    (table([[-1, 1]], [VAR_Y]), "atom index -1 names no earlier atom"),
    (table([[1, 1]], [VAR_Y]), "atom index 1 names no earlier atom"),
    (table([[0, 1]], [f_of(0)]), "atom index 0 names no earlier atom"),
    (table([[0, 1]], [f_of(1), VAR_Y]), "atom index 1 names no earlier atom"),
]


# the ids keep the names the first nine cases have had since they were written
@pytest.mark.parametrize("tree, message", UNREADABLE,
                         ids=["None", *(f"tree{i}" for i in range(1, len(UNREADABLE)))])
def test_unreadable_trees_raise_value_error(tree, message):
    with pytest.raises(ValueError, match=message):
        Expression.from_tree(tree)


@pytest.mark.parametrize("tree, message", UNREADABLE,
                         ids=["None", *(f"tree{i}" for i in range(1, len(UNREADABLE)))])
def test_unreadable_trees_in_a_state_file_exit_2(tree, message, tmp_path, capsys):
    # the oracle reads a state file's tables itself: each unreadable table is
    # a ValueError there too, on either side of a check
    path = tmp_path / "state.json"
    for check in ([tree, table([])], [table([]), tree]):
        path.write_text(json.dumps({"checks": [check]}))
        code = main(["oracle", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"]["type"] == "ValueError"
        assert "Traceback" not in captured.err


def test_substitute_functions_differentiates_and_recurses():
    e = func("F", y, func("F", z, y), d=[2]) + func("G", y)
    got = substitute_functions(e, {"F": (("a", "b"), var("a") * var("b") ** 2)})
    inner = z * y * y
    assert got == 2 * y * inner + func("G", y)


def test_substitution_refuses_to_rebind_an_integration_variable():
    with pytest.raises(UnsupportedAtomError, match="integration variable"):
        substitute(antiderivative(func("F", y, z), "y"), {Var("y"): z + 1})


def per_term_subst_poly(p, state):
    # the earlier assembly: every hit monomial an expr_prod of Expressions,
    # untouched monomials summed apart, then one expr_sum over all of them
    plain, terms = {}, []
    for m, c in p.items():
        if not (any(state.hits(a) for a, _ in m.atoms)
                or m.exparg is not None and state.mentions(m.exparg)):
            plain[m] = plain.get(m, 0) + c
            continue
        factors = [as_expression(c)]
        for ak in m.atoms:
            factors.append(expressions._subst_atom(ak[0], state) ** ak[1])
        if m.exparg is not None:
            factors.append(exp(expressions._subst_expr(m.exparg, state)))
        terms.append(expr_prod(factors))
    plain = {m: c for m, c in plain.items() if c}
    if plain:
        terms.append(Expression(plain, expressions._ONE_P))
    return expr_sum(terms)


def add_with_proportional_branch(self, other):
    # the earlier Expression.__add__: proportional denominators had their own
    # branch ahead of exact division
    padd, pmul, pscale = expressions._padd, expressions._pmul, expressions._pscale
    other = as_expression(other)
    if self.is_zero():
        return other
    if other.is_zero():
        return self
    a, b = self._den, other._den
    if a == b:
        return Expression(padd(self._num, other._num), a)
    la, lb = self._lc, other._lc
    if len(a) == len(b) and all(lb * c == la * b.get(m, 0) for m, c in a.items()):
        g = math.gcd(la, lb)
        sa, sb = lb // g, la // g
        return Expression(padd(pscale(self._num, sa), pscale(other._num, sb)), pscale(a, sa))
    if not (expressions._constant_den(self) or expressions._constant_den(other)):
        if len(a) <= len(b) and (got := expressions._pdiv_exact(b, a)):
            q, k = got
            return Expression(padd(pmul(self._num, q), pscale(other._num, k)), pscale(b, k))
        if len(b) <= len(a) and (got := expressions._pdiv_exact(a, b)):
            q, k = got
            return Expression(padd(pscale(self._num, k), pmul(other._num, q)), pscale(a, k))
    return Expression(padd(pmul(self._num, b), pmul(other._num, a)), pmul(a, b))


@pytest.mark.hashseed
def test_substitution_matches_per_term_assembly_bulk(monkeypatch):
    s, t, w = var("s"), var("t"), jet("w")
    runs = [lambda e, b=b: substitute(e, b) for b in (
        {y: 1 + z ** 2},
        {y: (z + 1) / 3},
        {y: z / (1 + z ** 2)},
        {z: y + 1},
        {w: func("F", y, z) / (2 + y ** 2)},
        {y: z, z: y},
        {y: 1 / (2 * exp(z) + 2), w: 1 / (exp(z) + 1)},
    )] + [lambda e: substitute_functions(e, {"F": (("s", "t"), s * t + 1)})]

    def outcome(run, e):
        try:
            return run(e)
        except (UnsupportedAtomError, ZeroDivisionError) as exc:
            return type(exc)

    cases = [e for _, e in seeded_cases(505, 300)]
    got = [outcome(run, e) for e in cases for run in runs]
    monkeypatch.setattr(expressions, "_subst_poly", per_term_subst_poly)
    monkeypatch.setattr(Expression, "__add__", add_with_proportional_branch)
    monkeypatch.setattr(Expression, "__radd__", add_with_proportional_branch)
    want = [outcome(run, e) for e in cases for run in runs]
    assert got == want
    assert [g.text for g in got if isinstance(g, Expression)] == \
        [w.text for w in want if isinstance(w, Expression)]
    assert [key_order(g) for g in got if isinstance(g, Expression)] == \
        [key_order(w) for w in want if isinstance(w, Expression)]


def key_order(e):
    # insertion order of the stored polynomials fixes the structure of later sums
    num, den, _ = e.integer_form()
    return list(num), list(den)


def per_term_poly_partial(p, d, cache):
    # the earlier assembly: every term an Expression product, one expr_sum
    terms = []
    for m, c in p.items():
        for a, k in m.atoms:
            da = cache.get(a)
            if da is None:
                da = cache[a] = expressions._atom_derivative(a, d)
            if not da.is_zero():
                terms.append(da * Expression({m.without({a: 1}): c * k}, expressions._ONE_P))
        if m.exparg is not None:
            de = expressions._derive(m.exparg, d)
            if not de.is_zero():
                terms.append(de * Expression({m: c}, expressions._ONE_P))
    return expr_sum(terms)


@pytest.mark.hashseed
def test_partial_matches_per_term_assembly_bulk(monkeypatch):
    wy = Jet("w", ("y",))
    runs = [lambda e, x=x: partial(e, x) for x in (Var("y"), Var("z"), wy, param("c1"))]
    runs.append(lambda e: expressions.derive(e, {Var("y"): 1, wy: Jet("w", ("y", "y"))}))
    cases = [e for _, e in seeded_cases(505, 300)]
    got = [run(e) for e in cases for run in runs]
    monkeypatch.setattr(expressions, "_poly_partial", per_term_poly_partial)
    want = [run(e) for e in cases for run in runs]
    assert [g.text for g in got] == [w.text for w in want]
    assert [key_order(g) for g in got] == [key_order(w) for w in want]


@pytest.mark.hashseed
def test_raw_term_sums_pair_as_expr_sum_does_bulk():
    # cancellations that later terms undo: a linear fold would move the keys
    rng = Random(808)
    monos = [next(iter(as_expression(m).integer_form()[0])) for m in (1, y, z, y * z, jet("w"))]
    for _ in range(400):
        terms = [({m: rng.choice((-2, -1, 1, 2)) for m in rng.sample(monos, rng.randint(1, 3))},
                  {expressions._ONE_M: rng.randint(1, 3)})
                 for _ in range(rng.randint(1, 7))]
        got = expressions._sum_terms(terms)
        want = expr_sum(Expression(n, d) for n, d in terms)
        assert got == want and key_order(got) == key_order(want)


def test_a_bare_function_argument_becomes_its_binding_itself():
    t, x = var("t"), var("x")
    bound = y ** 2 + 3 * z
    got = as_atom(substitute(func("a", t, x, t + x), {t: bound, x: z}))
    assert got.args[0] is bound and got.args[1] is z
    assert got == Func("a", (bound, z, bound + z))


def counting_subst_poly(monkeypatch):
    """The polynomials ``_subst_poly`` is called on, in order, from now on."""
    calls = []
    subst_poly = expressions._subst_poly
    monkeypatch.setattr(expressions, "_subst_poly",
                        lambda p, state: calls.append(p) or subst_poly(p, state))
    return calls


@pytest.mark.hashseed
def test_bare_arguments_shared_by_slot_atoms_are_never_rewritten(monkeypatch):
    t, x = var("t"), var("x")
    slots = (("a1", "t"), ("a2", "x"), ("a3", ()))
    e = expr_sum(func(n, t, x) * jet("u", *d) for n, d in slots)
    binds = {t: y ** 2 + 1, x: y * z}
    want = expr_sum(func(n, binds[t], binds[x]) * jet("u", *d) for n, d in slots)
    calls = counting_subst_poly(monkeypatch)
    got = substitute(e, binds)
    assert got == want and got.text == want.text
    # the numerator only: each bare t and x is its binding, read from the pass
    assert calls == [e.integer_form()[0]]


@pytest.mark.hashseed
def test_one_expression_under_two_bindings_gives_two_results():
    t, x = var("t"), var("x")
    e = func("a", t * x + 1) * exp(t + x) + func("b", t)
    one, two = substitute(e, {t: y}), substitute(e, {t: z})
    assert one == func("a", y * x + 1) * exp(y + x) + func("b", y)
    assert two == func("a", z * x + 1) * exp(z + x) + func("b", z)
    assert one != two


def test_partial_by_an_atom_the_denominator_lacks_keeps_it_unsquared():
    x, wz = var("x"), jet("w", "z")
    d = partial((x * wz + jet("w")) / (x ** 2 + z + 1), wz)
    assert d == x / (x ** 2 + z + 1)
    assert d.text == "(x)/(z + x^2 + 1)"


def test_rename_atoms_keeps_terms_and_refuses_a_reordering_map():
    y, z = var("y"), var("z")
    f, g, h = Func("f", (y,)), Func("f", (y, z)), Func("g", (y,))
    e = (3 * as_expression(f) * jet("w") * exp(z) + as_expression(h) * y ** 2
         + Fraction(1, 2) * as_expression(f) ** 2) / (5 * y + 7 * z)
    got = rename_atoms(e, {f: g})
    want = substitute(e, {f: as_expression(g)})
    assert got == want and got.text == want.text
    # the terms stay where they were, with their coefficients
    num, den, lc = got.integer_form()
    e_num, e_den, e_lc = e.integer_form()
    assert [m.text("1") for m in num] == [
        m.text("1").replace("f(y)", "f(y,z)") for m in e_num]
    assert list(num.values()) == list(e_num.values())
    assert den == e_den and list(den) == list(e_den) and lc == e_lc
    assert rename_atoms(e, {}) is e
    # a variable sorts before the jet w, which f(y) sorts after
    with pytest.raises(ValueError, match="order"):
        rename_atoms(e, {f: Var("z")})
    # g(y) sent onto the y beside it in g(y)*y^2: one atom twice
    with pytest.raises(ValueError, match="order"):
        rename_atoms(e, {h: Var("y")})
    with pytest.raises(ValueError, match="merges"):
        rename_atoms(as_expression(f) + as_expression(h), {f: h})


def _rename_with_the_full_order_check(e, mapping):
    """``rename_atoms`` as first written, the reference: every monomial is
    scanned for a key, and each renamed one's whole atom tuple is checked
    for order.  Returns ``(num, den, lc)``."""
    by_key = {a._skey: b for a, b in mapping.items()}

    def rename(p):
        out = {}
        for m, c in p.items():
            atoms = m.atoms
            if any(a._skey in by_key for a, _ in atoms):
                atoms = tuple((by_key.get(a._skey, a), k) for a, k in atoms)
                if any(atoms[i][0]._skey >= atoms[i + 1][0]._skey
                       for i in range(len(atoms) - 1)):
                    raise ValueError("renaming breaks the atom order")
                m = Monomial._raw(atoms, m.exparg)
            out[m] = c
        if len(out) != len(p):
            raise ValueError("renaming merges two monomials")
        return out

    num, den, lc = e.integer_form()
    return rename(num), rename(den), lc


def _rename_outcome(rename, e, mapping):
    """``("order" | "merges", None)`` for a refusal, else ``(None, (num, den,
    lc))`` with each polynomial as its list of items, in key order."""
    try:
        got = rename(e, mapping)
    except ValueError as exc:
        return ("order" if "order" in str(exc) else "merges"), None
    num, den, lc = got if isinstance(got, tuple) else got.integer_form()
    return None, (list(num.items()), list(den.items()), lc)


@pytest.mark.hashseed
def test_rename_atoms_matches_the_full_order_check_bulk():
    # b < d < f < h are the atoms the expressions are made of; a, c, e, g, i
    # sort between and around them, and the jet w and the function k(y)
    # after all of them
    b, d, f, h = (var(n) for n in "bdfh")
    a_, c_, e_, g_, i_ = (Var(n) for n in "acegi")
    k = func("k", Var("y"))
    B, D, F, H = (as_atom(x) for x in (b, d, f, h))
    w = Jet("w", ())
    fixed = [
        # (expression, mapping, expected refusal or None)
        (b * d * f * h + 3 * d * h, {B: a_}, None),                    # first
        (b * d * f * h + 3 * d * h, {D: c_}, None),                    # middle
        (b * d * f * h + 3 * d * h, {H: i_}, None),                    # last
        (b * d * f * h + b ** 2 * h, {D: c_, F: e_}, None),            # adjacent
        (b * d * f * h + b ** 2 * h, {D: e_, F: c_}, "order"),         # passes a renamed neighbour
        (b * d * f * h + b ** 2 * h, {D: g_}, "order"),                # passes an unrenamed one
        (b * d * f * h + b ** 2 * h, {D: F}, "order"),                 # equals an unrenamed atom
        (b * d * f * h + b ** 2 * h, {F: Var("f1")}, None),            # sorts just after its key
        (2 * b * h + 5 * d * h + f, {B: c_, D: c_}, "merges"),         # two monomials merge
        (b * h + d * h, {B: D}, "merges"),
        ((b * exp(b + d) + d * f * exp(d) + h) / (b + k), {B: a_, D: c_}, None),  # exp untouched
        ((b * exp(b + d) + d * f * exp(d) + h) / (d * w + 1), {D: e_, F: g_}, None),
        ((b * exp(b + d) + d * f * exp(d) + h) / (d * w + f), {D: g_}, "order"),  # in the denominator
    ]
    for e, mapping, refusal in fixed:
        want = _rename_outcome(_rename_with_the_full_order_check, e, mapping)
        assert want[0] == refusal, (e.text, mapping)
        assert _rename_outcome(rename_atoms, e, mapping) == want, (e.text, mapping)
        if refusal is None:
            # exponential factors keep their argument, the same object
            got = rename_atoms(e, mapping)
            for p, q in zip(got.integer_form()[:2], e.integer_form()[:2]):
                assert [m.exparg for m in p] == [m.exparg for m in q]
                assert all(m.exparg is n.exparg for m, n in zip(p, q))
    # seeded expressions over the same atoms, renamed by seeded mappings
    rng = Random(3131)
    pool = (b, d, f, h, as_expression(k), jet("w"))
    keys, values = (B, D, F, H, as_atom(k), w), (B, D, F, H, a_, c_, e_, g_, i_, as_atom(k), w,
                                                Func("k", (z,)), Jet("w", ("y",)))
    outcomes = {"order": 0, "merges": 0, None: 0}
    for _ in range(600):
        terms = []
        for _ in range(rng.randint(1, 5)):
            t = as_expression(rng.randint(-5, 5) or 1)
            for x in rng.sample(pool, rng.randint(0, 4)):
                t = t * x ** rng.randint(1, 2)
            if rng.random() < 0.3:
                t = t * exp(rng.choice(pool) + rng.randint(0, 2))
            terms.append(t)
        mapping = dict(zip(rng.sample(keys, rng.randint(1, 3)), rng.sample(values, 3)))
        if rng.random() < 0.6:
            # a term and its image under the mapping, which merge when the
            # image keeps the order
            t = rng.choice(terms)
            terms.append(rng.randint(1, 3) * substitute(
                t, {a: as_expression(v) for a, v in mapping.items()}))
        e = expr_sum(terms)
        if rng.random() < 0.4:
            e = e / (rng.choice(pool) * rng.choice(pool) + rng.randint(1, 3))
        want = _rename_outcome(_rename_with_the_full_order_check, e, mapping)
        assert _rename_outcome(rename_atoms, e, mapping) == want, (e.text, mapping)
        outcomes[want[0]] += 1
    # all three outcomes are drawn often
    assert min(outcomes.values()) >= 40, outcomes


def test_collect_separates_coefficients():
    e = (y + 1) * jet("w", "y") + z * z * jet("w") + y * z
    wy, w = jet("w", "y"), jet("w")
    coeffs, residual = collect(e, [wy, w])
    assert coeffs[wy] == y + 1
    assert coeffs[w] == z * z
    assert residual == y * z


def test_constructed_equal_pairs_normalize_identically():
    a = func("F", y, z)
    pairs = [
        ((y + z) ** 2, y * y + 2 * y * z + z * z),
        (a * y * z / (z * y), a),
        (exp(y) * exp(z), exp(y + z)),
        (exp(2 * y) / exp(y), exp(y)),
        (1 / (1 / (1 + y * y)), 1 + y * y),
        ((y * z + y) / y, z + 1),
    ]
    for lhs, rhs in pairs:
        lhs, rhs = as_expression(lhs), as_expression(rhs)
        assert lhs == rhs, f"{lhs.text} != {rhs.text}"
    # the normal form cancels monomial content, not polynomial factors, so a
    # ratio like this stays a genuine quotient; equality is decided by value
    q = (y * y - z * z) / (y - z)
    assert q != y + z
    assert (q - (y + z)).is_zero()
    r = a * (y + 2) / (y + 2)
    assert r != a and (r - a).is_zero()


def test_proportional_denominators_add_over_one_denominator():
    x, F = var("x"), func("F", y, z)
    cases = [
        # 2*y + 2 and y + 1 differ by a constant factor, so the sum keeps one
        # of them instead of the product (2*y + 2)*(y + 1)
        (x / (2 * y + 2) + z / (y + 1), "(z + 1/2*x)/(y + 1)", 2),
        (fraction(1, 2) + fraction(1, 3), "5/6", 6),
        (x / (-2 * y - 2) + z / (3 * y + 3), "(1/3*z - 1/2*x)/(y + 1)", 6),
        (x / (2 * y + 2) - x / (y + 1), "(-1/2*x)/(y + 1)", 2),
        (x / (6 * F + 3) + 1 / (2 * F + 1), "(1/6*x + 1/2)/(F(y,z) + 1/2)", 6),
        ((x + 1) / 3 + (x - 1) / (-6), "1/6*x + 1/2", 6),
        # exponential factors: still one denominator, the literal's normal form
        (x / (2 * exp(y) + 2) + z / (exp(y) + 1),
         "(z*exp(-1/2*y) + 1/2*x*exp(-1/2*y))/(exp(1/2*y) + exp(-1/2*y))", 2),
        (1 / (2 * exp(y) + 2) + 1 / (exp(y) + 1),
         "(3/2*exp(-1/2*y))/(exp(1/2*y) + exp(-1/2*y))", 2),
    ]
    for e, text, lc in cases:
        assert (e.text, e.integer_form()[2]) == (text, lc)
    assert 1 / (2 * exp(y) + 2) + 1 / (exp(y) + 1) == 3 / (2 * exp(y) + 2)


def test_numeric_companion_backs_the_normal_form():
    e = (y + z) ** 3 / (1 + y * y) + func("F", y, z) * jet("w", "y")
    expanded = (y ** 3 + 3 * y ** 2 * z + 3 * y * z ** 2 + z ** 3) / (1 + y * y) \
        + func("F", y, z) * jet("w", "y")
    res = check_identity(e, expanded, DEP, seed=5, points=10)
    assert res.ok and res.max_error <= 1e-6
    # negative control: a perturbed right side must be caught
    res = check_identity(e, expanded + fraction(1, 1000) * y, DEP, seed=5, points=10)
    assert not res.ok


def test_common_exponential_cancels_from_multi_term_denominators():
    num = (Fraction(9, 4) * exp(5 * z) + y * exp(5 * z))
    den = (y * y * exp(5 * z) + Fraction(9, 2) * exp(5 * z))
    q = num / den
    plain = (y + Fraction(9, 4)) / (y * y + Fraction(9, 2))
    assert q == plain
    assert "exp" not in q.text


def test_exponential_shift_is_stable_under_reassembly():
    # num and den carry different exp factors; the canonical pair must agree
    # with itself after multiplying through by a shared exponential
    q = (exp(y) + exp(y) * z) / (exp(y - z) * y)
    again = (q * exp(3 * z)) / exp(3 * z)
    assert q == again
    assert (q - (1 + z) * exp(z) / y).is_zero()


def test_exp_of_zero_vanishes_structurally():
    assert exp(ZERO) == ONE
    assert exp(y - y) == ONE
    assert (exp(y) * exp(-y)) == ONE
    # an argument that substitution sends to zero
    x = var("x")
    assert substitute(exp(y - z) * x, {Var("y"): z}) == x


def test_log_and_exp_derivatives():
    f = 1 + y * y * z
    assert (partial(exp(f), Var("y")) - 2 * y * z * exp(f)).is_zero()
    assert (partial(log(f), Var("y")) - 2 * y * z / f).is_zero()
    assert partial(exp(f), Var("x")).is_zero()


def test_antiderivative_partials():
    f = func("F", y, z)
    a = antiderivative(f, "y")
    # differentiation recovers the integrand in the integrated variable
    assert (partial(a, Var("y")) - f).is_zero()
    # and passes under the integral sign in the other one
    under = antiderivative(partial(f, Var("z")), "y")
    assert (partial(a, Var("z")) - under).is_zero()


def test_chain_rule_through_unspecified_functions():
    g = func("G", y * z)
    d = partial(g, Var("y"))
    assert (d - z * func("G", y * z, d=[1])).is_zero()
    dd = partial(d, Var("z"))
    expect = func("G", y * z, d=[1]) + y * z * func("G", y * z, d=[1, 1])
    assert (dd - expect).is_zero()


def closure_sets(e):
    d = dependency_closure(e)
    return d.variables, d.jets, d.functions


@pytest.mark.parametrize("e, variables, jets, functions", [
    (func("F", y, jet("w", "z")), {"y", "z"}, {Jet("w", ("z",))}, {"F"}),
    (antiderivative(func("F", y), "z"), {"y", "z"}, set(), {"F"}),
    (log(1 + y * y) * jet("w"), {"y"}, {Jet("w")}, set()),
    (exp(z) * param("c1"), {"z"}, set(), set()),
    (param("c1") + 3, set(), set(), set()),
    (y - y, set(), set(), set()),
    (func("F", y) * z - z * func("F", y) + jet("w", "y") / z * z,
     {"y"}, {Jet("w", ("y",))}, set()),
])
def test_dependency_closure_per_atom_kind(e, variables, jets, functions):
    assert closure_sets(e) == (variables, jets, functions)


def reference_closure(e):
    # every occurrence walked, straight from the definition
    vs, js, fs = set(), set(), set()

    def walk(x):
        for _c, m in x.num_terms() + x.den_terms():
            if m.exparg is not None:
                walk(m.exparg)
            for a, _k in m.atoms:
                if isinstance(a, Var):
                    vs.add(a.name)
                elif isinstance(a, Jet):
                    vs.update(a.index)
                    js.add(a)
                elif isinstance(a, Func):
                    fs.add(a.name)
                elif isinstance(a, Antideriv):
                    vs.add(a.var)
                for c in a.children():
                    walk(c)

    walk(e)
    return vs, js, fs


def test_dependency_closure_matches_reference_walk_bulk():
    for _, e in seeded_cases(505, 300):
        for x in (e, partial(e, Var("y"))):
            assert closure_sets(x) == reference_closure(x)


def test_dependency_closure_walks_a_shared_atom_once(monkeypatch):
    walked = []
    real = expressions._atoms_of

    def counting(exprs):
        exprs = tuple(exprs)
        walked.append(exprs)
        return real(exprs)

    monkeypatch.setattr(expressions, "_atoms_of", counting)
    g = func("Shared", y, jet("w", "y"))
    e = expr_sum(g * z ** k + jet("w") ** k for k in range(1, 40))
    assert closure_sets(e) == ({"y", "z"}, {Jet("w"), Jet("w", ("y",))}, {"Shared"})
    # one pass over the monomials of e, one over the shared atom's arguments
    assert walked == [(e,), as_atom(g).children()]
    assert {a.text for a in as_atom(g)._below} == {"y", "D[w,y]"}
    # leaf atoms cache nothing
    assert all(a._below is None for _c, m in e.num_terms() for a, _k in m.atoms
               if not isinstance(a, Func))


def nested(depth):
    e = var("x")
    for _ in range(depth):
        e = func("a1", e)
    return e


def test_deep_nesting_costs_no_stack_per_level():
    # the parser admits 150 levels; substitution's rebuild still recurses a
    # few frames per level, the atom walk and the atom-table codec none
    shifted = substitute(nested(150), {Var("x"): y + 1})
    assert closure_sets(shifted) == ({"y"}, set(), {"a1"})
    deep = nested(1000)
    assert closure_sets(deep) == ({"x"}, set(), {"a1"})
    assert Expression.from_tree(json.loads(json.dumps(deep.to_tree()))) == deep
    inst = Instantiation.for_expressions([deep * param("c")], Random(1), {})
    assert (list(inst.functions), list(inst.params), inst.dependents) == (["a1"], ["c"], {})


def test_parameters_are_constants():
    c = param("c1")
    assert partial(c, Var("y")).is_zero()
    assert not c.is_zero()
    assert (c * y - y * c).is_zero()


def test_fraction_arithmetic_is_exact():
    # no floats anywhere: a sum that rounds wrong in binary must stay exact
    e = sum((fraction(1, 10) for _ in range(10)), start=ZERO)
    assert e == ONE


def test_power_expansion_matches_repeated_product():
    e = (y + 2 * z + 1)
    assert (e ** 4 - e * e * e * e).is_zero()
    assert e ** 0 == ONE
    assert e ** -2 * e ** 2 == ONE
    with pytest.raises((ValueError, ZeroDivisionError)):
        ZERO ** -1


# -- fast paths for trivial operands, against the general loops they skip

def reference_monomial_product(ma, mb):
    powers = dict(ma.atoms)
    for a, p in mb.atoms:
        powers[a] = powers.get(a, 0) + p
    if ma.exparg is None or mb.exparg is None:
        ea = mb.exparg if ma.exparg is None else ma.exparg
    else:
        ea = ma.exparg + mb.exparg
    return Monomial(powers.items(), ea)


def reference_pmul(a, b):
    # the double loop with no constant shortcut; it fixes the insertion order
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = reference_monomial_product(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
            if not out[m]:
                del out[m]
    return out


def reference_canonical(num, den):
    # the general normalization, common-factor scan and exponential shift
    # included, for a nonzero numerator
    common = None
    for m in list(den) + list(num):
        common = dict(m.atoms) if common is None else {
            a: min(p, common[a]) for a, p in m.atoms if a in common}
        if not common:
            break
    if common:
        num = {m.without(common): c for m, c in num.items()}
        den = {m.without(common): c for m, c in den.items()}
    if any(m.exparg is not None for m in den):
        delta = expr_sum(m.exparg for m in den if m.exparg is not None) / -len(den)
        if not delta.is_zero():
            num = {m.shifted_exp(delta): c for m, c in num.items()}
            den = {m.shifted_exp(delta): c for m, c in den.items()}
    lc = den[expressions._plead(den)]
    g = math.gcd(*num.values(), *den.values()) * (1 if lc > 0 else -1)
    return ({m: c // g for m, c in num.items()}, {m: c // g for m, c in den.items()},
            lc // g)


def kernel_polynomials():
    for _, e in seeded_cases(505, 300):
        for x in (e, partial(e, Var("y"))):
            num, den, _lc = x.integer_form()
            yield num
            if len(den) > 1:
                yield den


def test_pmul_fast_paths_match_the_double_loop_bulk():
    polys = list(kernel_polynomials())
    # Monomial() is a constant monomial built apart from the kernel's own
    constants = [{Monomial(): c} for c in (1, -1, 6, -35)]
    for i, p in enumerate(polys):
        q = polys[(7 * i + 3) % len(polys)]
        pairs = [(c, p) for c in constants] + [(p, c) for c in constants] + [(p, q)]
        for a, b in pairs:
            assert list(expressions._pmul(a, b).items()) == list(reference_pmul(a, b).items())


def test_canonical_fast_path_matches_the_general_branch_bulk():
    for i, num in enumerate(kernel_polynomials()):
        k = (1, 2, 6)[i % 3]
        scaled = {m: c * k for m, c in num.items()}
        for d in (1, -1, 4, -6, 12):
            got = expressions._canonical(scaled, {Monomial(): d})
            want = reference_canonical(scaled, {Monomial(): d})
            assert [list(got[0].items()), list(got[1].items()), got[2]] == \
                [list(want[0].items()), list(want[1].items()), want[2]]


def test_trivial_factors_return_the_other_operand():
    m = Monomial(((Var("y"), 2), (Jet("w", ("z",)), 1)), z)
    assert m * Monomial() is m
    assert Monomial() * m is m
    e = (y + jet("w")) / (z - 1)
    assert e ** 1 is e


def test_is_one_compares_numerator_and_denominator():
    # a numerator proportional to its denominator collapses to a constant
    e = (y + 1) / (y + 1)
    assert e.is_one()
    assert e == ONE
    assert (2 * y + 2) / (y + 1) == 2
    assert (y + 1) / (-3 * y - 3) == fraction(-1, 3)
    assert ONE.is_one() and not (y / (y + 1)).is_one()


def pdiv_checked(b, a):
    """``_pdiv_exact(b, a)``, with ``a*q == k*b`` asserted when it divides."""
    got = expressions._pdiv_exact(b, a)
    if got is not None:
        q, k = got
        assert k > 0 and all(type(c) is int for c in q.values())
        assert expressions._pmul(a, q) == expressions._pscale(b, k)
    return got


def test_exact_division_of_products_bulk():
    polys = [p for p in kernel_polynomials() if p]
    plain = [p for p in polys if all(m.exparg is None for m in p)]
    with_exp = [p for p in polys if any(m.exparg is not None for m in p)]
    assert len(plain) > 300 and len(with_exp) > 30
    one = {Monomial(): 1}
    for i, a in enumerate(plain):
        b = plain[(7 * i + 3) % len(plain)]
        ab = expressions._pmul(a, b)
        assert pdiv_checked(ab, a) is not None
        if not (len(a) == 1 and Monomial() in a):
            assert pdiv_checked(expressions._padd(ab, one), a) is None
    for i, p in enumerate(with_exp):
        a = plain[i % len(plain)]
        assert pdiv_checked(expressions._pmul(p, a), a) is None
        # exponential factors block the division unless the quotient is a constant
        want = (a, 1) if set(a) == {Monomial()} else None
        assert pdiv_checked(expressions._pmul(p, a), p) == want


def test_exact_division_uses_a_monomial_order():
    # order_key ranks x*z below y^2 but x^2*z above x*y^2: it is no monomial order
    x = var("x")
    p = (x * z + y ** 2).integer_form()[0]
    b = ((x * z + y ** 2) * (x + y)).integer_form()[0]
    q, k = pdiv_checked(b, p)
    assert Expression(q, {Monomial(): k}) == x + y


def test_exact_division_rejects_early():
    x = var("x")

    def num(e):
        return e.integer_form()[0]

    assert pdiv_checked(num(y ** 2 + 1), num(x + 1)) is None      # atom b lacks
    assert pdiv_checked(num(y + 1), num(y ** 2 + 1)) is None      # degree
    assert pdiv_checked(num(y ** 2 + z), num(y + z)) is None      # lead term
    assert pdiv_checked(num(6 * y ** 2 - 6), num(4 * y + 4)) == (num(3 * y - 3), 2)


def test_sum_uses_the_denominator_the_other_divides():
    x = var("x")
    d = 2 + y ** 2
    e = x / d + z / d ** 2
    assert e.denominator() == d ** 2
    assert (e - (x * d + z) / d ** 2).is_zero()
    assert (z / d ** 2 + x / d).denominator() == d ** 2


def test_exact_division_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(41)
    names = ("x", "y", "z")
    syms = sympy.symbols(names)

    def draw(terms, deg):
        return expr_sum(rng.randint(-5, 5) * expr_prod(
            var(n) ** rng.randint(0, deg) for n in names) for _ in range(terms))

    def to_sympy(p):
        return sum(c * sympy.Mul(*(sympy.Symbol(a.text) ** k for a, k in m.atoms))
                   for m, c in p.items())

    divisible = 0
    for i in range(100):
        a = draw(rng.randint(1, 3), 2)
        b = a * draw(rng.randint(1, 3), 2) if i % 2 else draw(rng.randint(2, 5), 3)
        if a.is_zero() or b.is_zero() or a.is_constant():
            continue
        pa, pb = a.integer_form()[0], b.integer_form()[0]
        quot, rem = sympy.div(to_sympy(pb), to_sympy(pa), *syms, domain="QQ")
        got = pdiv_checked(pb, pa)
        assert (got is not None) == (rem == 0), (a, b)
        if got is not None:
            divisible += 1
            q, k = got
            assert sympy.expand(to_sympy(q) - k * quot) == 0
    assert divisible >= 40
