"""Interned atoms and monomials: one object per structure, equality by identity.

Two atoms that print alike are still two atoms when their structure differs:
``f(y)`` over the variable ``y`` and over the dependent variable ``y``.  A
monomial is one object per atom powers and exponential argument.
"""

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import eqvlab.expressions as expressions
from eqvlab import (
    Antideriv,
    DependencySet,
    Expression,
    Func,
    Jet,
    Log,
    Monomial,
    Param,
    Var,
    ZeroDenominatorError,
    antiderivative,
    as_atom,
    as_expression,
    dependency_closure,
    exp,
    from_monomial,
    func,
    jet,
    log,
    param,
    partial,
    rename_atoms,
    var,
)

pytestmark = pytest.mark.hashseed

y = var("y")


def twins():
    """Pairs of distinct atoms, as expressions, whose texts are equal."""
    return [
        (func("f", var("y")), func("f", jet("y"))),
        (func("f", param("c")), func("f", var("c"))),
        (func("g", var("y"), 2 * jet("y")), func("g", jet("y"), 2 * var("y"))),
        (log(1 + var("y") ** 2), log(1 + jet("y") ** 2)),
        (antiderivative(var("y") * var("x"), "x"), antiderivative(jet("y") * var("x"), "x")),
        (func("h", func("f", var("y"))), func("h", func("f", jet("y")))),
        (func("f", exp(var("y"))), func("f", exp(jet("y")))),
    ]


@pytest.mark.parametrize("a, b", twins(), ids=[
    "f-of-y", "f-of-c", "two-arguments", "log", "int", "nested", "exp-argument"])
def test_atoms_that_print_alike_are_apart_when_their_structure_is(a, b):
    assert a.text == b.text
    assert as_atom(a) is not as_atom(b) and a != b
    assert not (a - b).is_zero() and not (b - a).is_zero()
    assert (a - a).is_zero() and (a + b - a - b).is_zero()
    # the sum keeps two terms, the product two atoms, one power each
    assert len((a + b).integer_form()[0]) == 2
    (m, c), = (a * b).integer_form()[0].items()
    assert c == 1 and [k for _x, k in m.atoms] == [1, 1]
    # a square is one atom to the second power
    (m, c), = (a * a).integer_form()[0].items()
    assert m.atoms == ((as_atom(a), 2),)
    # the table of the normal form reads back into the same atoms
    e = 3 * a * b + a - 2 * b ** 2
    assert Expression.from_tree(e.to_tree()) == e


def test_linearity_and_dependencies_see_the_variable_and_the_dependent_variable():
    a, b = func("f", var("y")), func("f", jet("y"))
    Y = Var("y")
    assert partial(a + b, Y) == partial(a, Y) + partial(b, Y) == func("f", y, d=[1])
    assert partial(b, Jet("y")) == func("f", jet("y"), d=[1])
    assert dependency_closure(a + b) == dependency_closure(b + a) == DependencySet(
        frozenset({"y"}), frozenset({Jet("y")}), frozenset({"f"}))
    c, v = func("f", param("c")), func("f", var("c"))
    assert dependency_closure(c + v) == dependency_closure(v + c) == DependencySet(
        frozenset({"c"}), frozenset(), frozenset({"f"}))
    assert partial(c + v, Var("c")) == func("f", var("c"), d=[1])
    assert partial(c + v, Param("c")) == func("f", param("c"), d=[1])


def _twin_order(jet_first: bool):
    """The kinds of the arguments of the factors of f(y)*f(y), over the
    variable and over the dependent variable, and the text of a sum of the
    two, with one of them built first."""
    gc.collect()
    assert not any(k[:2] == (3, "f_ord") for k in list(expressions._TABLE))
    if jet_first:
        b = func("f_ord", jet("y_ord"))
        a = func("f_ord", var("y_ord"))
    else:
        a = func("f_ord", var("y_ord"))
        b = func("f_ord", jet("y_ord"))
    (m, _c), = (a * b).integer_form()[0].items()
    (n, _c), = (b * a).integer_form()[0].items()
    assert m.atoms == n.atoms
    return [type(as_atom(x.args[0])).__name__ for x, _k in m.atoms], (a + 2 * b).text


def test_twins_sort_by_structure_whichever_is_built_first():
    # twins sort by their children's atom tables, where a jet's kind sorts
    # before a variable's; neither the build order nor an object id decides
    assert _twin_order(jet_first=True) == _twin_order(jet_first=False) == (
        ["Jet", "Var"], "f_ord(y_ord) + 2*f_ord(y_ord)")
    a, b = as_atom(func("f", var("y"))), as_atom(func("f", jet("y")))
    assert b._skey < a._skey and not a._skey < b._skey and a._skey != b._skey


def test_equal_atoms_are_one_object():
    z = var("z")
    assert Var("x") is Var("x") and Param("c") is Param("c") and Var("c") is not Param("c")
    assert Jet("w", ("z", "y")) is Jet("w", ["y", "z"]) is Jet("w", iter(("y", "z")))
    assert Jet("w") is Jet("w", ()) is not Var("w")
    assert Func("f", [y, z], [2, 1]) is Func("f", (y, z), (1, 2))
    assert Func("f", [y]) is as_atom(func("f", y)) is as_atom(func("f", Var("y")))
    assert as_atom(partial(func("f", y), Var("y"))) is Func("f", [y], [1])
    assert Antideriv(y * z, "z") is as_atom(antiderivative(z * y, "z"))
    assert Log(1 + y) is Log(y + 1) is as_atom(log(y + 1))
    # atoms compare and hash as objects: no class defines its own
    for cls in (expressions.Atom, Var, Jet, Param, Func, Antideriv, Log):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)


def test_refusals_are_unchanged():
    # a refused atom is never stored, so the lookup before building misses
    for build, error, message in (
        (lambda: Var("1x"), ValueError, "variable name"),
        (lambda: Param(""), ValueError, "parameter name"),
        (lambda: Jet("w", ("y", 3)), ValueError, "jet index"),
        (lambda: Jet("w-", ()), ValueError, "dependent variable"),
        (lambda: Func("f", []), ValueError, "at least one argument"),
        (lambda: Func("f", [y], [2]), ValueError, "derivative slot 2"),
        (lambda: Log(y - y), ZeroDenominatorError, "log of an expression"),
        (lambda: Antideriv(y, "x y"), ValueError, "integration variable"),
    ):
        for _ in range(2):
            with pytest.raises(error, match=message):
                build()


def test_four_threads_building_the_same_atoms_get_the_same_objects():
    names = [f"thr{i}" for i in range(300)]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def build(k):
        barrier.wait()
        out = []
        for n in names:
            v = Var(n)
            out.append((v, Jet("w", (n,)), Func("thr_f", [var(n), jet("w", n)]),
                        Log(var(n) + 1)))
        results[k] = out

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for row in zip(*results):
        for atoms in zip(*row):
            assert all(a is atoms[0] for a in atoms)
    assert Func("thr_f", [var("thr7"), jet("w", "thr7")]) is results[0][7][2]


def test_dropped_atoms_leave_the_table():
    a = Func("gone_f", [var("gone_x") * jet("gone_w", "gone_x")])
    refs = [weakref.ref(a), weakref.ref(Var("gone_x")), weakref.ref(Jet("gone_w", ("gone_x",)))]
    assert (0, "gone_x") in expressions._TABLE
    del a
    gc.collect()
    assert all(r() is None for r in refs)
    assert (0, "gone_x") not in expressions._TABLE
    assert (1, "gone_w", ("gone_x",)) not in expressions._TABLE
    assert not [k for k in list(expressions._TABLE) if k[:2] == (3, "gone_f")]
    # built again, the atom is stored again
    assert Func("gone_f", [var("gone_x")]) is Func("gone_f", [var("gone_x")])


def _all_kinds():
    return [Var("y"), Param("c"), Jet("w", ("y", "z")), Func("f", [y, jet("w")], [1]),
            Antideriv(param("c") * y, "y"), Log(1 + y ** 2), *map(as_atom, twins()[0])]


def test_copies_and_unpickled_atoms_are_the_stored_atom():
    for a in _all_kinds():
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        assert pickle.loads(pickle.dumps(a)) is a
    e = sum(map(as_expression, _all_kinds()), start=exp(y)) / (1 + func("f", y))
    for got in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert got == e and hash(got) == hash(e) and got.text == e.text
        assert {e: 1}[got] == 1


def test_an_expression_pickled_in_another_process_hashes_afresh():
    # atom and monomial hashes are object ids, so an unpickled expression
    # must not keep the hashes of the process that wrote it, and its
    # monomials, exponentials and all, are the stored ones
    code = ("import pickle, sys\n"
            "from eqvlab import func, jet, var, exp\n"
            "y = var('y')\n"
            "e = (func('f', y) * jet('w', 'y') + exp(y) + jet('w') * exp(2 * y)) / (\n"
            "    1 + func('f', jet('y')) * exp(y))\n"
            "hash(e)\n"
            "sys.stdout.buffer.write(pickle.dumps(e))\n")
    src = str(Path(expressions.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    got = pickle.loads(out)
    want = (func("f", y) * jet("w", "y") + exp(y) + jet("w") * exp(2 * y)) / (
        1 + func("f", jet("y")) * exp(y))
    assert got == want and hash(got) == hash(want) and {want: 1}[got] == 1
    for mine, theirs in zip(want.integer_form()[:2], got.integer_form()[:2]):
        assert any(m.exparg is not None and m.atoms for m in mine)
        assert sorted(map(id, mine)) == sorted(map(id, theirs))


def test_equal_monomials_built_every_way_are_one_object():
    Y, W, C = Var("y"), Jet("w", ("y",)), Param("c")
    ea = 2 * var("y")
    m = Monomial([(Y, 2), (W, 1)], ea)
    # the constructor, repeated atoms in any order, an equal argument built apart
    assert Monomial([(W, 1), (Y, 1), (Y, 1)], var("y") * 2) is m
    assert Monomial._raw(((Y, 2), (W, 1)), var("y") + var("y")) is m
    # products, with the exponential split between the factors or not
    assert Monomial([(Y, 1)]) * Monomial([(Y, 1), (W, 1)], ea) is m
    assert Monomial([(Y, 2)], var("y")) * Monomial([(W, 1)], var("y")) is m
    # division, the cofactor, the exponential shifted
    assert Monomial([(Y, 3), (W, 1), (C, 1)], ea).without({Y: 1, C: 1}) is m
    assert Monomial([(Y, 2), (W, 2)], ea).cofactor(W) is m
    assert Monomial([(Y, 2), (W, 1)], var("y")).shifted_exp(var("y")) is m
    assert Monomial([(Y, 2), (W, 1)]).shifted_exp(ea) is m
    assert m.shifted_exp(-ea) is Monomial([(Y, 2), (W, 1)])
    # a rename, a table read back, copies
    (got, _c), = rename_atoms(from_monomial(Monomial([(Y, 2), (Jet("w", ("z",)), 1)], ea)),
                              {Jet("w", ("z",)): W}).integer_form()[0].items()
    assert got is m
    (got, _c), = Expression.from_tree(from_monomial(m, 3).to_tree()).integer_form()[0].items()
    assert got is m
    assert copy.copy(m) is m and copy.deepcopy(m) is m and pickle.loads(pickle.dumps(m)) is m
    # the quotient of an exact division
    n = Monomial([(Y, 2), (W, 1)])
    a = (var("y") + jet("w", "y")).integer_form()[0]
    q, k = expressions._pdiv_exact(expressions._pmul(a, {n: 5}), a)
    assert k == 1 and list(q.items()) == [(n, 5)] and next(iter(q)) is n
    # apart: another exponential argument, none, other powers
    assert n is not m and Monomial([(Y, 2), (W, 1)], var("y")) is not m
    assert Monomial([(Y, 2), (W, 2)], ea) is not m and Monomial((), ea) is not Monomial()
    # one order key per monomial; equality and hashing are the object's
    assert Monomial([(W, 1), (Y, 2)], ea).order_key() is m.order_key()
    assert Monomial.__hash__ is object.__hash__ and Monomial.__eq__ is object.__eq__
    assert "__eq__" not in vars(Monomial) and "__hash__" not in vars(Monomial)


def test_cofactors_are_kept_per_atom():
    X, Y = Var("x"), Var("y")
    m = Monomial([(X, 2), (Y, 1)], var("z"))
    assert m.cofactor(X) is Monomial([(X, 1), (Y, 1)], var("z"))
    assert m.cofactor(Y) is Monomial([(X, 2)], var("z"))
    assert m.cofactor(X) is m.cofactor(X) is Monomial([(X, 1), (Y, 1)], var("z"))
    assert Monomial([(X, 1)]).cofactor(X) is Monomial()
    with pytest.raises(ValueError, match="not exact"):
        m.cofactor(Var("z"))


def test_four_threads_building_the_same_monomials_get_the_same_objects():
    atoms = [Var(f"thm{i}") for i in range(200)]
    arg = var("thm_e")
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def build(k):
        barrier.wait()
        out = []
        for a, b in zip(atoms, atoms[1:]):
            # built and dropped at once: its callback races the other stores
            Monomial([(a, 3), (b, 3)])
            out.append((Monomial([(b, 1), (a, 2)], arg), Monomial([(a, 1)]) * Monomial([(a, 1)]),
                        Monomial([(a, 2), (b, 1)]).shifted_exp(arg)))
        results[k] = out

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for row in zip(*results):
        for built in zip(*row):
            assert all(m is built[0] for m in built)
    for one, _square, shifted in results[0]:
        assert shifted is one
    assert Monomial([(atoms[7], 1), (atoms[6], 2)], arg) is results[2][6][0]
    gc.collect()
    assert all(r() is not None for r in list(expressions._MONOMIALS.values()))


def test_a_dropped_monomial_leaves_the_table_and_keeps_no_atom_alive():
    x, w = Var("drop_x"), Jet("drop_w", ("drop_x",))
    arg = var("drop_x") + 1
    m = Monomial([(x, 2), (w, 1)], arg)
    n = m.cofactor(x)
    assert expressions._MONOMIALS[((x, 2), (w, 1)), arg]() is m
    assert expressions._MONOMIALS[((x, 1), (w, 1)), arg]() is n
    refs = [weakref.ref(o) for o in (m, n, x, w)]
    del m, n, x, w, arg
    gc.collect()
    assert all(r() is None for r in refs)
    # every entry left is live: the dead ones were dropped, keys and all
    assert all(r() is not None for r in list(expressions._MONOMIALS.values()))
    # built again, the monomial is stored again
    assert Monomial([(Var("drop_x"), 1)]) is Monomial([(Var("drop_x"), 1)])


def test_a_live_entry_that_replaced_a_dead_one_survives_the_dead_ones_callback():
    key = ((Var("succ_x"), 2),)
    # a dead entry whose callback has not run yet: the reference, made
    # without its callback, to a monomial that was never stored
    ghost = object.__new__(Monomial)
    dead = expressions._MonomialRef(ghost)
    dead.key = key
    assert expressions._MONOMIALS.setdefault(key, dead) is dead
    del ghost
    assert dead() is None
    m = Monomial._raw(key, None)  # replaces the dead entry
    assert expressions._MONOMIALS[key]() is m
    expressions._dead(dead)  # the dead entry's callback, late
    assert expressions._MONOMIALS[key]() is m
    assert Monomial([(Var("succ_x"), 1), (Var("succ_x"), 1)]) is m

