"""Interned atoms: one object per atom structure, equality by identity.

Two atoms that print alike are still two atoms when their structure differs:
``f(y)`` over the variable ``y`` and over the dependent variable ``y``.
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
    Param,
    Var,
    ZeroDenominatorError,
    antiderivative,
    as_atom,
    as_expression,
    dependency_closure,
    exp,
    func,
    jet,
    log,
    param,
    partial,
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
    # atom hashes are object ids, so an unpickled expression must not keep
    # the hashes of the process that wrote it
    code = ("import pickle, sys\n"
            "from eqvlab import func, jet, var, exp\n"
            "y = var('y')\n"
            "e = (func('f', y) * jet('w', 'y') + exp(y)) / (1 + func('f', jet('y')))\n"
            "hash(e)\n"
            "sys.stdout.buffer.write(pickle.dumps(e))\n")
    src = str(Path(expressions.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    got = pickle.loads(out)
    want = (func("f", y) * jet("w", "y") + exp(y)) / (1 + func("f", jet("y")))
    assert got == want and hash(got) == hash(want) and {want: 1}[got] == 1
