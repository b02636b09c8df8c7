"""Exact symbolic expressions for differential-algebra work.

An :class:`Expression` is a quotient of two multivariate polynomials with
integer coefficients.  The polynomial generators ("atoms") are independent
variables, parameters, jet variables (a dependent variable together with a
multi-index of differentiations), applied function symbols with slot-indexed
derivative markers, unevaluated antiderivatives, and logarithms.  Each
monomial additionally carries one exponential factor ``exp(argument)``.

Every expression is kept in a normal form:

* numerator and denominator are expanded polynomials over the atoms with
  integer coefficients,
* monomial factors common to all monomials of numerator and denominator are
  cancelled, and a numerator proportional to its denominator (``p/p``)
  collapses to a constant; no polynomial gcd beyond that is attempted,
* a sum whose one denominator divides the other exactly is kept over the
  larger denominator; other sums cross-multiply,
* when the denominator is a single monomial its exponential factor is moved
  into the numerator, so quotients like ``exp(f+g)*g1(z)/exp(f+g)`` collapse,
* the content, the gcd of all numerator and denominator coefficients, is
  divided out, and the leading denominator coefficient ``lc`` is positive,
* ``exp(a)*exp(b)`` merges to ``exp(a+b)`` and ``exp(0)`` disappears; no other
  transcendental rewriting happens.

Arithmetic therefore multiplies and adds only integers.  Rationals appear at
the boundaries: the constructors accept :class:`~fractions.Fraction`
coefficients, and what an expression shows of itself (``text``,
:meth:`Expression.num_terms` and :meth:`Expression.den_terms`,
:meth:`Expression.numerator` and :meth:`Expression.denominator`,
:meth:`Expression.to_tree`) is the monic view, both polynomials divided by
``lc`` so that the denominator leads with coefficient one.
:meth:`Expression.integer_form` hands out the stored integer polynomials.

Dependency closures and substitution's test for untouched parts read the
atoms an expression reaches (inside function arguments, integrands, log and
exp arguments) from one iterative walk; composite atoms cache their insides.
Substitution and differentiation build their terms as raw integer
polynomials; terms over integer denominators are added raw and normalized
once per sum, other terms once each.  A total derivative is one derivation
with one quotient rule.  It answers each atom as the differentiation meets
it, so it walks no closure, and each jet keeps its next-higher jets.

Atoms and monomials are interned: each constructor returns the one stored
atom of its kind, names and child expressions, and the one stored monomial of
its atom powers and exponential argument, so their equality and hashing are
those of the object and run in C, and atoms that print alike (``f(y)`` over a
variable and over a dependent variable) stay apart.  A set of atoms iterates
in the order of their ids, which changes from run to run; whatever reaches an
output sorts by the ordering key ``_skey`` or by text first.

Equality (``==``) of expressions is structural identity of normal forms, and
``<`` is a total order of normal forms by structure, not of values.
Semantic equality of two expressions is decided by subtracting them and
asking :meth:`Expression.is_zero`; the subtraction brings both sides over one
denominator exactly, so it is an exact zero test in the field of fractions
freely generated by the atoms.

Expressions and atoms are immutable and hashable; all operations return new
objects and are safe to share between threads.
"""

from __future__ import annotations

import operator
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import UnsupportedAtomError, ZeroDenominatorError

__all__ = [
    "Atom",
    "Var",
    "Param",
    "Jet",
    "Func",
    "Antideriv",
    "Log",
    "Monomial",
    "Expression",
    "DependencySet",
    "ZERO",
    "ONE",
    "as_expression",
    "as_atom",
    "var",
    "param",
    "jet",
    "func",
    "antiderivative",
    "log",
    "exp",
    "fraction",
    "from_monomial",
    "normalize",
    "derive",
    "partial",
    "substitute",
    "substitute_functions",
    "rename_atoms",
    "collect",
    "collect_numerators",
    "jet_split",
    "dependency_closure",
    "polynomial_jets",
    "closure_jets",
    "sign_canonical",
    "expr_sum",
    "expr_prod",
]

ExpressionLike = Union["Expression", "Atom", int, Fraction]


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not name.isidentifier():
        raise ValueError(f"{what} name must be a Python-style identifier, got {name!r}")
    return name


# ---------------------------------------------------------------------------
# Hash-consing (Filliatre & Conchon 2006)
#
# Atoms and monomials are each stored in one table keyed by their structure,
# so equal ones are one object and per-object caches (``_below``,
# ``Jet._next``, a monomial's order key and cofactors) are shared too.  A
# table maps a key to a weak reference that carries the key; it keeps no
# object alive, and when an object dies the reference's callback drops the
# entry, but only while it is still dead, so a live successor stays.  A miss
# stores with ``dict.setdefault``, so threads that build one object get one
# object; only replacing a dead entry takes the lock.

_TABLE: dict = {}  # atom key -> _AtomRef
_MONOMIALS: dict = {}  # monomial key -> _MonomialRef
_LOCK = threading.Lock()


def _dead(ref, remove=_remove_dead_weakref):
    # a default argument, so the callback still works while the module is
    # torn down at exit
    remove(ref.table, ref.key)


class _AtomRef(weakref.ref):
    __slots__ = ("key",)
    table = _TABLE


class _MonomialRef(weakref.ref):
    __slots__ = ("key",)
    table = _MONOMIALS


def _interned(kind: type, key, obj):
    """The object stored under ``key`` in ``kind.table``, after storing ``obj``
    there if none is."""
    ref = kind(obj, _dead)
    ref.key = key
    table = kind.table
    while True:
        got = table.setdefault(key, ref)
        if got is ref:
            return obj
        old = got()
        if old is not None:
            return old
        with _LOCK:
            _remove_dead_weakref(table, key)


# ---------------------------------------------------------------------------
# Atoms
#
# Leaf atoms look themselves up before anything is built.


class Atom:
    """A generator of the polynomial layer.  Immutable and interned.

    Two atoms are equal exactly when they are one object: the constructors
    return the stored atom of the same kind, names and child expressions.
    The ``text`` form is not injective: ``f(y)`` over the variable ``y`` and
    over the dependent variable ``y`` print alike.  The ordering key
    ``_skey`` is ``(rank, text)``, and for atoms with children also the
    children, which order such twins by structure (``Expression.__lt__``),
    so it is total and never depends on object ids.
    """

    __slots__ = ("_text", "_skey", "_below", "__weakref__")
    rank = -1
    _fields: tuple = ()  # the constructor's arguments, by attribute name

    def _seal(self, key: tuple) -> "Atom":
        # every subclass calls this last on a miss: the ordering key, then
        # the stored atom of this structure, which is this one unless another
        # thread stored it first
        children = self.children()
        self._skey = (self.rank, self._text, children) if children else (
            self.rank, self._text)
        self._below = None  # atoms inside, cached for composite atoms only
        return _interned(_AtomRef, key, self)

    @property
    def text(self) -> str:
        return self._text

    def __repr__(self):
        return self._text

    def __reduce__(self):
        # through the constructor, so a copy or an unpickled atom is the one
        # stored atom, not a twin that would compare unequal
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def children(self) -> tuple:
        """Inner expressions (function arguments, integrands, log arguments)."""
        return ()

    def rebuilt(self, children: Sequence["Expression"]) -> "Atom":
        """The same atom with ``children`` substituted for :meth:`children`."""
        if children:
            raise ValueError("atom has no children to rebuild")
        return self


class Var(Atom):
    """An independent variable."""

    __slots__ = ("name",)
    rank = 0
    _fields = ("name",)

    def __new__(cls, name: str):
        ref = _TABLE.get((0, name))
        if ref is not None and (got := ref()) is not None:
            return got
        self = object.__new__(cls)
        self.name = self._text = _check_name(name, "variable")
        return self._seal((0, name))


class Jet(Atom):
    """A dependent variable differentiated by a multi-index of variable names.

    The index is stored sorted, so mixed derivatives have one representative.
    An empty index is the dependent variable itself.  A jet keeps its
    next-higher jets once asked for them (:meth:`higher`); like ``_below``,
    this cache is filled in a benign race.
    """

    __slots__ = ("dep", "index", "_next")
    rank = 1
    _fields = ("dep", "index")

    def __new__(cls, dep: str, index: Iterable[str] = ()):
        index = tuple(index)
        try:
            key = (1, dep, tuple(sorted(index)))
            ref = _TABLE.get(key)
        except TypeError:  # names of no stored jet; the checks below refuse them
            ref = None
        if ref is not None and (got := ref()) is not None:
            return got
        self = object.__new__(cls)
        self.dep = _check_name(dep, "dependent variable")
        self.index = tuple(sorted(_check_name(i, "jet index") for i in index))
        self._text = self.dep if not self.index else "D[%s,%s]" % (self.dep, ",".join(self.index))
        self._next = None  # next-higher jets by variable name, filled by higher()
        return self._seal(key)

    @property
    def order(self) -> int:
        return len(self.index)

    def extended(self, name: str) -> "Jet":
        """The jet one order higher, differentiated additionally by ``name``."""
        return Jet(self.dep, self.index + (name,))

    def higher(self, name: str) -> "Expression":
        """:meth:`extended` as an expression, built once per ``name`` and
        kept on this jet.  Two threads may both build it; the jets are equal."""
        nxt = self._next
        if nxt is None:
            nxt = self._next = {}
        got = nxt.get(name)
        if got is None:
            got = nxt[name] = as_expression(self.extended(name))
        return got


class Param(Atom):
    """A named constant."""

    __slots__ = ("name",)
    rank = 2
    _fields = ("name",)

    def __new__(cls, name: str):
        ref = _TABLE.get((2, name))
        if ref is not None and (got := ref()) is not None:
            return got
        self = object.__new__(cls)
        self.name = self._text = _check_name(name, "parameter")
        return self._seal((2, name))


class Func(Atom):
    """An applied function symbol with slot-indexed derivative markers.

    ``dindex`` is a sorted tuple of 1-based argument positions; each entry
    marks one differentiation with respect to that slot.  Arguments are full
    expressions, so composed values like ``a1(R(y), S(z))`` are atoms here.
    """

    __slots__ = ("name", "arity", "dindex", "args")
    rank = 3
    _fields = ("name", "args", "dindex")

    def __new__(cls, name: str, args: Sequence[ExpressionLike], dindex: Iterable[int] = ()):
        args = tuple(map(as_expression, args))
        dindex = tuple(sorted(dindex))
        key = (3, name, dindex, args)
        ref = _TABLE.get(key)
        if ref is not None and (got := ref()) is not None:
            return got
        self = object.__new__(cls)
        self.name = _check_name(name, "function")
        self.args = args
        self.arity = len(args)
        if self.arity == 0:
            raise ValueError(f"function {name!r} needs at least one argument")
        self.dindex = dindex
        for s in dindex:
            if not isinstance(s, int) or not 1 <= s <= self.arity:
                raise ValueError(f"derivative slot {s!r} outside 1..{self.arity} for {name!r}")
        head = name if not dindex else "D[%s,%s]" % (name, ",".join(str(s) for s in dindex))
        self._text = head + "(" + ",".join(a.text for a in args) + ")"
        return self._seal(key)

    def children(self):
        return self.args

    def rebuilt(self, children):
        return Func(self.name, children, self.dindex)

    def slot_derivative(self, slot: int) -> "Func":
        return Func(self.name, self.args, self.dindex + (slot,))


class Antideriv(Atom):
    """An unevaluated antiderivative of ``integrand`` with respect to ``var``.

    Differentiating by ``var`` returns the integrand; differentiating by
    anything else passes under the integral sign.
    """

    __slots__ = ("integrand", "var")
    rank = 4
    _fields = ("integrand", "var")

    def __new__(cls, integrand: ExpressionLike, var: str):
        integrand = as_expression(integrand)
        key = (4, var, integrand)
        ref = _TABLE.get(key)
        if ref is not None and (got := ref()) is not None:
            return got
        self = object.__new__(cls)
        self.integrand = integrand
        self.var = _check_name(var, "integration variable")
        self._text = "int(%s,%s)" % (integrand.text, var)
        return self._seal(key)

    def children(self):
        return (self.integrand,)

    def rebuilt(self, children):
        return Antideriv(children[0], self.var)


class Log(Atom):
    """A natural logarithm, keyed by the normal form of its argument."""

    __slots__ = ("arg",)
    rank = 5
    _fields = ("arg",)

    def __new__(cls, arg: ExpressionLike):
        arg = as_expression(arg)
        key = (5, arg)
        ref = _TABLE.get(key)
        if ref is not None and (got := ref()) is not None:
            return got
        self = object.__new__(cls)
        self.arg = arg
        if arg.is_zero():
            raise ZeroDenominatorError("log of an expression that normalizes to zero")
        self._text = "log(%s)" % arg.text
        return self._seal(key)

    def children(self):
        return (self.arg,)

    def rebuilt(self, children):
        return Log(children[0])


# ---------------------------------------------------------------------------
# Monomials


class Monomial:
    """A product of atom powers and at most one exponential factor.

    ``atoms`` is a tuple of ``(atom, power)`` pairs with positive integer
    powers, sorted by the atom ordering key.  ``exparg`` is the exponential's
    argument expression, or ``None`` when there is no exponential factor.
    The constructor adds up the powers of an atom given more than once.

    Monomials are hash-consed like atoms: every way of building one returns
    the one stored monomial of its atoms and exponential argument, so two
    monomials are equal exactly when they are one object, and they compare
    and hash as objects.  The print order key and the cofactors are kept on
    the monomial.
    """

    __slots__ = ("atoms", "exparg", "_key", "_cof", "__weakref__")

    def __new__(cls, atoms: Iterable[tuple[Atom, int]] = (), exparg: "Expression | None" = None):
        powers: dict[Atom, int] = {}
        for a, p in atoms:
            if type(p) is not int:
                raise ValueError(f"power {p!r} is not an integer")
            powers[a] = powers.get(a, 0) + p
        pairs = [(a, p) for a, p in powers.items() if p]
        if any(p < 0 for _, p in pairs):
            raise ValueError("monomial powers must be positive")
        pairs.sort(key=lambda ap: ap[0]._skey)
        if exparg is not None and exparg.is_zero():
            exparg = None
        return Monomial._raw(tuple(pairs), exparg)

    @staticmethod
    def _raw(atoms: tuple, exparg: "Expression | None") -> "Monomial":
        # trusted constructor: atoms already sorted, powers positive, exparg
        # already None when zero; skips all validation on the hot paths
        key = atoms if exparg is None else (atoms, exparg)
        ref = _MONOMIALS.get(key)
        if ref is not None and (m := ref()) is not None:
            return m
        m = object.__new__(Monomial)
        m.atoms = atoms
        m.exparg = exparg
        m._key = None
        m._cof = None  # cofactors by atom, filled by cofactor()
        return _interned(_MonomialRef, key, m)

    def order_key(self):
        # a print order, not a monomial order: x*z < y^2 but x^2*z > x*y^2.
        # Total: exponential arguments that print alike compare by structure
        if self._key is None:
            ea = self.exparg
            ek = () if ea is None else (ea.text, ea)
            self._key = (tuple((a._skey, p) for a, p in self.atoms), ek)
        return self._key

    def __repr__(self):
        return "Monomial(%s)" % self.text("1")

    def __reduce__(self):
        # through the constructor, so a copy or an unpickled monomial is the
        # stored one
        return Monomial, (self.atoms, self.exparg)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.atoms, other.atoms
        if not a:
            if self.exparg is None:
                return other
            merged = b
        elif not b:
            if other.exparg is None:
                return self
            merged = a
        else:
            # both sides are sorted by the atom ordering key; merge them,
            # adding the powers of one atom, which is one object
            out = []
            i = j = 0
            na, nb = len(a), len(b)
            while i < na and j < nb:
                pa = a[i]
                pb = b[j]
                xa = pa[0]
                if xa is pb[0]:
                    out.append((xa, pa[1] + pb[1]))
                    i += 1
                    j += 1
                elif xa._skey < pb[0]._skey:
                    out.append(pa)
                    i += 1
                else:
                    out.append(pb)
                    j += 1
            out.extend(a[i:])
            out.extend(b[j:])
            merged = tuple(out)
        if self.exparg is None:
            ea = other.exparg
        elif other.exparg is None:
            ea = self.exparg
        else:
            ea = self.exparg + other.exparg
            if ea.is_zero():
                ea = None
        return Monomial._raw(merged, ea)

    def without(self, powers: Mapping[Atom, int]) -> "Monomial":
        """The monomial divided by the given atom powers, which must divide
        it exactly; raises ``ValueError`` otherwise."""
        out = []
        met = 0
        for a, p in self.atoms:
            q = powers.get(a)
            if q is not None:
                met += 1
                p -= q
                if p < 0:
                    raise ValueError("monomial division is not exact")
            if p:
                out.append((a, p))
        if met != len(powers):  # a divisor atom this monomial lacks
            raise ValueError("monomial division is not exact")
        return Monomial._raw(tuple(out), self.exparg)

    def cofactor(self, atom: Atom) -> "Monomial":
        """The monomial divided by ``atom`` once, which it must contain; kept
        on this monomial once asked for.  Two threads may both build it; the
        monomials are one object."""
        cof = self._cof
        if cof is None:
            cof = self._cof = {}
        got = cof.get(atom)
        if got is None:
            got = cof[atom] = self.without({atom: 1})
        return got

    def shifted_exp(self, delta: "Expression") -> "Monomial":
        """The monomial with ``delta`` added to its exponential argument."""
        ea = delta if self.exparg is None else self.exparg + delta
        if ea.is_zero():
            ea = None
        return Monomial._raw(self.atoms, ea)

    def is_one(self) -> bool:
        return not self.atoms and self.exparg is None

    def text(self, coeff_text: str) -> str:
        parts = []
        if coeff_text != "1" or (not self.atoms and self.exparg is None):
            parts.append(coeff_text)
        for a, p in self.atoms:
            parts.append(a.text if p == 1 else "%s^%d" % (a.text, p))
        if self.exparg is not None:
            parts.append("exp(%s)" % self.exparg.text)
        return "*".join(parts)


_ONE_M = None  # set after Expression exists; Monomial((), None) needs ZERO


# ---------------------------------------------------------------------------
# Polynomial helpers.  A polynomial is a dict {Monomial: int} with no
# zero coefficients.  The dicts are private to Expression and never mutated
# after construction, so ``_pscale``, ``_pmul`` and ``_ppow`` may return an
# input dict itself.  A product with a constant side skips the double loop
# (``_pmul`` scales, ``Monomial.__mul__`` returns the other factor); the
# shortcut is exact and gives the same keys in the same insertion order,
# which fixes the structure of later sums.


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pneg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _pscale(a: dict, c: int) -> dict:
    if c == 1:
        return a
    return {m: v * c for m, v in a.items()}


def _pmul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (m, c), = a.items()
        if m.is_one():
            return _pscale(b, c)
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma * mb
            c = ca * cb
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _ppow(a: dict, k: int) -> dict:
    result = None
    sq = a
    while k:
        if k & 1:
            result = sq if result is None else _pmul(result, sq)
        k >>= 1
        if k:
            sq = _pmul(sq, sq)
    if result is None:
        return _ONE_P
    return result


def _plead(a: dict) -> Monomial:
    return max(a, key=Monomial.order_key)


def _pdiv_exact(b: dict, a: dict) -> tuple[dict, int] | None:
    """``(q, k)`` with ``a*q == k*b``, ``q`` an integer polynomial and ``k`` a
    positive int, when ``a`` divides ``b`` exactly; otherwise ``None``.

    The division runs in graded lex order over the atoms ranked by ``_skey``.
    Each monomial is packed into one int: its total degree in the top field,
    then one field per atom of ``b``, the first atom most significant, and a
    guard bit above every field.  Int order is then the monomial order, a
    product of monomials is a sum, and a quotient is a difference whose guard
    bits all survive.  Polynomials with exponential factors are divided only
    when they are proportional, which the first check finds.
    """
    if len(a) == len(b):
        # proportional, a*cb == b*ca: a constant quotient, exponentials or not
        m0, ca = next(iter(a.items()))
        cb = b.get(m0, 0)
        if cb and all(ca * b.get(m, 0) == cb * c for m, c in a.items()):
            g = gcd(ca, cb) if ca > 0 else -gcd(ca, cb)
            return {_ONE_M: cb // g}, ca // g
    atoms = set()
    deg_b = 0
    for m in b:
        if m.exparg is not None:
            return None
        d = 0
        for x, p in m.atoms:
            atoms.add(x)
            d += p
        deg_b = max(deg_b, d)
    for m in a:
        if m.exparg is not None:
            return None
        d = 0
        for x, p in m.atoms:
            if x not in atoms:
                return None
            d += p
        if d > deg_b:
            return None
    # no exponent or degree met in the division exceeds deg_b, so fields hold
    width = deg_b.bit_length() + 1
    order = sorted(atoms, key=lambda x: x._skey)
    n = len(order)
    shift = {x: width * (n - 1 - i) for i, x in enumerate(order)}
    deg_shift = width * n
    guards = sum(1 << (width * i + width - 1) for i in range(n + 1))

    def pack(m):
        t = 0
        for x, p in m.atoms:
            t += (p << shift[x]) + (p << deg_shift)
        return t

    r = {pack(m): c for m, c in b.items()}
    rest = sorted(((pack(m), c) for m, c in a.items()), reverse=True)
    lead, la = rest.pop(0)
    q: dict = {}
    k = 1
    while r:
        top = max(r)
        c = r.pop(top)
        t = (top | guards) - lead
        if t & guards != guards:
            return None
        if c % la:
            s = abs(la) // gcd(c, la)
            r = {m: v * s for m, v in r.items()}
            q = {m: v * s for m, v in q.items()}
            k *= s
            c *= s
        t ^= guards
        tc = c // la
        q[t] = tc
        for u, cu in rest:
            u += t
            v = r.get(u, 0) - tc * cu
            if v:
                r[u] = v
            else:
                del r[u]
    mask = (1 << width) - 1
    return {Monomial._raw(tuple((x, p) for x in order
                                if (p := t >> shift[x] & mask)), None): c
            for t, c in q.items()}, k


def _monic(p: dict, lc: int) -> dict:
    """``p`` divided by ``lc``, with Fraction coefficients when ``lc != 1``."""
    if lc == 1:
        return p
    return {m: Fraction(c, lc) for m, c in p.items()}


# ---------------------------------------------------------------------------
# Expressions


@total_ordering
class Expression:
    """A normal-form quotient of two polynomials over the atoms.

    Construct values through the factory functions (:func:`var`, :func:`jet`,
    :func:`func`, ...) and arithmetic operators; the constructor itself is an
    internal entry point that normalizes a raw numerator/denominator pair of
    integer polynomials.
    """

    __slots__ = ("_num", "_den", "_lc", "_hash", "_text", "_deps")

    def __init__(self, num: dict, den: dict):
        self._num, self._den, self._lc = _canonical(num, den)
        self._hash = None
        self._text = None
        self._deps = None

    # -- inspection

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        """True when the expression is one.

        The normal form collapses a numerator proportional to its denominator
        to a constant, so ``num == den`` holds exactly when ``== ONE`` does.
        """
        return self._num == self._den

    def is_constant(self) -> bool:
        return (not self._num or (len(self._num) == 1 and _ONE_M in self._num)) \
            and _constant_den(self)

    def num_terms(self) -> tuple[tuple[Fraction, Monomial], ...]:
        """Numerator terms of the monic view, leading monomial first."""
        return _terms(self._num, self._lc)

    def den_terms(self) -> tuple[tuple[Fraction, Monomial], ...]:
        """Denominator terms of the monic view; the first has coefficient one."""
        return _terms(self._den, self._lc)

    def numerator(self) -> "Expression":
        """The numerator of the monic view, as a polynomial."""
        return Expression(self._num, {_ONE_M: self._lc})

    def denominator(self) -> "Expression":
        """The denominator of the monic view, as a polynomial."""
        return Expression(self._den, {_ONE_M: self._lc})

    def integer_form(self) -> tuple[dict, dict, int]:
        """``(num, den, lc)``: the stored polynomials ``{Monomial: int}`` and
        the leading denominator coefficient.  The expression is ``num/den``
        and the monic view divides both by ``lc``.  Do not mutate the dicts.
        """
        return self._num, self._den, self._lc

    @property
    def text(self) -> str:
        if self._text is None:
            num = _poly_text(_monic(self._num, self._lc))
            if _constant_den(self):
                self._text = num
            else:
                self._text = "(%s)/(%s)" % (num, _poly_text(_monic(self._den, self._lc)))
        return self._text

    def __repr__(self):
        return self.text

    def __str__(self):
        return self.text

    def to_tree(self):
        """A JSON-ready atom table of the normal form, stable across runs.

        ``"atoms"`` lists each distinct atom once, inner atoms first.  ``"num"``
        and ``"den"`` are term lists of the monic view with factors ``[atom
        index, power]``; function, integral and log arguments (in the table)
        and exponential arguments (inline) are ``{"num", "den"}`` pairs.
        """
        # _below strictly grows outward, so inner atoms sort first; text breaks ties
        table = sorted(_reach(self), key=lambda a: (len(_below(a)), a._skey))
        index = {a: i for i, a in enumerate(table)}
        return {"atoms": [_atom_tree(a, index) for a in table], **_expr_tree(self, index)}

    @classmethod
    def from_tree(cls, tree) -> "Expression":
        """The expression a :meth:`to_tree` table describes; its exact inverse.

        An atom entry may name only entries listed before it.  Raises
        ``ValueError`` on a table that does not describe an expression.
        """
        try:
            table = []
            for t in tree["atoms"]:
                table.append(_tree_atom(t, table))
            return _tree_expr(tree, table)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"unreadable expression tree: {exc!r}") from None

    # -- identity

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = as_expression(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((
                frozenset(self._num.items()),
                frozenset(self._den.items()),
            ))
        return self._hash

    def __lt__(self, other):
        # by the text of the atom tables, which are exactly invertible;
        # atoms that print alike compare their children by it in ``_skey``
        if not isinstance(other, Expression):
            return NotImplemented
        return repr(self.to_tree()) < repr(other.to_tree())

    def __reduce__(self):
        # hashes are of monomial ids, so a copy, above all one unpickled in
        # another process, rebuilds its monomials and hashes afresh
        return Expression, (self._num, self._den)

    # -- arithmetic

    def __add__(self, other) -> "Expression":
        other = as_expression(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = self._den, other._den
        if a == b:
            return Expression(_padd(self._num, other._num), a)
        # one denominator divides the other, a*q == k*b: the larger serves both.
        # Over a constant denominator this is what cross-multiplying gives.
        if not (_constant_den(self) or _constant_den(other)):
            if len(a) <= len(b) and (got := _pdiv_exact(b, a)):
                q, k = got
                return Expression(
                    _padd(_pmul(self._num, q), _pscale(other._num, k)), _pscale(b, k))
            if len(b) <= len(a) and (got := _pdiv_exact(a, b)):
                q, k = got
                return Expression(
                    _padd(_pscale(self._num, k), _pmul(other._num, q)), _pscale(a, k))
        return Expression(_padd(_pmul(self._num, b), _pmul(other._num, a)), _pmul(a, b))

    __radd__ = __add__

    def __neg__(self) -> "Expression":
        return Expression(_pneg(self._num), self._den)

    def __sub__(self, other) -> "Expression":
        return self.__add__(as_expression(other).__neg__())

    def __rsub__(self, other) -> "Expression":
        return as_expression(other).__sub__(self)

    def __mul__(self, other) -> "Expression":
        other = as_expression(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        return Expression(_pmul(self._num, other._num), _pmul(self._den, other._den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expression":
        other = as_expression(other)
        if other.is_zero():
            raise ZeroDenominatorError("division by an expression that normalizes to zero")
        if self.is_zero():
            return ZERO
        return Expression(_pmul(self._num, other._den), _pmul(self._den, other._num))

    def __rtruediv__(self, other) -> "Expression":
        return as_expression(other).__truediv__(self)

    def __pow__(self, k: int) -> "Expression":
        if not isinstance(k, int):
            raise UnsupportedAtomError("only integer powers are supported")
        if k == 0:
            return ONE
        if k < 0:
            if self.is_zero():
                raise ZeroDenominatorError("negative power of zero")
            return Expression(_ppow(self._den, -k), _ppow(self._num, -k))
        if k == 1:
            return self
        return Expression(_ppow(self._num, k), _ppow(self._den, k))


def _canonical(num: dict, den: dict) -> tuple[dict, dict, int]:
    """Normalize a raw numerator/denominator pair and return it with the
    leading denominator coefficient.  See the module docstring."""
    if not den:
        raise ZeroDenominatorError("denominator normalizes to zero")
    if not num:
        return {}, _ONE_P, 1
    # a constant denominator, the common case, has no atom power or
    # exponential factor to share with the numerator; only the content goes
    if len(den) > 1 or not next(iter(den)).is_one():
        num, den = _cancel_factors(num, den)
        if len(num) == len(den):
            # p/p: a numerator proportional to the denominator is a constant
            m0, d0 = next(iter(den.items()))
            c0 = num.get(m0)
            if c0 is not None and all(num.get(m, 0) * d0 == c0 * d for m, d in den.items()):
                num, den = {_ONE_M: c0}, {_ONE_M: d0}

    # divide out the content, signed so the leading denominator coefficient
    # ends up positive; a coefficient of one leaves nothing to divide
    lc = den[_plead(den)] if len(den) > 1 else next(iter(den.values()))
    if lc != 1:
        g = gcd(*num.values(), *den.values())
        if lc < 0:
            g = -g
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den = {m: c // g for m, c in den.items()}
            lc //= g
    return num, den, lc


def _cancel_factors(num: dict, den: dict) -> tuple[dict, dict]:
    """Cancel the monomial and exponential factors shared by a nonzero
    numerator/denominator pair."""
    # cancel atom powers present in every monomial of both polynomials
    common: dict | None = None
    for m in chain(den, num):
        if common is None:
            common = dict(m.atoms)
        else:
            common = {a: min(p, common[a]) for a, p in m.atoms if a in common}
        if not common:
            break
    if common:
        num = {m.without(common): c for m, c in num.items()}
        den = {m.without(common): c for m, c in den.items()}

    # cancel exponential factors jointly: shift every exponential argument in
    # both polynomials by minus the mean of the denominator's arguments.  The
    # mean is equivariant under joint shifts, so the normalized pair has
    # denominator mean zero and a second pass is a no-op; any argument part
    # shared by all denominator monomials cancels completely.  For a
    # single-monomial denominator this strips its exponential outright.
    if any(m.exparg is not None for m in den):
        total = ZERO
        for m in den:
            if m.exparg is not None:
                total = total + m.exparg
        delta = total / -len(den)
        if not delta.is_zero():
            num = {m.shifted_exp(delta): c for m, c in num.items()}
            den = {m.shifted_exp(delta): c for m, c in den.items()}
    return num, den


def _constant_den(e: Expression) -> bool:
    return len(e._den) == 1 and _ONE_M in e._den


def _over(e: Expression, k: int) -> Expression:
    """``e / k`` for a nonzero integer ``k``."""
    return e if k == 1 else Expression(e._num, _pscale(e._den, k))


def _terms(p: dict, lc: int) -> tuple:
    return tuple(
        (Fraction(p[m], lc), m) for m in sorted(p, key=Monomial.order_key, reverse=True))


def _from_rational(num: dict, den: dict) -> Expression:
    """``num/den`` for polynomials with Fraction coefficients."""
    k = lcm(*(c.denominator for c in chain(num.values(), den.values())))
    return Expression({m: c.numerator * (k // c.denominator) for m, c in num.items()},
                      {m: c.numerator * (k // c.denominator) for m, c in den.items()})


# the constant monomial must exist before ZERO/ONE below
_ONE_M = Monomial((), None)
_ONE_P = {_ONE_M: 1}  # the polynomial 1; shared, never mutated

ZERO = Expression({}, _ONE_P)
ONE = Expression(_ONE_P, _ONE_P)


# ---------------------------------------------------------------------------
# Construction


def as_expression(x: ExpressionLike) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, Atom):
        return Expression({Monomial._raw(((x, 1),), None): 1}, _ONE_P)
    if isinstance(x, int):
        return Expression({_ONE_M: x}, _ONE_P) if x else ZERO
    if isinstance(x, Fraction):
        return Expression({_ONE_M: x.numerator}, {_ONE_M: x.denominator}) if x else ZERO
    raise UnsupportedAtomError(f"cannot interpret {x!r} as an expression")


def as_atom(x) -> Atom:
    """Extract the atom from a bare-atom expression (or pass an atom through)."""
    if isinstance(x, Atom):
        return x
    if isinstance(x, Expression) and (a := _bare_atom(x)) is not None:
        return a
    raise UnsupportedAtomError(f"{x!r} is not a bare atom")


def _bare_atom(e: Expression) -> Atom | None:
    """The atom ``e`` is, when it is one atom to the first power."""
    if len(e._num) == 1 and e._lc == 1 and _constant_den(e):
        (m, c), = e._num.items()
        if c == 1 and m.exparg is None and len(m.atoms) == 1 and m.atoms[0][1] == 1:
            return m.atoms[0][0]
    return None


def var(name: str) -> Expression:
    return as_expression(Var(name))


def param(name: str) -> Expression:
    return as_expression(Param(name))


def jet(dep: str, *index: str) -> Expression:
    return as_expression(Jet(dep, index))


def func(name: str, *args: ExpressionLike, d: Iterable[int] = ()) -> Expression:
    return as_expression(Func(name, args, d))


def antiderivative(integrand: ExpressionLike, variable: str) -> Expression:
    integrand = as_expression(integrand)
    if integrand.is_zero():
        return ZERO
    return as_expression(Antideriv(integrand, variable))


def log(arg: ExpressionLike) -> Expression:
    return as_expression(Log(arg))


def exp(arg: ExpressionLike) -> Expression:
    arg = as_expression(arg)
    if arg.is_zero():
        return ONE
    return Expression({Monomial((), arg): 1}, _ONE_P)


def fraction(p: int, q: int = 1) -> Expression:
    return as_expression(Fraction(p, q))


def from_monomial(m: Monomial, coeff: int | Fraction = 1) -> Expression:
    """The expression ``coeff * m``."""
    c = Fraction(coeff)
    if not c:
        return ZERO
    return Expression({m: c.numerator}, {_ONE_M: c.denominator})


def _pairwise(items: list, add):
    """``add`` over a nonempty list in balanced pairs: neighbours first, an
    odd last item passed up a level."""
    while len(items) > 1:
        items = [
            add(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def expr_sum(terms: Iterable[ExpressionLike]) -> Expression:
    """Sum with balanced pairing; kinder than a linear fold for long lists."""
    items = [t for t in map(as_expression, terms) if not t.is_zero()]
    return _pairwise(items, operator.add) if items else ZERO


def expr_prod(factors: Iterable[ExpressionLike]) -> Expression:
    items = [as_expression(f) for f in factors]
    out = ONE
    for f in items:
        out = out * f
    return out


def normalize(e: ExpressionLike) -> Expression:
    """The normal form of ``e``.  Idempotent; expressions are built normalized."""
    return as_expression(e)


# ---------------------------------------------------------------------------
# Printing


def _coeff_text(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def _poly_text(p: dict) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=Monomial.order_key, reverse=True):
        c = p[m]
        body = m.text(_coeff_text(abs(c)))
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _expr_tree(e: "Expression", index: dict):
    return {"num": _poly_tree(_monic(e._num, e._lc), index),
            "den": _poly_tree(_monic(e._den, e._lc), index)}


def _atom_tree(a: Atom, index: dict):
    if isinstance(a, Var):
        return {"kind": "var", "name": a.name}
    if isinstance(a, Param):
        return {"kind": "param", "name": a.name}
    if isinstance(a, Jet):
        return {"kind": "jet", "dep": a.dep, "index": list(a.index)}
    if isinstance(a, Func):
        return {"kind": "func", "name": a.name, "d": list(a.dindex),
                "args": [_expr_tree(x, index) for x in a.args]}
    if isinstance(a, Antideriv):
        return {"kind": "int", "var": a.var, "integrand": _expr_tree(a.integrand, index)}
    if isinstance(a, Log):
        return {"kind": "log", "arg": _expr_tree(a.arg, index)}
    raise UnsupportedAtomError(f"unknown atom {a!r}")


def _poly_tree(p: dict, index: dict):
    out = []
    for m in sorted(p, key=Monomial.order_key, reverse=True):
        term = {"coeff": _coeff_text(p[m]), "factors": [[index[a], k] for a, k in m.atoms]}
        if m.exparg is not None:
            term["exp"] = _expr_tree(m.exparg, index)
        out.append(term)
    return out


def _tree_expr(tree, table: list) -> Expression:
    return _from_rational(_tree_poly(tree["num"], table), _tree_poly(tree["den"], table))


def _tree_poly(terms, table: list) -> dict:
    out: dict = {}
    for term in terms:
        factors = []
        for i, k in term["factors"]:
            if type(i) is not int or not 0 <= i < len(table):
                raise ValueError(f"atom index {i!r} names no earlier atom")
            factors.append((table[i], k))
        m = Monomial(factors, _tree_expr(term["exp"], table) if "exp" in term else None)
        out[m] = out.get(m, 0) + Fraction(term["coeff"])
    return {m: c for m, c in out.items() if c}


def _tree_atom(t, table: list) -> Atom:
    kind = t["kind"]
    if kind == "var":
        return Var(t["name"])
    if kind == "param":
        return Param(t["name"])
    if kind == "jet":
        if not isinstance(t["index"], list):
            raise ValueError(f"jet index {t['index']!r} is not a list")
        return Jet(t["dep"], t["index"])
    if kind == "func":
        return Func(t["name"], [_tree_expr(x, table) for x in t["args"]], t["d"])
    if kind == "int":
        return Antideriv(_tree_expr(t["integrand"], table), t["var"])
    if kind == "log":
        return Log(_tree_expr(t["arg"], table))
    raise ValueError(f"unknown atom kind {kind!r}")


# ---------------------------------------------------------------------------
# Reachable atoms: one iterative walk, so nesting depth costs no Python stack


def _atoms_of(exprs):
    """Yield the atoms of the monomials of ``exprs`` and of their exponential
    arguments, without looking inside atoms; repeats are yielded again."""
    todo = list(exprs)
    seen = set()
    while todo:
        x = todo.pop()
        for m in chain(x._num, x._den):
            for a, _ in m.atoms:
                yield a
            if m.exparg is not None and m.exparg not in seen:
                seen.add(m.exparg)
                todo.append(m.exparg)


def _below(a: Atom) -> tuple:
    """The distinct atoms inside ``a`` at any depth, cached on composite atoms
    (filled children first from an explicit stack); ``()`` for a leaf atom.
    The order is that of a set, of ids: callers use it as a set."""
    if a._below is None and a.children():
        stack = [a]
        while stack:
            b = stack[-1]
            if b._below is None:
                inner = set(_atoms_of(b.children()))
                todo = [c for c in inner if c._below is None and c.children()]
                if todo:
                    stack += todo
                    continue
                b._below = tuple(inner.union(*(c._below for c in inner if c._below)))
            stack.pop()
    return a._below or ()


def _reach(e: Expression) -> set:
    """Every distinct atom ``e`` reaches, inside atoms and exponentials too."""
    out = set(_atoms_of((e,)))
    return out.union(*map(_below, out))


# ---------------------------------------------------------------------------
# Differentiation


def _atom_derivative(a: Atom, d) -> Expression:
    """The derivation ``d`` applied to one atom.

    ``d`` is a dict (Var, Jet or Param atom -> coefficient) or a derivation
    that answers one atom at a time: ``d.get(atom, ZERO)`` gives an atom's
    coefficient, and ``d.entries(integrand)`` lists, in a fixed order, the
    atoms and coefficients an antiderivative's integrand can meet.
    """
    if isinstance(a, (Var, Jet, Param)):
        return d.get(a, ZERO)
    if isinstance(a, Func):
        terms = []
        for s, arg in enumerate(a.args, start=1):
            da = _derive(arg, d)
            if not da.is_zero():
                terms.append(da * as_expression(a.slot_derivative(s)))
        return expr_sum(terms)
    if isinstance(a, Antideriv):
        # the integral sign commutes with each partial, not with coefficients
        # that may depend on the integration variable
        v = Var(a.var)
        terms = []
        for x, c in (d.items() if isinstance(d, dict) else d.entries(a.integrand)):
            t = a.integrand if x == v else antiderivative(_derive(a.integrand, {x: ONE}), a.var)
            terms.append(c * t)
        return expr_sum(terms)
    if isinstance(a, Log):
        da = _derive(a.arg, d)
        if da.is_zero():
            return ZERO
        return da / a.arg
    raise UnsupportedAtomError(f"cannot differentiate atom {a!r}")


def _poly_partial(p: dict, d, cache: dict) -> Expression:
    """The derivation ``d`` (see :func:`_atom_derivative`) applied to the
    polynomial ``p``; ``cache`` holds the derivatives of the atoms met so far
    in one derivation."""
    terms = []
    for m, c in p.items():
        for a, k in m.atoms:
            da = cache.get(a)
            if da is None:
                da = cache[a] = _atom_derivative(a, d)
            if da._num:
                terms.append((_pmul(da._num, {m.cofactor(a): c * k}), da._den))
        if m.exparg is not None:
            de = _derive(m.exparg, d)
            if de._num:
                terms.append((_pmul(de._num, {m: c}), de._den))
    return _sum_terms(terms)


def _sum_terms(terms: list) -> Expression:
    """The sum of raw ``(num, den)`` terms, each nonzero.

    Over integer denominators the numerators are scaled to their lcm and
    paired as :func:`expr_sum` pairs, so the keys and their order are those
    of ``expr_sum`` over the normalized terms, which is built only once.
    Other denominators take ``expr_sum``: sums over exponential-bearing
    denominators depend on the order it pairs them in.
    """
    if not terms:
        return ZERO
    ks = [next(iter(den.values())) if len(den) == 1 and _ONE_M in den else 0
          for _, den in terms]
    if not all(ks):
        return expr_sum(Expression(num, den) for num, den in terms)
    k = lcm(*ks)
    return Expression(_pairwise([_pscale(num, k // d) for (num, _), d in zip(terms, ks)], _padd),
                      {_ONE_M: k})


def _derive(e: Expression, d) -> Expression:
    # the quotient rule, once; a denominator d leaves unchanged is not squared
    cache: dict[Atom, Expression] = {}
    dn = _poly_partial(e._num, d, cache)
    if _constant_den(e):
        return _over(dn, e._lc)
    dd = _poly_partial(e._den, d, cache)
    den = Expression(e._den, _ONE_P)
    if dd.is_zero():
        return dn / den
    num = Expression(e._num, _ONE_P)
    return (dn * den - num * dd) / (den * den)


def derive(e: ExpressionLike, derivation: Mapping) -> Expression:
    """The derivation ``sum_a c_a d/da`` applied to ``e``.

    ``derivation`` maps variables, jets or parameters (atoms or bare-atom
    expressions) to their coefficients ``c_a``.  Numerator and denominator
    are each differentiated once and meet in one quotient rule, so a total
    derivative costs one rule instead of one per atom it differentiates by.
    """
    e = as_expression(e)
    d = {}
    for x, c in derivation.items():
        x = as_atom(x)
        if not isinstance(x, (Var, Jet, Param)):
            raise UnsupportedAtomError(f"cannot differentiate with respect to {x!r}")
        d[x] = as_expression(c)
    return _derive(e, d)


def partial(e: ExpressionLike, x) -> Expression:
    """The partial derivative of ``e`` with respect to a variable, jet, or parameter.

    Atoms of the three kinds are mutually independent: differentiating by a
    jet treats every other jet (any other multi-index, any other dependent
    variable) as constant.  Function symbols follow the chain rule and pick
    up slot-derivative markers; antiderivatives differentiate back to their
    integrand on the integration variable.  This is :func:`derive` with the
    one coefficient ``1``.
    """
    return derive(e, {x: ONE})


# ---------------------------------------------------------------------------
# Substitution


class _SubstState:
    """Shared caches for one substitution pass.

    ``hit_fn`` decides whether an atom is affected at all; unaffected parts of
    the tree are reused as-is instead of being rebuilt.  ``rewrite(atom,
    state)`` returns the replacement of an affected atom, or None to rebuild
    the atom from its rewritten children.
    """

    __slots__ = ("hit_fn", "rewrite", "values", "hit_products")

    def __init__(self, hit_fn, rewrite):
        self.hit_fn = hit_fn
        self.rewrite = rewrite
        # atom -> its value in the pass, or None when nothing in it is affected
        self.values: dict[Atom, Expression | None] = {}
        # hit (atom, power) pairs of a monomial -> raw (num, den) of their product
        self.hit_products: dict[tuple, tuple[dict, dict]] = {}

    def hits(self, a: Atom) -> bool:
        """Whether ``a`` or an atom inside it is affected."""
        got = self.values.get(a, a)  # ``a`` itself: not looked at yet
        if got is a:
            if self.hit_fn(a) or any(map(self.hit_fn, _below(a))):
                return True
            got = self.values[a] = None
        return got is not None

    def mentions(self, e: Expression) -> bool:
        """Whether ``e`` reaches an affected atom."""
        return any(map(self.hits, _atoms_of((e,))))


def substitute(e: ExpressionLike, bindings: Mapping) -> Expression:
    """Simultaneous substitution of expressions for atoms.

    Keys may be atoms or bare-atom expressions; matching looks at the original
    expression only, so swaps like ``{t: x, x: t}`` behave as expected.  The
    substitution recurses into function arguments, integrands, logarithm
    arguments, and exponential arguments.
    """
    e = as_expression(e)
    binds = {as_atom(k): as_expression(v) for k, v in bindings.items()}
    if not binds:
        return e

    def rewrite(a: Atom, state: _SubstState) -> Expression | None:
        hit = binds.get(a)
        if hit is None and isinstance(a, Antideriv) and Var(a.var) in binds:
            # rebinding the integration variable is a change of variables,
            # which plain substitution must not pretend to perform
            raise UnsupportedAtomError(
                f"cannot substitute for integration variable {a.var!r}")
        return hit

    return _subst_expr(e, _SubstState(lambda a: a in binds, rewrite))


def substitute_functions(e: ExpressionLike, bindings: Mapping[str, tuple[Sequence[str], ExpressionLike]]) -> Expression:
    """Replace function symbols by concrete expressions in formal slot variables.

    ``bindings`` maps a function base name to ``(slot_names, body)``; every
    applied occurrence, including ones carrying derivative markers, becomes
    the correspondingly differentiated body composed with the (recursively
    rewritten) arguments.
    """
    e = as_expression(e)
    binds = {
        name: (tuple(slots), as_expression(body))
        for name, (slots, body) in bindings.items()
    }
    for name, (slots, body) in binds.items():
        extra = dependency_closure(body).variables - set(slots)
        if extra:
            raise ValueError(
                f"body for {name!r} uses variables {sorted(extra)} outside its slots")

    def bound(a: Atom) -> bool:
        return isinstance(a, Func) and a.name in binds

    def rewrite(a: Atom, state: _SubstState) -> Expression | None:
        if not bound(a):
            return None
        slots, body = binds[a.name]
        if len(slots) != a.arity:
            raise ValueError(
                f"binding for {a.name!r} has {len(slots)} slots, atom has arity {a.arity}")
        for s in reversed(a.dindex):
            body = partial(body, Var(slots[s - 1]))
        args = [_subst_expr(x, state) for x in a.args]
        return substitute(body, {Var(n): v for n, v in zip(slots, args)})

    return _subst_expr(e, _SubstState(bound, rewrite))


def rename_atoms(e: ExpressionLike, mapping: Mapping[Atom, Atom]) -> Expression:
    """``e`` with each key atom of ``mapping`` replaced by its value atom.

    Only the monomials of the numerator and the denominator are rewritten;
    atoms inside other atoms and exponential arguments are not looked at.
    Coefficients, ``lc`` and the order of the terms are kept and nothing is
    normalized again, so the result is the normal form of the renamed
    expression only under this precondition: the mapping is injective, no
    value is an atom of ``e`` that is not itself renamed, and each value sorts
    against every other atom of ``e`` as its key does.  Raises
    ``ValueError`` when a renamed monomial's atoms are out of ``_skey`` order
    or two monomials become one, which a mapping that breaks it can cause.

    One pass per polynomial looks each atom of each monomial up once.  A
    monomial none of whose atoms is a key goes into the result as it is; one
    that carries a key is rebuilt, and only its rebuilt atom tuple is checked
    for order, since the atoms of a monomial are strictly ascending before
    the rename.  Both refusals are unchanged: a check of every monomial's
    whole tuple refuses exactly the same mappings.
    """
    e = as_expression(e)
    if not mapping:
        return e

    get = mapping.get

    def rename(p: dict) -> dict:
        out = {}
        for m, c in p.items():
            atoms = m.atoms
            new = None
            for i, (a, k) in enumerate(atoms):
                b = get(a)
                if b is not None:
                    if new is None:
                        new = list(atoms)
                    new[i] = (b, k)
            if new is not None:
                prev = None
                for a, _ in new:
                    key = a._skey
                    if prev is not None and prev >= key:
                        raise ValueError(f"renaming {m!r} breaks the atom order")
                    prev = key
                m = Monomial._raw(tuple(new), m.exparg)
            out[m] = c
        if len(out) != len(p):
            raise ValueError("renaming merges two monomials")
        return out

    r = object.__new__(Expression)
    r._num, r._den, r._lc = rename(e._num), rename(e._den), e._lc
    r._hash = r._text = r._deps = None
    return r


def _subst_atom(a: Atom, state: _SubstState) -> Expression:
    got = state.values.get(a)
    if got is None:
        if not state.hits(a):
            return as_expression(a)
        got = state.rewrite(a, state)
        if got is None:
            got = as_expression(a.rebuilt([_subst_expr(k, state) for k in a.children()]))
        state.values[a] = got
    return got


def _subst_expr(e: Expression, state: _SubstState) -> Expression:
    a = _bare_atom(e)
    if a is not None:
        # an affected atom's value is a binding itself, already normal and rendered
        return _subst_atom(a, state) if state.hits(a) else e
    if not state.mentions(e):
        return e
    num = _subst_poly(e._num, state)
    if _constant_den(e):
        return _over(num, e._lc)
    den = _subst_poly(e._den, state)
    if den.is_zero():
        raise ZeroDenominatorError("substitution sent a denominator to zero")
    return num / den


def _subst_poly(p: dict, state: _SubstState) -> Expression:
    # a hit monomial multiplies its substituted powers out as raw integer
    # polynomials, one product per prefix of its hit atoms, kept for the pass:
    # the pass's one memo of products, so a power is raised only for a prefix
    # not yet seen, and a first power is the atom's value itself.  Its
    # untouched atoms and exponential then join as one monomial.  Each
    # factor is a monomial, so the keys come out in the order that
    # multiplying atom by atom gives.  Untouched monomials, whose exponential
    # argument substitutes to itself, form one last term.
    plain: dict = {}
    terms = []
    products = state.hit_products
    for m, c in p.items():
        hit, rest = [], []
        for ak in m.atoms:
            (hit if state.hits(ak[0]) else rest).append(ak)
        ea = m.exparg
        if ea is not None:
            ea = _subst_expr(ea, state)
        if not hit and ea is m.exparg:
            plain[m] = c
            continue
        hit = tuple(hit)
        i = len(hit)
        while i and (got := products.get(hit[:i])) is None:
            i -= 1
        num, den = got if i else (_ONE_P, _ONE_P)
        for j in range(i, len(hit)):
            ak = hit[j]
            power = _subst_atom(ak[0], state) ** ak[1]
            num, den = products[hit[:j + 1]] = _pmul(num, power._num), _pmul(den, power._den)
        if ea is not None and ea.is_zero():
            ea = None
        terms.append((_pmul(num, {Monomial._raw(tuple(rest), ea): c}), den))
    if plain:
        terms.append((plain, _ONE_P))
    return _sum_terms(terms)


# ---------------------------------------------------------------------------
# Collection


def _jet_monomial(e: Expression, dep: str | None = None, what: str = "") -> Monomial:
    """The monomial of ``e``, which must be one coefficient-one monomial in
    jet variables (of ``dep``, when given); the constant ``1`` is one.
    ``what`` names ``e`` at the head of a refusal."""
    if len(e._num) != 1 or not _constant_den(e):
        raise ValueError(f"{what}{e.text} is not a single monomial")
    (m, c), = e._num.items()
    if c != e._lc or m.exparg is not None:
        raise ValueError(f"{what}{e.text} is not a coefficient-one jet monomial")
    for a, _ in m.atoms:
        if not isinstance(a, Jet) or dep is not None and a.dep != dep:
            of = "" if dep is None else f" of {dep!r}"
            raise ValueError(f"{what}{e.text} contains {a!r}, not a jet{of}")
    return m


def _jet_groups(p: dict, deps: frozenset) -> dict[Monomial, dict]:
    """The terms of ``p`` grouped by their jet content: jet monomial ->
    {rest monomial: coefficient}."""
    groups: dict[Monomial, dict] = {}
    for m, c in p.items():
        jp, rest = [], []
        for ap in m.atoms:
            a = ap[0]
            (jp if isinstance(a, Jet) and a.dep in deps else rest).append(ap)
        # m is jp * rest, so no two terms land on the same pair
        jm = Monomial._raw(tuple(jp), None)
        groups.setdefault(jm, {})[Monomial._raw(tuple(rest), m.exparg)] = c
    return groups


def jet_split(e: ExpressionLike, deps: Iterable[str]) -> dict[Monomial, Expression]:
    """The numerator of ``e`` grouped by its jet content.

    Maps each monomial in the jet variables of the dependent variables
    ``deps`` that occurs in the numerator (the constant monomial for the
    jet-free terms) to the polynomial multiplying it, which is free of those
    jets.  The numerator is that of the monic view, :meth:`Expression.numerator`;
    the denominator is ignored.
    """
    e = as_expression(e)
    lc = {_ONE_M: e._lc}
    return {jp: Expression(g, lc) for jp, g in _jet_groups(e._num, frozenset(deps)).items()}


def collect_numerators(
    e: ExpressionLike, monomials: Sequence[ExpressionLike],
) -> tuple[dict, Expression, Expression]:
    """:func:`collect` before the division by the shared denominator.

    Each entry of ``monomials`` must pass the jet-monomial validator that
    families also use (``_jet_monomial``): a coefficient-one monomial whose
    atoms are all jet variables; the constant monomial ``1`` is allowed and
    collects the jet-free part.  Returns ``(numerators,
    residual, denominator)``, all polynomials, with ``e == (sum(numerators[m]
    * m) + residual) / denominator`` identically; the numerator of a listed
    monomial is the sum of the terms whose jet content equals it, so the
    numerators and the denominator are free of every collected jet variable.

    The normal form cancels only monomial factors, so the quotient of two
    coefficients ``N_j/D`` and ``N_L/D`` keeps ``D`` above and below;
    dividing ``N_j`` by ``N_L`` gives the same value without it.

    If the denominator itself contains jet variables of a collected dependent
    variable no attribution is possible; every numerator is then zero and the
    residual is the numerator of ``e``.
    """
    e = as_expression(e)
    given = [as_expression(m) for m in monomials]
    deps: set[str] = set()
    targets: dict[Monomial, Expression] = {}
    for ge in given:
        m = _jet_monomial(ge)
        deps.update(a.dep for a, _ in m.atoms)
        if m in targets:
            raise ValueError(f"duplicate monomial {ge.text}")
        targets[m] = ge

    den = e.denominator()
    if any(j.dep in deps for j in polynomial_jets(den)):
        return {ge: ZERO for ge in given}, e.numerator(), den
    lc = {_ONE_M: e._lc}
    groups = _jet_groups(e._num, frozenset(deps))
    nums = {ge: Expression(groups.pop(m, {}), lc) for m, ge in targets.items()}
    residual = Expression({jp * m: c for jp, g in groups.items() for m, c in g.items()}, lc)
    return nums, residual, den


def collect(e: ExpressionLike, monomials: Sequence[ExpressionLike]) -> tuple[dict, Expression]:
    """Split ``e`` into coefficients of the given jet monomials plus a residual.

    The coefficients and the residual are those of :func:`collect_numerators`
    divided by the denominator, so ``e == sum(coeff[m] * m) + residual`` holds
    identically; when the denominator contains collected jets every
    coefficient is zero and the residual is ``e``.
    """
    nums, residual, den = collect_numerators(e, monomials)
    return {ge: n / den for ge, n in nums.items()}, residual / den


# ---------------------------------------------------------------------------
# Dependencies


@dataclass(frozen=True)
class DependencySet:
    """What an expression can depend on, after normalization.

    ``variables`` are independent-variable names, ``jets`` the jet atoms that
    occur (anywhere, including inside function arguments), ``functions`` the
    function base names.  Parameters are constants and are not tracked.
    """

    variables: frozenset = field(default_factory=frozenset)
    jets: frozenset = field(default_factory=frozenset)
    functions: frozenset = field(default_factory=frozenset)

    def within(self, variables: Iterable[str], jets: Iterable[Jet]) -> bool:
        """True when variables and jets both fall inside the allowed sets."""
        return self.variables <= frozenset(variables) and self.jets <= frozenset(jets)


def dependency_closure(e: ExpressionLike) -> DependencySet:
    """The closed dependency set of the normal form of ``e``.

    Cancellation is honored because the walk happens over the normal form;
    composed function atoms contribute the closures of their arguments.  The
    set is read off the distinct atoms ``e`` reaches and cached on ``e``.
    """
    e = as_expression(e)
    if e._deps is None:
        vs, js, fs = set(), set(), set()
        for a in _reach(e):
            if isinstance(a, Var):
                vs.add(a.name)
            elif isinstance(a, Jet):
                vs.update(a.index)
                js.add(a)
            elif isinstance(a, Func):
                fs.add(a.name)
            elif isinstance(a, Antideriv):
                vs.add(a.var)
        e._deps = DependencySet(frozenset(vs), frozenset(js), frozenset(fs))
    return e._deps


def polynomial_jets(e: ExpressionLike, dep: str | None = None) -> frozenset:
    """Jet atoms occurring at the polynomial level of numerator or denominator.

    Unlike :func:`dependency_closure` this does not look inside function
    arguments: a composed symbol like ``T(y,z,w)`` is an opaque generator, so
    its ``w`` does not count.  This is the notion that matters when reading
    off coefficients of jet monomials.
    """
    e = as_expression(e)
    found = set()
    for m in chain(e._num, e._den):
        for a, _ in m.atoms:
            if isinstance(a, Jet) and (dep is None or a.dep == dep):
                found.add(a)
    return frozenset(found)


def closure_jets(e: ExpressionLike, dep: str) -> frozenset:
    """All jet atoms of ``dep`` in the closure, including inside arguments."""
    return frozenset(j for j in dependency_closure(e).jets if j.dep == dep)


def sign_canonical(e: ExpressionLike) -> Expression:
    """``e`` or ``-e``, whichever has a positive leading numerator coefficient.

    Vanishing conditions are sign-symmetric, so comparisons of "this
    expression must vanish" evidence go through this canonicalizer.
    """
    e = as_expression(e)
    if e.is_zero():
        return e
    if e._num[_plead(e._num)] < 0:
        return -e
    return e
