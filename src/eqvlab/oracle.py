"""Randomized cross-validation of symbolic identities.

Expressions are evaluated at random points after instantiating every function
symbol with a random polynomial, every parameter with a random constant, and
every dependent variable with a random polynomial in its independent
variables.  Jet symbols take the induced values: ``D[w, y, z]`` evaluates as
the mixed partial of the polynomial standing in for ``w``.  That keeps jets
consistent with the dependent variable, which is what total derivatives and
prolongation formulas assume.

Each check is compiled once (``_Program``): one slot per distinct atom it
reaches, inner atoms first, and each distinct expression as integer term
lists over those slots.  The program is read from :meth:`Expression.to_tree`
atom tables only: an :class:`Expression` is compiled from its own table, and
the tables of a state file are compiled as they stand, so a replay builds no
expression and does no kernel arithmetic, and it also sees what the kernel's
normal form would hide.  One pass over that program (``_Inventory``)
classifies the atoms, decides every stand-in's degree (``degree`` for
functions, at least 2 for dependents; the rule is stated there and nowhere
else), finds what needs real values, and bounds the degree of every value
the evaluator will form.  Every point then evaluates the same program
(``_Run``) in the check's arithmetic, each value once, in the order the
expressions ask for it; a slot derivative of a stand-in is its terms scaled
by a table of multipliers the program keeps per derivative.  The draws do
not depend on the program: one instantiation and one point per attempt.

* With no ``exp`` and no ``log``, the check runs in GF(p) for a prime p
  drawn from the check's seed, uniformly among the primes in [2^61, 2^62)
  (:func:`_draw_prime`).  Stand-ins are dense polynomials of the decided
  degrees, and their coefficients, the parameters and the point coordinates
  are uniform mod p.  A draw on which a denominator or an assumption is 0
  mod p is redrawn.  The check passes only if both sides are equal at every
  point; ``tol`` plays no part.  What a pass means: if the two sides differ
  as rational functions of the drawn values, the prime and all ``points``
  points miss it with probability at most ``miss_bound``: a term for a prime
  that divides the difference (Karp & Rabin, IBM J. Res. Dev. 1987) plus
  one for points that all agree (Schwartz, J. ACM 1980; Zippel, EUROSAM
  1979).  ``_Inventory.miss_bound`` derives both from degree and height
  bounds; it assumes nothing of how the tables are written, so two atoms
  the tables keep apart may be equal in value.  A check whose bound reaches
  1, so that a pass would certify nothing, errors out instead.  The
  statement is about stand-ins of those degrees: a difference that only
  shows for functions of higher degree is outside it.
* With an ``exp`` or a ``log``, the check runs in exact
  :class:`fractions.Fraction` arithmetic, with floats from the exp or log
  on, at rational points in [-2, 2] and with sparse small-rational
  stand-ins.  A point fails when
  ``|L - R| / (1 + max(|L|, |R|))`` exceeds ``tol``.  Denominators,
  assumptions and ``log`` arguments are guarded by a magnitude floor; a draw
  that violates it is redrawn.  A degree bound above 2^16, by the same
  count as in GF(p) and for each exp or log argument too, and values beyond
  the range of floating point are errors.  There is no miss bound; the
  result names what sent the check here (``CheckResult.float_rules``).

An antiderivative symbol is evaluated by running the same program on its
integrand, as a univariate polynomial in the integration variable over the
check's arithmetic (``_Polynomials``, the one place polynomial arithmetic
lives), and integrating that with constant term zero; an integrand that is
not a polynomial in that variable cannot be evaluated.  The choice of
constant never matters for the identities checked here because both sides
share the antiderivative atom itself.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from random import Random
from typing import Iterable, Mapping, Sequence

from .errors import AssumptionViolationError, EvaluationError
from .expressions import (
    Expression,
    ExpressionLike,
    _check_name,
    as_expression,
    expr_sum,
    var,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOL",
    "DEFAULT_POINTS",
    "ASSUMPTION_FLOOR",
    "RATIONALS",
    "PolyFunc",
    "Instantiation",
    "evaluate",
    "required_point_names",
    "draw_point",
    "fd_total",
    "CheckResult",
    "check_identity",
    "read_tables",
]

DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-6  # decides float-path checks only
DEFAULT_POINTS = 10
ASSUMPTION_FLOOR = Fraction(1, 10**6)
FD_STEP = Fraction(1, 10**5)
_PRIME_BITS = 61  # GF(p) primes are drawn from [2^61, 2^62)
# fewer primes than lie there: x/ln x < pi(x) < 1.25506 x/ln x (Rosser &
# Schoenfeld, Illinois J. Math. 6, 1962) gives above 3.88e16
_PRIME_COUNT = 38 * 10**15
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # the first 12 primes
_LCM_BITS = 1.03883 / math.log(2)  # log2 lcm(1..m) < 1.03883 m/ln 2 (the same)
MAX_ATTEMPTS = 100  # draws in a row that may miss before a check errors out
_MAX_FLOAT_DEGREE = 2**16  # beyond it, exact rationals take seconds per point

Number = Fraction | float | int


# ---------------------------------------------------------------------------
# Arithmetics: what evaluation computes with, and how it draws


class _Arithmetic:
    """The operations evaluation needs over one kind of value.

    Each arithmetic has ``zero`` and ``one`` and the operations ``add``,
    ``mul``, ``power`` (by a non-negative int) and ``div`` (unchecked);
    ``vanishes`` says when a denominator or assumption rules a point out, and
    ``exp``/``log`` give those atoms' values.  The two base arithmetics also
    take an int or ``Fraction`` in (``scalar``) and draw stand-in
    coefficients, parameters and coordinates.  ``p`` is a field's prime.
    """

    p = None

    def stand_in(self, terms, args):
        """``sum(c * prod(args^e))`` over the ``(e, c)`` of ``terms``: each
        term by repeated multiplication, added up in that order."""
        add, mul = self.add, self.mul
        total = self.zero
        for expo, c in terms:
            term = c
            for a, k in zip(args, expo):
                for _ in range(k):
                    term = mul(term, a)
            total = add(total, term)
        return total


class _Rationals(_Arithmetic):
    """Exact ``Fraction`` arithmetic; ``exp`` and ``log`` values are floats."""

    zero, one = Fraction(0), Fraction(1)
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    power = staticmethod(operator.pow)
    div = staticmethod(operator.truediv)
    scalar = staticmethod(Fraction)

    @staticmethod
    def vanishes(v, scale=1) -> bool:
        # ``scale`` is a denominator's leading coefficient: the floor is on den/lc
        return abs(v) < ASSUMPTION_FLOOR * scale

    @staticmethod
    def exp(v):
        if v == 0:
            return Fraction(1)
        try:
            return math.exp(float(v))
        except OverflowError:
            raise AssumptionViolationError("exponential overflow at this point") from None

    @staticmethod
    def log(v):
        if v < ASSUMPTION_FLOOR:
            raise AssumptionViolationError("logarithm argument within the floor")
        return math.log(float(v))

    @staticmethod
    def coefficient(rng: Random):
        """A sparse stand-in's coefficient: 0 with probability 0.4."""
        return Fraction(rng.randint(-9, 9), rng.randint(1, 3)) if rng.random() < 0.6 else 0

    @staticmethod
    def constant(rng: Random):
        return Fraction(rng.randint(-8, 8), rng.randint(1, 3))

    @staticmethod
    def coordinate(rng: Random):
        return Fraction(rng.randint(-200, 200), 100)


class _Modular(_Arithmetic):
    """GF(p) for the prime ``p`` a check drew: values are ints in [0, p).
    Every draw is uniform, so stand-ins are dense."""

    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def power(self, a, k):
        return pow(a, k, self.p)

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def scalar(self, c):
        if type(c) is int:
            return c % self.p
        c = Fraction(c)
        return c.numerator * pow(c.denominator, -1, self.p) % self.p

    def stand_in(self, terms, args):
        # the values are below p and the degrees small: reduce once, at the end
        total = 0
        for expo, c in terms:
            for a, k in zip(args, expo):
                if k:
                    c *= a if k == 1 else a ** k
            total += c
        return total % self.p

    def vanishes(self, v, scale=1) -> bool:
        return v % self.p == 0

    @staticmethod
    def exp(v):
        raise EvaluationError("exp has no value in GF(p)")

    @staticmethod
    def log(v):
        raise EvaluationError("log has no value in GF(p)")

    def coefficient(self, rng: Random):
        return rng.randrange(self.p)

    constant = coordinate = coefficient


class _Polynomials(_Arithmetic):
    """Univariate polynomials over ``base`` in the integration variable of the
    antiderivative ``atom``: its integrand's values, as :class:`_UPoly`
    values.  Values of ``base`` enter as constant polynomials; division is
    exact and only by constants."""

    def __init__(self, base: _Arithmetic, atom: "_TableAtom"):
        self.base = base
        self.atom = atom
        self.zero = _UPoly((base.zero,), base)
        self.one = _UPoly((base.one,), base)
        self.indeterminate = _UPoly((base.zero, base.one), base)

    def _coeffs(self, v) -> tuple:
        return v.coeffs if isinstance(v, _UPoly) and v.ar is self.base else (v,)

    def _constant(self, v):
        cs = self._coeffs(v)
        if len(cs) > 1:
            raise EvaluationError(
                f"cannot evaluate {self.atom.text}: its integrand is not a polynomial "
                f"in {self.atom.var}")
        return cs[0]

    def add(self, a, b):
        add, zero = self.base.add, self.base.zero
        a, b = self._coeffs(a), self._coeffs(b)
        return _UPoly(tuple(
            add(a[i] if i < len(a) else zero, b[i] if i < len(b) else zero)
            for i in range(max(len(a), len(b)))), self.base)

    def mul(self, a, b):
        ar = self.base
        a, b = self._coeffs(a), self._coeffs(b)
        out = [ar.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] = ar.add(out[i + j], ar.mul(x, y))
        return _UPoly(out, ar)

    def power(self, a, k):
        cs = self._coeffs(a)
        if len(cs) == 1:
            return _UPoly((self.base.power(cs[0], k),), self.base)
        out = self.one
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def div(self, a, b):
        d = self._constant(b)
        if self.base.vanishes(d):
            raise AssumptionViolationError("division by a constant that vanishes here")
        return _UPoly(tuple(self.base.div(c, d) for c in self._coeffs(a)), self.base)

    def vanishes(self, v, scale=1) -> bool:
        return self.base.vanishes(self._constant(v), scale)

    def exp(self, v):
        return self.base.exp(self._constant(v))

    def log(self, v):
        return self.base.log(self._constant(v))


RATIONALS = _Rationals()


def _is_prime(n: int) -> bool:
    """Whether ``n`` is prime: trial division by :data:`_BASES`, then a
    strong probable-prime test to each, which decides every n below 3.1e23
    (Sorenson & Webster, Math. Comp. 86, 2017)."""
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for b in _BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and x != n - 1 and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def _draw_prime(rng: Random) -> int:
    """A prime drawn uniformly from those in [2^61, 2^62): uniform odd
    candidates until one is prime."""
    return _counted_prime(rng)[0]


def _counted_prime(rng: Random) -> tuple[int, int]:
    """:func:`_draw_prime`'s prime and the number of candidates it drew."""
    count = 1
    while not _is_prime(n := rng.randrange(1 << _PRIME_BITS, 2 << _PRIME_BITS) | 1):
        count += 1
    return n, count


# (type, seed) -> (prime, candidates): the draw of a generator fresh from
# that seed; the type keeps apart seeds that are equal but seed apart, 2**70
# and 2.0**70
_SEEDED_PRIMES: dict = {}
_SEEDED_PRIMES_MAX = 1024


def _seeded_prime(rng: Random, seed) -> int:
    """``_draw_prime(rng)`` for ``rng`` fresh from ``seed``, leaving ``rng``
    where that draw leaves it.  Each seed's draw is kept: a later check of
    the seed replays its candidates without a primality test."""
    key = (type(seed), seed)
    try:
        got = _SEEDED_PRIMES.get(key)
    except TypeError:  # an unhashable seed, a bytearray: drawn each time
        return _draw_prime(rng)
    if got is None:
        got = _counted_prime(rng)
        if len(_SEEDED_PRIMES) >= _SEEDED_PRIMES_MAX:
            del _SEEDED_PRIMES[next(iter(_SEEDED_PRIMES))]
        _SEEDED_PRIMES[key] = got
        return got[0]
    p, count = got
    for _ in range(count):
        rng.randrange(1 << _PRIME_BITS, 2 << _PRIME_BITS)
    return p


# ---------------------------------------------------------------------------
# Stand-ins


class _UPoly:
    """A value of :class:`_Polynomials`: univariate coefficients in the
    arithmetic ``ar``, lowest degree first, trailing zeros trimmed."""

    __slots__ = ("coeffs", "ar")

    def __init__(self, coeffs: Sequence, ar: _Arithmetic):
        self.ar = ar
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs) if cs else (ar.zero,)

    def __call__(self, x):
        ar = self.ar
        acc = ar.zero
        for c in reversed(self.coeffs):
            acc = ar.add(ar.mul(acc, x), c)
        return acc

    def antiderivative(self) -> "_UPoly":
        ar = self.ar
        return _UPoly((ar.zero, *(ar.div(c, i + 1) for i, c in enumerate(self.coeffs))), ar)

    def __eq__(self, other):
        if isinstance(other, _UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, float, Fraction)):
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __repr__(self):
        return f"_UPoly({list(self.coeffs)})"


class PolyFunc:
    """Polynomial in several slots, standing in for an arbitrary function.

    Coefficients are values of an arithmetic (rationals by default), keyed by
    exponent tuples.  Slot-derivative symbols evaluate exactly, from a run's
    multiplier tables (``_Run._derived``); :meth:`partial` is their reference.
    """

    __slots__ = ("arity", "coeffs", "ar")

    def __init__(self, arity: int, coeffs: Mapping[tuple[int, ...], Number],
                 arith: _Arithmetic | None = None):
        self.arity = arity
        self.ar = RATIONALS if arith is None else arith
        self.coeffs = {
            tuple(e): self.ar.scalar(c) for e, c in coeffs.items() if c != 0}
        for e in self.coeffs:
            if len(e) != arity:
                raise ValueError(f"exponent tuple {e} does not match arity {arity}")

    def evaluate(self, args: Sequence, arith: _Arithmetic | None = None):
        """Value at ``args``, computed in ``arith`` (default: the coefficients')."""
        return self._value(self.coeffs.items(), args, self.ar if arith is None else arith)

    def _value(self, terms, args: Sequence, ar: _Arithmetic):
        # ``terms`` are this stand-in's, or those of a derivative of it
        if len(args) != self.arity:
            raise EvaluationError(
                f"function of {self.arity} slots called with {len(args)} arguments")
        return ar.stand_in(terms, args)

    def partial(self, slot: int) -> "PolyFunc":
        """Derivative with respect to the 1-based slot number."""
        i = slot - 1
        if not 0 <= i < self.arity:
            raise EvaluationError(f"no slot {slot} in a function of {self.arity} slots")
        ar = self.ar
        out: dict[tuple[int, ...], Number] = {}
        for expo, c in self.coeffs.items():
            if expo[i] == 0:
                continue
            dexpo = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
            out[dexpo] = ar.add(out.get(dexpo, ar.zero), ar.mul(c, expo[i]))
        return PolyFunc(self.arity, out, ar)

    def to_expression(self, names: Sequence[str]) -> Expression:
        """The polynomial as a symbolic expression in the given variable names."""
        if len(names) != self.arity:
            raise ValueError(
                f"{len(names)} names for a function of {self.arity} slots")
        terms = []
        for expo in sorted(self.coeffs):
            e = as_expression(self.coeffs[expo])
            for n, k in zip(names, expo):
                if k:
                    e = e * var(n) ** k
            terms.append(e)
        return expr_sum(terms) if terms else as_expression(0)

    @classmethod
    def random(cls, rng: Random, arity: int, degree: int = 2,
               require: Iterable[int] = (), arith: _Arithmetic | None = None) -> "PolyFunc":
        """Random polynomial of bounded total degree, its coefficients drawn
        by ``arith`` (sparse small rationals by default, dense in GF(p)).

        Slots listed in ``require`` (1-based) are guaranteed to appear, so the
        corresponding partials do not vanish identically.
        """
        ar = RATIONALS if arith is None else arith
        coeffs: dict[tuple[int, ...], Number] = {}
        for expo in _exponents(arity, degree):
            c = ar.coefficient(rng)
            if c != 0:
                coeffs[expo] = c
        if not coeffs:
            coeffs[(0,) * arity] = ar.scalar(rng.randint(1, 5))
        for slot in require:
            if not any(e[slot - 1] > 0 for e in coeffs):
                expo = tuple(1 if j == slot - 1 else 0 for j in range(arity))
                coeffs[expo] = ar.scalar(rng.randint(1, 4))
        # every drawn coefficient is nonzero and a value of ``ar`` already
        f = object.__new__(cls)
        f.arity, f.coeffs, f.ar = arity, coeffs, ar
        return f


@functools.cache
def _exponents(arity: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if arity == 0:
        return ((),)
    return tuple((head, *tail) for head in range(degree + 1)
                 for tail in _exponents(arity - 1, degree - head))


# kinds of compiled atoms, the first entry of each of a program's atom steps
_VAR, _PARAM, _JET, _FUNC, _INT, _LOG = range(6)


class _Program:
    """The atom tables of :meth:`Expression.to_tree`, compiled once for
    evaluation at many points; ``ValueError`` on a table that describes no
    expression.

    ``atoms`` holds one step per distinct atom listed, inner atoms first:
    ``(_VAR, name)``, ``(_PARAM, name)``, ``(_JET, dep, index)``, ``(_FUNC,
    name, dindex, argument indices)``, ``(_INT, var, integrand index, atom)``
    or ``(_LOG, argument index)``.  ``exprs`` holds each distinct expression
    once, the roots, arguments, integrands and exponential arguments alike,
    as ``(num, den, lc)``: its integer form with each polynomial a tuple of
    terms ``(c, ((slot, k), ...), exp)``, terms in the table's order, factors
    in the monomial's and ``exp`` the index of its exponential's argument or
    ``None``.  ``roots`` are the indices of the tables' expressions, ``slots``
    and ``index`` map each atom and expression key to its own, and ``tables``
    keeps, per tuple of slot derivatives, what they make of each stand-in
    exponent (:func:`_derivative`).

    Each table's atoms and expressions are hash-consed across all the tables:
    an atom by its step, an expression by its term lists.  A table is read as
    it stands, repeated factors and monomials merged and its coefficients
    cleared with one lcm, so a table the kernel wrote is read back to the
    kernel's integer form; ``lc`` is the absolute value of the first
    denominator coefficient, the kernel's leading one.  Nothing else is
    normalized: equal atoms written apart take two slots and are drawn for
    alike, and no bound rests on their being one.
    """

    __slots__ = ("atoms", "slots", "exprs", "index", "roots", "tables")

    def __init__(self, tables: Sequence):
        self.atoms: list[tuple] = []
        self.slots: dict = {}
        self.exprs: list[tuple] = []
        self.index: dict = {}
        self.tables: dict[tuple, dict] = {}
        try:
            self.roots = [self._table(t) for t in tables]
        except (KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
            raise ValueError(f"unreadable expression tree: {exc!r}") from None

    def _table(self, tree) -> int:
        local: list[int] = []  # the table's atom indices -> slots
        for pos, entry in enumerate(tree["atoms"]):
            local.append(self._table_atom(entry, local, tree, pos))
        return self._table_expr(tree, local)

    def _table_atom(self, t, local: list[int], tree, pos: int) -> int:
        kind = t["kind"]
        step = None
        if kind == "var":
            key = _VAR, _check_name(t["name"], "variable")
        elif kind == "param":
            key = _PARAM, _check_name(t["name"], "parameter")
        elif kind == "jet":
            index = t["index"]
            if type(index) is not list:
                raise ValueError(f"jet index {index!r} is not a list")
            key = (_JET, _check_name(t["dep"], "dependent variable"),
                   tuple(sorted(_check_name(i, "jet index") for i in index)))
        elif kind == "func":
            name, dindex, args = _check_name(t["name"], "function"), t["d"], t["args"]
            if type(args) is not list or not args:
                raise ValueError(f"function {name!r} needs a nonempty argument list")
            if type(dindex) is not list or any(
                    type(s) is not int or not 1 <= s <= len(args) for s in dindex):
                raise ValueError(f"derivative slots {dindex!r} outside 1..{len(args)} for {name!r}")
            key = (_FUNC, name, tuple(sorted(dindex)),
                   tuple(self._table_expr(a, local) for a in args))
        elif kind == "int":
            var = _check_name(t["var"], "integration variable")
            key = _INT, var, self._table_expr(t["integrand"], local)
            step = (*key, _TableAtom(tree, pos, var))
        elif kind == "log":
            arg = self._table_expr(t["arg"], local)
            if not self.exprs[arg][0]:
                raise ValueError("log of an expression that normalizes to zero")
            key = _LOG, arg
        else:
            raise ValueError(f"unknown atom kind {kind!r}")
        s = self.slots.get(key)
        if s is None:
            s = self.slots[key] = len(self.atoms)
            self.atoms.append(key if step is None else step)
        return s

    def _table_expr(self, t, local: list[int]) -> int:
        """The index of the ``{"num", "den"}`` pair ``t``, compiled on first sight."""
        num, den = self._table_poly(t["num"], local), self._table_poly(t["den"], local)
        if not den:
            raise ValueError("denominator normalizes to zero")
        if any(type(c) is not int for c, _f, _e in chain(num, den)):
            scale = lcm(*(c.denominator for c, _f, _e in chain(num, den)))
            num, den = ([(int(c * scale), f, e) for c, f, e in p] for p in (num, den))
        key = tuple(num), tuple(den)
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.exprs)
            self.exprs.append((*key, abs(den[0][0])))
        return i

    def _table_poly(self, terms, local: list[int]) -> list:
        """The terms ``(c, factors, exp)`` of a table's term list, repeated
        factors and monomials merged, in first-seen order."""
        out: dict = {}
        for term in terms:
            c = _coefficient(term["coeff"])
            powers: dict[int, int] = {}
            for i, k in term["factors"]:
                if type(i) is not int or not 0 <= i < len(local):
                    raise ValueError(f"atom index {i!r} names no earlier atom")
                if type(k) is not int:
                    raise ValueError(f"power {k!r} is not an integer")
                if k < 1:
                    raise ValueError(f"power {k!r} is not positive")
                s = local[i]
                powers[s] = powers.get(s, 0) + k
            exp = self._table_expr(term["exp"], local) if "exp" in term else None
            if exp is not None and not self.exprs[exp][0]:
                exp = None  # exp(0) is 1
            factors = tuple(powers.items())
            m = (factors if len(factors) < 2 else tuple(sorted(factors)),
                 -1 if exp is None else exp)
            hit = out.get(m)
            if hit is None:
                out[m] = [c, factors, exp]
            else:
                hit[0] += c
        return [tuple(t) for t in out.values() if t[0]]


def _coefficient(c) -> int | Fraction:
    """A table's coefficient: an int, or the text of an integer or a fraction."""
    if type(c) is int:
        return c
    if type(c) is str:
        n, slash, d = c.partition("/")
        try:
            return Fraction(int(n), int(d)) if slash else int(n)
        except ValueError:
            pass
    raise ValueError(f"coefficient {c!r} is not an integer or a fraction")


class _TableAtom:
    """An antiderivative of a table, as :class:`_Polynomials` names it: its
    integration variable ``var`` and its ``text``, which the kernel renders
    only when an error message asks for it."""

    __slots__ = ("tree", "pos", "var")

    def __init__(self, tree, pos: int, var: str):
        self.tree, self.pos, self.var = tree, pos, var

    @property
    def text(self) -> str:
        one = [{"coeff": "1", "factors": []}]
        return Expression.from_tree({
            "atoms": self.tree["atoms"][:self.pos + 1],
            "num": [{"coeff": "1", "factors": [[self.pos, 1]]}], "den": one}).text


def _derivative(expo: tuple[int, ...], dindex: tuple[int, ...]):
    """``(reduced exponent, multiplier)``: the slot derivatives ``dindex`` take
    ``prod x_i^expo_i`` to the multiplier times the reduced monomial; ``None``
    when they take it to zero."""
    e = list(expo)
    mult = 1
    for slot in dindex:
        k = e[slot - 1]
        if not k:
            return None
        mult *= k
        e[slot - 1] = k - 1
    return tuple(e), mult


def _log2_sum(logs: list) -> float:
    """log2 of the sum of 2^x over ``logs``, and 0 for none: no norm's bound
    is below 1."""
    top = max(logs, default=0.0)
    return top + math.log2(math.fsum([2.0 ** (x - top) for x in logs]) or 1.0)


def _stand_in_height(degree: int, dindex: tuple[int, ...], args) -> tuple[float, float]:
    """log2 of the 1-norms (numerator, denominator) of a stand-in of
    ``degree`` after the slot derivatives ``dindex``, at arguments whose
    norms are ``args`` in log2, as :meth:`_Inventory.miss_bound` states them."""
    logs = []
    for expo in _exponents(len(args), degree):
        hit = _derivative(expo, dindex)
        if hit is not None:
            f, k = hit
            logs.append(math.log2(k) + sum(e * (hn - hd) for e, (hn, hd) in zip(f, args)))
    den = max(0, degree - len(dindex)) * sum(hd for _hn, hd in args)
    return den + _log2_sum(logs), den


class _Inventory:
    """What a set of expressions reaches, read off one pass over the atoms of
    their compiled :class:`_Program` (``program``, or one given instead of
    the expressions), inner atoms first.

    The pass records each function's arity and stand-in degree
    (``functions``), the parameters (``params``, sorted), each dependent's
    stand-in degree (``deps``), the variables (free ones, jet indices,
    integration variables), and what needs real values (``float_rules``, in
    that order): ``"exp"`` and ``"log"``; a finite field evaluates the
    expressions only when it is empty.  The same pass bounds the degrees
    (``degrees``) and the coefficient norms (``heights``) of every value the
    evaluator forms, for :meth:`miss_bound`, and then, where exp or log
    occur, the degrees of their arguments (``arg_degree``, the highest), for
    the float path.  A jet's norm counts the variables ``dep_vars`` gives its
    dependent; a dependent without them has no draw.
    """

    __slots__ = ("program", "functions", "params", "deps", "variables",
                 "float_rules", "degrees", "heights", "rejected", "arg_degree")

    def __init__(self, exprs: "Iterable[ExpressionLike] | _Program", degree: int = 2,
                 dep_vars: Mapping[str, Sequence[str]] | None = None):
        self.program = prog = exprs if isinstance(exprs, _Program) else _Program(
            [as_expression(e).to_tree() for e in exprs])
        # the stand-ins' degrees, decided here only: ``degree`` for functions,
        # at least 2 for dependents
        fdeg, ddeg = degree, max(degree, 2)
        arities: dict[str, set[int]] = {}
        params, deps, variables = set(), set(), set()
        atom_deg: list[tuple[int, int]] = [(0, 0)] * len(prog.atoms)
        atom_height: list[tuple[float, float]] = [(0.0, 0.0)] * len(prog.atoms)
        # per compiled expression; every expression outside exp and log
        # arguments is read, so the rules found do not depend on slot order
        self.degrees: list[tuple[int, int] | None] = [None] * len(prog.exprs)
        self.heights: list[tuple[float, float] | None] = [None] * len(prog.exprs)
        self.rejected = 0
        rules: set[str] = set()
        exp_log_args: list[int] = []  # in the order the pass meets them

        def poly(terms) -> tuple[int, int, float, float]:
            powers: dict[int, int] = {}
            lifts, hlifts = [], []
            for c, factors, exp in terms:
                if exp is not None:
                    rules.add("exp")
                    exp_log_args.append(exp)
                lift, hlift = 0, math.log2(abs(c))
                for s, k in factors:
                    n, d = atom_deg[s]
                    hn, hd = atom_height[s]
                    lift += k * (n - d)
                    hlift += k * (hn - hd)
                    if k > powers.get(s, 0):
                        powers[s] = k
                lifts.append(lift)
                hlifts.append(hlift)
            den = sum(k * atom_deg[s][1] for s, k in powers.items())
            hden = sum(k * atom_height[s][1] for s, k in powers.items())
            return den + max(lifts, default=0), den, hden + _log2_sum(hlifts), hden

        def of(i: int) -> tuple[int, int]:
            hit = self.degrees[i]
            if hit is None:
                num, den, _lc = prog.exprs[i]
                (nn, nd, hnn, hnd), (dn, dd, hdn, hdd) = poly(num), poly(den)
                self.rejected += dn
                hit = self.degrees[i] = (nn + dd, nd + dn)
                self.heights[i] = (hnn + hdd, hnd + hdn)
            return hit

        for s, (kind, *step) in enumerate(prog.atoms):
            if kind == _VAR:
                variables.add(step[0])
                atom_deg[s] = (1, 0)
            elif kind == _PARAM:
                params.add(step[0])
                atom_deg[s] = (1, 0)
            elif kind == _JET:
                dep, index = step
                deps.add(dep)
                variables.update(index)
                r = len(index)
                atom_deg[s] = (ddeg + 1 - r, 0) if r <= ddeg else (0, 0)
                slots = tuple((dep_vars or {}).get(dep, ()))
                if set(index) <= set(slots):  # else the draw or the value fails
                    atom_height[s] = _stand_in_height(
                        ddeg, tuple(slots.index(v) + 1 for v in index), [(0.0, 0.0)] * len(slots))
            elif kind == _FUNC:
                name, dindex, arg_indices = step
                arities.setdefault(name, set()).add(len(arg_indices))
                args = [of(i) for i in arg_indices]
                g = fdeg - len(dindex)
                dsum = sum(d for _n, d in args)
                atom_deg[s] = (0, 0) if g < 0 else (
                    1 + g * dsum + g * max(0, *(n - d for n, d in args)), g * dsum)
                atom_height[s] = _stand_in_height(
                    fdeg, dindex, [self.heights[i] for i in arg_indices])
            elif kind == _INT:
                variables.add(step[0])
                n, d = of(step[1])
                atom_deg[s] = (n + 1, d)
                clear = _LCM_BITS * (n + 1)  # lcm(1, ..., n + 1), the divisors cleared
                atom_height[s] = tuple(h + clear for h in self.heights[step[1]])
            else:
                rules.add("log")
                exp_log_args.append(step[0])
        for name, ns in sorted(arities.items()):
            if len(ns) > 1:
                raise EvaluationError(
                    f"function {name} used with {' and '.join(map(str, sorted(ns)))} arguments")
        for i in prog.roots:
            of(i)
        self.float_rules = tuple(r for r in ("exp", "log") if r in rules)
        # read after the rules, which they leave as they are; the list grows
        # as the arguments' own exp arguments are read, and their denominators
        # join ``rejected``, since a draw where one vanishes is redrawn
        self.arg_degree = 0
        for i in exp_log_args:
            self.arg_degree = max(self.arg_degree, *of(i))
        self.functions = {n: (ns.pop(), fdeg) for n, ns in sorted(arities.items())}
        self.params = sorted(params)
        self.deps = {name: ddeg for name in sorted(deps)}
        self.variables = variables

    def point_names(self, slots: Iterable[Sequence[str]]) -> tuple[str, ...]:
        """Variables a point must assign: ``variables`` plus the dependents' ``slots``."""
        return tuple(sorted(self.variables.union(*slots)))

    def degree_bound(self, li: int, ri: int, assumed: Sequence[int], limit: int,
                     beyond: str) -> tuple[int, int]:
        """``(d, e)``: the degree bound d of the difference of the sides ``li``
        and ``ri``, and the degrees e summed over what a draw is redrawn for,
        as :meth:`miss_bound` derives them; an :class:`EvaluationError` that
        says ``beyond`` when ``d + e``, or the degree of an exp or log
        argument, exceeds ``limit``."""
        degrees = self.degrees
        (nl, dl), (nr, dr) = degrees[li], degrees[ri]
        d, rejected = max(nl + dr, nr + dl), self.rejected + sum(degrees[i][0] for i in assumed)
        if d + rejected > limit:
            raise EvaluationError(
                f"the degree bound of this check ({d}, and {rejected} on redraws) {beyond}")
        if self.arg_degree > limit:
            raise EvaluationError(
                f"the degree bound of an exp or log argument ({self.arg_degree}) {beyond}")
        return d, rejected

    def height(self, li: int, ri: int) -> int:
        """H: a bound in bits on the 1-norm of C = N_L*D_R - N_R*D_L of the
        sides ``li`` and ``ri``, as :meth:`miss_bound` derives it."""
        (nl, dl), (nr, dr) = self.heights[li], self.heights[ri]
        # the pass sums norms in floating point: a relative margin and one
        # bit to spare lie far above its rounding
        return math.ceil(_log2_sum([nl + dr, nr + dl]) * (1 + 2**-20)) + 1

    def miss_bound(self, li: int, ri: int, assumed: Sequence[int], points: int, p: int) -> float:
        """Upper bound on the chance that the drawn prime ``p`` and ``points``
        GF(p) points all agree although the sides differ, rounded up to a
        float; an :class:`EvaluationError` when it reaches 1 or the degree
        bound reaches p.  ``li``, ``ri`` and ``assumed`` are the program's
        indices of the sides and the assumptions.

        Every value the evaluator forms is a quotient N/D of polynomials with
        integer coefficients in the drawn values: stand-in coefficients,
        parameters and coordinates.  The inventory's pass, inner atoms first,
        bounds the degrees (deg N, deg D) and the 1-norms (|N|, |D|, sums of
        absolute coefficients, in log2) of the quotient the evaluator forms:

        * a variable or a parameter is (1, 0), of norms (1, 1); a jet of order
          r of a dependent whose stand-in has degree D is a sum of
          coefficients times coordinates, (D + 1 - r, 0), and (0, 0) once
          r > D, of norm the sum of the falling factorials its derivatives
          bring down, one per coefficient;
        * a function's stand-in after r slot derivatives has degree g = G - r
          in its arguments n_i/d_i, where G is the stand-in's degree.  Over
          the common denominator prod d_i^g a term k_e * c_e * prod
          (n_i/d_i)^f_i, k_e the falling factorials, has degree at most
          1 + g*sum_i(d_i) + g*max(0, max_i(n_i - d_i)), over g*sum_i(d_i),
          and norm at most k_e * prod |n_i|^f_i |d_i|^(g - f_i), over
          prod |d_i|^g;
        * an antiderivative adds 1 to its integrand's numerator degree n: the
          integrand's denominator is free of the integration variable, or its
          evaluation fails.  Its divisors 1, ..., n + 1 are cleared with
          their lcm, which multiplies both norms;
        * a polynomial in atoms with highest powers K_a has the denominator
          prod d_a^K_a; a term c * prod a^k_a adds sum k_a (n_a - d_a) to its
          degree in the numerator, and its norm is at most |c| * prod
          |n_a|^k_a |d_a|^(K_a - k_a).  An expression num/den is (n_num +
          d_den, d_num + n_den), degrees and norms alike.

        The sides are compiled as L = N_L/D_L and R = N_R/D_R.  If they
        differ, C = N_L*D_R - N_R*D_L is a nonzero polynomial of degree at
        most d = max(n_L + d_R, n_R + d_L), with coefficients at most
        |N_L| |D_R| + |N_R| |D_L| <= 2^H (:meth:`height`).  A nonzero one has
        at most H/61 prime factors in [2^61, 2^62), where p is drawn
        uniformly from more than N = 3.8e16 primes, so p divides it with
        probability at most ceil(H/61)/N.  Otherwise C is nonzero mod p, and
        at a point where no D vanishes the sides agree only where C does (a
        p that divides a whole denominator rejects every draw, and the check
        errors out).  By Schwartz-Zippel a uniform point finds a zero of a
        nonzero polynomial mod p with probability at most d/p.  A point is
        redrawn where the numerator of some expression's denominator, or of
        an assumption, vanishes: polynomials whose degrees sum to at most e,
        so an admissible point is at most d/p / (1 - e/p) = d/(p - e) likely
        to miss.  The points are independent given p: the bound is
        ceil(H/61)/N + (d/(p - e))^points.
        """
        d, rejected = self.degree_bound(
            li, ri, assumed, p - 1, f"reaches p = {p}, so a GF(p) pass would certify nothing")
        bound = (Fraction(-(-self.height(li, ri) // _PRIME_BITS), _PRIME_COUNT)
                 + Fraction(d, p - rejected) ** points)
        if bound >= 1:
            raise EvaluationError(
                "the miss bound of this check reaches 1, so a GF(p) pass would certify nothing")
        rounded = float(bound)
        return rounded if Fraction(rounded) >= bound else math.nextafter(rounded, math.inf)


@dataclass
class Instantiation:
    """Concrete stand-ins for the symbols of a set of expressions.

    ``dependents`` maps a dependent variable name to its independent-variable
    names and the polynomial giving its value; jets evaluate as partials of
    that polynomial.  Values live in ``arith``.
    """

    functions: dict[str, PolyFunc] = field(default_factory=dict)
    params: dict[str, Number] = field(default_factory=dict)
    dependents: dict[str, tuple[tuple[str, ...], PolyFunc]] = field(default_factory=dict)
    arith: _Arithmetic = RATIONALS

    @classmethod
    def for_expressions(
        cls,
        exprs: "Iterable[ExpressionLike] | _Inventory",
        rng: Random,
        dep_vars: Mapping[str, Sequence[str]],
        degree: int = 2,
        *,
        arith: _Arithmetic | None = None,
    ) -> "Instantiation":
        """Draw random stand-ins for every symbol appearing in ``exprs``, of
        the degrees their inventory decides from ``degree``.

        ``dep_vars`` names the independent variables of each dependent
        variable; any jet whose name is missing from it is an error.
        ``arith`` draws the values (rationals by default).  ``exprs`` may
        also be their walked inventory, which carries its own degrees; that
        is how :func:`check_identity` draws once per attempt without walking
        them again.
        """
        ar = RATIONALS if arith is None else arith
        inv = exprs if isinstance(exprs, _Inventory) else _Inventory(exprs, degree)
        inst = cls(arith=ar)
        for name, (arity, deg) in inv.functions.items():
            inst.functions[name] = PolyFunc.random(
                rng, arity, deg, require=range(1, arity + 1), arith=ar)
        for name in inv.params:
            inst.params[name] = ar.constant(rng)
        for name, deg in inv.deps.items():
            if name not in dep_vars:
                raise EvaluationError(
                    f"dependent variable {name!r} has no declared independent variables")
            slots = tuple(dep_vars[name])
            inst.dependents[name] = (slots, PolyFunc.random(
                rng, len(slots), deg, require=range(1, len(slots) + 1), arith=ar))
        return inst


class _Run:
    """A program's values at one point, in the arithmetic ``ar`` (by default
    ``inst``'s).

    A value is computed the first time an expression asks for it and kept in
    ``atoms`` or ``exprs`` by its index, so the values are computed, and an
    inadmissible point is found, in the order the expressions ask for them.
    ``bound`` holds the variables that are indeterminates here (inside
    antiderivatives).
    """

    __slots__ = ("prog", "inst", "point", "ar", "bound", "atoms", "exprs")

    def __init__(self, prog: _Program, inst: Instantiation, point: Mapping[str, object],
                 ar: _Arithmetic | None = None, bound: frozenset = frozenset()):
        self.prog = prog
        self.inst = inst
        self.point = point
        self.ar = inst.arith if ar is None else ar
        self.bound = bound
        self.atoms: list = [None] * len(prog.atoms)
        self.exprs: list = [None] * len(prog.exprs)

    def expr(self, i: int):
        """The value of compiled expression ``i``."""
        val = self.exprs[i]
        if val is None:
            num, den, lc = self.prog.exprs[i]
            ar = self.ar
            n, d = self._poly(num), self._poly(den)
            if ar.vanishes(d, lc):
                raise AssumptionViolationError("denominator vanishes at this point")
            val = self.exprs[i] = ar.div(n, d)
        return val

    def _poly(self, terms):
        # sum(c * monomial) in term order, factors in atom order; an atom is
        # computed where its first factor stands, so a point fails where a
        # walk of the expression would.  GF(p) is exact, so it is inlined
        # with the reductions where they are cheapest.
        ar, vals = self.ar, self.atoms
        if (p := ar.p) is not None:
            total = 0
            for c, factors, exp in terms:
                for s, k in factors:
                    x = vals[s]
                    if x is None:
                        x = self.atom(s)
                    c = c * (x if k == 1 else pow(x, k, p)) % p
                if exp is not None:
                    ar.exp(self.expr(exp))  # raises: GF(p) has no exp
                total += c
            return total % p
        add, mul, power = ar.add, ar.mul, ar.power
        total = ar.zero
        for c, factors, exp in terms:
            val = ar.one
            for s, k in factors:
                x = vals[s]
                if x is None:
                    x = self.atom(s)
                val = mul(val, x if k == 1 else power(x, k))
            if exp is not None:
                val = mul(val, ar.exp(self.expr(exp)))
            total = add(total, mul(c, val))
        return total

    def atom(self, s: int):
        """The value of the atom in slot ``s``."""
        step = self.prog.atoms[s]
        kind = step[0]
        if kind == _VAR:
            val = self._slot_value(step[1])
        elif kind == _JET:
            val = self._jet_value(step[1], step[2])
        elif kind == _PARAM:
            try:
                val = self.inst.params[step[1]]
            except KeyError:
                raise EvaluationError(f"no value for parameter {step[1]!r}") from None
        elif kind == _FUNC:
            _kind, name, dindex, args = step
            try:
                poly = self.inst.functions[name]
            except KeyError:
                raise EvaluationError(f"no stand-in for function {name!r}") from None
            terms = self._derived(poly, dindex)
            val = poly._value(terms, [self.expr(i) for i in args], self.ar)
        elif kind == _INT:
            val = self._antiderivative_value(step[1], step[2], step[3])
        else:
            val = self.ar.log(self.expr(step[1]))
        self.atoms[s] = val
        return val

    def _derived(self, poly: PolyFunc, dindex: tuple[int, ...]):
        """The terms ``(exponent, coefficient)`` of ``poly`` after the slot
        derivatives ``dindex``, in ``poly``'s term order."""
        if not dindex:
            return poly.coeffs.items()
        for slot in dindex:
            if not 1 <= slot <= poly.arity:
                raise EvaluationError(f"no slot {slot} in a function of {poly.arity} slots")
        table = self.prog.tables.setdefault(dindex, {})
        mul = poly.ar.mul
        terms = []
        for expo, c in poly.coeffs.items():
            hit = table.get(expo, False)  # None: the derivatives kill expo
            if hit is False:
                hit = table[expo] = _derivative(expo, dindex)
            if hit is not None:
                expo, k = hit
                terms.append((expo, c if k == 1 else mul(c, k)))
        return terms

    def _jet_value(self, dep: str, index: tuple[str, ...]):
        try:
            slots, poly = self.inst.dependents[dep]
        except KeyError:
            raise EvaluationError(f"no stand-in for dependent variable {dep!r}") from None
        dindex = []
        for name in index:
            try:
                dindex.append(slots.index(name) + 1)
            except ValueError:
                raise EvaluationError(
                    f"jet of {dep!r} along {name!r}, which is not one of its variables") from None
        terms = self._derived(poly, tuple(dindex))
        return poly._value(terms, [self._slot_value(n) for n in slots], self.ar)

    def _slot_value(self, name: str):
        try:
            return self.point[name]
        except KeyError:
            raise EvaluationError(f"no value for variable {name!r}") from None

    def _antiderivative_value(self, var: str, integrand: int, a: _TableAtom):
        if var in self.bound:
            raise EvaluationError("nested antiderivatives in the same variable")
        ring = _Polynomials(self.ar, a)
        point = {**self.point, var: ring.indeterminate}
        body = _Run(self.prog, self.inst, point, ring, self.bound | {var}).expr(integrand)
        return body.antiderivative()(self._slot_value(var))


def evaluate(e: ExpressionLike, inst: Instantiation, point: Mapping[str, Number]) -> Number:
    """Value of ``e`` at ``point`` in ``inst``'s arithmetic; with rationals it
    is exact when no exp or log occurs."""
    prog = _Program([as_expression(e).to_tree()])
    return _Run(prog, inst, point).expr(prog.roots[0])


def required_point_names(
    exprs: Iterable[ExpressionLike], inst: Instantiation,
) -> tuple[str, ...]:
    """Variables a point must assign: free variables plus every dependent's slots."""
    return _Inventory(exprs).point_names(slots for slots, _poly in inst.dependents.values())


def draw_point(rng: Random, names: Sequence[str],
               arith: _Arithmetic | None = None) -> dict[str, Number]:
    """Random point: by default rational coordinates in [-2, 2] at resolution
    1/100; uniform mod p with the GF(p) arithmetic."""
    ar = RATIONALS if arith is None else arith
    return {n: ar.coordinate(rng) for n in names}


def fd_total(
    e: ExpressionLike,
    inst: Instantiation,
    point: Mapping[str, Number],
    variable: str,
    h: Fraction = FD_STEP,
) -> Number:
    """Central-difference total derivative along ``variable``.

    Jets are induced from the dependents' polynomials, so shifting the point
    shifts them consistently; the quotient therefore approximates the total
    derivative, not the plain partial.
    """
    prog = _Program([as_expression(e).to_tree()])
    x0 = point[variable]
    hi = _Run(prog, inst, {**point, variable: x0 + h}).expr(prog.roots[0])
    lo = _Run(prog, inst, {**point, variable: x0 - h}).expr(prog.roots[0])
    return (hi - lo) / (2 * h)


@dataclass
class CheckResult:
    """``max_error`` is the largest relative error on the float path, and the
    share of disagreeing points in GF(p); ``worst_point`` is the point of the
    largest error, or the first disagreeing one.  ``prime`` is the p a GF(p)
    check drew, and ``None`` on the float path.
    ``miss_bound`` is ``None`` on the float path, and ``float_rules`` names
    what sent the check there, ``"exp"`` and ``"log"``; it is empty in
    GF(p)."""

    ok: bool
    points: int
    max_error: float
    worst_point: dict[str, Number] | None = None
    miss_bound: float | None = None
    float_rules: tuple[str, ...] = ()
    prime: int | None = None

    def __bool__(self):
        return self.ok


def check_identity(
    lhs: ExpressionLike | Mapping,
    rhs: ExpressionLike | Mapping,
    dep_vars: Mapping[str, Sequence[str]],
    *,
    seed: int | None = None,
    points: int = DEFAULT_POINTS,
    tol: float = DEFAULT_TOL,
    assumptions: Sequence[ExpressionLike | Mapping] = (),
) -> CheckResult:
    """Compare two expressions at random admissible points.

    A side or assumption that is a mapping is read as an atom table of
    :meth:`Expression.to_tree`, as a state file holds it, with no expression
    built; one that describes no expression is a ``ValueError``.  Anything
    else is an expression (:func:`as_expression`), compiled from its table.

    Every point gets a fresh instantiation.  A draw is discarded when an
    assumption or an internal denominator vanishes there (is 0 mod p, or lies
    within the magnitude floor on the float path); after :data:`MAX_ATTEMPTS`
    discards in a row the check errors out.  ``points`` must be at least 1
    and ``tol`` finite and non-negative, so a pass means something was
    compared; ``tol`` decides only on the float path, for checks with exp or
    log.  A GF(p) check draws its prime from ``seed`` first, so the same seed
    gives the same prime and the same points.  A GF(p) check whose miss
    bound reaches 1, a float-path check whose degree bound, or that of an
    exp or log argument, exceeds 2^16, and one whose values exceed floating
    point, error out.  See the module docstring.
    """
    prog = _Program([x if isinstance(x, Mapping) else as_expression(x).to_tree()
                     for x in (lhs, rhs, *assumptions)])
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    seed = DEFAULT_SEED if seed is None else seed
    rng = Random(seed)
    inv = _Inventory(prog, dep_vars=dep_vars)
    li, ri, *assumed = prog.roots
    if inv.float_rules:  # an exp or log needs real values
        ar, bound = RATIONALS, None
        inv.degree_bound(li, ri, assumed, _MAX_FLOAT_DEGREE, "exceeds 2^16, beyond what "
                         "exact rational evaluation reaches in reasonable time")
    else:
        ar = _Modular(_seeded_prime(rng, seed))
        bound = inv.miss_bound(li, ri, assumed, points, ar.p)
    names = inv.point_names(tuple(dep_vars[d]) for d in inv.deps if d in dep_vars)
    failed = 0
    max_err = 0.0
    worst = None
    for _ in range(points):
        for _attempt in range(MAX_ATTEMPTS):
            inst = Instantiation.for_expressions(inv, rng, dep_vars, arith=ar)
            pt = draw_point(rng, names, ar)
            run = _Run(prog, inst, pt)
            try:
                for i in assumed:
                    if ar.vanishes(run.expr(i)):
                        raise AssumptionViolationError("assumption vanishes at this point")
                v1 = run.expr(li)
                v2 = run.expr(ri)
                if ar is RATIONALS:
                    err = abs(v1 - v2) / (1 + max(abs(v1), abs(v2)))
            except (AssumptionViolationError, ZeroDivisionError):
                continue
            except OverflowError:
                raise EvaluationError(
                    "the values of this check exceed the range of floating point") from None
            break
        else:
            raise EvaluationError(
                f"no admissible point found in {MAX_ATTEMPTS} attempts")
        if ar is not RATIONALS:
            if v1 != v2:
                failed += 1
                if worst is None:
                    worst = pt
            continue
        if err > max_err:
            max_err = float(err)
            worst = pt
        if err > tol:
            failed += 1
    if ar is not RATIONALS:
        max_err = failed / points
    return CheckResult(ok=not failed, points=points, max_error=max_err, worst_point=worst,
                       miss_bound=bound, float_rules=inv.float_rules, prime=ar.p)


def read_tables(tables: Sequence) -> None:
    """Raise ``ValueError`` unless each of ``tables`` is an atom table of
    :meth:`Expression.to_tree` that describes an expression."""
    _Program(tables)
