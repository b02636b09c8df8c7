"""Line-oriented session language.

A session file declares names, then uses them:

    indep t x y z;
    dep u w;
    func R(y); func S(z); func L(y,z);
    family F := catalog(hyperu);
    transform T: t = R(y); x = S(z); u = L(y,z)*w;

Statements end with ``;``.  Expressions use ``+ - * / ^`` (integer exponents),
``exp(...)``, ``log(...)``, ``int(expr, var)`` for antiderivatives, ``D[u,t,x]``
for jets, and ``D[a1,1](t,x)`` for slot derivatives of function symbols.  A
family can also be written inline, ``family F: <expression> = 0;``: a template
that ``EquationFamily.from_template`` reads, each of its refusals a
``ParseError`` at the family's name.  Every name must be declared before use;
errors carry line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EqvError, ParseError, UnknownFamilyError
from .expressions import (
    Expression,
    antiderivative,
    as_expression,
    exp,
    func,
    jet,
    log,
    param,
    var,
)
from .families import EquationFamily, catalog
from .prolongation import PointTransformation

__all__ = ["Session", "parse", "parse_expression", "Token"]

_KEYWORDS = {
    "indep", "dep", "func", "param", "family", "transform", "equation",
    "catalog", "int", "exp", "log", "D",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<coloneq>:=)
  | (?P<sym>[()\[\],;:=+\-*/^])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass
class Session:
    """Declarations and definitions accumulated from a session file."""

    indep_vars: tuple[str, ...] = ()
    dep_vars: tuple[str, ...] = ()
    funcs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    params: tuple[str, ...] = ()
    families: dict[str, EquationFamily] = field(default_factory=dict)
    transforms: dict[str, PointTransformation] = field(default_factory=dict)
    equations: dict[str, Expression] = field(default_factory=dict)
    # slot functions registered by families rather than by explicit func
    # statements; names that families disagree about go to ambiguous_funcs and
    # only error when an expression uses them
    auto_funcs: set[str] = field(default_factory=set)
    ambiguous_funcs: set[str] = field(default_factory=set)

    def kind_of(self, name: str) -> str | None:
        if name in self.indep_vars:
            return "indep"
        if name in self.dep_vars:
            return "dep"
        if name in self.funcs:
            return "func"
        if name in self.params:
            return "param"
        if name in self.families:
            return "family"
        if name in self.transforms:
            return "transform"
        if name in self.equations:
            return "equation"
        return None

    def dep_slots(self, tr: PointTransformation) -> dict[str, tuple[str, ...]]:
        """Independent variables of each dependent, as a transformation fixes them."""
        return {tr.old_dep: tuple(tr.old_vars), tr.new_dep: tuple(tr.new_vars)}


# how deeply brackets, function arguments and exp/log/int bodies may nest; each
# level costs a few Python frames, so this keeps parsing well inside the
# interpreter's recursion limit
_MAX_DEPTH = 150


class _Parser:
    def __init__(self, text: str, session: Session | None = None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.session = session if session is not None else Session()

    # ---- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            got = t.value if t.kind != "eof" else "end of input"
            self.fail(f"expected {want!r}, found {got!r}", t)
        return self.next()

    def at_sym(self, value: str) -> bool:
        t = self.peek()
        return t.kind in ("sym", "coloneq") and t.value == value

    def eat_sym(self, value: str) -> bool:
        if self.at_sym(value):
            self.next()
            return True
        return False

    # ---- declarations

    def parse_session(self) -> Session:
        while self.peek().kind != "eof":
            self.statement()
        return self.session

    def statement(self):
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected a statement keyword", t)
        handler = {
            "indep": self.stmt_vars,
            "dep": self.stmt_vars,
            "func": self.stmt_func,
            "param": self.stmt_vars,
            "family": self.stmt_family,
            "transform": self.stmt_transform,
            "equation": self.stmt_equation,
        }.get(t.value)
        if handler is None:
            self.fail(f"unknown statement {t.value!r}", t)
        handler()

    def declare(self, name: str, tok: Token):
        if name in _KEYWORDS:
            self.fail(f"{name!r} is reserved", tok)
        if self.session.kind_of(name) is not None:
            self.fail(f"{name!r} is already declared", tok)

    def stmt_vars(self):
        kw = self.next().value
        names = []
        while self.peek().kind == "ident":
            t = self.next()
            self.declare(t.value, t)
            names.append(t.value)
        if not names:
            self.fail(f"{kw!r} needs at least one name")
        self.expect("sym", ";")
        s = self.session
        if kw == "indep":
            s.indep_vars += tuple(names)
        elif kw == "dep":
            s.dep_vars += tuple(names)
        else:
            s.params += tuple(names)

    def stmt_func(self):
        self.next()
        name_tok = self.expect("ident")
        self.declare(name_tok.value, name_tok)
        self.expect("sym", "(")
        args = []
        while True:
            t = self.expect("ident")
            if self.session.kind_of(t.value) not in ("indep", "dep"):
                self.fail(f"function argument {t.value!r} is not a declared variable", t)
            args.append(t.value)
            if not self.eat_sym(","):
                break
        self.expect("sym", ")")
        self.expect("sym", ";")
        self.session.funcs[name_tok.value] = tuple(args)

    def stmt_family(self):
        self.next()
        name_tok = self.expect("ident")
        self.declare(name_tok.value, name_tok)
        if self.eat_sym(":="):
            self.expect("ident", "catalog")
            self.expect("sym", "(")
            cat_tok = self.expect("ident")
            order = None
            if self.eat_sym(","):
                order = int(self.expect("int").value)
            self.expect("sym", ")")
            self.expect("sym", ";")
            try:
                fam = catalog(cat_tok.value, order)
            except (UnknownFamilyError, ValueError) as exc:
                self.fail(str(exc), cat_tok)
            fam = EquationFamily(name_tok.value, fam.indep_vars, fam.dep, fam.lead, fam.slots)
            self._register_family(fam, name_tok)
            return
        self.expect("sym", ":")
        lhs = self.expression()
        self.expect("sym", "=")
        rhs = self.expression()
        self.expect("sym", ";")
        try:
            fam = EquationFamily.from_template(name_tok.value, lhs - rhs,
                                               self.session.indep_vars)
        except (ValueError, EqvError) as exc:
            self.fail(str(exc), name_tok)
        self._register_family(fam, name_tok)

    def _register_family(self, fam: EquationFamily, tok: Token):
        for v in fam.indep_vars:
            if self.session.kind_of(v) != "indep":
                self.fail(f"family variable {v!r} is not a declared independent variable", tok)
        if self.session.kind_of(fam.dep) != "dep":
            self.fail(f"family dependent {fam.dep!r} is not declared", tok)
        for s in fam.slots:
            if self.session.kind_of(s.name) not in (None, "func"):
                self.fail(f"slot name {s.name!r} is already used for something else",
                          tok)
            known = self.session.funcs.get(s.name)
            want = tuple(a.text for a in s.args)
            if known is None:
                self.session.funcs[s.name] = want
                self.session.auto_funcs.add(s.name)
            elif known != want:
                if s.name in self.session.auto_funcs:
                    self.session.ambiguous_funcs.add(s.name)
                else:
                    self.fail(
                        f"slot {s.name!r} conflicts with the declared "
                        f"function {s.name}({', '.join(known)})", tok)
        self.session.families[fam.name] = fam

    def stmt_transform(self):
        kw_tok = self.next()
        name_tok = self.expect("ident")
        self.declare(name_tok.value, name_tok)
        self.expect("sym", ":")
        assigns: dict[str, Expression] = {}
        targets: list[Token] = []
        while self.peek().kind == "ident" and self.peek(1).value == "=" \
                and self.peek().value not in ("indep", "dep", "func", "param",
                                              "family", "transform", "equation"):
            t = self.next()
            if self.session.kind_of(t.value) not in ("indep", "dep"):
                self.fail(f"{t.value!r} is not a declared variable", t)
            if t.value in assigns:
                self.fail(f"{t.value!r} is assigned twice", t)
            self.expect("sym", "=")
            assigns[t.value] = self.expression()
            self.expect("sym", ";")
            targets.append(t)
        if not assigns:
            self.fail("a transformation needs at least one assignment", kw_tok)
        old_vars = [t.value for t in targets if self.session.kind_of(t.value) == "indep"]
        old_deps = [t.value for t in targets if self.session.kind_of(t.value) == "dep"]
        if len(old_deps) != 1:
            self.fail("a transformation must assign exactly one dependent variable",
                      name_tok)
        new_vars = [v for v in self.session.indep_vars if v not in assigns]
        new_deps = [v for v in self.session.dep_vars if v not in assigns]
        if len(new_vars) != len(old_vars):
            self.fail(
                f"{len(old_vars)} variables are mapped but {len(new_vars)} remain "
                "as targets", name_tok)
        if len(new_deps) != 1:
            self.fail("exactly one dependent variable must remain as the target",
                      name_tok)
        try:
            tr = PointTransformation(
                tuple(old_vars), old_deps[0], tuple(new_vars), new_deps[0],
                {v: assigns[v] for v in old_vars}, assigns[old_deps[0]])
        except Exception as exc:
            self.fail(str(exc), name_tok)
        self.session.transforms[name_tok.value] = tr

    def stmt_equation(self):
        self.next()
        name_tok = self.expect("ident")
        self.declare(name_tok.value, name_tok)
        self.expect("sym", ":")
        lhs = self.expression()
        rhs = as_expression(0)
        if self.eat_sym("="):
            rhs = self.expression()
        self.expect("sym", ";")
        self.session.equations[name_tok.value] = lhs - rhs

    # ---- expressions

    def expression(self) -> Expression:
        # every nesting level passes through here; depth counts those around it
        if self.depth > _MAX_DEPTH:
            self.fail(f"expression nested deeper than {_MAX_DEPTH} levels")
        self.depth += 1
        e = self.term()
        while True:
            if self.eat_sym("+"):
                e = e + self.term()
            elif self.eat_sym("-"):
                e = e - self.term()
            else:
                self.depth -= 1
                return e

    def term(self) -> Expression:
        e = self.unary()
        while True:
            if self.eat_sym("*"):
                e = e * self.unary()
            elif self.eat_sym("/"):
                t = self.peek()
                rhs = self.unary()
                if rhs.is_zero():
                    self.fail("division by zero", t)
                e = e / rhs
            else:
                return e

    def unary(self) -> Expression:
        # prefix signs bind looser than powers: -x^2 is -(x^2).  Signs and
        # powers loop rather than recurse, so a long run of signs costs no
        # stack and a nesting level costs one frame less
        negate = False
        while True:
            if self.eat_sym("-"):
                negate = not negate
            elif not self.eat_sym("+"):
                break
        e = self.base()
        while self.at_sym("^"):
            self.next()
            t = self.expect("int")
            e = e ** int(t.value)
        return -e if negate else e

    def base(self) -> Expression:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return as_expression(Fraction(t.value))
        if self.eat_sym("("):
            e = self.expression()
            self.expect("sym", ")")
            return e
        if t.kind != "ident":
            self.fail("expected an expression", t)
        if t.value == "D":
            return self.jet_or_derivative()
        if t.value == "int":
            self.next()
            self.expect("sym", "(")
            body = self.expression()
            self.expect("sym", ",")
            v = self.expect("ident")
            if self.session.kind_of(v.value) != "indep":
                self.fail(f"{v.value!r} is not an independent variable", v)
            self.expect("sym", ")")
            return antiderivative(body, v.value)
        if t.value in ("exp", "log"):
            self.next()
            self.expect("sym", "(")
            body = self.expression()
            self.expect("sym", ")")
            return exp(body) if t.value == "exp" else log(body)
        return self.name_or_call()

    def jet_or_derivative(self) -> Expression:
        d_tok = self.next()
        self.expect("sym", "[")
        head = self.expect("ident")
        items: list[Token] = []
        while self.eat_sym(","):
            it = self.peek()
            if it.kind not in ("ident", "int"):
                self.fail("expected a variable name or slot number", it)
            items.append(self.next())
        self.expect("sym", "]")
        kind = self.session.kind_of(head.value)
        if all(i.kind == "int" for i in items) and items and kind == "func":
            slots = tuple(int(i.value) for i in items)
            args = self.call_args(head, slots=slots)
            return func(head.value, *args, d=slots)
        if kind == "dep":
            index = []
            for i in items:
                if i.kind != "ident":
                    self.fail("jet indices are variable names", i)
                if self.session.kind_of(i.value) != "indep":
                    self.fail(f"{i.value!r} is not an independent variable", i)
                index.append(i.value)
            return jet(head.value, *index)
        if kind == "func":
            self.fail(
                f"derivative slots of {head.value!r} must be slot numbers", d_tok)
        self.fail(f"{head.value!r} is neither a dependent variable nor a function",
                  head)

    def call_args(self, name_tok: Token, slots: tuple[int, ...] = ()) -> list[Expression]:
        if name_tok.value in self.session.ambiguous_funcs:
            self.fail(
                f"{name_tok.value!r} names different coefficients in different "
                "families; declare it with a func statement to use it here", name_tok)
        declared = self.session.funcs.get(name_tok.value)
        if declared is None:
            self.fail(f"{name_tok.value!r} is not a declared function", name_tok)
        self.expect("sym", "(")
        args = [self.expression()]
        while self.eat_sym(","):
            args.append(self.expression())
        self.expect("sym", ")")
        if len(args) != len(declared):
            self.fail(
                f"{name_tok.value!r} takes {len(declared)} arguments, got {len(args)}",
                name_tok)
        for s in slots:
            if not 1 <= s <= len(declared):
                self.fail(f"{name_tok.value!r} has no slot {s}", name_tok)
        return args

    def name_or_call(self) -> Expression:
        t = self.next()
        kind = self.session.kind_of(t.value)
        if self.at_sym("("):
            if kind not in (None, "func"):
                self.fail(f"{t.value!r} is not a function", t)
            args = self.call_args(t)
            return func(t.value, *args)
        if kind == "indep":
            return var(t.value)
        if kind == "dep":
            return jet(t.value)
        if kind == "param":
            return param(t.value)
        if kind == "func":
            self.fail(f"function {t.value!r} needs an argument list", t)
        self.fail(f"{t.value!r} is not declared", t)


def parse(text: str) -> Session:
    """Parse a session file."""
    return _Parser(text).parse_session()


def parse_expression(text: str, session: Session | None = None) -> Expression:
    """Parse a single expression against a session's declarations."""
    p = _Parser(text, session)
    e = p.expression()
    if p.peek().kind != "eof":
        p.fail("trailing input after the expression")
    return e
