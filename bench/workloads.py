"""The benchmark's workloads: seeded inputs, one operation, and known answers.

Each workload is a pool of operations built from the seed (see ``SHAPES``
for the part every seed shares).  A run
repeats the pool in cycles, rebuilding fresh input objects before each cycle
so that nothing an expression memoizes on itself carries over.

Why these three:

* ``containment`` stands for acceptance criterion 5, the batch of
  containment checks users wait on.  Concrete random polynomial maps make
  prolongation, ``ProlongedMap.apply`` and the coefficient division in
  ``match`` do large dense arithmetic; oracle, parser and CLI do no work.
  Known answer: every instance holds, because the containment statement says
  so.
* ``corpus-cli`` stands for the README commands over ``corpus/``: maps built
  from unspecified functions, positive and negative verdicts, the
  denominator-jet path, hyperbolic invariants, JSON rendering, session
  parsing and the oracle's re-parse plus numeric replay.  Each pass is a
  fresh interpreter, as for a command-line user.  Known answers: the table
  below, written from the comments of the corpus files.
* ``kernel-laws`` stands for acceptance criterion 8: many small kernel
  operations on mixed transcendental atoms, with no prolongation, ``match``,
  oracle or parser.  A change that speeds up big polynomial products but
  costs small mixed ones shows its cost here.  Known answer: every law
  difference is zero.

The generators are this file's own, so that editing the tests cannot move
the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from fractions import Fraction
from operator import add, mul, sub
from pathlib import Path
from random import Random

from eqvlab.cli import main
from eqvlab.expressions import (
    Var,
    antiderivative,
    as_expression,
    collect,
    exp,
    expr_sum,
    func,
    jet,
    log,
    normalize,
    param,
    partial,
    polynomial_jets,
    substitute,
    var,
)
from eqvlab.families import catalog, theorem_instance_check
from eqvlab.parser import parse
from eqvlab.prolongation import PointTransformation

from tracer import terms

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

CONTAINMENT_POOL = 600
KERNEL_POOL = 400
# Inputs are drawn from two streams.  Which monomials, nodes and leaf kinds
# appear, and which constants are zero (what an operation costs, mostly),
# comes from a stream shared by every seed; the seed draws the values:
# nonzero coefficients and constants, variable names.  Each input still
# follows the criterion's law, and a pool's cost no longer swings with the
# seed by the few heavy draws it happens to get.
SHAPES = 20111023


def _uniform(shape: Random, rng: Random, lo: int, hi: int) -> int:
    """``randint(lo, hi)`` with the zero-or-not decision taken by ``shape``."""
    if shape.randrange(hi - lo + 1) == 0:
        return 0
    return rng.choice([v for v in range(lo, hi + 1) if v])


# -- containment ------------------------------------------------------------

def _exponents(arity: int, degree: int):
    if arity == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in _exponents(arity - 1, degree - head):
            yield (head, *tail)


def _poly(shape: Random, rng: Random, names: tuple[str, ...], require: tuple[int, ...] = (0,)):
    """Random polynomial of total degree at most 2, drawn as criterion 5 draws
    its maps: each monomial present with probability 0.6, coefficients in
    [-9, 9]/[1, 3], and every slot in ``require`` guaranteed to appear."""
    arity = len(names)
    coeffs = {}
    for expo in _exponents(arity, 2):
        if shape.random() < 0.6:
            c = Fraction(_uniform(shape, rng, -9, 9), rng.randint(1, 3))
            if c:
                coeffs[expo] = c
    if not coeffs:
        coeffs[(0,) * arity] = Fraction(rng.randint(1, 5))
    for slot in require:
        if not any(e[slot] > 0 for e in coeffs):
            coeffs[tuple(int(j == slot) for j in range(arity))] = Fraction(rng.randint(1, 4))
    out = []
    for expo in sorted(coeffs):
        t = as_expression(coeffs[expo])
        for n, k in zip(names, expo):
            if k:
                t = t * var(n) ** k
        out.append(t)
    return expr_sum(out)


def containment_inputs(seed: int) -> list:
    """Instances cycling through the four containment pairs of criterion 5."""
    shape, rng = Random(SHAPES), Random(seed)
    y, z, w = var("y"), var("z"), jet("w")
    hyper = (("t", "x"), "u", ("y", "z"), "w")
    out = []
    for i in range(CONTAINMENT_POOL):
        kind = i % 4
        if kind == 0:
            pair = (catalog("glin", 3), catalog("gliny", 3))
            tr = PointTransformation(("x",), "y", ("z",), "w",
                                     {"x": _poly(shape, rng, ("z",))},
                                     _poly(shape, rng, ("z",)) * w)
        elif kind == 1:
            pair = (catalog("hyper"), catalog("hyperu"))
            tr = PointTransformation(*hyper,
                                     {"t": _poly(shape, rng, ("y",)),
                                      "x": _poly(shape, rng, ("z",))},
                                     _poly(shape, rng, ("y", "z"), (0, 1)) * w)
        elif kind == 2:
            pair = (catalog("hyperxp"), catalog("hyperu"))
            tr = PointTransformation(*hyper, {"t": y, "x": z},
                                     exp(_poly(shape, rng, ("y",))
                                         + _poly(shape, rng, ("z",))) * w)
        else:
            pair = (catalog("hypertt"), catalog("hyperu"))
            k1 = rng.randint(1, 9)
            tr = PointTransformation(*hyper,
                                     {"t": _poly(shape, rng, ("y",)),
                                      "x": k1 * z + rng.randint(-5, 5)},
                                     _poly(shape, rng, ("y",)) * exp(_uniform(shape, rng, -4, 4) * z) * w)
        out.append((*pair, tr))
    return out


def containment_op(inp):
    return theorem_instance_check(*inp)


def containment_check(inp, result) -> tuple[bool, int]:
    return result.holds is True, terms(result.target_report.coefficients)


# -- corpus-cli -------------------------------------------------------------

# (session, argv after --session, exit code, expected report fields); the
# answers come from the comments in corpus/*.eqv and the README, not from runs
CORPUS_COMMANDS = (
    ("ode_scale", ("check", "--family", "F", "--transform", "Tscale"), 0,
     {"verdict": "equivalence", "slots": {"a1", "a2", "a3"}}),
    ("ode_shift", ("check", "--family", "B", "--transform", "Tshift"), 0,
     {"verdict": "equivalence"}),
    ("ode_shift", ("check", "--family", "A", "--transform", "Tshift"), 1,
     {"verdict": "not-equivalence"}),
    ("ode_shift", ("theorem-check", "--family-a", "A", "--family-b", "B",
                   "--transform", "Tscale"), 0,
     {"holds": True}),
    ("ode_const", ("check", "--family", "F", "--transform", "Tconst"), 0,
     {"verdict": "equivalence"}),
    ("hyperbolic_scale", ("check", "--family", "F", "--transform", "Tscale"), 0,
     {"verdict": "equivalence"}),
    ("hyperbolic_scale", ("induced-action", "--family", "F", "--transform", "Tshift"), 0,
     {"verdict": "equivalence", "slots": {"a1", "a2", "a3"}}),
    ("hyperbolic_general", ("transform", "--family", "F", "--transform", "Tgen"), 0,
     {"command": "transform"}),
    ("hyperbolic_general", ("check", "--family", "F", "--transform", "Tgen"), 1,
     {"verdict": "not-equivalence", "failure_kinds": {"denominator-jets"}}),
    ("hyperbolic_mixed", ("check", "--family", "F", "--transform", "Tmixed"), 1,
     {"verdict": "not-equivalence", "failure_monomials_include": {"D[w,y,y]", "D[w,z,z]"}}),
    ("hyperbolic_tlinear", ("check", "--family", "F", "--transform", "Tsep"), 1,
     {"verdict": "not-equivalence", "failure_monomials": ["D[w,y]*D[w,z]"]}),
    ("hyperbolic_separable", ("induced-action", "--family", "F", "--transform", "Texp"), 0,
     {"verdict": "equivalence", "slots": {"a1", "a2", "a3"}}),
    ("hyperbolic_translation", ("check", "--family", "F", "--transform", "Taff"), 0,
     {"verdict": "equivalence"}),
    ("laplace", ("invariants", "--family", "F"), 0,
     {"command": "invariants"}),
    ("laplace", ("invariants", "--equation", "E"), 0,
     {"H": "-1", "K": "-1", "P": "1", "Q": "0"}),
    ("laplace", ("reduce", "--family", "F", "--a3", "a1(x)*a2(t)"), 0,
     {"wave": True, "b": "0"}),
)

# report keys whose string values are not expressions
_NOT_EXPRESSIONS = {"verdict", "kind", "command", "source", "family_a", "family_b",
                    "slot", "forbidden"}


def corpus_inputs(seed: int) -> list:
    """One pass: every command in a seeded order, each followed by an oracle
    replay of its state file.  State files live in the working directory,
    which the benchmark makes a scratch directory of its own."""
    rng = Random(seed)
    order = rng.sample(range(len(CORPUS_COMMANDS)), len(CORPUS_COMMANDS))
    oracle_seed = str(rng.randrange(1, 10**6))
    ops = []
    for k in order:
        session, argv, code, expect = CORPUS_COMMANDS[k]
        text = (CORPUS / f"{session}.eqv").read_text(encoding="utf-8")
        parsed = parse(text)
        named = dict(zip(argv[1::2], argv[2::2]))
        for flag, table in (("--family", parsed.families), ("--family-a", parsed.families),
                            ("--family-b", parsed.families), ("--transform", parsed.transforms),
                            ("--equation", parsed.equations)):
            if flag in named and named[flag] not in table:
                raise ValueError(f"{session}.eqv defines no {named[flag]!r} for {flag}")
        state = f"state-{k}.json"
        ops.append(([argv[0], "--session", str(CORPUS / f"{session}.eqv"),
                     "--state", state, *argv[1:]], code, expect))
        ops.append((["oracle", "--state", state, "--seed", oracle_seed], 0,
                     {"ok": True, "source": argv[0]}))
    return ops


def corpus_op(inp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(inp[0])
    return code, out.getvalue()


def _expected(report: dict, expect: dict) -> bool:
    for key, want in expect.items():
        if key == "slots":
            got = set(report.get("induced_action", {}))
        elif key == "failure_kinds":
            got = {f["kind"] for f in report.get("failures", [])}
        elif key == "failure_monomials":
            got = [f["monomial"] for f in report.get("failures", [])]
        elif key == "failure_monomials_include":
            got = {f["monomial"] for f in report.get("failures", [])} & want
        else:
            got = report.get(key)
        if got != want:
            return False
    return True


_TOKENS = re.compile(r"[(\[]|[)\]]| [+-] ")


def _printed_terms(text: str) -> int:
    """Terms of an expression as the CLI prints it: numerator plus denominator
    terms for ``(num)/(den)``, else the terms of the polynomial."""
    depth, count, close = 0, 1, None
    for m in _TOKENS.finditer(text):
        tok = m.group()
        if tok in "([":
            depth += 1
        elif tok in ")]":
            depth -= 1
            if depth == 0 and close is None:
                close = m.start()
        elif depth == 0:
            count += 1
    if count == 1 and close is not None and text.startswith("(") and text[close:close + 3] == ")/(":
        return _printed_terms(text[1:close]) + _printed_terms(text[close + 3:-1])
    return count


def _report_terms(obj, key=None) -> int:
    if isinstance(obj, dict):
        return sum(_report_terms(v, k) for k, v in obj.items())
    if isinstance(obj, list):
        return sum(_report_terms(v, key) for v in obj)
    if isinstance(obj, str) and key not in _NOT_EXPRESSIONS:
        return _printed_terms(obj)
    return 0


def corpus_check(inp, result) -> tuple[bool, int]:
    _argv, want_code, expect = inp
    code, text = result
    report = json.loads(text)
    ok = code == want_code and "error" not in report and _expected(report, expect)
    return ok, _report_terms(report)


# -- kernel-laws ------------------------------------------------------------

def _random_expression(shape: Random, rng: Random, depth: int = 3, transcendental: bool = True):
    """Random expression over y, z, jets of w, a parameter, F(y,z), exp, log
    and int, with the leaf and node weights of the criterion-8 sweeps."""
    names = ("y", "z")
    if depth == 0:
        roll = shape.randrange(8)
        if roll < 3:
            return var(rng.choice(names))
        if roll < 4:
            return as_expression(Fraction(_uniform(shape, rng, -4, 4), rng.randint(1, 3)))
        if roll < 5:
            return param("c" + str(rng.randint(1, 2)))
        if roll < 7:
            return jet("w", *rng.sample(names, shape.randint(0, 2)))
        return func("F", var("y"), var("z"))
    a = _random_expression(shape, rng, depth - 1, transcendental)
    b = _random_expression(shape, rng, depth - 1, transcendental)
    roll = shape.randrange(10 if transcendental else 7)
    if roll < 3:
        return a + b
    if roll < 5:
        return a * b
    if roll < 6:
        return a - b
    if roll < 7:
        # denominators stay provably nonzero
        return a / (as_expression(2) + var("y") ** 2)
    if roll < 8:
        return exp(var(rng.choice(names)) * _uniform(shape, rng, -2, 2))
    if roll < 9:
        return log(as_expression(1) + var("y") ** 2)
    return antiderivative(a, rng.choice(names))


def kernel_inputs(seed: int) -> list:
    """Per case: one mixed expression and a non-transcendental pair for the
    substitution law, which criterion 8 only states on such pairs."""
    shape, rng = Random(SHAPES), Random(seed)
    z = var("z")
    binding = {Var("y"): 1 + z * z}
    return [(_random_expression(shape, rng),
             _random_expression(shape, rng, transcendental=False),
             _random_expression(shape, rng, transcendental=False),
             binding)
            for _ in range(KERNEL_POOL)]


def kernel_op(inp):
    e, a, b, binding = inp
    y, z = Var("y"), Var("z")
    n = normalize(e)
    d_yz = partial(partial(e, y), z)
    d_zy = partial(partial(e, z), y)
    sa, sb = substitute(a, binding), substitute(b, binding)
    s_sum = substitute(add(a, b), binding)
    s_prod = substitute(mul(a, b), binding)
    monos = [as_expression(j) for j in sorted(polynomial_jets(e, "w"), key=lambda j: j.text)]
    coeffs, residual = collect(e, monos)
    back = add(expr_sum(mul(coeffs[m], m) for m in monos), residual)
    laws = (
        normalize(n) == n,
        sub(d_yz, d_zy).is_zero(),
        sub(s_sum, add(sa, sb)).is_zero(),
        sub(s_prod, mul(sa, sb)).is_zero(),
        sub(back, e).is_zero(),
    )
    return laws, (d_yz, d_zy, sa, sb, s_sum, s_prod)


def kernel_check(inp, result) -> tuple[bool, int]:
    laws, outputs = result
    return all(laws), terms(outputs)


WORKLOADS = {
    "containment": (containment_inputs, containment_op, containment_check),
    "corpus-cli": (corpus_inputs, corpus_op, corpus_check),
    "kernel-laws": (kernel_inputs, kernel_op, kernel_check),
}
