"""The CLI's exit-code contract on token soup: corpus sessions with random
tokens spliced in, under argv drawn from the seven commands.

* the exit code is 0, 1 or 2;
* it is 2 exactly when the JSON on stdout has an ``"error"``;
* a session the parser rejects prints no traceback.

Spliced exponents are single digits up to 3, and a session holds at most one
``^``, so no input builds an expression large enough to need a size bound.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from eqvlab.cli import main

from conftest import CORPUS

_LEXEME = re.compile(r":=|[A-Za-z_][A-Za-z0-9_]*|\d+|\S")


def _statements(path: Path) -> list[list[str]]:
    return [_LEXEME.findall(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


SESSIONS = [_statements(p) for p in sorted(CORPUS.glob("*.eqv"))]
STATEMENTS = sorted({tuple(s) for session in SESSIONS for s in session})
TOKENS = [
    "(", ")", "[", "]", ",", ";", ":", ":=", "=", "+", "-", "*", "/", "^", "#",
    "0", "1", "2", "3", "t", "x", "y", "z", "u", "w", "k1", "D", "exp", "log", "int",
    "catalog", "glin", "hyperu", "family", "transform", "equation", "func", "param",
    "indep", "dep", "a1", "a3", "R", "T", "F", "E",
]
FAMILIES = ["F", "A", "B", "E", "glin(3)", "gliny(3)", "glin(2)", "hyperu", "hyper(1)", "no such"]
TRANSFORMS = ["Tscale", "Tshift", "Tsep", "Tmixed", "Tgen", "Texp", "Taff", "Tconst", "T"]
EXPRESSIONS = ["a1(x)*a2(t)", "x", "t*x + 1", "", "(", "exp(t)*a3(t,x)", "a1(x)^3",
               "D[u,t]", "int(x, x)", "log(t)", "q(x)", "1/(t - t)", "a1(a1(x))"]
OPTIONS = {
    "--family": st.sampled_from(FAMILIES),
    "--family-a": st.sampled_from(FAMILIES),
    "--family-b": st.sampled_from(FAMILIES),
    "--transform": st.sampled_from(TRANSFORMS),
    "--equation": st.sampled_from(["E", "F", "X"]),
    "--vars": st.sampled_from(["t,x,u", "x,t,u", "t,x", "a,b,c", ""]),
    "--a1": st.sampled_from(EXPRESSIONS),
    "--a2": st.sampled_from(EXPRESSIONS),
    "--a3": st.sampled_from(EXPRESSIONS),
    "--seed": st.integers(-5, 5).map(str),
    "--points": st.sampled_from(["1", "2", "0", "-1", "two"]),
    "--tol": st.sampled_from(["1e-6", "0", "-1", "nan", "inf"]),
}
# each command: the options it requires (a tuple is one of them) and those it may take
COMMANDS = {
    "transform": (("--transform", ("--family", "--equation")), ()),
    "check": (("--family", "--transform"), ()),
    "induced-action": (("--family", "--transform"), ()),
    "theorem-check": (("--family-a", "--family-b", "--transform"), ()),
    "invariants": ((("--family", "--equation"),), ("--vars", "--a1", "--a2", "--a3")),
    "reduce": ((("--family", "--equation"),), ("--vars", "--a1", "--a2", "--a3")),
    "oracle": ((), ("--seed", "--points", "--tol")),
}


@st.composite
def invocations(draw) -> tuple[str, list[str]]:
    """A session text and a command line that mostly names what it declares."""
    base = draw(st.sampled_from(SESSIONS))
    declared = {kind: sorted({s[1] for s in base if s[0] == kind and len(s) > 1})
                for kind in ("family", "transform", "equation")}
    statements = [list(s) for s in base]
    if draw(st.booleans()):
        statements += [list(s) for s in draw(st.lists(st.sampled_from(STATEMENTS), max_size=2))]
        statements = draw(st.permutations(statements))
    # tokens are spliced into about half the sessions; the rest reach the commands
    edits = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                               st.sampled_from(TOKENS + [None])), max_size=6)
    for line, pos, token in draw(edits) if draw(st.booleans()) else ():
        lexemes = statements[line % len(statements)]
        i = pos % (len(lexemes) + 1)
        if token is None:
            del lexemes[i:i + 1]
        else:
            lexemes.insert(i, token)
    assume(sum(s.count("^") for s in statements) <= 1)

    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = [draw(st.sampled_from(f)) if isinstance(f, tuple) else f for f in required]
    flags += [f for f in optional if draw(st.booleans())]
    if draw(st.sampled_from([False, False, False, True])):
        flags.append(draw(st.sampled_from(sorted(OPTIONS))))
    argv = [command]
    for flag in flags:
        kind = flag[2:].split("-")[0]
        values = OPTIONS[flag]
        if declared.get(kind):
            values = st.one_of(st.sampled_from(declared[kind]), values)
        argv += [flag, draw(values)]
    return "\n".join(" ".join(s) for s in statements), argv


def _run(argv: list[str]) -> tuple[int, dict, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, json.loads(out.getvalue()), err.getvalue()


def _assert_contract(code: int, report: dict, stderr: str, argv: list[str]) -> None:
    assert code in (0, 1, 2), argv
    assert (code == 2) == ("error" in report), argv
    if code == 2 and report["error"]["type"] == "ParseError":
        assert "Traceback" not in stderr, argv


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(invocation=invocations())
def test_cli_contract_holds_on_token_soup(invocation):
    text, argv = invocation
    with tempfile.TemporaryDirectory() as tmp:
        session, state = Path(tmp) / "s.eqv", Path(tmp) / "state.json"
        session.write_text(text, encoding="utf-8")
        files = ["--state", str(state)]
        # oracle loads no session, so it takes no --session
        if argv[0] != "oracle":
            files += ["--session", str(session)]
        code, report, stderr = _run(argv + files)
        _assert_contract(code, report, stderr, argv)
        # what a symbolic command leaves behind replays under the same contract
        if code != 2 and argv[0] != "oracle":
            _assert_contract(*_run(["oracle", "--state", str(state)]), ["oracle"])
