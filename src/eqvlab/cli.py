"""Command-line front end.

JSON goes to standard output, commentary to standard error, and the exit code
states the verdict: 0 when the result is positive (equivalence holds, the
identity checks out), 1 when it is negative, 2 on any error.  Each symbolic
command leaves behind a state file of check pairs, written as the atom tables
of :meth:`Expression.to_tree`; ``oracle`` checks the file's fields and replays
each pair numerically, its tables compiled straight into the oracle's check
program, with no expression rebuilt.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import traceback
from pathlib import Path

from .errors import EqvError
from .expressions import (
    Expression, Var, as_expression, collect_numerators, param, partial,
    polynomial_jets)
from .families import EQUIVALENCE, EquationFamily, catalog, check_equivalence, theorem_instance_check
from .hyperbolic import HyperbolicEquation
from .oracle import (
    DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL, check_identity, read_tables)
from .parser import Session, parse, parse_expression
from .prolongation import transform_derivatives

__all__ = ["main"]

DEFAULT_STATE = ".eqvlab-state.json"
DEFAULT_CONFIG = "eqvlab.json"

_CATALOG_REF = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\((\d+)\))?$")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # raise instead of exiting, so usage errors keep the JSON exit-2 contract
        self.print_usage(sys.stderr)
        raise ValueError(message)


def main(argv=None) -> int:
    args = None
    try:
        args = _parser().parse_args(argv)
        result, positive = _dispatch(args)
    except Exception as exc:
        # any failure, expected or not, is an error report and never a verdict
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _emit(err, args)
        print(f"error: {exc}", file=sys.stderr)
        if not isinstance(exc, (EqvError, OSError, ValueError, KeyError)):
            traceback.print_exc()  # not a failure this package reports on purpose
        return 2
    _emit(result, args)
    return 0 if positive else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused: parse_args keeps no state
    p = _Parser(
        prog="eqvlab",
        description="Equivalence transformations and invariants of equation families.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, state_help):
        sp.add_argument("--state", default=DEFAULT_STATE, help=state_help)
        sp.add_argument("--json-out", help="also write the JSON report to this path")

    def symbolic(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--session", help="session file (.eqv)")
        common(sp, "where to record check pairs for the oracle command")
        return sp

    sp = symbolic("transform", "apply a transformation and lead-normalize")
    sp.add_argument("--transform", required=True)
    sp.add_argument("--family")
    sp.add_argument("--equation")

    for name, help_text in (
            ("check", "decide whether a transformation preserves a family's form"),
            ("induced-action", "extract the coefficient action of a form-preserving map")):
        sp = symbolic(name, help_text)
        sp.add_argument("--family", required=True)
        sp.add_argument("--transform", required=True)

    sp = symbolic("theorem-check", "containment of equivalence maps under argument enlargement")
    sp.add_argument("--family-a", required=True)
    sp.add_argument("--family-b", required=True)
    sp.add_argument("--transform", required=True)

    for name, help_text in (
            ("invariants", "Laplace and derived invariants of a hyperbolic-shaped family"),
            ("reduce", "remove first-order terms by an exponential weight")):
        sp = symbolic(name, help_text)
        sp.add_argument("--family")
        sp.add_argument("--equation")
        sp.add_argument("--vars", help="comma-separated t,x,u names for --equation")
        for slot in ("a1", "a2", "a3"):
            sp.add_argument(f"--{slot}", help=f"override the {slot} coefficient")

    sp = sub.add_parser("oracle", help="re-validate the last symbolic result numerically")
    common(sp, "the state file of check pairs to replay")
    sp.add_argument("--config", help="JSON config with seed/tol/points defaults")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--points", type=int)
    return p


def _emit(obj, args):
    text = json.dumps(obj, indent=2)
    print(text)
    path = getattr(args, "json_out", None)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")


def _load_session(args) -> Session:
    if not args.session:
        return Session()
    return parse(Path(args.session).read_text(encoding="utf-8"))


def _resolve_family(spec: str, session: Session) -> EquationFamily:
    if spec in session.families:
        return session.families[spec]
    m = _CATALOG_REF.match(spec)
    if m is None:
        raise ValueError(f"cannot read family reference {spec!r}")
    return catalog(m.group(1), int(m.group(2)) if m.group(2) else None)


def _resolve_transform(name: str, session: Session):
    if name not in session.transforms:
        raise ValueError(f"no transformation {name!r} in the session")
    return session.transforms[name]


def _resolve_equation(name: str, session: Session):
    if name not in session.equations:
        raise ValueError(f"no equation {name!r} in the session")
    return session.equations[name]


def _write_state(args, command: str, checks, assumptions, dep_vars):
    state = {
        "command": command,
        "checks": [[l.to_tree(), r.to_tree()] for l, r in checks],
        "assumptions": [a.to_tree() for a in assumptions],
        "dep_vars": {k: list(v) for k, v in dep_vars.items()},
    }
    Path(args.state).write_text(json.dumps(state) + "\n", encoding="utf-8")


def _lead_normalize(e: Expression, dep: str) -> Expression | None:
    """Divide by the coefficient of the highest-order jet monomial present.

    Only jets at the polynomial level compete: a jet inside a function
    argument has no coefficient of its own.  None when there is no such
    coefficient: no jet of ``dep``, a denominator that carries its jets, or a
    highest jet with no term of its own."""
    jets = sorted(polynomial_jets(e, dep), key=lambda j: (len(j.index), j.text))
    if not jets:
        return None
    lead = as_expression(jets[-1])
    nums, _residual, _den = collect_numerators(e, [lead])
    n = nums[lead]
    # e / (n/den) is e.numerator() / n with the denominator cancelled
    return None if n.is_zero() else e.numerator() / n


def _dispatch(args):
    if args.command == "oracle":
        return _cmd_oracle(args)
    session = _load_session(args)
    return {
        "transform": _cmd_transform,
        "check": _cmd_check,
        "induced-action": _cmd_check,
        "theorem-check": _cmd_theorem,
        "invariants": _cmd_invariants,
        "reduce": _cmd_reduce,
    }[args.command](args, session)


def _cmd_transform(args, session):
    tr = _resolve_transform(args.transform, session)
    if bool(args.family) == bool(args.equation):
        raise ValueError("give exactly one of --family or --equation")
    if args.family:
        e = _resolve_family(args.family, session).rename(tr.old_vars, tr.old_dep).member()
    else:
        e = _resolve_equation(args.equation, session)
    # one prolongation serves the image and the first-order chain-rule checks
    pm = transform_derivatives(tr)
    te = pm.apply(e)
    # chain-rule recurrences D_k(psi) = sum_i D_k(phi_i) * (entry for d/dx_i):
    # exact identities the numeric oracle can replay point-wise.  Both sides
    # read the total derivatives the prolongation holds, D_k(phi_i) as its
    # matrix and D_k(psi) as the right-hand sides of the first-order solve.
    assumptions = pm.assumptions
    first = [pm[(v,)] for v in tr.old_vars]
    checks = [
        (dpsi, sum((d * f for d, f in zip(row, first)), start=as_expression(0)))
        for row, dpsi in zip(pm.matrix, pm.total_derivatives())]
    # the solved numerators and their total derivatives are most of the
    # command's peak memory, so the map is let go before normalizing
    del pm
    normalized = _lead_normalize(te, tr.new_dep)
    _write_state(args, "transform", checks, assumptions, session.dep_slots(tr))
    if normalized is None:
        normalized = te
        print(f"transformed; not normalized: the highest jet of {tr.new_dep} "
              f"has no coefficient of its own", file=sys.stderr)
    else:
        print(f"transformed and normalized on lead of {tr.new_dep}", file=sys.stderr)
    return {
        "command": "transform",
        "transformed": te.text,
        "lead_normalized": normalized.text,
        "assumptions": [a.text for a in assumptions],
    }, True


def _cmd_check(args, session):
    tr = _resolve_transform(args.transform, session)
    fam = _resolve_family(args.family, session)
    report = check_equivalence(fam, tr)
    ok = report.verdict == EQUIVALENCE
    checks = []
    if ok:
        checks.append((report.reconstruction(), report.expression))
    _write_state(args, args.command, checks, report.assumptions,
                 session.dep_slots(tr))
    out = report.to_json()
    if args.command == "induced-action":
        failures = out.pop("failures")
        if not ok:
            out["failures"] = failures
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return out, ok


def _cmd_theorem(args, session):
    tr = _resolve_transform(args.transform, session)
    fam_a = _resolve_family(args.family_a, session)
    fam_b = _resolve_family(args.family_b, session)
    result = theorem_instance_check(fam_a, fam_b, tr)
    checks = []
    if result.holds:
        checks.append((result.target_report.reconstruction(),
                       result.target_report.expression))
    _write_state(args, "theorem-check", checks, result.target_report.assumptions,
                 session.dep_slots(tr))
    print(f"containment instance holds: {result.holds}", file=sys.stderr)
    return {
        "holds": result.holds,
        "family_a": fam_a.name,
        "family_b": fam_b.name,
        "source_report": result.source_report.to_json(),
        "target_report": result.target_report.to_json(),
    }, result.holds


def _hyperbolic_input(args, session) -> HyperbolicEquation:
    if bool(args.family) == bool(args.equation):
        raise ValueError("give exactly one of --family or --equation")
    overrides = {n: v for n in ("a1", "a2", "a3") if (v := getattr(args, n)) is not None}
    if args.equation:
        e = _resolve_equation(args.equation, session)
        if overrides:
            raise ValueError("--a1, --a2 and --a3 replace slots of a family, not of --equation")
        if args.vars is not None:
            names = [s.strip() for s in args.vars.split(",")]
            if len(names) != 3 or len(set(names)) != 3 or not all(names):
                raise ValueError(
                    f"--vars takes three distinct comma-separated names t,x,u, not {args.vars!r}")
            t, x, u = names
        else:
            if len(session.indep_vars) < 2 or not session.dep_vars:
                raise ValueError("the session does not declare enough variables")
            t, x = session.indep_vars[:2]
            u = session.dep_vars[0]
        eq, _lead = HyperbolicEquation.from_expression(e, t, x, u)
        return eq
    if args.vars is not None:
        raise ValueError("--vars names the variables of --equation; a family declares its own")
    fam = _resolve_family(args.family, session)
    unknown = sorted(overrides.keys() - {s.name for s in fam.slots})
    if unknown:
        raise ValueError(f"family {fam.name!r} has no coefficient {unknown[0]!r} to replace")
    if len(fam.indep_vars) != 2:
        raise ValueError(f"family {fam.name!r} is not of the hyperbolic shape")
    mini = Session(indep_vars=fam.indep_vars, dep_vars=(fam.dep,),
                   funcs={s.name: tuple(a.text for a in s.args) for s in fam.slots})
    # each slot holds a constant while the template is read: an override read back off
    # the member would keep the member's denominator above and below (the kernel has no gcd)
    coeff = {param(s.name): parse_expression(overrides[s.name], mini) if s.name in overrides
             else s.func_expr() for s in fam.slots}
    member = fam.equation({s.name: param(s.name) for s in fam.slots})
    eq, _lead = HyperbolicEquation.from_expression(member, *fam.indep_vars, fam.dep)
    return HyperbolicEquation(*(coeff.get(c, c) for c in (eq.a1, eq.a2, eq.a3)),
                              *fam.indep_vars, fam.dep)


def _cmd_invariants(args, session):
    eq = _hyperbolic_input(args, session)
    inv = eq.invariants()
    checks = []
    if inv.p is not None:
        checks.append((inv.p * inv.k, inv.h))
    if inv.q is not None:
        ht = partial(inv.h, Var(eq.t))
        checks.append((inv.q * inv.h ** 3,
                       inv.h * partial(ht, Var(eq.x)) - ht * partial(inv.h, Var(eq.x))))
    _write_state(args, "invariants", checks, (), {})
    print("invariants computed", file=sys.stderr)
    return {"command": "invariants", **inv.to_json()}, True


def _cmd_reduce(args, session):
    eq = _hyperbolic_input(args, session)
    red = eq.reduce_to_canonical()
    _write_state(args, "reduce", [(red.b, red.b_closed)], (), {})
    print(f"reduced; wave equation: {red.wave}", file=sys.stderr)
    return {"command": "reduce", **red.to_json()}, True


def _cmd_oracle(args):
    cfg = _config(args)
    path = Path(args.state)
    if not path.exists():
        raise FileNotFoundError(f"no state file at {path}; run a symbolic command first")
    state = _read_state(path)
    dep_vars = {k: tuple(v) for k, v in state["dep_vars"].items()}
    results = []
    all_ok = True
    for i, (lhs, rhs) in enumerate(state["checks"], start=1):
        r = check_identity(
            lhs, rhs, dep_vars, seed=cfg["seed"], points=cfg["points"], tol=cfg["tol"],
            assumptions=state["assumptions"])
        results.append({"ok": r.ok, "max_error": r.max_error, "points": r.points,
                        "miss_bound": r.miss_bound})
        if r.prime is None:
            print(f"oracle: check {i} has no miss bound (it reaches "
                  f"{' and '.join(r.float_rules)}), so it was evaluated in rationals and "
                  "floating point and judged by tol", file=sys.stderr)
        all_ok = all_ok and r.ok
    print(f"oracle: {sum(1 for r in results if r['ok'])}/{len(results)} checks passed",
          file=sys.stderr)
    return {
        "command": "oracle",
        "source": state.get("command"),
        "checks": results,
        "ok": all_ok,
        "seed": cfg["seed"],
        "tol": cfg["tol"],
        "points": cfg["points"],
    }, all_ok


def _read_state(path: Path) -> dict:
    """The state file's object, its top-level fields checked (absent ones
    empty).  Each check reads the assumptions' tables with its sides; with no
    check they are read here, so that a malformed one exits 2 either way."""
    text = path.read_text(encoding="utf-8")
    try:
        state = json.loads(text)
    except RecursionError:
        raise ValueError(f"state file {path} is nested too deeply to read") from None
    if not isinstance(state, dict):
        raise ValueError(f"state file {path} does not hold a JSON object")
    # every side is a table: the oracle takes anything else for an expression
    checks = state.setdefault("checks", [])
    if not isinstance(checks, list) or any(
            type(c) is not list or len(c) != 2 or any(type(t) is not dict for t in c)
            for c in checks):
        raise ValueError("state field 'checks' is not a list of [lhs, rhs] table pairs")
    assumptions = state.setdefault("assumptions", [])
    if not isinstance(assumptions, list) or any(type(t) is not dict for t in assumptions):
        raise ValueError("state field 'assumptions' is not a list of tables")
    deps = state.setdefault("dep_vars", {})
    if not isinstance(deps, dict) or any(
            type(v) is not list or not all(isinstance(n, str) for n in v) for v in deps.values()):
        raise ValueError("state field 'dep_vars' is not an object of name lists")
    if not checks:
        read_tables(assumptions)
    return state


def _config(args):
    cfg = {"seed": DEFAULT_SEED, "tol": DEFAULT_TOL, "points": DEFAULT_POINTS}
    path = args.config or (DEFAULT_CONFIG if Path(DEFAULT_CONFIG).exists() else None)
    if path:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} does not hold a JSON object")
        for key in cfg:
            if key in loaded:
                val = loaded[key]
                kinds = (int, float) if key == "tol" else (int,)
                if type(val) not in kinds:
                    raise ValueError(f"config key {key!r} must be "
                                     f"{' or '.join(k.__name__ for k in kinds)}, "
                                     f"not {type(val).__name__}")
                cfg[key] = val
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


if __name__ == "__main__":
    sys.exit(main())
