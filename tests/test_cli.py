"""Command-line behavior: exit codes, JSON output, state files, oracle replay."""

import json
import math
import re
import time

import pytest

from eqvlab import (
    Expression, Param, ParseError, Session, antiderivative, catalog, exp, func, jet, log, parse,
    parse_expression, var)
from eqvlab import cli, prolongation
from eqvlab.cli import main

from conftest import CORPUS


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def session_args(name, tmp_path):
    return ["--session", CORPUS / name, "--state", tmp_path / "state.json"]


def laplace_session():
    return parse((CORPUS / "laplace.eqv").read_text(encoding="utf-8"))


def test_check_positive_then_oracle(capsys, tmp_path):
    code, out = run(capsys, "check", *session_args("ode_scale.eqv", tmp_path),
                    "--family", "F", "--transform", "Tscale")
    assert code == 0
    assert out["verdict"] == "equivalence"
    assert set(out["induced_action"]) == {"a1", "a2", "a3"}
    assert out["failures"] == []
    state = json.loads((tmp_path / "state.json").read_text())
    assert state["command"] == "check" and state["checks"]

    code, out = run(capsys, "oracle", "--state", tmp_path / "state.json", "--seed", 11)
    assert code == 0
    assert out["ok"] and out["source"] == "check"
    assert all(c["ok"] and c["max_error"] <= 1e-6 for c in out["checks"])


def test_check_negative_exit_code_and_failures(capsys, tmp_path):
    code, out = run(capsys, "check", *session_args("ode_shift.eqv", tmp_path),
                    "--family", "A", "--transform", "Tshift")
    assert code == 1
    assert out["verdict"] == "not-equivalence"
    assert out["failures"]
    # the same shift is fine once coefficients may depend on the dependent variable
    code, out = run(capsys, "check", *session_args("ode_shift.eqv", tmp_path),
                    "--family", "B", "--transform", "Tshift")
    assert code == 0
    assert out["verdict"] == "equivalence"


def test_affine_map_only_for_constant_coefficients(capsys, tmp_path):
    code, out = run(capsys, "check", *session_args("ode_const.eqv", tmp_path),
                    "--family", "F", "--transform", "Tconst")
    assert code == 0
    assert out["verdict"] == "equivalence"


def test_general_candidate_map_fails_on_denominator_jets(capsys, tmp_path):
    code, out = run(capsys, "check", *session_args("hyperbolic_general.eqv", tmp_path),
                    "--family", "F", "--transform", "Tgen")
    assert code == 1
    assert {f["kind"] for f in out["failures"]} == {"denominator-jets"}


def test_transform_differentiates_no_pair_twice(capsys, tmp_path, monkeypatch):
    # the chain-rule checks read D_k(phi_i) and D_k(psi) from the prolongation
    calls = []
    derive = prolongation.total_derivative

    def counting(e, v, dep):
        calls.append((e.text, v))
        return derive(e, v, dep)

    monkeypatch.setattr(prolongation, "total_derivative", counting)
    monkeypatch.setattr(cli, "total_derivative", counting, raising=False)
    code, out = run(capsys, "transform", *session_args("hyperbolic_general.eqv", tmp_path),
                    "--family", "F", "--transform", "Tgen")
    assert code == 0 and out["assumptions"]
    # four matrix entries, D_k(psi), and D_k(N_t) and D_k(det) for u_tx
    assert len(calls) == 10
    assert len(set(calls)) == len(calls)


def test_mixed_map_fails_with_pure_second_order_terms(capsys, tmp_path):
    code, out = run(capsys, "check", *session_args("hyperbolic_mixed.eqv", tmp_path),
                    "--family", "F", "--transform", "Tmixed")
    assert code == 1
    monos = {f["monomial"] for f in out["failures"]}
    assert "D[w,y,y]" in monos and "D[w,z,z]" in monos


def test_nonlinear_dependent_map_leaves_one_obstruction(capsys, tmp_path):
    code, out = run(capsys, "check", *session_args("hyperbolic_tlinear.eqv", tmp_path),
                    "--family", "F", "--transform", "Tsep")
    assert code == 1
    assert [f["monomial"] for f in out["failures"]] == ["D[w,y]*D[w,z]"]


def test_induced_action_output(capsys, tmp_path):
    code, out = run(capsys, "induced-action",
                    *session_args("hyperbolic_separable.eqv", tmp_path),
                    "--family", "F", "--transform", "Texp")
    assert code == 0
    assert out["verdict"] == "equivalence"
    assert set(out["induced_action"]) == {"a1", "a2", "a3"}
    assert "failures" not in out
    # the exponential weight shifts a1 by the log-derivative of its factor
    assert "g" in out["induced_action"]["a1"]


def test_theorem_check_holds_and_replays(capsys, tmp_path):
    code, out = run(capsys, "theorem-check", *session_args("ode_shift.eqv", tmp_path),
                    "--family-a", "A", "--family-b", "B", "--transform", "Tscale")
    assert code == 0
    assert out["holds"] is True
    assert out["source_report"]["verdict"] == "equivalence"
    assert out["target_report"]["verdict"] == "equivalence"
    code, out = run(capsys, "oracle", "--state", tmp_path / "state.json")
    assert code == 0 and out["ok"]


def test_theorem_check_refuses_non_member_maps(capsys, tmp_path):
    code, out = run(capsys, "theorem-check", *session_args("ode_shift.eqv", tmp_path),
                    "--family-a", "A", "--family-b", "B", "--transform", "Tshift")
    assert code == 2
    assert out["error"]["type"] == "TheoremPreconditionError"


def test_theorem_check_names_the_part_where_famb_is_no_enlargement(capsys, tmp_path):
    # gliny(4) enlarges glin(4), not glin(3): the leads differ, not the order
    code, out = run(capsys, "theorem-check", *session_args("ode_shift.eqv", tmp_path),
                    "--family-a", "glin(3)", "--family-b", "gliny(4)", "--transform", "Tscale")
    assert code == 2
    assert out["error"] == {"type": "VariableMismatchError",
                            "message": "gliny leads with D[y,x,x,x,x], glin with D[y,x,x,x]"}


def test_transform_emits_normalized_equation_and_state(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "transform", *session_args("ode_scale.eqv", tmp_path),
                    "--transform", "Tscale", "--family", "F",
                    "--json-out", out_file)
    assert code == 0
    assert out["transformed"] and out["lead_normalized"]
    assert out["assumptions"]
    assert json.loads(out_file.read_text()) == out
    code, rep = run(capsys, "oracle", "--state", tmp_path / "state.json")
    assert code == 0 and rep["ok"] and len(rep["checks"]) == 1


def test_invariants_for_concrete_equation(capsys, tmp_path):
    code, out = run(capsys, "invariants", *session_args("laplace.eqv", tmp_path),
                    "--equation", "E")
    assert code == 0
    assert out["H"] == "-1" and out["K"] == "-1"
    assert out["P"] == "1" and out["Q"] == "0"
    assert out["flags"] == {
        "H_zero": False, "K_zero": False, "wave_reducible": False}
    code, rep = run(capsys, "oracle", "--state", tmp_path / "state.json")
    assert code == 0 and rep["ok"]


def test_invariants_for_separated_family(capsys, tmp_path):
    # with a1(x) and a2(t) the two Laplace combinations coincide, so P = 1
    code, out = run(capsys, "invariants", *session_args("laplace.eqv", tmp_path),
                    "--family", "F")
    assert code == 0
    p = parse_expression(out["P"], laplace_session())
    assert (p - 1).is_zero()
    assert out["Q"] is not None


def test_invariants_with_coefficient_override(capsys, tmp_path):
    code, out = run(capsys, "invariants", *session_args("laplace.eqv", tmp_path),
                    "--family", "F", "--a3", "a1(x)*a2(t)")
    assert code == 0
    assert out["flags"]["H_zero"] and out["flags"]["K_zero"]
    assert out["flags"]["wave_reducible"]
    assert out["P"] is None and out["Q"] is None


def test_reduce_concrete_and_wave(capsys, tmp_path):
    code, out = run(capsys, "reduce", *session_args("laplace.eqv", tmp_path),
                    "--equation", "E")
    assert code == 0
    assert out["b"] == "1" and out["wave"] is False
    code, rep = run(capsys, "oracle", "--state", tmp_path / "state.json")
    assert code == 0 and rep["ok"]

    code, out = run(capsys, "reduce", *session_args("laplace.eqv", tmp_path),
                    "--family", "F", "--a3", "a1(x)*a2(t)")
    assert code == 0
    assert out["wave"] is True


def test_reduce_precondition_failure(capsys, tmp_path):
    code, out = run(capsys, "reduce", "--state", tmp_path / "state.json",
                    "--family", "hyper")
    assert code == 2
    assert out["error"]["type"] == "DegenerateTransformationError"


def test_catalog_reference_without_session(capsys, tmp_path):
    code, out = run(capsys, "invariants", "--state", tmp_path / "state.json",
                    "--family", "hyperxp")
    assert code == 0
    # catalog(hyperxp) uses the names that laplace.eqv declares
    assert (parse_expression(out["P"], laplace_session()) - 1).is_zero()


def _session_file(tmp_path, text):
    path = tmp_path / "s.eqv"
    path.write_text(text, encoding="utf-8")
    return ["--session", path, "--state", tmp_path / "state.json"]


def test_a_family_is_read_by_its_template_not_its_slot_names(capsys, tmp_path):
    files = _session_file(tmp_path, """
        indep t x; dep u;
        func a1(t,x); func a2(t,x); func a3(t,x); func p(t,x); func q(t,x); func r(t,x);
        family G: D[u,t,t] + a1(t,x)*D[u,t] + a2(t,x)*D[u,x] + a3(t,x)*u = 0;
        family S: D[u,t,x] + a1(t,x)*D[u,x] + a2(t,x)*D[u,t] + a3(t,x)*u = 0;
        family P: D[u,t,x] + p(t,x)*D[u,t] + q(t,x)*D[u,x] + r(t,x)*u = 0;
    """)
    # the lead is D[u,t,t]: no hyperbolic equation, whatever the slots are called
    code, out = run(capsys, "invariants", *files, "--family", "G")
    assert code == 2
    assert out["error"] == {
        "type": "VariableMismatchError",
        "message": "no D[u,t,x] term; expression is not of the hyperbolic shape"}
    # a1 multiplies u_x here, so the coefficient of u_t is a2
    code, out = run(capsys, "invariants", *files, "--family", "S")
    assert code == 0
    assert out["H"] == "-a3(t,x) + a1(t,x)*a2(t,x) + D[a2,1](t,x)"
    assert out["K"] == "-a3(t,x) + a1(t,x)*a2(t,x) + D[a1,2](t,x)"
    code, out = run(capsys, "invariants", *files, "--family", "P")
    assert code == 0
    assert out["H"] == "-r(t,x) + p(t,x)*q(t,x) + D[p,1](t,x)"


def test_hyperbolic_commands_refuse_flags_they_would_ignore_or_misread(capsys, tmp_path):
    files = session_args("laplace.eqv", tmp_path)
    cases = [
        (("--equation", "E", "--a1", "x^2"), "replace slots of a family, not of --equation"),
        (("--family", "F", "--a1", "x", "--vars", "t,x,u"), "--vars names the variables"),
        (("--equation", "E", "--vars", "t,x"), "three distinct comma-separated names"),
        (("--equation", "E", "--vars", "t,t,u"), "three distinct comma-separated names"),
    ]
    for flags, message in cases:
        code, out = run(capsys, "invariants", *files, *flags)
        assert code == 2, flags
        assert out["error"]["type"] == "ValueError", flags
        assert message in out["error"]["message"], flags
    session = _session_file(tmp_path, """
        indep t x; dep u; func p(t,x); func q(t,x); func r(t,x);
        family P: D[u,t,x] + p(t,x)*D[u,t] + q(t,x)*D[u,x] + r(t,x)*u = 0;
    """)
    code, out = run(capsys, "reduce", *session, "--family", "P", "--a3", "1")
    assert code == 2
    assert out["error"] == {
        "type": "ValueError", "message": "family 'P' has no coefficient 'a3' to replace"}


def test_an_override_over_a_denominator_is_taken_as_written(capsys, tmp_path):
    code, out = run(capsys, "invariants", *session_args("laplace.eqv", tmp_path),
                    "--family", "F", "--a3", "1/(t + x)")
    assert code == 0
    assert out["H"] == "(x*a1(x)*a2(t) + t*a1(x)*a2(t) - 1)/(x + t)"


def test_lead_normalization_ignores_jets_inside_arguments(capsys, tmp_path):
    files = _session_file(tmp_path, """
        indep x z; dep y w; func a(x, y);
        transform Tscale: x = 2*z; y = w;
        equation E: D[y,x] + a(x, D[y,x,x])*y = 0;
    """)
    code, out = run(capsys, "transform", *files, "--equation", "E", "--transform", "Tscale")
    assert code == 0
    assert out["transformed"] == "w*a(2*z,1/4*D[w,z,z]) + 1/2*D[w,z]"
    assert out["lead_normalized"] == "2*w*a(2*z,1/4*D[w,z,z]) + D[w,z]"


def test_transform_says_on_stderr_whether_it_normalized(capsys, tmp_path):
    def transform(*argv):
        code = main([str(a) for a in ("transform", *argv)])
        got = capsys.readouterr()
        assert code == 0
        return json.loads(got.out), got.err

    out, err = transform(*session_args("ode_scale.eqv", tmp_path), "--family", "F",
                         "--transform", "Tscale")
    assert "transformed and normalized on lead of w" in err
    assert out["lead_normalized"] != out["transformed"]
    # Tgen's image has jets of w in its denominator; E's top jet has no term of its own
    tgen = (*session_args("hyperbolic_general.eqv", tmp_path), "--family", "F",
            "--transform", "Tgen")
    files = _session_file(tmp_path, """
        indep x z; dep y w;
        transform Tscale: x = 2*z; y = w;
        equation E: D[y,x,x]*D[y,x] + y = 0;
    """)
    for argv in (tgen, (*files, "--equation", "E", "--transform", "Tscale")):
        out, err = transform(*argv)
        assert "not normalized: the highest jet of w has no coefficient of its own" in err
        assert "normalized on lead" not in err
        assert out["lead_normalized"] == out["transformed"]


def test_unknown_names_exit_2(capsys, tmp_path):
    code, out = run(capsys, "check", *session_args("ode_scale.eqv", tmp_path),
                    "--family", "Nope", "--transform", "Tscale")
    assert code == 2
    assert out["error"]["type"] == "UnknownFamilyError"
    code, out = run(capsys, "check", *session_args("ode_scale.eqv", tmp_path),
                    "--family", "F", "--transform", "Missing")
    assert code == 2
    code, out = run(capsys, "oracle", "--state", tmp_path / "nope.json")
    assert code == 2
    assert "no state file" in out["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("transform", "--transform", "Tgen"),
    ("invariants",),
    ("reduce", "--a3", "a1(x)*a2(t)"),
])
def test_unknown_equation_exits_2_with_a_value_error(capsys, tmp_path, argv):
    session = "hyperbolic_general.eqv" if argv[0] == "transform" else "laplace.eqv"
    code, out = run(capsys, argv[0], *session_args(session, tmp_path), *argv[1:],
                    "--equation", "X")
    assert code == 2
    assert out["error"] == {"type": "ValueError", "message": "no equation 'X' in the session"}


def test_state_file_keeps_parameters_typed(capsys, tmp_path):
    code, _out = run(capsys, "check", *session_args("ode_const.eqv", tmp_path),
                     "--family", "F", "--transform", "Tconst")
    assert code == 0
    state = json.loads((tmp_path / "state.json").read_text())
    atoms = set()
    for pair in state["checks"]:
        for tree in pair:
            e = Expression.from_tree(tree)
            for _c, m in e.num_terms() + e.den_terms():
                atoms |= {a for a, _k in m.atoms}
    assert Param("k1") in atoms


def test_unexpected_exceptions_exit_2_with_json(capsys, tmp_path, monkeypatch):
    def broken(args, session):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "_cmd_invariants", broken)
    code = main([str(a) for a in ("invariants", *session_args("laplace.eqv", tmp_path),
                                  "--family", "F")])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == {
        "type": "RuntimeError", "message": "handler broke"}
    assert "Traceback" in captured.err


def test_deep_nesting_exits_2_with_a_parse_error(capsys, tmp_path):
    deep = "(" * 300 + "x" + ")" * 300
    code = main([str(a) for a in ("reduce", *session_args("laplace.eqv", tmp_path),
                                  "--family", "F", "--a3", deep)])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ParseError"
    assert "nested deeper than 150 levels" in error["message"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("shape", ["({})", "f({})", "D[f,1]({})", "exp({})", "int({},t)"])
def test_parser_accepts_150_levels_and_refuses_151(shape):
    session = Session(indep_vars=("t", "x"), funcs={"f": ("x",)})
    text = "x"
    for _ in range(150):
        text = shape.format(text)
    e = parse_expression(text, session)
    assert parse_expression(e.text, session) == e
    with pytest.raises(ParseError, match="nested deeper than 150 levels"):
        parse_expression(shape.format(text), session)


def test_long_sign_runs_parse_without_recursion():
    session = Session(indep_vars=("x",))
    x = parse_expression("x", session)
    assert parse_expression("-" * 3001 + "x^2", session) == -(x ** 2)
    assert parse_expression("+-" * 3000 + "x", session) == x
    # binary minus, left to right, beside prefix signs
    y, z = var("y"), var("z")
    session = Session(indep_vars=("x", "y", "z"))
    assert parse_expression("x - y - z", session) == (x - y) - z
    assert parse_expression("x - -y", session) == x + y
    assert parse_expression("-x^2 - 1", session) == -(x ** 2) - 1


def test_malformed_state_file_exits_2_with_json(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"checks": [[{"num": 5}, 1]]}))
    code, out = run(capsys, "oracle", "--state", state)
    assert code == 2
    assert set(out["error"]) == {"type", "message"}


ZERO_STATE_TABLE = {"atoms": [], "num": [], "den": [{"coeff": "1", "factors": []}]}


@pytest.mark.parametrize("state, field", [
    ([], "object"),
    ({"checks": 5}, "checks"),
    ({"checks": [[1]]}, "checks"),
    ({"assumptions": 5}, "assumptions"),
    ({"dep_vars": 5}, "dep_vars"),
    ({"dep_vars": {"w": 5}}, "dep_vars"),
    ({"assumptions": [{"num": 5}]}, "unreadable expression tree"),
    # a bare number is not a table, though the oracle takes it as an expression
    ({"checks": [[ZERO_STATE_TABLE, 0]]}, "checks"),
    ({"checks": [[ZERO_STATE_TABLE, ZERO_STATE_TABLE]], "assumptions": [1]}, "assumptions"),
])
def test_malformed_state_fields_exit_2_with_a_value_error(capsys, tmp_path, state, field):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code = main(["oracle", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError" and field in error["message"]
    assert "Traceback" not in captured.err


def test_deeply_nested_state_exits_2_with_a_value_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["oracle", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError" and "nested too deeply" in error["message"]
    assert "Traceback" not in captured.err


def test_reduce_at_the_parser_depth_limit_writes_a_readable_state(capsys, tmp_path):
    deep = "x"
    for _ in range(150):
        deep = f"a1({deep})"
    code, _out = run(capsys, "reduce", *session_args("laplace.eqv", tmp_path),
                     "--family", "F", "--a3", deep)
    assert code == 0
    state = json.loads((tmp_path / "state.json").read_text())
    (lhs, rhs), = state["checks"]
    assert Expression.from_tree(lhs) == Expression.from_tree(rhs)


def test_nested_replay_cost_stays_flat(capsys, tmp_path):
    # each degree-2 stand-in squares its argument's size in rationals; GF(p)
    # values stay one word, so 20 nested levels replay at once
    deep = "x"
    for _ in range(20):
        deep = f"a1({deep})"
    code, _out = run(capsys, "reduce", *session_args("laplace.eqv", tmp_path),
                     "--family", "F", "--a3", deep)
    assert code == 0
    started = time.perf_counter()
    code, out = run(capsys, "oracle", "--state", tmp_path / "state.json")
    assert time.perf_counter() - started < 10
    assert code == 0 and out["ok"] is True
    assert [(c["ok"], c["max_error"]) for c in out["checks"]] == [(True, 0.0)]
    assert 0 < out["checks"][0]["miss_bound"] < 1


def test_replay_past_the_degree_bound_exits_2(capsys, tmp_path):
    # at 61 nested levels the GF(p) degree bound reaches 2^62 - 1, above any
    # drawn p: a pass would certify nothing, so the replay is an error report
    # and not "ok"
    deep = "x"
    for _ in range(61):
        deep = f"a1({deep})"
    code, _out = run(capsys, "reduce", *session_args("laplace.eqv", tmp_path),
                     "--family", "F", "--a3", deep)
    assert code == 0
    code = main(["oracle", "--state", str(tmp_path / "state.json")])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 2
    assert out["error"]["type"] == "EvaluationError"
    assert "certify nothing" in out["error"]["message"]
    assert "Traceback" not in captured.err


def test_float_replay_beyond_floating_point_exits_2(capsys, tmp_path):
    # exp(x) puts the check on the float path; each nested degree-2 stand-in
    # squares the size of its argument's rational value, and at 8 levels the
    # product with exp(x) no longer fits a float
    for levels, want in ((6, 0), (8, 2)):
        deep = "x"
        for _ in range(levels):
            deep = f"a1({deep})"
        code, _out = run(capsys, "invariants", *session_args("laplace.eqv", tmp_path),
                         "--family", "F", "--a1", "exp(x)", "--a3", deep)
        assert code == 0
        code = main(["oracle", "--state", str(tmp_path / "state.json")])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == want, levels
        assert "Traceback" not in captured.err
        if want == 0:
            assert out["ok"] is True
        else:
            assert out["error"]["type"] == "EvaluationError"
            assert "exceed the range of floating point" in out["error"]["message"]


@pytest.mark.parametrize("power", [70000, 10**9])
def test_float_replay_of_a_high_power_exits_2_at_once(capsys, tmp_path, power):
    # exp(y) puts the check on the float path, where y^(10^9) would take
    # exact rationals far past any timeout; y^70000 overflows floating point
    # soon enough, but its degree bound is already refused
    y = var("y")
    path = write_state(tmp_path, [(y ** power * exp(y), 0 * y)])
    t0 = time.perf_counter()
    code = main(["oracle", "--state", str(path)])
    captured = capsys.readouterr()
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert json.loads(captured.out)["error"] == {
        "type": "EvaluationError",
        "message": f"the degree bound of this check ({power}, and 0 on redraws) exceeds "
                   "2^16, beyond what exact rational evaluation reaches in reasonable time"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind, power", [("exp", 70000), ("exp", 10**9), ("log", 70000),
                                         ("log", 10**9)])
def test_float_replay_of_a_high_power_in_an_argument_exits_2_at_once(
        capsys, tmp_path, kind, power):
    # the power sits inside the exp or log argument, whose exact rational
    # value is formed before the float; the side itself has degree 0
    y = var("y")
    side = exp(y ** power) if kind == "exp" else log(y ** power + 2)
    path = write_state(tmp_path, [(side, 0 * y)])
    t0 = time.perf_counter()
    code = main(["oracle", "--state", str(path)])
    captured = capsys.readouterr()
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert json.loads(captured.out)["error"] == {
        "type": "EvaluationError",
        "message": f"the degree bound of an exp or log argument ({power}) exceeds "
                   "2^16, beyond what exact rational evaluation reaches in reasonable time"}
    assert "Traceback" not in captured.err


def test_one_parser_serves_every_call(capsys, tmp_path):
    # the parser is built on the first call and reused; a usage error and
    # --help in between leave it as a fresh one would be
    calls = [
        ["check", *session_args("ode_scale.eqv", tmp_path), "--family", "F",
         "--transform", "Tscale"],
        ["check", "--family", "F"],
        ["oracle", "--state", tmp_path / "state.json", "--seed", 5],
        ["oracle", "--help"],
        ["check", *session_args("ode_shift.eqv", tmp_path), "--family", "A",
         "--transform", "Tshift"],
        ["oracle", "--points", "abc"],
        ["invariants", *session_args("laplace.eqv", tmp_path), "--equation", "E"],
        ["oracle", "--state", tmp_path / "state.json"],
    ]

    def replay(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, "usage: eqvlab" in captured.err))
        return seen

    cli._parser.cache_clear()
    shared = replay(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert shared == replay(fresh=True)
    assert [code for code, _out, _usage in shared] == [0, 2, 0, 0, 1, 2, 0, 0]
    assert [usage for _code, _out, usage in shared] == [
        False, True, False, False, False, True, False, False]
    assert "--points" in shared[3][1]


def test_config_file_with_flag_override(capsys, tmp_path):
    run(capsys, "check", *session_args("ode_scale.eqv", tmp_path),
        "--family", "F", "--transform", "Tscale")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3, "seed": 9}))
    code, out = run(capsys, "oracle", "--state", tmp_path / "state.json",
                    "--config", cfg)
    assert code == 0
    assert out["points"] == 3 and out["seed"] == 9
    code, out = run(capsys, "oracle", "--state", tmp_path / "state.json",
                    "--config", cfg, "--points", 5)
    assert code == 0
    assert out["points"] == 5 and out["seed"] == 9


@pytest.mark.parametrize("flags, config", [
    (["--points", 0], None),
    (["--tol", "nan"], None),
    (["--tol", "inf"], None),
    ([], {"points": 0}),
])
def test_oracle_refuses_settings_that_check_nothing(capsys, tmp_path, flags, config):
    run(capsys, "check", *session_args("ode_scale.eqv", tmp_path),
        "--family", "F", "--transform", "Tscale")
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = ["--config", cfg]
    code, out = run(capsys, "oracle", "--state", tmp_path / "state.json", *flags)
    assert code == 2
    assert out["error"]["type"] == "ValueError"


@pytest.mark.parametrize("config, named", [
    ({"tol": "1e-6"}, "'tol'"),
    ({"points": "3"}, "'points'"),
    ({"points": 2.5}, "'points'"),
    ({"points": True}, "'points'"),
    ({"seed": "abc"}, "'seed'"),
    ({"tol": False}, "'tol'"),
    ([1, 2], "JSON object"),
])
def test_oracle_config_values_are_typed(capsys, tmp_path, config, named):
    run(capsys, "check", *session_args("ode_scale.eqv", tmp_path),
        "--family", "F", "--transform", "Tscale")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["oracle", "--state", str(tmp_path / "state.json"), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError" and named in error["message"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--family", "F"],
    ["check", "--family", "F", "--transform", "T", "--bogus"],
    ["oracle", "--points", "abc"],
    ["frobnicate"],
    [],
])
def test_usage_errors_exit_2_with_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "ValueError"
    assert "usage: eqvlab" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--family", "F", "--transform", "Tscale", "--config", "c.json"],
    ["oracle", "--session", "s.eqv"],
], ids=["check-config", "oracle-session"])
def test_an_option_its_command_does_not_read_is_a_usage_error(capsys, tmp_path, argv):
    # only oracle reads a config, and oracle loads no session
    code = main(argv[:1] + ["--state", str(tmp_path / "state.json")] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError" and "unrecognized arguments" in error["message"]
    assert "usage: eqvlab" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "state.json").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    assert "--points" in capsys.readouterr().out


@pytest.mark.parametrize("template, message", [
    ("1/2*D[u,t,x] + a1(t,x)*D[u,t] = 0", "the lead monomial must have coefficient 1"),
    ("D[u,t,x] + 1/3*a1(t,x)*D[u,t] = 0", "slot 'a1' must have coefficient 1"),
    # every other refusal of an inline template, the reader's and the family's
    ("D[u,t,x]/t + a1(t,x)*D[u,t] = 0", "a family template must be polynomial"),
    ("D[u,t,x] + D[u,t] + a1(t,x)*u = 0", "two terms without a coefficient function"),
    ("a1(t,x)*D[u,t] + a(t)*u = 0", "a family template needs a bare lead monomial"),
    ("D[u,t,x] + a(t)*a1(t,x)*D[u,t] = 0", "each term may carry one coefficient function, once"),
    ("D[u,t,x] + a(t)^2*D[u,t] = 0", "each term may carry one coefficient function, once"),
    ("D[u,t,x] + D[a1,1](t,x)*D[u,t] = 0",
     "a family template cannot differentiate its coefficients"),
    ("D[u,t,x] + a(t)*D[w,t] = 0", "a family template must use exactly one dependent variable"),
    ("D[u,t,x] + b(t,w)*D[u,t] = 0", "a family template must use exactly one dependent variable"),
    ("D[u,t,x] + a1(t,x+t)*D[u,t] = 0", "slot 'a1' argument x + t is not a bare atom"),
    ("D[u,t,x] + a1(t,k)*D[u,t] = 0", "slot 'a1' argument k must be a variable or jet"),
    ("exp(t)*D[u,t,x] + a1(t,x)*D[u,t] = 0",
     "lead D[u,t,x]*exp(t) is not a coefficient-one jet monomial"),
    ("D[u,t,x] + a1(t,x)*exp(t)*D[u,t] = 0",
     "slot 'a1' monomial D[u,t]*exp(t) is not a coefficient-one jet monomial"),
    ("x*D[u,t,x] + a1(t,x)*D[u,t] = 0", "lead x*D[u,t,x] contains x, not a jet of 'u'"),
    ("D[u,t,x] + a1(t,x)*x*D[u,t] = 0", "slot 'a1' monomial x*D[u,t] contains x, not a jet"),
    ("D[u,t,x] + a(t)*D[u,t] + a(t)*D[u,x] = 0", "duplicate slot name 'a'"),
    ("D[u,t,x] + a(t)*D[u,t] + b(t,u)*D[u,t] = 0", "slot 'b' monomial D[u,t] repeats"),
    ("D[u,t,x] + a(t)*D[u,t,x] = 0", "slot 'a' monomial D[u,t,x] repeats"),
])
def test_family_template_terms_need_coefficient_one(template, message):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse("indep t x; dep u w; param k; func a1(t,x); func a(t); func b(t,u);\n"
              f"  family F: {template};")
    # at the family's name
    assert (exc.value.line, exc.value.column) == (2, 10)


def test_an_inline_template_reads_as_its_catalog_family():
    # laplace.eqv writes catalog(hyperxp) inline: slots in name order, arguments in call order
    fam, want = laplace_session().families["F"], catalog("hyperxp")
    assert (fam.name, fam.indep_vars, fam.dep, fam.lead) == ("F", ("t", "x"), "u", want.lead)
    assert fam.slots == want.slots


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.eqv")))
def test_corpus_sessions_parse_and_round_trip(name):
    text = (CORPUS / name).read_text(encoding="utf-8")
    session = parse(text)
    assert session.families or session.equations
    exprs = list(session.equations.values())
    for tr in session.transforms.values():
        exprs.extend(tr.indep_map.values())
        exprs.append(tr.dep_map)
    for e in exprs:
        assert parse_expression(e.text, session) == e
    # members use slot functions, whose names may repeat across families with
    # different signatures; read each back in its own family's scope
    for fam in session.families.values():
        scope = Session(
            indep_vars=fam.indep_vars, dep_vars=(fam.dep,),
            funcs={s.name: tuple(a.text for a in s.args) for s in fam.slots})
        member = fam.member()
        assert parse_expression(member.text, scope) == member


def write_state(tmp_path, checks, dep_vars=None):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "command": "check", "checks": [[l.to_tree(), r.to_tree()] for l, r in checks],
        "assumptions": [], "dep_vars": dep_vars or {}}))
    return path


def test_oracle_note_names_the_rule_that_sent_a_check_to_tol(capsys, tmp_path):
    code, _out = run(capsys, "induced-action", *session_args("hyperbolic_separable.eqv", tmp_path),
                     "--family", "F", "--transform", "Texp")
    assert code == 0
    code = main(["oracle", "--state", str(tmp_path / "state.json")])
    err = capsys.readouterr().err
    assert code == 0
    assert "oracle: check 1 has no miss bound (it reaches exp), so it was evaluated" in err
    # GF(p) checks get no note, whatever their coefficients: here multiples
    # of 2^61 - 1, which a drawn prime never is
    y, p = var("y"), 2**61 - 1
    for lhs, rhs, want in (((1 - p) * y, y, 1), (p * y, p * y, 0)):
        path = write_state(tmp_path, [(lhs, rhs)])
        code = main(["oracle", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == want
        assert json.loads(captured.out)["checks"][0]["miss_bound"] is not None
        assert captured.err == f"oracle: {1 - want}/1 checks passed\n"


def test_a_replay_of_multiples_of_old_fixed_primes_keeps_its_verdict(capsys, tmp_path):
    # f((x^2-1)/(x-1)) + (p-1)*f(x+1) is p*f(x+1), not 0: its two atoms are
    # equal in value, and a fixed p = 2^61 - 1 would pass it against 0.  A
    # product of four fixed primes is no longer an error either
    x, y = var("x"), var("y")
    p = 2**61 - 1
    four = math.prod((p, 2**89 - 1, 2**107 - 1, 2**127 - 1))
    for lhs, rhs, want in ((func("f", (x * x - 1) / (x - 1)) + (p - 1) * func("f", x + 1),
                            0 * y, 1), (four * y, 0 * y, 1), (four * y, four * y, 0)):
        path = write_state(tmp_path, [(lhs, rhs)])
        code = main(["oracle", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == want, lhs.text
        check, = json.loads(captured.out)["checks"]
        assert check["ok"] is (want == 0) and 0 < check["miss_bound"] < 1e-15
        assert "Traceback" not in captured.err


def test_oracle_names_an_antiderivative_it_cannot_evaluate(capsys, tmp_path):
    y = var("y")
    a = antiderivative(y * y * jet("w", "z") / (y * y + 2), "y")
    path = write_state(tmp_path, [(a, a)], {"w": ["y", "z"]})
    code = main(["oracle", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == {
        "type": "EvaluationError",
        "message": "cannot evaluate int((y^2*D[w,z])/(y^2 + 2),y): "
                   "its integrand is not a polynomial in y"}
    assert "Traceback" not in captured.err
