"""Command-line behavior: exit codes, JSON output, state files, oracle replay."""

import json
import re
import time

import pytest

from eqvlab import Expression, Param, ParseError, Session, parse, parse_expression
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


def test_malformed_state_file_exits_2_with_json(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"checks": [[{"num": 5}, 1]]}))
    code, out = run(capsys, "oracle", "--state", state)
    assert code == 2
    assert set(out["error"]) == {"type", "message"}


@pytest.mark.parametrize("state, field", [
    ([], "object"),
    ({"checks": 5}, "checks"),
    ({"checks": [[1]]}, "checks"),
    ({"assumptions": 5}, "assumptions"),
    ({"dep_vars": 5}, "dep_vars"),
    ({"dep_vars": {"w": 5}}, "dep_vars"),
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
    # at 60 nested levels the GF(p) degree bound reaches p: a pass would
    # certify nothing, so the replay is an error report and not "ok"
    deep = "x"
    for _ in range(60):
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


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    assert "--points" in capsys.readouterr().out


@pytest.mark.parametrize("template, message", [
    ("1/2*D[u,t,x] + a1(t,x)*D[u,t] = 0", "the lead monomial must have coefficient 1"),
    ("D[u,t,x] + 1/3*a1(t,x)*D[u,t] = 0", "slot 'a1' must have coefficient 1"),
])
def test_family_template_terms_need_coefficient_one(template, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(f"indep t x; dep u; func a1(t,x); family F: {template};")


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
