"""Golden corpus outputs: every corpus command, its state file and its oracle
replay are byte-identical to the recorded ones.

``tests/golden/corpus.json`` holds, per command, the exit code, the sha256 and
byte length of stdout, the sha256 of the state file and the exit code and
stdout sha256 of ``oracle --seed 1729`` replaying that state.  Hashes stand in
for the outputs because ``transform Tgen`` alone prints about 150 KB.  It also
holds the sha256 of the printed normal forms of ``seeded_cases(505, 300)`` and
their ``y``-partials, and the sha256 of the same 600 expressions' ``to_tree``
JSON, which pins the state file's atom-table order.

Regenerate the file, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py

which prints each entry and field that differs from the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from eqvlab import Expression, Var, partial
from eqvlab.cli import main
from eqvlab.oracle import check_identity

from conftest import CORPUS, seeded_cases

# outputs and state files must not depend on the hash seed
pytestmark = pytest.mark.hashseed

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.json"
ORACLE_SEED = "1729"

# (session, argv after --session/--state): the README commands and the rest of
# the corpus, as the benchmark's corpus-cli workload runs them
COMMANDS = (
    ("ode_scale", ("check", "--family", "F", "--transform", "Tscale")),
    ("ode_shift", ("check", "--family", "B", "--transform", "Tshift")),
    ("ode_shift", ("check", "--family", "A", "--transform", "Tshift")),
    ("ode_shift", ("theorem-check", "--family-a", "A", "--family-b", "B",
                   "--transform", "Tscale")),
    ("ode_const", ("check", "--family", "F", "--transform", "Tconst")),
    ("hyperbolic_scale", ("check", "--family", "F", "--transform", "Tscale")),
    ("hyperbolic_scale", ("induced-action", "--family", "F", "--transform", "Tshift")),
    ("hyperbolic_general", ("transform", "--family", "F", "--transform", "Tgen")),
    ("hyperbolic_general", ("check", "--family", "F", "--transform", "Tgen")),
    ("hyperbolic_mixed", ("check", "--family", "F", "--transform", "Tmixed")),
    ("hyperbolic_tlinear", ("check", "--family", "F", "--transform", "Tsep")),
    ("hyperbolic_separable", ("induced-action", "--family", "F", "--transform", "Texp")),
    ("hyperbolic_translation", ("check", "--family", "F", "--transform", "Taff")),
    ("laplace", ("invariants", "--family", "F")),
    ("laplace", ("invariants", "--equation", "E")),
    ("laplace", ("reduce", "--family", "F", "--a3", "a1(x)*a2(t)")),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


def corpus_record(session: str, argv, workdir: Path) -> dict:
    """Run one corpus command and its oracle replay inside ``workdir``."""
    state = workdir / "state.json"
    code, out = _run([argv[0], "--session", str(CORPUS / f"{session}.eqv"),
                      "--state", str(state), *argv[1:]])
    state_bytes = state.read_bytes()
    ocode, oout = _run(["oracle", "--state", str(state), "--seed", ORACLE_SEED])
    return {
        "session": session,
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": _sha(out),
        "stdout_bytes": len(out),
        "state_sha256": _sha(state_bytes),
        "oracle_exit": ocode,
        "oracle_stdout_sha256": _sha(oout),
    }


def _bulk_cases():
    for _, e in seeded_cases(505, 300):
        yield e
        yield partial(e, Var("y"))


def kernel_text_digest() -> str:
    """sha256 of the printed normal forms of the bulk kernel cases, one per line."""
    return _sha("\n".join(x.text for x in _bulk_cases()).encode("utf-8"))


def tree_digest() -> str:
    """sha256 of the ``to_tree`` JSON of the bulk kernel cases, one per line."""
    return _sha("\n".join(json.dumps(x.to_tree()) for x in _bulk_cases()).encode("utf-8"))


def changed_fields(old: dict, new: dict):
    """One line per corpus entry field or digest that differs from ``old``."""
    before = {(g["session"], tuple(g["argv"])): g for g in old.get("commands", [])}
    for rec in new["commands"]:
        was = before.get((rec["session"], tuple(rec["argv"])), {})
        for key, value in rec.items():
            if was.get(key) != value:
                yield f"{rec['session']} {' '.join(rec['argv'])}: {key} {was.get(key)} -> {value}"
    for key, value in new.items():
        if key != "commands" and old.get(key) != value:
            yield f"{key}: {old.get(key)} -> {value}"


def test_corpus_outputs_are_byte_identical(tmp_path, monkeypatch):
    # the working directory holds no eqvlab.json, so only built-in defaults apply
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(g["session"], tuple(g["argv"])) for g in golden["commands"]] == list(COMMANDS)
    for want in golden["commands"]:
        assert corpus_record(want["session"], want["argv"], tmp_path) == want


def test_kernel_text_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert kernel_text_digest() == golden["kernel_text_sha256"]


def test_tree_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert tree_digest() == golden["tree_sha256"]


def test_replay_does_not_touch_the_kernel(tmp_path, monkeypatch):
    # the oracle compiles a state file's tables itself: with the kernel's
    # reader, subtraction and constructor broken, every corpus replay (GF(p)
    # and float path alike) still prints its golden output
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    state = tmp_path / "state.json"

    def broken(*args, **kwargs):
        raise AssertionError("the replay reached the kernel")

    for want in golden["commands"]:
        _run([want["argv"][0], "--session", str(CORPUS / f"{want['session']}.eqv"),
              "--state", str(state), *want["argv"][1:]])
        with monkeypatch.context() as m:
            for name in ("from_tree", "__sub__", "__init__"):
                m.setattr(Expression, name, broken)
            code, out = _run(["oracle", "--state", str(state), "--seed", ORACLE_SEED])
        assert (code, _sha(out)) == (want["oracle_exit"], want["oracle_stdout_sha256"]), want


def test_every_corpus_check_outside_texp_and_taff_runs_in_gf_p(tmp_path, monkeypatch):
    # only the exp-bearing maps leave GF(p), for the float path; every other
    # check draws its prime from [2^61, 2^62), the same one for the same seed
    monkeypatch.chdir(tmp_path)
    state = tmp_path / "state.json"
    seen = {}
    for session, argv in COMMANDS:
        _run([argv[0], "--session", str(CORPUS / f"{session}.eqv"), "--state", str(state),
              *argv[1:]])
        data = json.loads(state.read_text(encoding="utf-8"))
        dep_vars = {k: tuple(v) for k, v in data["dep_vars"].items()}
        for lhs, rhs in data["checks"]:
            r = check_identity(lhs, rhs, dep_vars, seed=int(ORACLE_SEED),
                               assumptions=data["assumptions"])
            if argv[-1] in ("Texp", "Taff"):
                assert (r.prime, r.float_rules, r.miss_bound) == (None, ("exp",), None)
            else:
                assert 2**61 <= r.prime < 2**62 and r.float_rules == () and r.miss_bound
            seen[r.prime] = seen.get(r.prime, 0) + 1
    assert len(seen) == 2 and seen[None] == 2, seen


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        commands = [corpus_record(s, argv, Path(tmp)) for s, argv in COMMANDS]
    new = {"commands": commands, "kernel_text_sha256": kernel_text_digest(),
           "tree_sha256": tree_digest()}
    for line in changed_fields(old, new):
        print(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
