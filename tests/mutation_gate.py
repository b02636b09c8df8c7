"""Mutation gate: the tests must see the errors they exist to catch.

Each mutant is a textual patch to one source file under ``src/eqvlab``,
together with the tests that must catch it.  For each mutant the gate copies
``src`` to a temporary directory, applies the patch there, and runs the named
tests with ``PYTHONPATH`` pointing at the copy, one mutant at a time.  It
reports which of the named tests failed.

The gate fails when

* the named tests fail on the unpatched source (a caught mutant would then
  prove nothing),
* a patch no longer applies, because its text is not found exactly once:
  the source moved on, and the patch must move with it,
* a mutant survives that is not on the list of known survivors, or
* a known survivor is caught, so that the list stays exact.

Run it from anywhere, with pytest installed::

    python tests/mutation_gate.py

It uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/eqvlab
    old: str
    new: str
    tests: tuple[str, ...]


ORACLE = "tests/test_oracle.py"
# state tables, written as the kernel writes them and apart, against a walk
# of the kernel's reading of them
REPLAY = f"{ORACLE}::test_state_tables_replay_as_their_expressions_bulk"
# the inventory's degrees and heights against a reference walk, and the
# height against the difference the kernel expands
REFERENCE = f"{ORACLE}::test_one_walk_matches_the_reference_rules_bulk"
HEIGHT = f"{ORACLE}::test_the_height_bounds_the_expanded_difference_bulk"
JETS = "tests/test_jets.py"
LAZY = f"{JETS}::test_lazy_entries_equal_the_level_loop_bulk"
DIAGONAL = f"{JETS}::test_diagonal_maps_solve_each_jet_over_its_own_factor_bulk"
CRAMER = f"{JETS}::test_maps_that_are_not_diagonal_keep_cramers_rule"
ONE_TERM = f"{JETS}::test_one_term_factors_follow_the_known_power_rule"
CLOSURE_WALK = f"{JETS}::test_total_derivative_matches_the_closure_walk_bulk"
FAMILIES = "tests/test_families.py"
ENLARGED = f"{FAMILIES}::test_enlarged_image_equals_the_direct_image_bulk"
WRITTEN = f"{FAMILIES}::test_a_written_family_keeps_its_name_and_slot_order"
SHAPES = f"{FAMILIES}::test_each_enlargement_shape_is_refused_or_accepted"
TEMPLATE_KEY = f"{FAMILIES}::test_each_change_to_a_template_writes_a_family_of_its_own"
SHARED_CHECK = f"{FAMILIES}::test_equal_template_pairs_built_apart_share_one_enlargement_check"
WARM_LOOKUPS = f"{FAMILIES}::test_warm_lookups_compare_no_expressions_slots_or_atoms"
SWEEP = f"{FAMILIES}::test_every_catalog_family_enlarged_keeps_its_maps_bulk"
ONE_SPLIT = f"{FAMILIES}::test_one_split_match_equals_the_two_pass_match_bulk"
KERNEL = "tests/test_expr_kernel.py"
RENAME = f"{KERNEL}::test_rename_atoms_keeps_terms_and_refuses_a_reordering_map"
RENAME_BULK = f"{KERNEL}::test_rename_atoms_matches_the_full_order_check_bulk"
ATOMS = "tests/test_atoms.py"
TWINS = f"{ATOMS}::test_atoms_that_print_alike_are_apart_when_their_structure_is"
EVERY_WAY = f"{ATOMS}::test_equal_monomials_built_every_way_are_one_object"
# a power inside an exp or log argument, at a size the unbounded path survives
ARG_CAP = "tests/test_cli.py::test_float_replay_of_a_high_power_in_an_argument_exits_2_at_once"
TEMPLATES = "tests/test_cli.py::test_family_template_terms_need_coefficient_one"
CONTACT = "tests/test_hyperbolic.py::test_contact_invariance_generic"
THETA3 = f"{FAMILIES}::test_theta3_is_a_relative_invariant_of_weight_3_and_p2_is_not"

MUTANTS = (
    # the table reader: what it merges, and the drawn prime with its bound
    Mutant("repeated monomials not merged", "oracle.py",
           "            else:\n                hit[0] += c\n",
           "            else:\n                out[len(out), m] = [c, factors, exp]\n",
           ("tests/test_oracle.py::test_a_table_repeating_a_monomial_reads_as_their_sum",)),
    Mutant("exp(0) kept as a factor", "oracle.py",
           "                exp = None  # exp(0) is 1\n", "                pass\n",
           ("tests/test_oracle.py::test_an_exponential_of_zero_is_one", REPLAY)),
    Mutant("a composite passes the primality test", "oracle.py",
           "            return False\n    return True\n",
           "            pass\n    return True\n",
           (f"{ORACLE}::test_primality_agrees_with_trial_division",)),
    Mutant("prime-miss term left out of miss_bound", "oracle.py",
           "bound = (Fraction(-(-self.height(li, ri) // _PRIME_BITS), _PRIME_COUNT)\n"
           "                 + Fraction(d, p - rejected) ** points)",
           "bound = Fraction(d, p - rejected) ** points",
           (f"{ORACLE}::test_miss_bound_follows_the_stated_degree_bound", REFERENCE)),
    Mutant("a bound of 1 or more reported with a pass", "oracle.py",
           "        if bound >= 1:\n", "        if False:\n",
           (f"{ORACLE}::test_a_degree_bound_at_p_is_an_error_not_a_pass",)),
    Mutant("height skips a stand-in's coefficients", "oracle.py",
           "    for expo in _exponents(len(args), degree):\n",
           "    for expo in _exponents(len(args), degree)[:1]:\n",
           (REFERENCE, HEIGHT)),
    Mutant("an antiderivative's divisors left uncleared", "oracle.py",
           "clear = _LCM_BITS * (n + 1)", "clear = 0",
           (REFERENCE, HEIGHT)),
    Mutant("the prime memo ignores the seed", "oracle.py",
           "got = _SEEDED_PRIMES.get(key)", "got = next(iter(_SEEDED_PRIMES.values()), None)",
           (f"{ORACLE}::test_a_seed_draws_its_prime_once_and_replays_it",)),
    Mutant("a replayed draw leaves the generator one candidate short", "oracle.py",
           "    for _ in range(count):\n", "    for _ in range(count - 1):\n",
           (f"{ORACLE}::test_a_seed_draws_its_prime_once_and_replays_it",)),
    # evaluation, stand-in degrees and routing
    Mutant("slot-derivative multiplier dropped", "oracle.py",
           "terms.append((expo, c if k == 1 else mul(c, k)))", "terms.append((expo, c))",
           ("tests/test_oracle.py::test_jets_evaluate_as_partials_of_the_dependent_polynomial",)),
    Mutant("dependents' degree floor dropped", "oracle.py",
           "fdeg, ddeg = degree, max(degree, 2)", "fdeg, ddeg = degree, degree",
           (REFERENCE,)),
    Mutant("the float-path degree cap never applies", "oracle.py",
           "assumed, _MAX_FLOAT_DEGREE,", "assumed, math.inf,",
           ("tests/test_cli.py::test_float_replay_of_a_high_power_exits_2_at_once[70000]",)),
    Mutant("the float-path cap skips exp and log arguments", "oracle.py",
           "        for i in exp_log_args:\n", "        for i in ():\n",
           (f"{ARG_CAP}[exp-70000]", f"{ARG_CAP}[log-70000]")),
    # prolongation: Cramer's rule over det, and the diagonal rule over each d_i
    Mutant("free-of-x_i rule dropped", "prolongation.py",
           "        if not m or self._free_of(i):\n", "        if not m:\n",
           (f"{CRAMER}[free-of-t]",)),
    Mutant("one D_k(det) term dropped from the long form", "prolongation.py",
           "{k: dn[k] * d - num * m * dd[k] for k in rows}",
           "{k: dn[k] * d - num * m * dd[k] if k else dn[k] * d for k in rows}",
           (LAZY, f"{JETS}::test_chain_rule_recurrence_holds_symbolically")),
    Mutant("one cofactor of _det with its sign flipped", "prolongation.py",
           "terms.append(term if c % 2 == 0 else -term)", "terms.append(term)",
           (f"{JETS}::test_chain_rule_recurrence_holds_symbolically",)),
    Mutant("m_i*N*D(d_i) dropped from the diagonal long form", "prolongation.py",
           "{k: dn[k] * d - num * m * dd[k] for k in rows}", "{k: dn[k] * d for k in rows}",
           (DIAGONAL,)),
    Mutant("m_i + 2 made m_i + 1", "prolongation.py",
           "powers[:f] + (m + 2,)", "powers[:f] + (m + 1,)",
           (DIAGONAL,)),
    Mutant("m_i + 1 of the free-of branch made m_i", "prolongation.py",
           "powers[:f] + (m + 1,)", "powers[:f] + (m,)",
           (LAZY, ONE_TERM)),
    Mutant("a column with two nonzero entries accepted as an axis", "prolongation.py",
           "        if len(rows) != 1:\n", "        if not rows:\n",
           (f"{CRAMER}[permuted-S-of-yz]", f"{CRAMER}[permuted-S-of-y-plus-w]")),
    Mutant("mixed jets solved from the other parent", "prolongation.py",
           "            K = key.index\n", "            K = key.index[::-1]\n",
           (LAZY,)),
    # the total derivative, answering one atom at a time
    Mutant("a jet of another dependent variable extended", "prolongation.py",
           "return a.higher(self.variable) if a.dep == self.dep else default",
           "return a.higher(self.variable)",
           (CLOSURE_WALK,)),
    Mutant("the antiderivative rule differentiates along the variable only",
           "prolongation.py",
           "return [(self._var, ONE), *((j, j.higher(self.variable)) for j in jets)]",
           "return [(self._var, ONE)]",
           (CLOSURE_WALK,)),
    Mutant("a jet's next-higher jets ignore the variable", "expressions.py",
           "        got = nxt.get(name)\n", "        got = next(iter(nxt.values()), None)\n",
           (CLOSURE_WALK,)),
    # families: the enlargement and the shape check, famB's report renamed
    # from famA's, match, the hyperbolic reader, the two tables
    Mutant("enlarged stops one order short", "families.py",
           "for r in range(order + 1)", "for r in range(order)",
           (f"{SHAPES}[order-1]", SWEEP)),
    Mutant("the shape check compares argument tuples, not sets", "families.py",
           "        if frozenset(s.args) != args:\n", "        if s.args != enlarged:\n",
           (f"{SHAPES}[arguments-reordered]",)),
    Mutant("the shape check skips the missing-argument refusal", "families.py",
           "    if missing:\n", "    if False:\n",
           (f"{SHAPES}[famA-argument-missing]", f"{SHAPES}[famA-jet-missing]", SWEEP)),
    Mutant("a1 sent to famB's a2 atom", "families.py",
           "slot_atom(slots_b[s.name])",
           'slot_atom(slots_b["a2" if s.name == "a1" else s.name])',
           (ENLARGED,)),
    Mutant("name-clash guard of the enlarged image dropped", "families.py",
           "    if any(names & dependency_closure(e).functions\n",
           "    if False and any(names & dependency_closure(e).functions\n",
           (ENLARGED, f"{FAMILIES}::test_enlarged_image_transforms_one_member_"
                      "unless_a_slot_name_clashes")),
    Mutant("famB's coefficients taken from rep_a without the rename", "families.py",
           "renamed(rep_a.coefficients[s.name])", "rep_a.coefficients[s.name]",
           (ENLARGED,)),
    Mutant("a forbidden variable kept only when a jet carries it", "families.py",
           "if v in carried or not partial(b, Var(v)).is_zero()]", "if v in carried]",
           (f"{FAMILIES}::test_forbidden_variable_dependency",)),
    Mutant("free-term absorption skipped", "families.py",
           "        if len(candidates) == 1:\n", "        if False:\n",
           (f"{FAMILIES}::test_free_term_absorbs_only_with_a_bare_dep_slot", ONE_SPLIT)),
    Mutant("absorbed free term not divided by the dependent variable", "families.py",
           "Expression(free, _pmul(lead_n, {m: 1}))", "Expression(free, lead_n)",
           (ONE_SPLIT,)),
    # match's quotients, each normalized once from two raw groups of one split
    Mutant("lead coefficient over the numerator's lc instead of the denominator",
           "families.py",
           "    lead_c = Expression(lead_n, den_p)\n",
           "    lead_c = Expression(lead_n, {Monomial(): lc})\n",
           (ONE_SPLIT,)),
    Mutant("a slot coefficient over the denominator instead of the lead group",
           "families.py",
           "Expression(groups.pop(m), lead_n) if m in groups",
           "Expression(groups.pop(m), den_p) if m in groups",
           (ONE_SPLIT,)),
    Mutant("a slot coefficient with its two raw groups swapped", "families.py",
           "Expression(groups.pop(m), lead_n) if m in groups",
           "Expression(lead_n, groups.pop(m)) if m in groups",
           (ONE_SPLIT,)),
    # the invariant check: the image's invariant against det**weight times
    # the invariant composed with the map
    Mutant("weight ignored", "families.py",
           "pm.det ** weight", "pm.det ** 0",
           (CONTACT, THETA3)),
    Mutant("invariant not pulled back through the map", "families.py",
           "    pulled = substitute(invariant, ",
           "    pulled = written if True else substitute(invariant, ",
           (CONTACT, THETA3)),
    Mutant("a1 and a2 swapped in the hyperbolic reader", "hyperbolic.py",
           "return cls(**report.coefficients, t=t, x=x, u=u)",
           'c = report.coefficients\n'
           '        return cls(c["a2"], c["a1"], c["a3"], t=t, x=x, u=u)',
           ("tests/test_hyperbolic.py::test_from_expression_round_trip",
            "tests/test_hyperbolic.py::test_template_reader_equals_the_collect_reader_bulk")),
    Mutant("the template key leaves out the name", "families.py",
           "                self.name, self.indep_vars, self.dep, lead,\n",
           "                self.indep_vars, self.dep, lead,\n",
           (f"{WRITTEN}[H-a1-a2-a3]", TEMPLATE_KEY)),
    Mutant("the template key puts the slots in name order", "families.py",
           "for s, m in zip(self.slots, monos)))",
           "for s, m in sorted(zip(self.slots, monos), key=lambda sm: sm[0].name)))",
           (f"{WRITTEN}[hyper-a3-a1-a2]", TEMPLATE_KEY)),
    Mutant("the template key leaves out the slot arguments", "families.py",
           "tuple((s.name, s.args, m)", "tuple((s.name, m)",
           (TEMPLATE_KEY,)),
    Mutant("the table keys the family through its __eq__", "families.py",
           "(family._template_key(), new_vars, new_dep)", "(family, new_vars, new_dep)",
           (WRITTEN, WARM_LOOKUPS)),
    Mutant("the tables evict their most recently used entry", "families.py",
           "del table[next(iter(table))]", "del table[next(reversed(table))]",
           (f"{FAMILIES}::test_the_written_table_drops_its_least_recently_used_entry",)),
    Mutant("the enlargement outcome is kept per famA alone", "families.py",
           "(famA._template_key(), famB._template_key())", "famA._template_key()",
           (f"{SHAPES}[lead]", f"{SHAPES}[argument-sets]", f"{SHAPES}[famA-argument-missing]",
            SHARED_CHECK)),
    # the kernel: raw sums, bare arguments and powers in a substitution pass,
    # the order check of a rename
    Mutant("a linear fold in _sum_terms", "expressions.py",
           "Expression(_pairwise([_pscale(num, k // d) for (num, _), d in zip(terms, ks)], _padd),",
           'Expression(__import__("functools").reduce('
           "_padd, [_pscale(num, k // d) for (num, _), d in zip(terms, ks)]),",
           (f"{KERNEL}::test_raw_term_sums_pair_as_expr_sum_does_bulk",)),
    Mutant("a bare argument left unsubstituted", "expressions.py",
           "        return _subst_atom(a, state) if state.hits(a) else e\n", "        return e\n",
           (f"{KERNEL}::test_a_bare_function_argument_becomes_its_binding_itself",)),
    Mutant("the bare-atom shortcut skipped", "expressions.py",
           "    a = _bare_atom(e)\n", "    a = None\n",
           (f"{KERNEL}::test_bare_arguments_shared_by_slot_atoms_are_never_rewritten",)),
    Mutant("a substituted power taken as a first power", "expressions.py",
           "_subst_atom(ak[0], state) ** ak[1]", "_subst_atom(ak[0], state)",
           (f"{KERNEL}::test_substitution_matches_per_term_assembly_bulk",)),
    Mutant("an affected atom stored as unaffected in values", "expressions.py",
           "        state.values[a] = got\n", "        state.values[a] = None\n",
           (f"{KERNEL}::test_substitution_matches_per_term_assembly_bulk",)),
    Mutant("a zero exponential argument kept after substitution", "expressions.py",
           "        if ea is not None and ea.is_zero():\n            ea = None\n", "",
           (f"{KERNEL}::test_exp_of_zero_vanishes_structurally",)),
    Mutant("a negative power keeps numerator and denominator in place", "expressions.py",
           "return Expression(_ppow(self._den, -k), _ppow(self._num, -k))",
           "return Expression(_ppow(self._num, -k), _ppow(self._den, -k))",
           (f"{KERNEL}::test_power_expansion_matches_repeated_product",)),
    Mutant("a rebuilt atom tuple not checked for order", "expressions.py",
           "                    if prev is not None and prev >= key:\n",
           "                    if False:\n",
           (RENAME, RENAME_BULK)),
    Mutant("the rename's order check lets an atom equal its neighbour", "expressions.py",
           "prev is not None and prev >= key", "prev is not None and prev > key",
           (RENAME, RENAME_BULK)),
    # interned atoms and monomials: the keys, the store, the callback, the
    # cofactors, the merge and the order of twins
    Mutant("the intern key is the text alone", "expressions.py",
           "        return _interned(_AtomRef, key, self)\n",
           "        return _interned(_AtomRef, (self.rank, self._text), self)\n",
           (f"{TWINS}[f-of-y]", f"{TWINS}[f-of-c]")),
    Mutant("a miss builds a fresh atom without storing it", "expressions.py",
           "        got = table.setdefault(key, ref)\n", "        got = ref\n",
           (f"{ATOMS}::test_equal_atoms_are_one_object",
            f"{ATOMS}::test_four_threads_building_the_same_atoms_get_the_same_objects")),
    Mutant("a monomial miss built without storing it", "expressions.py",
           "        return _interned(_MonomialRef, key, m)\n", "        return m\n",
           (EVERY_WAY, f"{ATOMS}::test_four_threads_building_the_same_monomials_get_the_same_objects")),
    Mutant("the monomial key leaves out the exponential argument", "expressions.py",
           "        key = atoms if exparg is None else (atoms, exparg)\n",
           "        key = atoms\n",
           (EVERY_WAY,)),
    Mutant("a dead monomial's callback removes its live successor", "expressions.py",
           "    remove(ref.table, ref.key)\n", "    ref.table.pop(ref.key, None)\n",
           (f"{ATOMS}::test_a_live_entry_that_replaced_a_dead_one_survives_the_dead_ones_callback",)),
    Mutant("the cofactor cache ignores the atom", "expressions.py",
           "        got = cof.get(atom)\n", "        got = next(iter(cof.values()), None)\n",
           (f"{ATOMS}::test_cofactors_are_kept_per_atom",)),
    Mutant("the monomial merge keys atoms by rank and text", "expressions.py",
           "                if xa is pb[0]:\n",
           "                if xa._skey[:2] == pb[0]._skey[:2]:\n",
           (f"{TWINS}[f-of-y]",)),
    Mutant("twins that print alike left unordered", "expressions.py",
           "        return repr(self.to_tree()) < repr(other.to_tree())\n",
           "        return False\n",
           (f"{ATOMS}::test_twins_sort_by_structure_whichever_is_built_first",)),
    # the session parser and the template reader it positions the errors of
    Mutant("binary minus parsed as plus", "parser.py",
           "                e = e - self.term()\n", "                e = e + self.term()\n",
           ("tests/test_cli.py::test_long_sign_runs_parse_without_recursion",)),
    Mutant("the template reader accepts a differentiated coefficient", "families.py",
           "            if f.dindex:\n", "            if False:\n",
           (f"{TEMPLATES}[D[u,t,x] + D[a1,1](t,x)*D[u,t] = 0-"
            "a family template cannot differentiate its coefficients]",)),
    Mutant("template errors leave the parser unpositioned", "parser.py",
           "        except (ValueError, EqvError) as exc:\n",
           "        except ParseError as exc:\n",
           (TEMPLATES,)),
)

# mutant name -> why it survives and what will catch it; empty today
KNOWN_SURVIVORS: dict[str, str] = {}


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit code on ``tests`` with ``src`` first on the path, and
    the node ids it reports as failed."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed


def main() -> int:
    code, failed = run_tests(ROOT / "src", tuple(t for m in MUTANTS for t in m.tests))
    if code != 0:
        print(f"the named tests fail on the unpatched source (exit {code}): {sorted(failed)}")
        return 1
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        copy = Path(tmp) / "src"
        for m in MUTANTS:
            shutil.rmtree(copy, ignore_errors=True)
            # no bytecode: a cached copy of the unpatched module must not load
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = copy / "eqvlab" / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                problems.append(f"{m.name}: patch text found {text.count(m.old)} times "
                                f"in {m.path}")
                print(f"{'STALE':9} {m.name}")
                continue
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code, failed = run_tests(copy, m.tests)
            if code not in (0, 1):  # not a test failure: collection, usage, crash
                problems.append(f"{m.name}: pytest exited {code}")
                print(f"{'ERROR':9} {m.name}")
                continue
            caught = bool(failed)
            print(f"{'caught' if caught else 'SURVIVED':9} {m.name}"
                  + (f"  by {', '.join(sorted(failed))}" if caught else ""))
            if not caught and m.name not in KNOWN_SURVIVORS:
                problems.append(f"{m.name}: survived {', '.join(m.tests)}")
            if caught and m.name in KNOWN_SURVIVORS:
                problems.append(f"{m.name}: a known survivor is now caught; "
                                f"take it off KNOWN_SURVIVORS")
    for name in KNOWN_SURVIVORS.keys() - {m.name for m in MUTANTS}:
        problems.append(f"{name}: a known survivor with no mutant")
    for p in problems:
        print(f"gate: {p}")
    print(f"gate: {len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
