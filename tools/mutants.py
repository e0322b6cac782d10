"""Mutant gate: every listed one-token fault must fail the tier-1 tests.

Run from anywhere:

    python3 tools/mutants.py

Each mutant replaces one text, which must occur exactly once in its file
(tier-1 checks this too, in tests/test_mutants.py), in a temporary copy of
the repository. Tier-1, less that check, then runs there with `-x`, and
the mutant is killed when it fails. The tool first runs tier-1 on the
unmutated copy, since a failing suite would kill every mutant, and exits
non-zero if that run fails or any mutant survives. Expect a few minutes.

A mutant that changes no output belongs off this list: deleting
`plan_chain`'s `if state in visited: continue` only slows the search.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/xformlens"

# (file, old, new, why): `new` replaces `old`, which spans one changed line
# plus any context that makes it unique.
MUTANTS = [
    # Rule classification.
    (f"{PKG}/analyzer.py", "if lazy:", "if lazy and guard is None:",
     "a guard wins over the lazy keyword"),
    (f"{PKG}/analyzer.py", 'action = "copy" if produced[0] ==', 'action = "copy" if produced[-1] ==',
     "copy judged by the last target, not the first"),
    # Killed by test_analyzer.py's test_classify_plain_copy.
    (f"{PKG}/analyzer.py", "targets, guard, lazy, _ = rule", "targets, lazy, guard, _ = rule",
     "a rule's guard and lazy flag are read in each other's place"),
    # Profile fold.
    (f"{PKG}/analyzer.py", "produced_as.update(cls.targets[1:])", "produced_as.update(cls.targets)",
     "a copy lists its own concept in produced_as"),
    (f"{PKG}/analyzer.py", "produced_as.update(cls.targets)\n", "produced_as.update(cls.targets[1:])\n",
     "a mutation loses its first target"),
    (f"{PKG}/analyzer.py", "target_concrete.intersection(produced_as)", "frozenset(produced_as)",
     "an abstract target enters produced_as"),
    (f"{PKG}/analyzer.py", "patterns_ok &= resolve(concept", "resolve(concept",
     "an unknown target no longer gates its rule"),
    (f"{PKG}/analyzer.py", "if not patterns_ok or concept_name not in source_concrete:", "if not patterns_ok:",
     "a rule over an abstract source folds into a profile"),
    # Resolve scopes.
    (f"{PKG}/analyzer.py", "read = {target_name: set(), source_name: mentioned_source}",
     "read = {source_name: mentioned_source, target_name: set()}",
     "the target entry wins the read scope of an endogenous module"),
    (f"{PKG}/analyzer.py", "typed = {target_name: set(), source_name: set()}",
     "typed = {target_name: set(), source_name: mentioned_source}",
     "a helper's context and result type count as mentions"),
    (f"{PKG}/analyzer.py", "written = {target_name: mentioned_target}",
     "written = {target_name: mentioned_source}",
     "target patterns count as source mentions"),
    (f"{PKG}/analyzer.py", "for ref in guard[1]:\n                resolve(ref, owner, read)",
     "for ref in guard[1]:\n                resolve(ref, owner, typed)",
     "guard mentions stop counting"),
    # Positional reads. Killed by test_analyzer.py's test_helper_body_counts_toward_mentions_but_type_does_not
    # and by test_cache.py's test_each_positional_read_names_the_fields_of_its_record.
    (f"{PKG}/analyzer.py", "for helper_name, result_type, body, context in helpers:",
     "for helper_name, body, result_type, context in helpers:",
     "a helper's body is read as its result type, so body refs count as typed"),
    # Ignored sets and diagnostics.
    (f"{PKG}/analyzer.py", "ignored_in = source_concrete - mentioned_source", "ignored_in = source_concrete - mentioned_target",
     "ignored-in read from the target mentions"),
    (f"{PKG}/analyzer.py", "ignored_out = target_concrete - mentioned_target", "ignored_out = target_concrete - mentioned_source",
     "ignored-out read from the source mentions"),
    (f"{PKG}/analyzer.py", "refined_domain=source_concrete - ignored_in,", "refined_domain=source_concrete - ignored_out,",
     "refined domain cut by the ignored-out set"),
    (f"{PKG}/analyzer.py", "mentioned_source.difference(folded)",
     "{c for c in mentioned_source if not profiles[c].copy_modes}",
     "a concept that is only mutated is called never processed"),
    # Killed by the corpus goldens (test_fixtures.py's test_goldens_match_the_regeneration_tool):
    # `Class` is both never_processed and ignored_out in classInstantiation.
    (f"{PKG}/analyzer.py", "({}, {}, {})", "({},) * 3",
     "the kept findings are keyed by the concept alone, not by kind and concept"),
    # Killed by test_analyzer.py's test_a_library_shares_the_findings_it_has_in_common (its exogenous
    # library) and by every other exogenous analysis.
    (f"{PKG}/analyzer.py", "else _facts(target_mm)", "else _facts(source_mm)",
     "an exogenous library takes the source metamodel's facts for the target's"),
    # Fixed point. The first is killed by test_analyzer.py's test_fixed_point_verdicts_and_candidates (codomain_probe).
    (f"{PKG}/analyzer.py", "if dom != cod:", "if dom - cod:",
     "a refined codomain larger than the domain passes for equal"),
    (f"{PKG}/analyzer.py", "if (Mode.CONDITIONALLY in p.copy_modes or Mode.LAZILY in p.copy_modes)",
     "if (Mode.CONDITIONALLY in p.copy_modes)",
     "a lazily copied concept cannot be focal"),
    (f"{PKG}/analyzer.py", "and Mode.CONDITIONALLY in p.mutation_modes", "and p.mutation_modes",
     "a focal concept needs no conditional mutation"),
    (f"{PKG}/analyzer.py", "if c not in focal and p.mutation_modes", "if c not in focal and Mode.ALWAYS in p.mutation_modes",
     "a conditional mutation outside the focal set is not stray"),
    # Chains.
    (f"{PKG}/chain.py", "if profile.copy_modes:", "if not profile.mutation_modes:",
     "propagate keeps concepts no rule copies"),
    (f"{PKG}/chain.py", "sets[i] <= report.refined_domain,", "sets[i + 1] <= report.refined_domain,",
     "step validity judged on the step's output"),
    (f"{PKG}/chain.py", "declaration_order(sets[i + 1] - sets[i],", "declaration_order(sets[i + 1],",
     "a concept that passes through counts as introduced"),
    (f"{PKG}/chain.py",
     "j = next((j for j in range(i + 1, len(chain)) if c not in sets[j + 1]), None)\n            if j is not None:",
     "for j in (j for j in range(i + 1, len(chain)) if c not in sets[j + 1]):",
     "a useless-step warning repeats for every later dropping step"),
    (f"{PKG}/chain.py", "if c not in sets[j + 1]), None)", "if c not in sets[j]), None)",
     "a concept counts as dropped by the step after the one that drops it"),
    (f"{PKG}/chain.py", "reports = sorted(library, key=lambda r: r.transformation)", "reports = list(library)",
     "the planner's tie-break follows library order"),
    (f"{PKG}/chain.py", "if len(path) >= max_len:", "if len(path) > max_len:",
     "the planner returns chains one step over max_len"),
    (f"{PKG}/chain.py", "if mm is not None and report.source_mm != mm:", "if mm is None and report.source_mm != mm:",
     "the planner chains steps across metamodels"),
    # The planner's bitmask search. Killed by test_plan_single_step, test_plan_two_steps_orders_prerequisite_first,
    # test_plan_single_step and test_plan_matches_the_reference_search_on_random_libraries, in this order.
    (f"{PKG}/chain.py", "if s & ~domain:", "if not s & ~domain:",
     "the planner takes a step only when its input leaves the refined domain"),
    (f"{PKG}/chain.py", "            if s & ~domain:\n                continue\n", "",
     "the planner takes a step whose input leaves the refined domain"),
    (f"{PKG}/chain.py", "out |= made[low]", "out = made[low]",
     "a planned step's image keeps only its last producer's products"),
    (f"{PKG}/chain.py", "todo ^= low", "todo = 0",
     "a planned step's image takes the products of one producer only"),
    # The proof of "no plan" before the search. Both are killed by test_plan_single_step, the first
    # also by test_acceptance.py's test_criterion_6_planner_matches_exhaustive_search.
    (f"{PKG}/chain.py", "for _, _, copied, _, _ in steps:", "for _, copied, _, _, _ in steps:",
     "the proof takes a concept in every step's domain for one that every step copies"),
    (f"{PKG}/chain.py", "kept = init", "kept = -1",
     "the proof starts from every concept, not from the initial set"),
    # Killed by test_plan_unreachable_goal_returns_none (PropertyExpr) and
    # test_plan_matches_the_reference_search_on_random_libraries.
    (f"{PKG}/chain.py", "if p and (p.copy_modes or c in p.produced_as):", "if p and p.copy_modes:",
     "the proof misses a concept that a step mutates into itself"),
    # Tables and lexer.
    (f"{PKG}/report.py", "if len(top) == 1:", "if top:",
     "a size tie still collapses one group to ALL OTHER"),
    # Killed by test_report.py's test_exogenous_tables_list_target_side_sets_in_target_order and
    # test_properties.py's test_report_to_json_writes_what_json_dumps_writes.
    (f"{PKG}/report.py", '("ignored_out", tgt)', '("ignored_out", src)',
     "the ignored-out set is listed over the source metamodel"),
    # Killed by test_report.py's test_profile_groups_come_in_the_referenced_tables_column_order.
    (f"{PKG}/report.py", "    groups.sort(key=_group_key)\n", "",
     "profile groups come in declaration order, not the table's column order"),
    # Killed by test_report.py's test_markdown_render_escapes_pipes (a pipe in a late body row).
    (f"{PKG}/report.py", 'if "|" in "".join(map("".join, rows)):', 'if "|" in "".join(table.header):',
     "only the header is scanned for a pipe to escape"),
    # Killed by test_properties.py's test_declaration_order_lists_a_subset_in_universe_order.
    (f"{PKG}/metamodel.py", "return list(filter(names.__contains__, universe))",
     "return sorted(filter(names.__contains__, universe))",
     "a concept set is listed in name order"),
    (f"{PKG}/lexer.py", r"|'|<-|->|\.\.|[^ \t\r\n])", r"|'|[^ \t\r\n]|<-|->|\.\.)",
     "single characters are tried before `<-`, `->` and `..`"),
    (f"{PKG}/lexer.py", r'r"(--[^\r\n]*|', r'r"(-[^\r\n]*|',
     "one `-` starts a comment, so `<--` loses its `-`"),
    (f"{PKG}/lexer.py", "(head.isnumeric() and not head.isdecimal())", "head.isnumeric()",
     "an integer is taken for an identifier"),
    (f"{PKG}/lexer.py", """if "'" in texts:""", """if "'" in parts[::2]:""",
     "an unterminated quote becomes a token"),
    (f"{PKG}/lexer.py", """found {describe(self.texts[self.pos])}")\n        self.pos += 1\n\n    def expect_ident""",
     """found {describe(self.texts[self.pos])}")\n\n    def expect_ident""",
     "`expect` does not step past the token it matched"),
    # Killed by test_lexer.py's test_double_dash_starts_a_comment_even_before_an_arrow_head.
    (f"{PKG}/lexer.py", "keep[k] = False", "keep[k] = True",
     "comments are never dropped from the token lists"),
    # Killed by test_lexer.py's test_a_lone_cr_ends_a_line_a_comment_and_a_string.
    (f"{PKG}/lexer.py", r'.replace("\r", "\n")', r'.replace("\r", " ")',
     "a lone CR does not end a line"),
    # Killed by test_lexer.py's test_identifiers_and_integers_split_where_the_word_starts and by
    # test_properties.py's test_tokenize_matches_the_reference_scanner (example `x²1 ٣y ½`).
    (f"{PKG}/lexer.py", "(_ASCII_TOKEN if source.isascii() else _TOKEN).split(source)", "_ASCII_TOKEN.split(source)",
     "a non-ASCII text is split in ASCII mode"),
    # Killed by test_lexer.py's test_balanced_capture_errors.
    (f"{PKG}/lexer.py", '_BOUNDS = {*"()[]{},;=", ""}', '_BOUNDS = {*"()[]{},;="}',
     "a captured run runs past end of input unreported"),
    (f"{PKG}/lexer.py", "if expected.pop() != text:", "if expected.pop() == text:",
     "a closer of the right kind is called mismatched, and one of the wrong kind is taken"),
    # Killed by test_transformation.py's test_expression_refs_need_an_identifier_on_both_sides.
    (f"{PKG}/parse.py", " and is_ident(texts[i + 1]):", ":",
     "a captured `A!B` needs no identifier after the `!`"),
    # Killed by test_transformation.py's test_expression_refs_need_an_identifier_on_both_sides (commented-bang).
    (f"{PKG}/parse.py", "if starts[i] == first + at and is_ident(", "if is_ident(",
     "a `!` inside a comment or string between two identifiers is taken for a ref"),
    # Records. Killed by test_api.py's test_every_record_keeps_its_shape_and_has_no_instance_dict.
    (f"{PKG}/metamodel.py", '"kind name type_name multiplicity", defaults=(None,))', '"kind name type_name multiplicity")',
     "a Feature's multiplicity loses its default"),
    # Output. Killed by test_lint_colors_kinds_when_enabled, test_properties.py's
    # test_report_to_json_writes_what_json_dumps_writes and test_a_short_write_is_followed_by_the_rest.
    (f"{PKG}/cli.py", 'os.environ.get("XFORMLENS_COLOR") == "1"', 'os.environ.get("XFORMLENS_COLOR") != "1"',
     "lint colours its kinds only when XFORMLENS_COLOR=1 is unset"),
    (f"{PKG}/report.py", '"" if line is None else', '"" if line is not None else',
     "a diagnostic's JSON has a line exactly when it has none"),
    (f"{PKG}/cli.py", "data = data[taken:]", "data = data[len(data):]",
     "the bytes a short write left are dropped"),
    # Command line. Killed by test_an_option_value_may_follow_an_equals_sign and
    # test_double_dash_ends_the_options.
    (f"{PKG}/cli.py", 'flag, eq, value = word.partition("=")', 'flag, eq, value = word, "", ""',
     "`--opt=value` is taken for an unknown option"),
    (f"{PKG}/cli.py", "paths.extend(words)", "pass",
     "`--` is dropped and the words after it are still read as options"),
    # Killed by test_chain_plan_rejects_negative_max_len.
    (f"{PKG}/cli.py", "if value < 0:", "if value < -1:",
     "`--max-len -1` is accepted"),
    # The cache of parsed inputs. Killed by test_cache.py's
    # test_an_edit_that_keeps_the_size_and_mtime_is_parsed_again, test_a_path_spelled_another_way_is_parsed_again,
    # test_a_hit_returns_the_stored_plain_tuples (and test_to_plain_writes_every_field_of_a_random_record_in_plain_types)
    # and test_a_failed_write_leaves_no_file_behind, in this order.
    (f"{PKG}/cli.py", "key = (stamp, kind, path, text)", "key = (stamp, kind, path)",
     "the cache key leaves out the text"),
    (f"{PKG}/cli.py", "key = (stamp, kind, path, text)", "key = (stamp, kind, text)",
     "the cache key leaves out the path string"),
    (f"{PKG}/transformation.py", "expr(guard), lazy, parent_rule)", "expr(guard), lazy, None)",
     "the plain form drops a rule's parent"),
    (f"{PKG}/cli.py", "            os.unlink(temporary)\n", "            pass\n",
     "a failed write leaves its temporary file in the cache"),
    # Killed by test_cache.py's test_the_stamp_covers_every_module_a_parse_loads.
    (f"{PKG}/cli.py", '_STAMPED = ("lexer", "metamodel", "parse", "transformation")',
     '_STAMPED = ("lexer", "metamodel", "transformation")',
     "an edited parser keeps serving the entries its old code wrote"),
    # Process entry. Killed by test_the_process_entry_disables_the_collector_before_the_commands_load
    # and test_the_process_entry_freezes_the_heap_before_exit.
    (f"{PKG}/__main__.py", "gc.disable()\n", "pass\n",
     "the collector stays on while the commands load"),
    (f"{PKG}/__main__.py", "        gc.freeze()\n", "        pass\n",
     "the collections at exit walk the whole heap"),
    # Metamodels. Killed by test_metamodel.py's test_inheritance_cycle_messages (`A -> A`).
    (f"{PKG}/parse.py", "declared_at[supertype] < declared_at[owner]", "declared_at[supertype] <= declared_at[owner]",
     "a concept that extends itself skips the cycle check"),
    # Package names.
    (f"{PKG}/__init__.py", '"plan_chain", "propagate"),\n    "metamodel": (\n        "Concept",',
     '"plan_chain"),\n    "metamodel": (\n        "propagate", "Concept",',
     "a public name is looked up in the wrong module"),
]


def _tier1(cwd: Path) -> tuple[bool, float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    # A mutant may match its original's size and mtime second, so no bytecode may be cached.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # tests/test_mutants.py fails on every mutant's own edit, which would kill them all; `main`
    # checks what it checks before any mutant runs.
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--ignore=tests/test_mutants.py"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:  # a mutant that hangs the suite is caught by it
        passed = False
    return passed, time.perf_counter() - start


def main() -> int:
    originals = {}
    for file, old, _, why in MUTANTS:
        text = originals.setdefault(file, (ROOT / file).read_text(encoding="utf-8"))
        if text.count(old) != 1:
            print(f"error: {file}: the text of '{why}' occurs {text.count(old)} times, not once", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="xformlens-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        junk = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work", "*.egg-info")
        shutil.copytree(ROOT, copy, ignore=junk)
        passed, seconds = _tier1(copy)
        print(f"unmutated  {seconds:5.1f}s  tier-1 {'passes' if passed else 'FAILS'}", flush=True)
        if not passed:
            return 1
        survivors = 0
        for file, old, new, why in MUTANTS:
            target = copy / file
            target.write_text(originals[file].replace(old, new), encoding="utf-8")
            try:
                passed, seconds = _tier1(copy)
            finally:
                target.write_text(originals[file], encoding="utf-8")
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed':<9}  {seconds:5.1f}s  {file}: {why}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
