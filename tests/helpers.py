"""Test utilities: the fixture corpus, reference rule snippets, harnesses, and naive oracles.

The oracles in this module are deliberately independent re-derivations
of the library behavior, so the tests compare two implementations
instead of an implementation with itself.
"""
from __future__ import annotations

import os
import random
import re
from collections import deque
from itertools import product
from pathlib import Path

import xformlens
from xformlens import ParseError, check_chain, parse_metamodel, parse_transformation
from xformlens.lexer import is_ident, tokenize

# The constraint-programming pivot metamodel excerpt, five endogenous
# transformations over it, and the golden outputs rendered from them.
CORPUS = Path(__file__).resolve().parents[1] / "fixtures"

FIXTURE_NAMES = (
    "classInstantiation",
    "enumRemoval",
    "forallRemoval",
    "recordRemoval",
    "uselessIfRemoval",
)


def fixture_corpus():
    """Parse and return the pivot metamodel and the five transformations."""
    pivot = CORPUS / "pivot.cmm"
    mm = parse_metamodel(pivot.read_text(encoding="utf-8"), path=str(pivot))
    transformations = []
    for name in FIXTURE_NAMES:
        path = CORPUS / f"{name}.tfm"
        transformations.append(parse_transformation(path.read_text(encoding="utf-8"), path=str(path)))
    return mm, tuple(transformations)


def named(records, name):
    """The first of `records` (concepts, rules, ...) whose `name` is `name`."""
    return next(r for r in records if r.name == name)


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's `src` first on PYTHONPATH and a buffered stdout.

    A buffered stdout keeps the bytes it failed to write, and the flush at
    exit tries them again; PYTHONUNBUFFERED would hide that.
    """
    src = str(Path(xformlens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


RULE_COPY_ALWAYS = """rule DataType {
	from
		s : CPPivot!DataType
	to
		t : CPPivot!DataType(
			name <- s.name
		)
}"""

RULE_COPY_GUARDED = """rule SetDomain {
	from
		s : CPPivot!SetDomain (
			not s.parent.oclIsTypeOf(CPPivot!IndexVariable)
		)
	to
		t : CPPivot!SetDomain (
			values <- s.values
		)
}"""

RULE_COPY_LAZY = """lazy rule lazyBoolVal extends lazyExpression {
	from
		b : CPPivot!BoolVal
	to
		t : CPPivot!BoolVal(
			value <- b.value
		)
}"""

RULE_MUTATION_GUARDED = """rule VariableExpr2IntVal {
	from
		s : CPPivot!VariableExpr(
			s.declaration.oclIsTypeOf(CPPivot!EnumLiteral)
		)
	to
		t : CPPivot!IntVal(
			value <- s.declaration.getEnumPos
		)
}"""

LAZY_PARENT_STUB = """lazy rule lazyExpression {
	from
		e : CPPivot!Expression
	to
		t : CPPivot!Expression()
}"""


def wrap_rules(body, name="probe", source_mm="CPPivot", target_mm=None):
    """Embed rule text into a minimal module skeleton."""
    target_mm = target_mm or source_mm
    return (
        f"module {name};\n"
        f"create OUT : {target_mm} from IN : {source_mm};\n\n"
        f"{body}\n"
    )


def random_metamodel_text(rng: random.Random, max_concepts: int = 12) -> str:
    """Random but always well-formed metamodel source named MM."""
    n = rng.randint(1, max_concepts)
    flags = [rng.random() < 0.2 for _ in range(n)]
    if all(flags):
        flags[rng.randrange(n)] = False
    lines = ["metamodel MM {"]
    for i in range(n):
        head = "abstract class" if flags[i] else "class"
        sup = f" extends C{rng.randrange(i)}" if i and rng.random() < 0.4 else ""
        feats = []
        for f in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                feats.append(f"attr a{f} : String;")
            else:
                mult = rng.choice(["", " [0..1]", " [0..*]", " [1..*]"])
                feats.append(f"ref r{f} : C{rng.randrange(n)}{mult};")
        body = " " + " ".join(feats) + " " if feats else ""
        lines.append(f"\t{head} C{i}{sup} {{{body}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _random_expr(rng: random.Random, names: list[str]) -> str:
    if rng.random() < 0.4:
        return f"s.f{rng.randrange(3)}"
    concept = rng.choice(names + ["Ghost"])
    return f"s.f.oclIsTypeOf(MM!{concept})"


def random_transformation_text(
    rng: random.Random, concept_names: list[str], max_rules: int = 8, extends: bool = False
) -> str:
    """Random module over metamodel MM; may reference unknown concepts. With `extends`, a rule
    may extend an earlier one; without it, the draws are those of a module with no `extends`."""
    parts = [f"module t{rng.randrange(10_000)};", "create OUT : MM from IN : MM;", ""]
    for h in range(rng.randint(0, 2)):
        ctx = ""
        if rng.random() < 0.5:
            ctx = f"context MM!{rng.choice(concept_names + ['Ghost'])} "
        parts.append(
            f"helper {ctx}def : h{h} : Boolean = {_random_expr(rng, concept_names)};"
        )
    for i in range(rng.randint(0, max_rules)):
        lazy = "lazy " if rng.random() < 0.15 else ""
        parent = f" extends r{rng.randrange(i)}" if extends and i and rng.random() < 0.3 else ""
        source = rng.choice(concept_names + ["Ghost"])
        guard = ""
        if rng.random() < 0.5:
            guard = f" ({_random_expr(rng, concept_names)})"
        targets = []
        for j in range(rng.randint(1, 3)):
            concept = rng.choice(concept_names + ["Ghost"])
            bindings = ", ".join(
                f"b{b} <- {_random_expr(rng, concept_names)}"
                for b in range(rng.randint(0, 2))
            )
            targets.append(f"t{j} : MM!{concept}({bindings})")
        parts.append(
            f"{lazy}rule r{i}{parent} {{ from s : MM!{source}{guard} to "
            + ", ".join(targets)
            + " }"
        )
    return "\n".join(parts) + "\n"


def naive_profiles(transformation, source_mm, target_mm):
    """Reference profile fold, written independently of the analyzer.

    Returns {concept: (copy_modes, mutation_modes, produced_as)} over the
    concrete source concepts, with mode names as plain strings.
    """
    source_names = {c.name for c in source_mm.concepts}
    target_names = {c.name for c in target_mm.concepts}
    concrete_src = [c.name for c in source_mm.concepts if not c.abstract]
    concrete_tgt = {c.name for c in target_mm.concepts if not c.abstract}
    result = {c: (set(), set(), []) for c in concrete_src}
    for rule in transformation.rules:
        src = rule.source_concept
        if src.metamodel != source_mm.name or src.name not in source_names:
            continue
        if any(
            t.concept.metamodel != target_mm.name or t.concept.name not in target_names
            for t in rule.targets
        ):
            continue
        if src.name not in result:
            continue
        if rule.lazy:
            mode = "lazily"
        elif rule.guard is not None:
            mode = "conditionally"
        else:
            mode = "always"
        targets = list(dict.fromkeys(t.concept.name for t in rule.targets))
        copy_modes, mutation_modes, produced = result[src.name]
        if targets[0] == src.name:
            copy_modes.add(mode)
            extras = targets[1:]
        else:
            mutation_modes.add(mode)
            extras = targets
        for name in extras:
            if name in concrete_tgt and name not in produced:
                produced.append(name)
    return result


def naive_propagate(concepts, report):
    """Reference image computation from the report profiles."""
    out = set()
    for c in concepts:
        profile = report.profiles.get(c)
        if profile is None:
            continue
        if profile.copy_modes:
            out.add(c)
        out.update(profile.produced_as)
    return frozenset(out)


def enumerate_best_plan_length(reports, initial, required, forbidden, max_len):
    """Shortest valid goal-reaching sequence length by brute force.

    Returns the length, or None when no sequence of length <= max_len
    works. Mirrors the planner contract: every step input must sit
    inside that step's refined domain, metamodels must chain, and the
    goal is judged on the final concept set.
    """
    initial = frozenset(initial)
    required = frozenset(required)
    forbidden = frozenset(forbidden)

    def goal(s):
        return required <= s and not (s & forbidden)

    if goal(initial):
        return 0
    for length in range(1, max_len + 1):
        for seq in product(reports, repeat=length):
            s = initial
            mm = None
            feasible = True
            for rep in seq:
                if mm is not None and rep.source_mm != mm:
                    feasible = False
                    break
                if not s <= rep.refined_domain:
                    feasible = False
                    break
                s = naive_propagate(s, rep)
                mm = rep.target_mm
            if feasible and goal(s):
                return length
    return None


def reference_plan(library, initial, required, forbidden, max_len=8):
    """The planner's breadth-first search over frozensets, with
    naive_propagate: `plan_chain(...)` must equal `reference_plan(...)`.

    States pair the current metamodel (None at the start) with the concept
    set; steps are tried in name order, so the first goal state found is
    the shortest plan with the smallest name sequence.
    """
    initial = frozenset(initial)
    required = frozenset(required)
    forbidden = frozenset(forbidden)

    def goal(s):
        return required <= s and not (s & forbidden)

    if goal(initial):
        return check_chain(initial, [])
    reports = sorted(library, key=lambda r: r.transformation)
    start = (None, initial)
    visited = {start}
    queue = deque([(start, ())])
    while queue:
        (mm, s), path = queue.popleft()
        if len(path) >= max_len:
            continue
        for report in reports:
            if mm is not None and report.source_mm != mm:
                continue
            if not s <= report.refined_domain:
                continue
            out = naive_propagate(s, report)
            state = (report.target_mm, out)
            if state in visited:
                continue
            visited.add(state)
            extended = path + (report,)
            if goal(out):
                return check_chain(initial, list(extended))
            queue.append((state, extended))
    return None


def reference_report_dict(report):
    """The documented JSON shape of a report as plain data, built the
    straightforward way: `report_to_json(report)` must equal
    `json.dumps(reference_report_dict(report), indent=2)`.
    """

    def ordered(universe, names):
        return [c for c in universe if c in names]

    def modes(values):
        return [m for m in ("always", "conditionally", "lazily") if any(v.value == m for v in values)]

    src, tgt = report.source_concepts, report.target_concepts
    diagnostics = []
    for d in report.diagnostics:
        entry = {"kind": d.kind, "subject": d.subject, "message": d.message}
        for key in ("file", "line", "column"):
            if getattr(d, key) is not None:
                entry[key] = getattr(d, key)
        diagnostics.append(entry)
    return {
        "transformation": report.transformation,
        "source_mm": report.source_mm,
        "target_mm": report.target_mm,
        "ignored_in": ordered(src, report.ignored_in),
        "ignored_out": ordered(tgt, report.ignored_out),
        "refined_domain": ordered(src, report.refined_domain),
        "refined_codomain": ordered(tgt, report.refined_codomain),
        "fixed_point_candidate": report.fixed_point_candidate,
        "profiles": [
            {
                "concept": c,
                "copy_modes": modes(p.copy_modes),
                "mutation_modes": modes(p.mutation_modes),
                "produced_as": ordered(tgt, p.produced_as),
            }
            for c, p in report.profiles.items()
        ],
        "diagnostics": diagnostics,
    }


# The reference scanner for `lexer.tokenize`, spelled with named groups:
# the group that matches is the token's kind. A comment or a string ends
# at CR or LF.
_REFERENCE_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|--[^\r\n]*)*"
    r"(?:(?P<ident>[^\W\d]\w*)"
    r"|(?P<int>\d+)"
    r"|(?P<string>'[^'\r\n]*')"
    r"|(?P<unterminated>')"
    r"|(?P<symbol><-|->|\.\.|.)"
    r"|(?P<eof>\Z))"
)


def reference_position(source, offset):
    """The 1-based line and column of `offset`, where CR LF, CR and LF each end a line."""
    before = source[:offset].replace("\r\n", "\n").replace("\r", "\n")
    return before.count("\n") + 1, len(before) - before.rfind("\n")


def reference_tokenize(source, path=None):
    """The (kind, text, offset) triple of each token of `source`, or a
    ParseError at an unterminated quote."""
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "unterminated":
            raise ParseError("unterminated string literal", *reference_position(source, start), path)
        tokens.append((kind, m[kind], start))
        if kind == "eof":
            return tokens


def _kind(text):
    # A token's kind as the parsers judge it: from its text alone.
    head = text[:1]
    if is_ident(text):
        return "ident"
    return "eof" if not head else "int" if head.isdecimal() else "string" if head == "'" else "symbol"


def lexed(source, path=None):
    """`lexer.tokenize(source)` as (kind, text, offset) triples."""
    tokens = tokenize(source, path)
    return [(_kind(t), t, s) for t, s in zip(tokens, tokens.starts)]
