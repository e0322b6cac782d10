"""Seeded inputs and expected outputs for each benchmark workload.

A workload is a set of files plus one CLI invocation per command form,
each with the exact stdout and exit code it must produce.  The synthetic
generators fix every size (concepts, rules, references, text widths) and
let the seed choose names, which concepts a rule touches and the
cosmetic text, so every seed costs about the same to analyze.  The same
seed always gives byte-identical files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import (
    Chains,
    HelperSpec,
    MetamodelSpec,
    Ref,
    RuleSpec,
    Target,
    TransformationSpec,
    analyze_markdown,
    diagnostic_counts,
    expected_report,
    ignored_markdown,
    lint_text,
    referenced_markdown,
)

FORMS = (
    "analyze_md",
    "analyze_json",
    "lint",
    "chain_check",
    "chain_plan",
    "chain_plan_none",
)


@dataclass
class Invocation:
    form: str
    args: list[str]
    stdout: str
    code: int
    kib: float = 0.0  # input read by the CLI


@dataclass
class Workload:
    name: str
    files: dict[str, str]  # path relative to the repository root -> text
    invocations: list[Invocation]
    sizes: dict[str, int] = field(default_factory=dict)

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        for inv in self.invocations:
            inv.kib = sum((root / a).stat().st_size for a in inv.args if _is_input(a)) / 1024


def _is_input(arg: str) -> bool:
    return arg.endswith((".cmm", ".tfm"))


def _commands(mm_path, t_paths, reports, concrete, chain, plan_goal, none_goal):
    """The six invocations every workload runs, with expected outputs."""
    chains = Chains(reports, concrete)
    everything = [mm_path, *t_paths]
    by_name = dict(zip((r["transformation"] for r in reports), t_paths))
    invs = [
        Invocation("analyze_md", ["analyze", *everything], analyze_markdown(reports), 0),
        Invocation(
            "analyze_json",
            ["analyze", "--format", "json", *everything],
            json.dumps(reports, indent=2) + "\n",
            0,
        ),
        Invocation("lint", ["lint", *everything], lint_text(reports), 0),
    ]
    for names in chain:
        invs.append(Invocation(
            "chain_check",
            ["chain-check", mm_path, *(by_name[n] for n in names)],
            chains.check_text(frozenset(concrete), names),
            0,
        ))
    for form, (initial, required, forbidden, max_len) in (
        ("chain_plan", plan_goal),
        ("chain_plan_none", none_goal),
    ):
        args = ["chain-plan", *everything, "--max-len", str(max_len)]
        if initial is not None:
            args += ["--initial", ",".join(c for c in concrete if c in initial)]
        args += [a for c in sorted(required) for a in ("--require", c)]
        args += [a for c in sorted(forbidden) for a in ("--forbid", c)]
        start = frozenset(concrete) if initial is None else frozenset(initial)
        text, code = chains.plan_text(start, frozenset(required), frozenset(forbidden), max_len)
        invs.append(Invocation(form, args, text, code))
    return invs


# -- corpus-cli ---------------------------------------------------------------


def corpus(root: Path, seed: int) -> Workload:
    """The bundled fixture corpus; expected answers are its golden files.

    The seed is unused: the corpus is fixed.
    """
    fixtures = root / "fixtures"
    names = sorted(p.stem for p in (fixtures / "reports").glob("*.json"))
    reports = [
        json.loads((fixtures / "reports" / f"{n}.json").read_text(encoding="utf-8"))
        for n in names
    ]
    for golden, rendered in (
        ("table2.md", ignored_markdown(reports)),
        ("table3.md", referenced_markdown(reports)),
    ):
        if (fixtures / golden).read_text(encoding="utf-8") != rendered:
            raise RuntimeError(f"fixtures/{golden} disagrees with the golden reports")
    concrete = [p["concept"] for p in reports[0]["profiles"]]
    # Criterion 5: recordRemoval alone is rejected, and accepted after
    # classInstantiation.
    chains = {"INVALID": ["recordRemoval"], "VALID": ["classInstantiation", "recordRemoval"]}
    invs = _commands(
        "fixtures/pivot.cmm",
        [f"fixtures/{n}.tfm" for n in names],
        reports,
        concrete,
        list(chains.values()),
        (None, (), ("Class", "Record"), 8),
        (frozenset({"Class"}), ("Forall",), (), 8),
    )
    checks = [inv for inv in invs if inv.form == "chain_check"]
    for inv, verdict in zip(checks, chains):
        if not inv.stdout.endswith(f"chain: {verdict}\n"):
            raise RuntimeError(f"criterion 5 verdict {verdict} not reproduced: {inv.args}")
    sizes = {"transformations": len(names), "diagnostics": diagnostic_counts(reports)}
    return Workload("corpus-cli", {}, invs, sizes)


# -- text emission with positions ---------------------------------------------


class Text:
    """Source text built line by line; places each Ref and records its position."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, *parts: str | Ref) -> None:
        buf = ""
        for p in parts:
            if isinstance(p, Ref):
                p.line, p.col = len(self.lines) + 1, len(buf) + 1
                buf += p.qualified
            else:
                buf += p
        self.lines.append(buf)

    def value(self) -> str:
        return "\n".join(self.lines) + "\n"


_WORDS = (
    "alpha", "bravo", "delta", "gamma", "kappa", "omega", "sigma", "theta",
    "lemma", "vocab", "orbit", "pixel", "quark", "radix", "shard", "tuple",
)
_FEATURES = ("name", "owner", "items", "value", "level", "scope", "label", "order")


def _concept_names(rng: random.Random, n: int) -> list[str]:
    # Fixed width keeps the text size independent of the seed.
    return [f"C{i:04d}" for i in rng.sample(range(10000), n)]


def _metamodel_text(rng, name, concepts, supers, n_features) -> str:
    text = Text()
    text.add(f"-- {rng.choice(_WORDS)} metamodel, generated")
    text.add(f"metamodel {name} {{")
    for (c, abstract), parents in zip(concepts, supers):
        head = ("\tabstract class " if abstract else "\tclass ") + c
        if parents:
            head += " extends " + ", ".join(parents)
        text.add(head + " {")
        for k in range(n_features):
            f = _FEATURES[(k + len(c)) % len(_FEATURES)]
            if k % 2:
                text.add(f"\t\tref {f}{k} : {rng.choice(concepts)[0]} [0..*];")
            else:
                text.add(f"\t\tattr {f}{k} : String;")
        text.add("\t}")
    text.add("}")
    return text.value()


def _dag_supers(rng, concepts, max_parents):
    supers = []
    for i in range(len(concepts)):
        k = min(i, max_parents)
        supers.append([c for c, _ in rng.sample(concepts[:i], k)] if k else [])
    return supers


def _emit_transformation(rng, spec: TransformationSpec, mm: str, parents: dict, n_bindings: int) -> str:
    """Text for a spec; fills in the position of every Ref it places."""
    text = Text()
    text.add(f"-- {spec.name}: generated {rng.choice(_WORDS)} rewrite")
    text.add(f"module {spec.name};")
    text.add(f"create OUT : {mm} from IN : {mm};")
    text.add("")
    for h in spec.helpers:
        if h.context is not None:
            text.add("helper context ", h.context, f" def : {h.name} : Boolean =")
        else:
            text.add(f"helper def : {h.name} : Boolean =")
        body: list = ["\tSet{"]
        for k, r in enumerate(h.body_refs):
            body += [", " if k else "", r]
        text.add(*body, "}->includes(self.", rng.choice(_FEATURES), ");")
        text.add("")
    for r in spec.rules:
        if rng.random() < 0.2:
            text.add(f"-- {rng.choice(_WORDS)} {rng.choice(_WORDS)}: {r.name}")
        head = ("lazy rule " if r.lazy else "rule ") + r.name
        if r.name in parents:
            head += f" extends {parents[r.name]}"
        if any(len(tp.refs) > n_bindings for tp in r.targets):
            raise ValueError(f"rule {r.name}: more binding references than bindings")
        src = Ref(mm, r.source)
        if not n_bindings and r.guard is None:
            # One line per rule: the wide metamodel's slices keep their parse small.
            line: list = [head, " { from s : ", src, " to "]
            for k, tp in enumerate(r.targets):
                line += [", " if k else "", f"t{k} : ", Ref(mm, tp.concept), "()"]
            text.add(*line, " }")
            continue
        text.add(head + " {")
        text.add("\tfrom")
        if r.guard is None:
            text.add("\t\ts : ", src)
        else:
            text.add("\t\ts : ", src, " (")
            guard: list = ["\t\t\ts.", rng.choice(_FEATURES), " > 3"]
            for g in r.guard:
                guard += [" and s.", rng.choice(_FEATURES), ".oclIsKindOf(", g, ")"]
            text.add(*guard)
            text.add("\t\t)")
        text.add("\tto")
        for k, tp in enumerate(r.targets):
            close = ")," if k + 1 < len(r.targets) else ")"
            if not n_bindings:
                text.add(f"\t\tt{k} : ", Ref(mm, tp.concept), "(" + close)
                continue
            text.add(f"\t\tt{k} : ", Ref(mm, tp.concept), "(")
            bindings = [[f"\t\t\t{f} <- s.{f}"] for f in rng.sample(_FEATURES, n_bindings)]
            for b, ref in zip(bindings, tp.refs):
                b += [".oclIsKindOf(", ref, ")"]
            for b in bindings[:-1]:
                text.add(*b, ",")
            text.add(*bindings[-1])
            text.add("\t\t" + close)
        text.add("}")
        text.add("")
    return text.value()


def _synthetic(name, mm, supers, specs, parents, rng, shape, chain, plan_goal, none_goal):
    """Emit the spec texts and their expected outputs.

    `shape` is (features per concept, bindings per target pattern).
    """
    n_features, n_bindings = shape
    base = f".perfbench_work/{name}"
    files = {f"{base}/{mm.name}.cmm": _metamodel_text(rng, mm.name, mm.concepts, supers, n_features)}
    for spec in specs:
        spec.path = f"{base}/{spec.name}.tfm"
        files[spec.path] = _emit_transformation(
            rng, spec, mm.name, parents.get(spec.name, {}), n_bindings
        )
    reports = [expected_report(s, mm) for s in specs]
    invs = _commands(
        f"{base}/{mm.name}.cmm",
        [s.path for s in specs],
        reports,
        mm.concrete,
        chain,
        plan_goal,
        none_goal,
    )
    sizes = {
        "concepts": len(mm.concepts),
        "transformations": len(specs),
        "rules": sum(len(s.rules) for s in specs),
        "bytes": sum(len(t.encode()) for t in files.values()),
        "diagnostics": diagnostic_counts(reports),
    }
    return Workload(name, files, invs, sizes)


# -- bulk-parse ---------------------------------------------------------------

BULK_CONCEPTS = 200
BULK_TRANSFORMATIONS = 3
BULK_RULES = 90  # per transformation
BULK_HELPERS = 8


def bulk_parse(seed: int) -> Workload:
    """A few large transformations over a 200-concept metamodel.

    A helper of each transformation mentions every concrete concept, so
    no concept is ignored on the way in and every chain step is valid
    from the full concept set.  The rules cycle
    through the fixture shapes: plain copy, guarded copy, lazy copy with
    an `extends` parent, guarded mutation into two targets, multi-target
    copy and plain mutation.  `keep` is copied by every transformation,
    so forbidding it has no plan; `drop` is copied by all but the last,
    which only mutates it, so forbidding it has a one-step plan.
    """
    rng = random.Random(seed)
    names = _concept_names(rng, BULK_CONCEPTS)
    concepts = [(c, i % 10 == 0) for i, c in enumerate(names)]
    mm = MetamodelSpec("Bulk", concepts)
    supers = _dag_supers(rng, concepts, 2)
    concrete = mm.concrete
    drop, keep = concrete[0], concrete[1]
    targets = [c for c in concrete if c != drop]
    pool = [c for c in names if c not in (drop, keep)]
    specs, parents = [], {}
    for ti in range(BULK_TRANSFORMATIONS):
        spec = TransformationSpec(f"bulk{ti}", "")
        spec.helpers.append(HelperSpec("covers", None, [Ref("Bulk", c) for c in concrete]))
        for h in range(1, BULK_HELPERS):
            body = [Ref("Bulk", rng.choice(names)) for _ in range(2)]
            if h == 1:
                body.append(Ref("Legacy", rng.choice(names)))  # unknown_concept
            spec.helpers.append(HelperSpec(f"h{h:02d}", Ref("Bulk", rng.choice(names)), body))
        rules = [RuleSpec("", keep, [Target(keep)])]
        if ti == BULK_TRANSFORMATIONS - 1:
            rules.append(RuleSpec("", drop, [Target(rng.choice(targets))]))
        else:
            rules.append(RuleSpec("", drop, [Target(drop)]))
        for k in range(BULK_RULES - len(rules)):
            src = rng.choice(pool)
            guard = [Ref("Bulk", rng.choice(names))]
            refs = [Ref("Bulk", rng.choice(names))]
            shape = k % 6
            if shape == 0:
                rules.append(RuleSpec("", src, [Target(src, refs)]))
            elif shape == 1:
                rules.append(RuleSpec("", src, [Target(src)], guard))
            elif shape == 2:
                rules.append(RuleSpec("", src, [Target(src, refs)], lazy=True))
            elif shape == 3:
                made = rng.sample(targets, 2)
                rules.append(RuleSpec("", src, [Target(made[0], refs), Target(made[1])], guard))
            elif shape == 4:
                rules.append(RuleSpec("", src, [Target(src), Target(rng.choice(targets))]))
            else:
                rules.append(RuleSpec("", src, [Target(rng.choice(targets), refs)]))
        if ti == 0:
            rules[-1].guard = [Ref("Legacy", rng.choice(names))]  # unknown_concept
        rng.shuffle(rules)
        for n, r in enumerate(rules):
            r.name = f"{'lz' if r.lazy else 'r'}{n:04d}"
        spec.rules = rules
        lazies = [r.name for r in rules if r.lazy]
        parents[spec.name] = {lazies[i]: lazies[i - 1] for i in range(1, len(lazies), 2)}
        specs.append(spec)
    workload = _synthetic(
        "bulk-parse", mm, supers, specs, parents, rng, (1, 1),
        [[s.name for s in specs]],
        (None, (), (drop,), 8),
        (None, (), (keep,), 8),
    )
    _check_goals(workload)
    return workload


def _check_goals(w: Workload) -> None:
    """The generator built one goal with a plan and one without."""
    codes = {inv.form: inv.code for inv in w.invocations}
    if (codes["chain_plan"], codes["chain_plan_none"]) != (0, 3):
        raise RuntimeError(f"{w.name}: generated chain-plan goals lost their intended outcome")


# -- wide-metamodel -------------------------------------------------------------

WIDE_CONCEPTS = 800
WIDE_TRANSFORMATIONS = 6
WIDE_SLICE = 30


def wide_metamodel(seed: int) -> Workload:
    """Small transformations that each touch a slice of a wide metamodel.

    All but a slice of concepts are ignored, so every report carries
    thousands of ignored_in/ignored_out findings and long concept lists:
    the analyzer and the renderers do the work, not the parsers.  The
    first transformation mutates one slice concept into `goal`, outside
    its slice, which gives chain-plan a one-step plan from that slice;
    `never` is produced by no rule, so requiring it has no plan.
    """
    rng = random.Random(seed)
    names = _concept_names(rng, WIDE_CONCEPTS)
    concepts = [(c, i % 8 == 0) for i, c in enumerate(names)]
    mm = MetamodelSpec("Wide", concepts)
    supers = [parents if i % 2 else [] for i, parents in enumerate(_dag_supers(rng, concepts, 1))]
    concrete = mm.concrete
    never = concrete[0]
    pool = concrete[1:]
    specs = []
    modes = ((None, False), ([], False), (None, True))  # always, guarded, lazy
    first_slice = goal = None
    for ti in range(WIDE_TRANSFORMATIONS):
        picked = rng.sample(pool, WIDE_SLICE + 2)
        chosen, outside, stray = picked[:WIDE_SLICE], picked[-2], picked[-1]
        spec = TransformationSpec(f"wide{ti:02d}", "")
        spec.helpers.append(HelperSpec(
            "h00", Ref("Wide", chosen[0]), [Ref("Wide", c) for c in chosen[:3]]
        ))
        # Mentioned but never processed.
        spec.helpers.append(HelperSpec("h01", None, [Ref("Wide", stray)]))
        for k, c in enumerate(chosen):
            guard, lazy = modes[k % 3]
            guard = None if guard is None else [Ref("Wide", rng.choice(chosen))]
            spec.rules.append(RuleSpec(f"r{k:03d}", c, [Target(c)], guard, lazy))
        spec.rules.append(RuleSpec(
            "mutate", chosen[1], [Target(outside), Target(rng.choice(chosen))],
            [Ref("Wide", chosen[2])],
        ))
        if ti == 0:
            first_slice, goal = frozenset(chosen), outside
        specs.append(spec)
    workload = _synthetic(
        "wide-metamodel", mm, supers, specs, {}, rng, (0, 0),
        [[s.name for s in specs[:4]]],
        (first_slice, (goal,), (), 8),
        (first_slice, (never,), (), 8),
    )
    _check_goals(workload)
    return workload


def build(name: str, root: Path, seed: int) -> Workload:
    if name == "corpus-cli":
        return corpus(root, seed)
    generators = {"bulk-parse": bulk_parse, "wide-metamodel": wide_metamodel}
    return generators[name](seed)
