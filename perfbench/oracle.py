"""Expected answers for the benchmark, computed without xformlens.

The synthetic workloads describe each transformation as a spec (rules,
helpers and the concept references inside them, with source positions).
`expected_report` folds a spec into the documented JSON report shape by
the rules stated in the README: copy vs mutation from the first target,
lazy over guard over always, ignored-in/out, refined sets, diagnostics
and the fixed-point criterion.  The renderers below turn report dicts
(from a spec, or from the golden JSON files of the fixture corpus) into
the exact text each CLI command must print.  Nothing here imports the
package under test.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

MODES = ("always", "conditionally", "lazily")
_DISPLAY = (("lazily", "lazily"), ("conditionally", "cond."), ("always", "always"))


@dataclass
class Ref:
    """A `MM!Name` reference with the 1-based position of its `MM` token."""

    mm: str
    name: str
    line: int = 0
    col: int = 0

    @property
    def qualified(self) -> str:
        return f"{self.mm}!{self.name}"


@dataclass
class Target:
    concept: str
    refs: list[Ref] = field(default_factory=list)  # refs inside bindings


@dataclass
class RuleSpec:
    name: str
    source: str
    targets: list[Target]
    guard: list[Ref] | None = None  # None: unguarded
    lazy: bool = False


@dataclass
class HelperSpec:
    name: str
    context: Ref | None
    body_refs: list[Ref]


@dataclass
class TransformationSpec:
    name: str
    path: str
    helpers: list[HelperSpec] = field(default_factory=list)
    rules: list[RuleSpec] = field(default_factory=list)


@dataclass
class MetamodelSpec:
    name: str
    concepts: list[tuple[str, bool]]  # (name, abstract), declaration order

    @property
    def concrete(self) -> list[str]:
        return [c for c, abstract in self.concepts if not abstract]


def expected_report(t: TransformationSpec, mm: MetamodelSpec) -> dict:
    """The JSON report of an endogenous transformation over `mm`."""
    names = {c for c, _ in mm.concepts}
    concrete = mm.concrete
    unknown: list[tuple[int, int, dict]] = []
    mentioned_src: set[str] = set()
    mentioned_tgt: set[str] = set()

    def resolve(refs: list[Ref], owner: str, count: bool = True) -> None:
        for r in refs:
            if r.mm == mm.name and r.name in names:
                if count:
                    mentioned_src.add(r.name)
                continue
            unknown.append((r.line, r.col, {
                "kind": "unknown_concept",
                "subject": r.qualified,
                "message": f"{owner} references unknown concept '{r.qualified}'",
                "file": t.path,
                "line": r.line,
                "column": r.col,
            }))

    for h in t.helpers:
        owner = f"helper '{h.name}'"
        # The context is checked for typos only; it counts as no use.
        resolve([h.context] if h.context else [], owner, count=False)
        resolve(h.body_refs, owner)

    copy = {c: set() for c in concrete}
    mutation = {c: set() for c in concrete}
    produced = {c: set() for c in concrete}
    for r in t.rules:
        owner = f"rule '{r.name}'"
        # Generated source and target patterns always resolve.
        mentioned_src.add(r.source)
        resolve(r.guard or [], owner)
        for tp in r.targets:
            mentioned_tgt.add(tp.concept)
            resolve(tp.refs, owner)
        if r.source not in copy:
            continue  # abstract source: contributes to no profile
        targets = list(dict.fromkeys(tp.concept for tp in r.targets))
        mode = "lazily" if r.lazy else "conditionally" if r.guard is not None else "always"
        if targets[0] == r.source:
            copy[r.source].add(mode)
            made = targets[1:]
        else:
            mutation[r.source].add(mode)
            made = targets
        produced[r.source].update(made)

    ignored_in = [c for c in concrete if c not in mentioned_src]
    ignored_out = [c for c in concrete if c not in mentioned_tgt]
    diagnostics = [d for _, _, d in sorted(unknown, key=lambda u: (u[0], u[1]))]
    for c in concrete:
        if not copy[c] and not mutation[c] and c in mentioned_src:
            diagnostics.append({
                "kind": "never_processed",
                "subject": c,
                "message": f"concept '{c}' is referenced but never copied or mutated",
            })
    for c in ignored_in:
        diagnostics.append({
            "kind": "ignored_in",
            "subject": c,
            "message": f"concept '{c}' appears in no source pattern, guard, "
            "binding, or helper body",
        })
    for c in ignored_out:
        diagnostics.append({
            "kind": "ignored_out",
            "subject": c,
            "message": f"concept '{c}' appears in no target pattern",
        })
    report = {
        "transformation": t.name,
        "source_mm": mm.name,
        "target_mm": mm.name,
        "ignored_in": ignored_in,
        "ignored_out": ignored_out,
        "refined_domain": [c for c in concrete if c not in ignored_in],
        "refined_codomain": [c for c in concrete if c not in ignored_out],
        "fixed_point_candidate": False,
        "profiles": [
            {
                "concept": c,
                "copy_modes": [m for m in MODES if m in copy[c]],
                "mutation_modes": [m for m in MODES if m in mutation[c]],
                "produced_as": [n for n in concrete if n in produced[c]],
            }
            for c in concrete
        ],
        "diagnostics": diagnostics,
    }
    report["fixed_point_candidate"] = _fixed_point(report)
    return report


def _fixed_point(report: dict) -> bool:
    if set(report["refined_domain"]) != set(report["refined_codomain"]):
        return False
    focal = {
        p["concept"]
        for p in report["profiles"]
        if ("conditionally" in p["copy_modes"] or "lazily" in p["copy_modes"])
        and "conditionally" in p["mutation_modes"]
    }
    stray = [
        p for p in report["profiles"] if p["concept"] not in focal and p["mutation_modes"]
    ]
    return bool(focal) and not stray


# -- text each command prints -------------------------------------------------


def _markdown(title: str, header: list[str], rows: list[list[str]]) -> str:
    def row(cells: list[str]) -> str:
        return "| " + " | ".join(cells) + " |"

    lines = [f"### {title}", "", row(header), "| " + " | ".join("---" for _ in header) + " |"]
    lines.extend(row(r) for r in rows)
    return "\n".join(lines) + "\n"


def _mode_label(modes: list[str]) -> str:
    if not modes:
        return "never"
    return ", ".join(label for m, label in _DISPLAY if m in modes)


def ignored_markdown(reports: list[dict]) -> str:
    rows = [
        [r["transformation"], ", ".join(r["ignored_in"]), ", ".join(r["ignored_out"])]
        for r in reports
    ]
    return _markdown(
        "Ignored metaelements",
        ["Transformation", "Ignored in metaelements", "Ignored out metaelements"],
        rows,
    )


def referenced_markdown(reports: list[dict]) -> str:
    """Table 3: refined-domain concepts grouped by (copy, mutation) modes."""
    per_report = []
    for r in reports:
        domain = set(r["refined_domain"])
        groups: dict[tuple, list[str]] = {}
        for p in r["profiles"]:
            if p["concept"] in domain:
                key = (tuple(p["copy_modes"]), tuple(p["mutation_modes"]))
                groups.setdefault(key, []).append(p["concept"])
        per_report.append(groups)

    def order(pair: tuple) -> tuple:
        return (len(pair[0]), _mode_label(pair[0]), _mode_label(pair[1]))

    pairs = sorted({pair for groups in per_report for pair in groups}, key=order)
    header = ["Transformation"] + [
        f"Copy: {_mode_label(c)} / Mutation: {_mode_label(m)}" for c, m in pairs
    ]
    rows = []
    for r, groups in zip(reports, per_report):
        collapsed = None
        if groups:
            largest = max(len(cs) for cs in groups.values())
            top = [pair for pair, cs in groups.items() if len(cs) == largest]
            if len(top) == 1:
                collapsed = top[0]
        cells = [r["transformation"]]
        for pair in pairs:
            if pair not in groups:
                cells.append("NONE")
            elif pair == collapsed:
                cells.append("ALL OTHER")
            else:
                cells.append(", ".join(groups[pair]))
        rows.append(cells)
    return _markdown("Referenced metaelements", header, rows)


def _diagnostic_text(d: dict) -> str:
    if "file" in d and "line" in d:
        return f"{d['file']}:{d['line']}:{d['column']}: {d['kind']}: {d['message']}"
    return f"{d['kind']}: {d['message']}"


def report_markdown(r: dict) -> str:
    rows = [
        ["source metamodel", r["source_mm"]],
        ["target metamodel", r["target_mm"]],
        ["ignored in", ", ".join(r["ignored_in"])],
        ["ignored out", ", ".join(r["ignored_out"])],
        ["refined domain", ", ".join(r["refined_domain"])],
        ["refined codomain", ", ".join(r["refined_codomain"])],
        ["fixed point candidate", "yes" if r["fixed_point_candidate"] else "no"],
    ]
    rows.extend(["diagnostic", _diagnostic_text(d)] for d in r["diagnostics"])
    return _markdown(f"report: {r['transformation']}", ["field", "value"], rows)


def analyze_markdown(reports: list[dict]) -> str:
    parts = [ignored_markdown(reports), referenced_markdown(reports)]
    parts.extend(report_markdown(r) for r in reports)
    return "\n".join(parts)


def lint_text(reports: list[dict]) -> str:
    lines = []
    for r in reports:
        for d in r["diagnostics"]:
            if "file" in d and "line" in d:
                lines.append(_diagnostic_text(d))
            else:
                lines.append(f"{r['transformation']}: {d['kind']}: {d['message']}")
    return "\n".join(lines or ["no findings"]) + "\n"


def diagnostic_counts(reports: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in reports:
        for d in r["diagnostics"]:
            counts[d["kind"]] = counts.get(d["kind"], 0) + 1
    return counts


# -- chains ---------------------------------------------------------------


class Chains:
    """Propagation, chain checking and planning over report dicts.

    Every workload's transformations are endogenous, so any step may
    follow any other; only the refined-domain check limits a chain.
    """

    def __init__(self, reports: list[dict], concrete: list[str]):
        self.concrete = concrete
        self.by_name = {r["transformation"]: r for r in reports}
        self.profiles = {
            r["transformation"]: {p["concept"]: p for p in r["profiles"]} for r in reports
        }

    def text(self, s: frozenset[str]) -> str:
        return ", ".join(c for c in self.concrete if c in s)

    def propagate(self, s: frozenset[str], name: str) -> frozenset[str]:
        out: set[str] = set()
        profiles = self.profiles[name]
        for c in s:
            p = profiles.get(c)
            if p is None:
                continue
            if p["copy_modes"]:
                out.add(c)
            out.update(p["produced_as"])
        return frozenset(out)

    def _steps(self, initial: frozenset[str], chain: list[str]):
        """Per step (name, valid, concepts outside the domain, warning lines)."""
        inputs, outputs = [], []
        current = initial
        for name in chain:
            inputs.append(current)
            current = self.propagate(current, name)
            outputs.append(current)
        steps = []
        for i, name in enumerate(chain):
            domain = frozenset(self.by_name[name]["refined_domain"])
            warnings = []
            introduced = outputs[i] - inputs[i]
            for c in self.concrete:
                if c not in introduced:
                    continue
                for j in range(i + 1, len(chain)):
                    if c not in outputs[j]:
                        warnings.append(
                            f"  warning: useless step: '{c}' is introduced here and "
                            f"dropped by step {j + 1} ('{chain[j]}')"
                        )
                        break
            steps.append((name, inputs[i] <= domain, inputs[i] - domain, warnings))
        return steps, (outputs[-1] if outputs else initial)

    def check_text(self, initial: frozenset[str], chain: list[str]) -> str:
        steps, final = self._steps(initial, chain)
        out = [f"initial: {self.text(initial)}"]
        for i, (name, valid, blocked, warnings) in enumerate(steps, start=1):
            if valid:
                out.append(f"step {i}: {name}: VALID")
            else:
                out.append(
                    f"step {i}: {name}: INVALID (outside refined domain: {self.text(blocked)})"
                )
            out.extend(warnings)
        out.append(f"final: {self.text(final)}")
        verdict = all(valid for _, valid, _, _ in steps)
        out.append(f"chain: {'VALID' if verdict else 'INVALID'}")
        return "\n".join(out) + "\n"

    def unreachable(self, initial, required, forbidden) -> bool:
        """True when the goal provably has no plan of any length.

        A forbidden initial concept that every transformation copies is
        in every reachable set; a required concept outside the initial
        set that no transformation produces is in none.
        """
        profiles = self.profiles.values()
        for c in forbidden & initial:
            if all(c in p and p[c]["copy_modes"] for p in profiles):
                return True
        for c in required - initial:
            if not any(c in q["produced_as"] for p in profiles for q in p.values()):
                return True
        return False

    def plan(self, initial, required, forbidden, max_len) -> list[str] | None:
        """Shortest chain, ties to the lexicographically smallest names."""

        def goal(s: frozenset[str]) -> bool:
            return required <= s and not (s & forbidden)

        if goal(initial):
            return []
        names = sorted(self.by_name)
        domains = {n: frozenset(self.by_name[n]["refined_domain"]) for n in names}
        start = (None, initial)
        visited = {start}
        queue = deque([(initial, [])])
        while queue:
            s, path = queue.popleft()
            if len(path) >= max_len:
                continue
            for n in names:
                if not s <= domains[n]:
                    continue
                out = self.propagate(s, n)
                state = (self.by_name[n]["target_mm"], out)
                if state in visited:
                    continue
                visited.add(state)
                if goal(out):
                    return path + [n]
                queue.append((out, path + [n]))
        return None

    def plan_text(self, initial, required, forbidden, max_len) -> tuple[str, int]:
        """(stdout, exit code) of chain-plan for this goal."""
        if self.unreachable(initial, required, forbidden):
            chain = None
        else:
            chain = self.plan(initial, required, forbidden, max_len)
        if chain is None:
            return "no plan\n", 3
        steps, final = self._steps(initial, chain)
        out = [f"plan: {len(chain)} step(s)"]
        for i, (name, _, _, warnings) in enumerate(steps, start=1):
            out.append(f"step {i}: {name}")
            out.extend(warnings)
        out.append(f"final: {self.text(final)}")
        return "\n".join(out) + "\n", 0
