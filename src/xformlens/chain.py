"""Chain validation and planning over analyzed transformations.

A chain step is valid when its whole input concept set lies inside the
step's refined domain. Concept sets move through a chain via propagate,
which applies the per-concept profiles: copied concepts survive,
mutation products are added, and unmatched concepts disappear.
"""
from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable, Sequence

from .analyzer import AnalysisReport
from .metamodel import declaration_order


class ChainCompatibilityError(ValueError):
    """Adjacent chain steps disagree on the intermediate metamodel."""


# transformation: str; input_set, output_set: frozenset[str]; valid: bool; warnings: tuple[str, ...]
ChainStep = namedtuple("ChainStep", "transformation input_set output_set valid warnings", defaults=((),))


class ChainPlan(namedtuple("ChainPlan", "initial_set steps goal_met")):
    """`initial_set` (frozenset[str]) folded through `steps`
    (tuple[ChainStep, ...]); `goal_met` (bool) when every step is valid."""

    __slots__ = ()

    @property
    def final_set(self) -> frozenset[str]:
        return self.steps[-1].output_set if self.steps else self.initial_set


def propagate(s: Iterable[str], report: AnalysisReport) -> frozenset[str]:
    """Image of a concept set under one transformation's profiles."""
    out: set[str] = set()
    for c in s:
        profile = report.profiles.get(c)
        if profile is None:
            continue
        if profile.copy_modes:
            out.add(c)
        out |= profile.produced_as
    return frozenset(out)


def check_chain(
    initial: Iterable[str], chain: Sequence[AnalysisReport]
) -> ChainPlan:
    """Fold a concept set through an ordered chain of reports.

    goal_met is True when every step is valid. A warning is attached to
    any step that introduces a concept some later step drops again.
    """
    sets = [frozenset(initial)]  # sets[i] enters step i, and sets[i + 1] leaves it
    for i, report in enumerate(chain):
        if i > 0 and chain[i - 1].target_mm != report.source_mm:
            raise ChainCompatibilityError(
                f"step {i} produces metamodel '{chain[i - 1].target_mm}' but "
                f"step {i + 1} ('{report.transformation}') reads "
                f"'{report.source_mm}'"
            )
        sets.append(propagate(sets[i], report))

    steps = []
    for i, report in enumerate(chain):
        warnings = []
        for c in declaration_order(sets[i + 1] - sets[i], report.target_concepts):
            j = next((j for j in range(i + 1, len(chain)) if c not in sets[j + 1]), None)
            if j is not None:
                warnings.append(
                    f"useless step: '{c}' is introduced here and dropped "
                    f"by step {j + 1} ('{chain[j].transformation}')"
                )
        steps.append(
            ChainStep(report.transformation, sets[i], sets[i + 1], sets[i] <= report.refined_domain, tuple(warnings))
        )
    return ChainPlan(sets[0], tuple(steps), all(s.valid for s in steps))


def plan_chain(
    library: Iterable[AnalysisReport],
    initial: Iterable[str],
    required: Iterable[str],
    forbidden: Iterable[str],
    max_len: int = 8,
) -> ChainPlan | None:
    """Breadth-first search for a shortest valid chain meeting the goal.

    The goal holds for a set S when required ⊆ S and S ∩ forbidden = ∅.
    Ties between equally short chains go to the lexicographically
    smallest transformation-name sequence; returns None when no valid
    chain of at most max_len steps reaches the goal: at once, with the
    same answer, when every step copies, or mutates into itself, a
    forbidden initial concept.
    """
    initial_set = frozenset(initial)
    required_set = frozenset(required)
    forbidden_set = frozenset(forbidden)
    reports = sorted(library, key=lambda r: r.transformation)

    if required_set <= initial_set and not (initial_set & forbidden_set):
        return check_chain(initial_set, [])

    # The search keeps each concept set as an int with one bit per name, and
    # propagate is its reference. A valid input lies inside the step's refined
    # domain, so each step's masks are built from that domain alone.
    bits: dict[str, int] = {}

    def mask(names: frozenset[str]) -> int:  # distinct names, so the sum of their bits is their OR
        return sum(bits.setdefault(c, 1 << len(bits)) for c in names)

    steps = []
    for report in reports:
        domain, copied, made = mask(report.refined_domain), 0, {}  # made: a producer's bit -> its products
        for c in report.refined_domain:
            p = report.profiles.get(c)
            if p and (p.copy_modes or c in p.produced_as):  # a concept mutated into itself is kept too
                copied |= bits[c]
            if p and p.produced_as:
                made[bits[c]] = mask(p.produced_as)
        steps.append((report, domain, copied, sum(made), made))
    need, banned, init = mask(required_set), mask(forbidden_set), mask(initial_set)

    # A step keeps what it copies or mutates into itself, so a forbidden initial concept that
    # every step keeps is never dropped.
    kept = init
    for _, _, copied, _, _ in steps:
        kept &= copied
    if kept & banned:
        return None

    # States pair the current metamodel with the concept set; the start
    # state carries no metamodel, so any library entry may begin the chain.
    start: tuple[str | None, int] = (None, init)
    visited = {start}
    queue: deque[tuple[tuple[str | None, int], tuple[AnalysisReport, ...]]]
    queue = deque([(start, ())])
    while queue:
        (mm, s), path = queue.popleft()
        if len(path) >= max_len:
            continue
        for report, domain, copied, producers, made in steps:
            if mm is not None and report.source_mm != mm:
                continue
            if s & ~domain:
                continue
            out = s & copied
            todo = s & producers
            while todo:
                low = todo & -todo
                out |= made[low]
                todo ^= low
            state = (report.target_mm, out)
            if state in visited:
                continue
            visited.add(state)
            extended = path + (report,)
            if out & need == need and not out & banned:
                return check_chain(initial_set, list(extended))
            queue.append((state, extended))
    return None
