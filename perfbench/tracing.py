"""Traced in-process run: per-layer self time and counts.

The CLI's `main` runs in this process, once per invocation of the
workload, with the public functions of each layer wrapped at module
level.  Every wrapped call becomes a span (name, start, end, parent);
a layer's self time is its spans' duration minus the time their child
spans cover.  Cycles without wrappers alternate with traced cycles, so
the difference between the two is the tracing overhead.  Nothing in
`src/` changes: the wrappers are installed and removed from here.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time

# (module, public function) pairs; the span name is "module.function".
WRAPPED = (
    ("lexer", "tokenize"),
    ("metamodel", "parse_metamodel"),
    ("transformation", "parse_transformation"),
    ("analyzer", "analyze"),
    ("analyzer", "detect_fixed_point"),
    ("report", "ignored_table"),
    ("report", "referenced_table"),
    ("report", "report_table"),
    ("report", "render"),
    ("report", "report_to_json"),
    ("chain", "propagate"),
    ("chain", "check_chain"),
    ("chain", "plan_chain"),
)
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans of the current cycle, kept in memory until the cycle is folded."""

    def __init__(self) -> None:
        # [name, start, end, parent index, args, result]
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                rec[5] = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            return rec[5]

        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every module-level binding of each wrapped function."""
    modules = [m for n, m in list(sys.modules.items()) if n == "xformlens" or n.startswith("xformlens.")]
    patched = []
    for mod_name, fn_name in WRAPPED:
        original = getattr(importlib.import_module(f"xformlens.{mod_name}"), fn_name)
        wrapper = tracer.span(f"{mod_name}.{fn_name}", original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    patched.append((m, attr, original))
    try:
        yield
    finally:
        for m, attr, original in patched:
            setattr(m, attr, original)


def _refs(t) -> int:
    """Concept references in a parsed transformation."""
    n = 0
    for h in t.helpers:
        n += (h.context is not None) + len(h.result_type.refs) + len(h.body.refs)
    for r in t.rules:
        n += 1 + len(r.targets)
        if r.guard is not None:
            n += len(r.guard.refs)
        n += sum(len(b.value.refs) for tp in r.targets for b in tp.bindings)
    return n


def fold(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms: dict[str, float] = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - child[i]) * 1000

    def total(name: str) -> float:
        return self_ms.get(name, 0.0)

    def results(name: str):
        return [s[5] for s in spans if s[0] == name]

    tokens = sum(len(r) for r in results("lexer.tokenize"))
    calls = new = 0
    visited: dict[int, set] = {}
    for i, (name, _, _, parent, args, result) in enumerate(spans):
        if name == "chain.plan_chain":
            visited[i] = {(None, frozenset(args[1]))}
        elif name == "chain.propagate" and parent in visited:
            calls += 1
            state = (args[1].target_mm, result)
            if state not in visited[parent]:
                visited[parent].add(state)
                new += 1
    transformations = results("transformation.parse_transformation")
    return {
        "lexer.tokenize_ms": total("lexer.tokenize"),
        "lexer.tokens": tokens,
        "lexer.tokens_per_s": tokens / (total("lexer.tokenize") / 1000) if tokens else 0.0,
        "transformation.parse_self_ms": total("transformation.parse_transformation"),
        "transformation.rules": sum(len(t.rules) for t in transformations),
        "transformation.refs": sum(_refs(t) for t in transformations),
        "metamodel.parse_self_ms": total("metamodel.parse_metamodel"),
        "metamodel.concepts": sum(len(mm.concepts) for mm in results("metamodel.parse_metamodel")),
        "analyzer.analyze_self_ms": total("analyzer.analyze"),
        "analyzer.fixed_point_ms": total("analyzer.detect_fixed_point"),
        "analyzer.diagnostics": sum(len(r.diagnostics) for r in results("analyzer.analyze")),
        "report.tables_ms": sum(
            total(f"report.{n}") for n in ("ignored_table", "referenced_table", "report_table")
        ),
        "report.render_ms": total("report.render"),
        "report.json_ms": total("report.report_to_json"),
        "chain.plan_self_ms": total("chain.plan_chain"),
        "chain.check_ms": total("chain.check_chain"),
        "chain.propagate_ms": total("chain.propagate"),
        "chain.propagate_calls": sum(1 for s in spans if s[0] == "chain.propagate"),
        "chain.new_state_ratio": new / calls if calls else 0.0,
        "cli.self_ms": total(ROOT_SPAN),
        "trace.total_ms": sum((s[2] - s[1]) * 1000 for s in spans if s[3] < 0),
        "trace.self_sum_ms": sum(self_ms.values()),
    }


def _invoke(main, args: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["xformlens", *args]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.argv = saved
    return out.getvalue(), code


def run(invocations, deadline: float) -> tuple[dict[str, float], int, int]:
    """Alternate untraced and traced cycles until `deadline` (at least two each).

    Returns the per-layer metrics (medians over traced cycles), the
    number of invocations made and the number whose output was wrong.
    """
    from xformlens import cli

    tracer = Tracer()
    root = tracer.span(ROOT_SPAN, lambda args: _invoke(cli.main, args))
    untraced: list[float] = []
    traced: list[dict[str, float]] = []
    attempted = failed = 0
    while len(traced) < 2 or time.perf_counter() < deadline:
        total = 0.0
        for inv in invocations:
            start = time.perf_counter()
            out, code = _invoke(cli.main, inv.args)
            total += time.perf_counter() - start
            attempted += 1
            failed += out != inv.stdout or code != inv.code
        untraced.append(total * 1000)
        with installed(tracer):
            for inv in invocations:
                out, code = root(inv.args)
                attempted += 1
                failed += out != inv.stdout or code != inv.code
        cycle = fold(tracer.spans)
        tracer.spans.clear()
        # Self times partition the traced total; a gap means a lost span.
        if abs(cycle["trace.self_sum_ms"] - cycle["trace.total_ms"]) > 1e-6 * cycle["trace.total_ms"]:
            failed += 1
        traced.append(cycle)
    metrics = {k: statistics.median(c[k] for c in traced) for k in traced[0]}
    metrics["trace.untraced_ms"] = statistics.median(untraced)
    metrics["trace.overhead_pct"] = (
        metrics["trace.total_ms"] / metrics["trace.untraced_ms"] - 1
    ) * 100
    return metrics, attempted, failed
