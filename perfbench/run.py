#!/usr/bin/env python3
"""Benchmark of the xformlens command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --list
    python3 perfbench/run.py --steady 5 --workload wide-metamodel

With `--trace 0` the real CLI runs as a child process, one invocation at
a time in a closed loop with a single client, cycling through the
workload's command forms until `--seconds` have passed (and at least
MIN_SAMPLES invocations were made, so ten lie beyond the pooled p90).
Every child's stdout and exit code is compared with the answer the
workload generator computed without xformlens.  Set-up (generate and
write the inputs, one warm-up call) runs SETUP_ROUNDS times, once
before the loop and the rest spread evenly over it; `setup_s` is their
median.

A bare interpreter (`python -c pass`) starts before the first CLI call
and after every CLI call.  Each call's latency is reported relative to
it: the call's wall time divided by the mean wall time of the bare
start just before and just after it (unit `x`, "bare start-ups").  The
speed of a shared machine drifts by a third within seconds, and a bare
start next to a call drifts with it, so the ratio stays steady where the
raw wall time does not; the raw medians are printed for information.
With `--trace 1` the same invocations run in process under the span
tracer of `tracing.py`, and start-up is sampled from bare and importing
interpreters.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKLOADS = ("corpus-cli", "bulk-parse", "wide-metamodel")
SETUP_ROUNDS = 7  # spread evenly over the measured time
MIN_SAMPLES = 100  # ten samples beyond the pooled p90
HARD_LIMIT_S = 150.0  # stop topping up samples after this much wall time
STARTUP_SAMPLES = 15  # per kind, in the traced run


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


class Cli:
    """Spawns `python -m xformlens` children and reaps each with wait4."""

    def __init__(self) -> None:
        self.env = {k: v for k, v in os.environ.items() if k != "XFORMLENS_COLOR"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        WORK.mkdir(exist_ok=True)
        self.out = str(WORK / "stdout")
        self.err = str(WORK / "stderr")

    def run(self, argv: list[str]) -> tuple[float, int, bytes, int]:
        """(wall seconds, exit code, stdout, peak RSS in KiB) of one child."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),
            (os.POSIX_SPAWN_OPEN, 1, self.out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        with open(self.out, "rb") as fh:
            stdout = fh.read()
        return wall, os.waitstatus_to_exitcode(status), stdout, usage.ru_maxrss

    def invoke(self, inv: workloads.Invocation):
        return self.run(["-m", "xformlens", *inv.args])

    def bare(self) -> float:
        """Wall seconds of a bare interpreter start, the reference unit."""
        return self.run(["-c", "pass"])[0]


def _setup(name: str, seed: int, cli: Cli | None) -> tuple[workloads.Workload, float, str]:
    """Generate and write the inputs, then warm up with one call.

    The warm-up's answer is not checked here: the same invocation is
    checked, and counted, in the measured loop.
    """
    start = time.perf_counter()
    w = workloads.build(name, ROOT, seed)
    w.write(ROOT)
    if cli is not None:
        cli.invoke(w.invocations[0])
    digest = hashlib.sha256(json.dumps(w.files, sort_keys=True).encode()).hexdigest()
    return w, time.perf_counter() - start, digest


def measure(name: str, seed: int, seconds: float) -> dict:
    cli = Cli()
    w, first, digest = _setup(name, seed, cli)
    setups, digests = [first], {digest}
    expected = [inv.stdout.encode() for inv in w.invocations]

    per_form: dict[str, list[float]] = {f: [] for f in workloads.FORMS}
    raw_form: dict[str, list[float]] = {f: [] for f in workloads.FORMS}
    pooled: list[float] = []
    kib = starts = 0.0
    peak_kib = attempted = failed = 0
    begin = time.perf_counter()
    deadline = begin + seconds
    before = cli.bare()
    bares = [before]
    i = 0
    while True:
        now = time.perf_counter()
        if now >= deadline and (len(pooled) >= MIN_SAMPLES or now - begin > HARD_LIMIT_S):
            break
        if len(setups) < SETUP_ROUNDS and now >= begin + len(setups) * seconds / SETUP_ROUNDS:
            # Set-up rounds spread over the run see the machine's speed
            # drift as the calls do, so their median is steadier.
            _, dt, digest = _setup(name, seed, cli)
            setups.append(dt)
            digests.add(digest)
            before = cli.bare()
            continue
        k = i % len(w.invocations)
        inv = w.invocations[k]
        i += 1
        dt, code, out, rss = cli.invoke(inv)
        after = cli.bare()
        bares.append(after)
        rel = dt / ((before + after) / 2)
        before = after
        attempted += 1
        failed += code != inv.code or out != expected[k]
        per_form[inv.form].append(rel)
        raw_form[inv.form].append(dt)
        pooled.append(rel)
        kib += inv.kib
        starts += rel
        peak_kib = max(peak_kib, rss)

    p90 = statistics.quantiles(pooled, n=10)[-1]
    beyond = sum(1 for x in pooled if x > p90)
    raw = ", ".join(f"{f} {statistics.median(xs) * 1000:.1f}" for f, xs in raw_form.items())
    print(
        f"{name} seed={seed}: {w.sizes}; {attempted} invocations in {time.perf_counter() - begin:.1f} s; "
        f"cli_p90_rel over {len(pooled)} samples, {beyond} beyond it; "
        f"error_rate {failed}/{attempted} = {failed / attempted:.4f}; "
        f"raw wall p50 ms (not steady on a shared machine): {raw}; "
        f"the base of the *_rel ratios, a bare start, p50 {statistics.median(bares) * 1000:.1f} ms"
    )
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for form, xs in per_form.items():
        metrics[f"{form}_p50_rel"] = (statistics.median(xs), "x")
    metrics["cli_p90_rel"] = (p90, "x")
    metrics["throughput_kib_per_start"] = (kib / starts, "KiB/start")
    metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    correct = failed == 0 and len(digests) == 1 and len(setups) == SETUP_ROUNDS and beyond >= 10
    return _result(correct, attempted, failed, metrics)


def traced(name: str, seed: int, seconds: float) -> dict:
    import tracing

    cli = Cli()
    w, _, _ = _setup(name, seed, None)
    start = time.perf_counter()
    bare, imported = [], []
    for _ in range(STARTUP_SAMPLES):
        bare.append(cli.run(["-c", "pass"])[0])
        imported.append(cli.run(["-c", "import xformlens.cli"])[0])
    sys.path.insert(0, str(ROOT / "src"))
    layers, attempted, failed = tracing.run(w.invocations, start + seconds)
    bare_ms = statistics.median(bare) * 1000
    metrics = {
        "startup.bare_ms": (bare_ms, "ms"),
        "startup.import_ms": (statistics.median(imported) * 1000 - bare_ms, "ms"),
    }
    for key, value in layers.items():
        metrics[key] = (value, UNITS.get(key.rsplit("_", 1)[-1], "count"))
    print(f"{name} seed={seed}: traced {attempted} in-process invocations; {w.sizes}")
    return _result(failed == 0, attempted, failed, metrics)


UNITS = {"ms": "ms", "s": "1/s", "pct": "%", "ratio": "ratio"}


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def list_metrics() -> None:
    spec = _spec()
    manifest = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        info = manifest["workloads"][w["name"]]
        print(f"{w['name']}: {w['why']}")
        print(f"  inputs: {info['inputs']}\n  seed: {info['seed']}\n  goals: {info['goals']}")
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                bound = f", bound {m['bound']}" if "bound" in m else ""
                print(f"  {kind:10s} {m['name']:30s} {m['unit']:6s} ({m['better']} is better{bound})")
    print("layer metrics -> the end-to-end metrics they should move:")
    for entry in manifest["layers"]:
        moves = ", ".join(entry["moves"]) or "nothing"
        print(f"  {', '.join(entry['metrics'])} -> {moves} on {entry['on']}")


def steady(names: list[str], runs: int, first_seed: int, seconds: float) -> int:
    """Repeat each workload over `runs` seeds; report spread against bounds.

    The spread of a metric is (Q3 - Q1) / median over the runs.  Exits 1
    when a run is wrong or a spread other than setup_s exceeds its bound.
    """
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    worst = 0.0
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: failed run\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                return 1
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"{name}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        for k, xs in values.items():
            print(f"  {k:22s} " + " ".join(f"{x:.4g}" for x in xs))
        for k, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            verdict = "below bound/3" if spread < bounds[k] / 3 else "within bound" if spread < bounds[k] else "OVER BOUND"
            print(f"  {k:22s} median {med:10.3f}  spread {spread:6.3f}  bound {bounds[k]:.2f}  {verdict}")
    print(f"largest spread / bound, setup_s aside: {worst:.2f}")
    return 0 if worst < 1 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="print every metric and unit per workload")
    ap.add_argument("--steady", type=int, metavar="RUNS", help="repeat over RUNS seeds and report spreads")
    args = ap.parse_args()

    if args.list:
        list_metrics()
        return 0
    if args.steady:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return steady(names, args.steady, args.seed, args.seconds)
    if args.workload is None:
        _fail("--workload is required")
    if not (ROOT / "src" / "xformlens" / "__main__.py").is_file():
        _fail(f"no xformlens sources under {ROOT / 'src'}")
    if args.workload == "corpus-cli" and not (ROOT / "fixtures" / "reports").is_dir():
        _fail(f"no fixture corpus under {ROOT / 'fixtures'}")
    run = traced if args.trace else measure
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
