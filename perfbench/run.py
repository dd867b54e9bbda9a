"""Benchmark of the gandyhyland workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from its
src/ directory. One process, one thread, one closed-loop client: the next
operation starts when the last one has returned. Operations come in
rounds that rebuild every fixture and session, and a run is a whole
number of rounds lasting at least S seconds. Every output is checked
against a reference computed without the package (reference.py); an
exception, RecursionError included, or a wrong output counts as a failed
operation. The interpreter's default recursion limit and thread stack
are left alone, as the command line leaves them.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
runs one round untraced and one traced (tracer.py) and reports the
per-layer metrics of the traced round, and the tracing overhead. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Scratch files, spans and the generated inputs go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Set-up is timed in this process and in this many fresh interpreters;
# the median is reported.
SETUP_SUBPROCESSES = 8

# Latencies are kept for whole rounds up to this many samples, as raw
# doubles, so that the benchmark's own memory does not grow with the
# program's speed and show in peak_rss_mb.
MAX_LATENCY_SAMPLES = 250_000


@dataclass
class Tally:
    """What the closed loop observed: latencies in seconds, the number of
    failed operations, and the first few failure messages."""

    latencies: array.array = field(default_factory=lambda: array.array("d"))
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message[:300])


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(workload, inputs, env) -> float:
    """Import the package, build a round's fixtures and sessions, and run
    the warm-up operations. Returns the seconds taken."""
    start = time.perf_counter()
    import gandyhyland.cli.main  # noqa: F401

    for op in workload.build_round(inputs, env):
        if op.warm:
            try:
                if op.prepare is not None:
                    op.prepare()
                op.run()
            except Exception:  # the timed run counts it as a failure
                pass
    return time.perf_counter() - start


def _setup_in_subprocess(args: argparse.Namespace) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def _run_round(workload, inputs, wants, env, tally: Tally, tracer=None) -> tuple[int, float]:
    """Build and run one round into tally; returns (operations, seconds)."""
    if len(tally.latencies) + len(wants) <= MAX_LATENCY_SAMPLES:
        record = tally.latencies.append
    else:
        record = lambda _seconds: None
    start = time.perf_counter()
    for index, (op, want) in enumerate(zip(workload.build_round(inputs, env), wants, strict=True)):
        if tracer is not None:
            tracer.op_id = index
        t0 = None
        try:
            if op.prepare is not None:
                op.prepare()
            t0 = time.perf_counter()
            out = op.run()
        except Exception as exc:  # any failure of the program is a failed operation
            if t0 is not None:
                record(time.perf_counter() - t0)
            tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        record(time.perf_counter() - t0)
        if not op.check(out, want):
            tally.fail(f"{op.label}: got {out!r}, wanted {want!r}")
    return len(wants), time.perf_counter() - start


def _source_digest() -> str:
    """Digest of the package and benchmark sources, so that counts stored
    by one version are only compared with counts from the same version."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_counts(metrics: dict, args: argparse.Namespace) -> str | None:
    """Compare the deterministic counts with an earlier traced run of the
    same workload, seed and sources, if one left its counts behind."""
    from tracer import DETERMINISTIC

    counts = {name: metrics[name][0] for name in DETERMINISTIC}
    path = WORK / f"counts-{args.workload}-seed{args.seed}-{_source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        changed = {k: (earlier.get(k), v) for k, v in counts.items() if earlier.get(k) != v}
        if changed:
            return f"deterministic counts differ from an earlier run: {changed}"
    else:
        path.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")
    return None


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "gandyhyland" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(random.Random(f"{workload.name}:{args.seed}"))
    wants = workload.references(inputs)
    WORK.mkdir(exist_ok=True)
    env = {"stats": Counter(), "work": WORK / f"run-{os.getpid()}"}
    env["work"].mkdir(exist_ok=True)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": _setup(workload, inputs, env)}))
            return 0
        (WORK / f"inputs-{workload.name}-seed{args.seed}.json").write_text(
            json.dumps(inputs, indent=1) + "\n", encoding="utf-8"
        )
        first_setup = _setup(workload, inputs, env)
        if args.trace:
            return _traced(args, workload, inputs, wants, env)
        return _untraced(args, workload, inputs, wants, env, first_setup)
    finally:
        shutil.rmtree(env["work"], ignore_errors=True)


def _report(
    lines: list[tuple[str, float, str]],
    attempted: int,
    tally: Tally,
    notes: list[str],
    correct: bool = True,
) -> None:
    """Print the metrics for people, then the result line."""
    for message in tally.messages:
        print(f"FAILED {message}")
    for note in notes:
        print(note)
    for name, value, unit in lines:
        print(f"{name:45s} {value:14.6g} {unit}")
    result = {
        "correct": correct and not tally.failed,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in lines},
    }
    print(json.dumps(result))


def _untraced(args, workload, inputs, wants, env, first_setup: float) -> int:
    tally = Tally()
    attempted, elapsed, rounds = 0, 0.0, 0
    while elapsed < args.seconds:
        ops, seconds = _run_round(workload, inputs, wants, env, tally)
        attempted += ops
        elapsed += seconds
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [first_setup] + [_setup_in_subprocess(args) for _ in range(SETUP_SUBPROCESSES)]
    deciles = statistics.quantiles(tally.latencies, n=10)
    p50, p90 = deciles[4], deciles[8]
    notes = [
        f"workload {workload.name} seed {args.seed}: {rounds} rounds of {attempted // rounds} "
        f"operations, {len(tally.latencies)} latency samples, {elapsed:.2f} s timed",
        f"failed_ratio {tally.failed / attempted:.6g} ({tally.failed} of {attempted})",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    _report(
        [
            ("setup_s", statistics.median(setups), "s"),
            ("ops_per_s", attempted / elapsed, "1/s"),
            ("op_p50_ms", p50 * 1000.0, "ms"),
            ("op_p90_ms", p90 * 1000.0, "ms"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        attempted,
        tally,
        notes,
    )
    return 0


def _traced(args, workload, inputs, wants, env) -> int:
    from tracer import Tracer

    tally = Tally()
    plain_ops, plain_seconds = _run_round(workload, inputs, wants, env, tally)
    env["stats"].clear()
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops, traced_seconds = _run_round(workload, inputs, wants, env, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(env["stats"])
    untraced_rate = plain_ops / plain_seconds
    traced_rate = traced_ops / traced_seconds
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    metrics["trace.spans"] = (tracer.next_id, "count")
    spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    notes = [
        f"workload {workload.name} seed {args.seed}: one untraced and one traced round of "
        f"{traced_ops} operations; {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    ]
    mismatch = _check_counts(metrics, args)
    if mismatch:
        notes.append(mismatch)
    _report(
        [(name, float(value), unit) for name, (value, unit) in metrics.items()],
        plain_ops + traced_ops,
        tally,
        notes,
        correct=mismatch is None,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
