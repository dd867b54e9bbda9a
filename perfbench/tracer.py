"""Spans and counters around the package's layer boundaries.

Tracing is installed from outside: the tracer replaces the public
functions and methods of each layer with wrappers, in every gandyhyland
module that binds them, and puts the originals back on uninstall. No file
of the package is edited.

A span records (id, parent id, operation id, name, start ns, end ns).
Self time is a span's duration minus the durations of its child spans;
it is accumulated while the spans close, and the first MAX_SPANS spans
are also kept to be written out at the end. The hottest calls (point
reads, fuel steps, memo reads and writes, associate queries) are only
counted, so their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

MAX_SPANS = 200_000

# Fuel contexts of the evaluator's nodes and of the fan's bar search.
NODE_CONTEXTS = ("h_eval(", "hhat_eval(", "g_eval(")
BAR_CONTEXT = "bar search("

# Spanned entry points, by module and function name; the span is named
# after the layer. _depth_eval stands for h_eval and h_hat_eval, because
# the truncating approximation recurses through it.
SPANNED = {
    "gandyhyland.sequences": ("code", "decode"),
    "gandyhyland.functionals": ("associate_apply", "modulus_from_associate", "mu"),
    "gandyhyland.fan": ("full_fan_modulus", "fan_modulus", "special_fan", "scf_check", "pwc_bound"),
    "gandyhyland.evaluator": (
        "g_eval",
        "_depth_eval",
        "stabilize",
        "gh_check",
        "gamma_eval",
        "ghs_witness",
        "modulus_from_ghs",
        "herbrand_trace",
        "replay_check",
        "mu_from_modulus",
        "modulus_from_mu",
        "ext_witness",
        "mu_from_gh_ext",
        "certified_depth_bounded",
    ),
    "gandyhyland.cli.main": ("run_command", "write_trace"),
}

# A functional's apply or modulus is named after the code that implements
# it; any other is an associate's, in functionals.
FIELD_SPANS = (
    ("functional_from_ast.", "cli.dsl.{field}"),
    ("_stub_operation.", "evaluator.replay_lookup"),
    ("_Recorder.wrap.", "evaluator.recorder"),
)

# Per-layer metrics that count work; they must repeat exactly on a seed.
DETERMINISTIC = (
    "sequences.code.calls",
    "sequences.code.max_bits",
    "sequences.decode.calls",
    "sequences.point_reads",
    "functionals.associate_queries",
    "functionals.fuel_spends",
    "fan.bar_nodes",
    "evaluator.nodes_forced",
    "evaluator.memo_entries",
    "evaluator.trace_rows",
    "evaluator.tamper_detected",
    "cli.dsl.oracle_calls",
    "cli.main.trace_bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # Wrappers.

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, tracer.op_id, name, start, end))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(result, args)
            return result

        traced.perfbench_wrapped = True
        return traced

    def _count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.perfbench_wrapped = True
        return counted

    def _field(self, fn: Callable | None, field: str) -> Callable | None:
        if fn is None or getattr(fn, "perfbench_wrapped", False):
            return fn
        qualname = getattr(fn, "__qualname__", "")
        name = next(
            (name for prefix, name in FIELD_SPANS if qualname.startswith(prefix)),
            "functionals.{field}",
        )
        return self.span(name.format(field=field), fn)

    # Install and uninstall.

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if name == "gandyhyland" or name.startswith("gandyhyland."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def install(self) -> None:
        from gandyhyland import evaluator, functionals, sequences

        afters = {
            "code": self._after_code,
            "herbrand_trace": self._after_trace,
            "replay_check": self._after_replay,
            "write_trace": self._after_write_trace,
        }
        for module_name, names in SPANNED.items():
            module = sys.modules[module_name]
            # A function a later version removes reports nothing.
            for name in (n for n in names if hasattr(module, n)):
                original = getattr(module, name)
                label = f"{module_name.removeprefix('gandyhyland.')}.{name.lstrip('_')}"
                self._replace_everywhere(original, self.span(label, original, afters.get(name)))

        reads = self._count("sequences.point_reads", sequences.Point.value_at)
        self._set(sequences.Point, "value_at", reads)
        self._set(sequences.Point, "__getitem__", reads)

        counts = self.counts
        spend, try_spend = functionals.Fuel.spend, functionals.Fuel.try_spend

        def counted_spend(fuel, context="search"):
            spend(fuel, context)
            counts["functionals.fuel_spends"] += 1
            if context.startswith(NODE_CONTEXTS):
                counts["evaluator.nodes_forced"] += 1
            elif context.startswith(BAR_CONTEXT):
                counts["fan.bar_nodes"] += 1

        def counted_try_spend(fuel):
            ok = try_spend(fuel)
            counts["functionals.fuel_spends"] += ok
            return ok

        self._set(functionals.Fuel, "spend", counted_spend)
        self._set(functionals.Fuel, "try_spend", counted_try_spend)

        memo_get, memo_put = evaluator.EvalSession.memo_get, evaluator.EvalSession.memo_put

        def counted_memo_get(session, key):
            value = memo_get(session, key)
            counts["memo_hits" if value is not None else "memo_misses"] += 1
            return value

        def counted_memo_put(session, key, value):
            memo_put(session, key, value)
            size = len(getattr(session, "_values", ()))
            if size > counts["evaluator.memo_entries"]:
                counts["evaluator.memo_entries"] = size

        self._set(evaluator.EvalSession, "memo_get", counted_memo_get)
        self._set(evaluator.EvalSession, "memo_put", counted_memo_put)

        tracer = self
        functional_init = functionals.Functional.__init__
        associate_init = functionals.Associate.__init__

        def functional(self, apply, modulus=None, name="functional"):
            functional_init(
                self, tracer._field(apply, "apply"), tracer._field(modulus, "modulus"), name
            )

        def associate(self, query, name="associate"):
            if not getattr(query, "perfbench_wrapped", False):
                query = tracer._count("functionals.associate_queries", query)
            associate_init(self, query, name)

        self._set(functionals.Functional, "__init__", functional)
        self._set(functionals.Associate, "__init__", associate)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # Post-call hooks.

    def _after_code(self, result: int, args) -> None:
        bits = result.bit_length()
        if bits > self.counts["sequences.code.max_bits"]:
            self.counts["sequences.code.max_bits"] = bits

    def _after_trace(self, witness, args) -> None:
        self.counts["evaluator.trace_rows"] += sum(len(rows) for rows in witness.probes.values())

    def _after_replay(self, result, args) -> None:
        self.counts["replay_rows"] += sum(len(rows) for rows in args[0].probes.values())

    def _after_write_trace(self, result, args) -> None:
        self.counts["cli.main.trace_bytes"] += os.path.getsize(args[1])

    # Results.

    def metrics(self, stats: Counter) -> dict[str, tuple[float, str]]:
        ms = lambda name: self.self_ns[name] / 1e6
        per_row = lambda name, rows: self.total_ns[name] / 1e6 / rows if rows else 0.0
        c = self.counts
        scans = self.calls["functionals.associate_apply"] + self.calls["functionals.modulus_from_associate"]
        memo_reads = c["memo_hits"] + c["memo_misses"]
        return {
            "sequences.code.calls": (self.calls["sequences.code"], "count"),
            "sequences.code.self_ms": (ms("sequences.code"), "ms"),
            "sequences.code.max_bits": (c["sequences.code.max_bits"], "bits"),
            "sequences.decode.calls": (self.calls["sequences.decode"], "count"),
            "sequences.decode.self_ms": (ms("sequences.decode"), "ms"),
            "sequences.point_reads": (c["sequences.point_reads"], "count"),
            "functionals.associate_queries": (c["functionals.associate_queries"], "count"),
            "functionals.queries_per_apply": (
                c["functionals.associate_queries"] / scans if scans else 0.0,
                "ratio",
            ),
            "functionals.associate_apply.self_ms": (ms("functionals.associate_apply"), "ms"),
            "functionals.fuel_spends": (c["functionals.fuel_spends"], "count"),
            "fan.full_fan_modulus.self_ms": (ms("fan.full_fan_modulus"), "ms"),
            "fan.pwc_bound.self_ms": (ms("fan.pwc_bound"), "ms"),
            "fan.bar_nodes": (c["fan.bar_nodes"], "count"),
            "evaluator.nodes_forced": (c["evaluator.nodes_forced"], "count"),
            "evaluator.memo_hit_ratio": (c["memo_hits"] / memo_reads if memo_reads else 0.0, "ratio"),
            "evaluator.memo_entries": (c["evaluator.memo_entries"], "count"),
            "evaluator.nodes.self_ms": (ms("evaluator.g_eval") + ms("evaluator.depth_eval"), "ms"),
            "evaluator.stabilize.self_ms": (ms("evaluator.stabilize"), "ms"),
            "evaluator.gamma_eval.self_ms": (ms("evaluator.gamma_eval"), "ms"),
            "evaluator.gh_check.self_ms": (ms("evaluator.gh_check"), "ms"),
            "evaluator.ghs_witness.self_ms": (ms("evaluator.ghs_witness"), "ms"),
            "evaluator.certified_depth_bounded.self_ms": (ms("evaluator.certified_depth_bounded"), "ms"),
            "evaluator.replay_lookup.self_ms": (ms("evaluator.replay_lookup"), "ms"),
            "evaluator.herbrand_trace.ms_per_row": (
                per_row("evaluator.herbrand_trace", c["evaluator.trace_rows"]),
                "ms/row",
            ),
            "evaluator.replay_check.ms_per_row": (
                per_row("evaluator.replay_check", c["replay_rows"]),
                "ms/row",
            ),
            "evaluator.trace_rows": (c["evaluator.trace_rows"], "count"),
            "evaluator.tamper_detected": (
                stats["tamper_detected"] / stats["tamper_attempted"] if stats["tamper_attempted"] else 0.0,
                "ratio",
            ),
            "cli.dsl.oracle_calls": (self.calls["cli.dsl.apply"] + self.calls["cli.dsl.modulus"], "count"),
            "cli.dsl.eval_self_ms": (ms("cli.dsl.apply") + ms("cli.dsl.modulus"), "ms"),
            "cli.main.run_command.self_ms": (ms("cli.main.run_command"), "ms"),
            "cli.main.trace_bytes": (c["cli.main.trace_bytes"], "bytes"),
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op_id, name, start, end in self.spans:
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "op": op_id, "name": name, "start_ns": start, "end_ns": end})
                    + "\n"
                )
            handle.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
