"""The benchmark's four workloads. BENCHMARK.json lists three of them;
grid-certify is run by hand (see README.md).

Each workload makes its inputs from a seed (inputs), computes the
reference value of every operation without the package (references), and
builds one round of operations against the package (build_round). A round
builds every fixture and session afresh, so rounds repeat the same work
and a run is a whole number of identical rounds.

build_round yields the operations one by one, so that a session is
garbage once its operations are done, as in the package's own checks;
otherwise every finished session would stay live, and the collector's
pauses would grow with the round.

Runs on different seeds must measure the same work, or their spread
would be the inputs' and not the program's. So what decides the work is
fixed: probe depths, starts (a start entry decides code sizes and how
deep the approximations go before they settle), points, tamper rows, and
the order of operations (an operation's latency depends on the one
before it, for instance on whether that one freed megabytes of large
integers). The seed picks additive constants, tamper amounts and the
order of modulus-routes' sessions.

Every round but grid-certify's holds a number of operations that is 5
modulo 10. With R copies of each operation in a run, the median and the
90th percentile of the latencies then fall on the middle copies of one
operation, whatever R is, instead of between two operations of different
cost. grid-certify's 3069 operations are so many, and so close in cost,
that no two neighbours in latency order differ much.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Iterator

import reference as ref


@dataclass
class Op:
    """One operation of the closed loop.

    run is timed; prepare (the benchmark's own file work) and
    check(output, reference) are not. Set-up runs the warm operations.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object, object], bool]
    warm: bool = False
    prepare: Callable[[], None] | None = None


def _seq_text(items) -> str:
    return ",".join(str(x) for x in items)


# deep-probe: cold eval-gh calls that probe deep into the tree.

STARTS = {0: (), 1: (1,), 2: (1, 0)}

# Copies of each probe position in a round, and the template of its
# operations. Cost grows about twofold per position, so the operations
# sort into blocks by position. The median (the 23rd of 45) lies inside
# the block at 12 and the 90th percentile (the 41st) inside the block at
# 14, away from the steps between blocks.
PROBES = [(10, 8, "shift"), (11, 8, "shift"), (12, 13, "shift"), (13, 5, "shift"),
          (14, 8, "shift"), (15, 1, "probe"), (16, 1, "sum"), (17, 1, "shift")]


def deep_probe_inputs(rng: random.Random) -> list[dict]:
    """Probe positions 10..17, with longer starts for deeper probes, so
    that a round of 45 operations takes a few seconds at the seed
    commit."""
    ops = []
    for k, copies, template in PROBES:
        start_len = 0 if k <= 12 else 1 if k <= 15 else 2
        for _ in range(copies):
            tree = _probe_template(template, k, rng)
            ops.append({"expr": ref.render(tree), "tree": tree, "seq": STARTS[start_len], "k": k})
    return ops


def _probe_template(template: str, k: int, rng: random.Random) -> ref.Expr:
    """f(k), f(k)+c or f(0)+f(k)*2. The seed picks c, which changes values
    but not which positions are read. The factor is fixed: from the start
    (1, 0), f(0)+f(16)*3 ran about 30% longer than f(0)+f(16)*2."""
    if template == "probe":
        return ref.probe(k)
    if template == "shift":
        return ref.add(ref.probe(k), ref.lit(rng.randint(1, 3)))
    return ref.add(ref.probe(0), ref.mul(ref.probe(k), ref.lit(2)))


def deep_probe_references(inputs: list[dict]) -> list[int]:
    return [ref.gamma(op["tree"], op["seq"], {}) for op in inputs]


def deep_probe_round(inputs: list[dict], env: dict) -> Iterator[Op]:
    from gandyhyland.cli.main import RunConfig, run_command

    for op in inputs:
        # The default window of 4 is too short for these probes: the
        # equation check fails. A window of k+2 settles them.
        cfg = RunConfig(expr=op["expr"], seq=_seq_text(op["seq"]), window=op["k"] + 2)
        yield Op(
            f"eval-gh {op['expr']} @[{cfg.seq}]",
            lambda cfg=cfg: run_command("eval-gh", cfg),
            lambda rec, want: rec.error is None and rec.output["value"] == want,
            warm=op["k"] == 10,
        )


# grid-certify: stabilize, gamma_eval and gh_check over a grid of starts.

GRID_CATALOG = ["const2", "proj0", "proj2", "sum01", "nest", "flag-gamma"]
GRID_STARTS = [()] + [
    items for length in range(1, 5) for items in product(range(4), repeat=length)
]


def grid_certify_inputs(rng: random.Random) -> dict:
    """The six catalog functionals and three shallow expressions, which
    read at most position 3 and so settle within the default window of 4.
    The seed picks their constants, which never decide a branch."""
    shallow = [
        ref.add(ref.probe(1), ref.mul(ref.probe(3), ref.lit(rng.randint(1, 3)))),
        ref.ifz(ref.probe(0), ref.probe(2), ref.lit(rng.randint(0, 2))),
        ref.add(ref.mul(ref.probe(0), ref.probe(2)), ref.lit(rng.randint(0, 2))),
    ]
    functionals = [{"fixture": name} for name in GRID_CATALOG]
    functionals += [{"expr": ref.render(tree), "tree": tree} for tree in shallow]
    return {"functionals": functionals, "starts": GRID_STARTS}


def _catalog_tree(name: str) -> ref.Expr:
    # The flag-gamma fixture has threshold 3 by default.
    return ref.flag(1, 3) if name == "flag-gamma" else ref.CATALOG[name]


def grid_certify_references(inputs: dict) -> list[tuple]:
    out = []
    for spec in inputs["functionals"]:
        tree = spec["tree"] if "tree" in spec else _catalog_tree(spec["fixture"])
        memo: dict = {}
        out.extend((ref.gamma(tree, s, memo),) * 2 + (True,) for s in inputs["starts"])
    return out


def grid_certify_round(inputs: dict, env: dict) -> Iterator[Op]:
    from gandyhyland import FinSeq, gamma_eval, gh_check, make_session, stabilize
    from gandyhyland.cli.fixtures import expr_functional, functional_fixture

    for spec in inputs["functionals"]:
        y = functional_fixture(spec["fixture"]) if "fixture" in spec else expr_functional(spec["expr"])
        session = make_session()

        def certify(s, y=y, session=session):
            _, value = stabilize(y, s, session)
            final = gamma_eval(y, s, session)
            return value, final, gh_check(lambda t: gamma_eval(y, t, session), y, s)

        for items in inputs["starts"]:
            yield Op(
                f"certify {y.name} @{list(items)}",
                lambda s=FinSeq(items), certify=certify: certify(s),
                lambda out, want: out == want,
                warm=not items,
            )


# modulus-routes: three modulus constructions, fan bounds, certified depths.

# The catalog's ten sample points, as prefix and period. Their entries
# decide how much every route works, so they are fixed.
SAMPLE_POINTS = [
    ([], [0]),
    ([], [1]),
    ([], [2]),
    ([], [0, 1]),
    ([], [1, 0]),
    ([], [0, 1, 2]),
    ([0, 1], [2]),
    ([1, 0, 2], [0]),
    ([2, 2, 2, 2], [0]),
    ([0, 1, 2, 1], [1]),
]
# The catalog functionals but the constant one, whose fan and certified
# depths are trivial: 110 route operations and 5 of these make 115.
FAN_CATALOG = GRID_CATALOG[1:]
CERT_STARTS = [()] + [items for length in (1, 2) for items in product(range(3), repeat=length)]


def modulus_routes_inputs(rng: random.Random) -> dict:
    """The seed orders the associates, each of which has its own session."""
    order = list(range(11))
    rng.shuffle(order)
    return {
        "associates": order,
        "points": [{"prefix": prefix, "period": period} for prefix, period in SAMPLE_POINTS],
    }


def _associate_trees() -> list[ref.Expr]:
    """References for catalog_associates(), in its order."""
    out = []
    for m0 in (3, 4, 5):
        out.append(ref.flag(1, m0))
        out.append(ref.flag(2, m0))
    out.extend(ref.CATALOG[name] for name in ("const2", "proj0", "proj2", "sum01", "nest"))
    return out


def modulus_routes_references(inputs: dict) -> list:
    points = [ref.point_from_spec(p) for p in inputs["points"]]
    trees = _associate_trees()
    out: list = [
        (ref.associate_modulus(trees[i], f),) * 3 for i in inputs["associates"] for f in points
    ]
    for name in FAN_CATALOG:
        tree = _catalog_tree(name)
        memo: dict = {}
        out.append(
            (
                [ref.fan_bound(tree, 2), ref.fan_bound(tree, 3)],
                [ref.gamma(tree, s, memo) for s in CERT_STARTS],
            )
        )
    return out


def _fan_ok(out, want) -> bool:
    (fans, certs), (fan_wants, gamma_wants) = out, want
    return fans == fan_wants and all(
        value == gamma and n_cert >= n0 for (n0, value, n_cert), gamma in zip(certs, gamma_wants)
    )


def modulus_routes_round(inputs: dict, env: dict) -> Iterator[Op]:
    from gandyhyland import (
        FinSeq,
        Fuel,
        Point,
        certified_depth_bounded,
        constant_point,
        full_fan_modulus,
        functional_from_associate,
        make_session,
        modulus_from_associate,
        modulus_from_ghs,
        modulus_from_mu,
        mu,
        stabilize,
    )
    from gandyhyland.cli.fixtures import catalog_associates, functional_fixture

    associates = catalog_associates()
    for assoc in (associates[i] for i in inputs["associates"]):
        y = functional_from_associate(assoc, 100_000)
        # Window 6, as the cross-coherence check uses: at short starts a
        # flag functional holds a padded value for m0+1 depths.
        session = make_session(fuel_steps=2_000_000, window=6)
        for index, spec in enumerate(inputs["points"]):
            f = Point(ref.point_from_spec(spec), name=f"p{index}")

            def routes(assoc=assoc, y=y, session=session, f=f):
                return (
                    modulus_from_ghs(y, f, session),
                    modulus_from_associate(assoc, f, Fuel(200_000)),
                    modulus_from_mu(mu, assoc, f, Fuel(200_000)),
                )

            yield Op(
                f"routes {assoc.name} @p{index}",
                routes,
                lambda out, want: out == want,
                warm=assoc.name == "assoc(2)" and index == 0,
            )
    h2 = constant_point(2, name="h2")
    for name in FAN_CATALOG:
        y = functional_fixture(name)

        def fan_and_certify(y=y):
            fans = [
                full_fan_modulus(y, constant_point(c, name=f"h{c}"), Fuel(1_000_000))
                for c in (2, 3)
            ]
            session = make_session(fuel_steps=2_000_000)
            certs = []
            for items in CERT_STARTS:
                s = FinSeq(items)
                n0, value = stabilize(y, s, session)
                certs.append((n0, value, certified_depth_bounded(y, s, h2, session)))
            return fans, certs

        yield Op(f"fan+certify {name}", fan_and_certify, _fan_ok, warm=name == "proj0")


# trace-replay: the trace and replay commands, plus tampered replays.

TAMPER_FRACTIONS = (1 / 6, 1 / 2, 5 / 6)


def trace_replay_inputs(rng: random.Random) -> list[dict]:
    """One trace per probe position 2..5 and start length 0..2, and a
    second at (4, 1), so that 13 traces of 5 operations make 65; the
    template rotates with k and the length. Tampers hit fixed fractions
    of the table, since where a corruption sits decides how long its
    replay runs; the seed picks by how much."""
    traces = []
    shapes = [(k, start_len) for k in range(2, 6) for start_len in range(3)] + [(4, 1)]
    for index, (k, start_len) in enumerate(shapes):
        tree = _probe_template(("probe", "shift", "sum")[(index + k) % 3], k, rng)
        traces.append(
            {
                "expr": ref.render(tree),
                "tree": tree,
                "seq": STARTS[start_len],
                "k": k,
                "tampers": [(f, rng.randint(1, 3)) for f in TAMPER_FRACTIONS],
            }
        )
    return traces


def trace_replay_references(inputs: list[dict]) -> list:
    out: list = []
    for t in inputs:
        out.append(ref.gamma(t["tree"], t["seq"], {}))
        out.append(True)
        out.extend([None] * len(TAMPER_FRACTIONS))
    return out


def _tamper(trace_file: Path, out_file: Path, fraction: float, delta: int) -> None:
    """Copy a trace with one recorded answer raised by delta."""
    payload = json.loads(trace_file.read_text(encoding="utf-8"))
    probes = payload["witness"]["probes"]
    rows = [row for group in ("apply", "modulus", "theta") for row in probes.get(group, [])]
    rows[int(fraction * len(rows))][1] += delta
    out_file.write_text(json.dumps(payload), encoding="utf-8")


def trace_replay_round(inputs: list[dict], env: dict) -> Iterator[Op]:
    from gandyhyland.cli.main import RunConfig, run_command

    stats = env["stats"]

    def count_detection(rec, want) -> bool:
        # A missed corruption is counted, not failed: replay cannot see an
        # answer that only shifts a child's unsettled low depths.
        stats["tamper_attempted"] += 1
        stats["tamper_detected"] += rec.error is not None or rec.output is False
        return True

    for index, t in enumerate(inputs):
        trace_file = env["work"] / f"trace-{index}.json"
        tampered = env["work"] / f"tampered-{index}.json"
        seq, window, warm = _seq_text(t["seq"]), t["k"] + 2, t["k"] == 2
        trace_cfg = RunConfig(expr=t["expr"], seq=seq, window=window, trace_path=str(trace_file))
        replay_cfg = RunConfig(seq=seq, window=window, trace_path=str(trace_file))
        tamper_cfg = RunConfig(seq=seq, window=window, trace_path=str(tampered))
        label = f"{t['expr']} @[{seq}]"
        yield Op(
            f"trace {label}",
            lambda cfg=trace_cfg: run_command("trace", cfg),
            lambda rec, want: rec.error is None and rec.output["result"] == want,
            warm=warm,
        )
        yield Op(
            f"replay {label}",
            lambda cfg=replay_cfg: run_command("replay", cfg),
            lambda rec, want: rec.error is None and rec.output is want,
            warm=warm,
        )
        for fraction, delta in t["tampers"]:
            yield Op(
                f"tamper-replay {label}",
                lambda cfg=tamper_cfg: run_command("replay", cfg),
                count_detection,
                prepare=lambda f=fraction, d=delta, src=trace_file, dst=tampered: _tamper(src, dst, f, d),
            )


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], object]
    references: Callable[[object], list]
    build_round: Callable[[object, dict], Iterator[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep-probe", deep_probe_inputs, deep_probe_references, deep_probe_round),
        Workload("grid-certify", grid_certify_inputs, grid_certify_references, grid_certify_round),
        Workload("modulus-routes", modulus_routes_inputs, modulus_routes_references, modulus_routes_round),
        Workload("trace-replay", trace_replay_inputs, trace_replay_references, trace_replay_round),
    )
}
