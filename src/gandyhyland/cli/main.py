"""Command line driver.

Every run produces one ResultRecord. Evaluation failures are embedded in
the record and drive the exit code; bad usage (unknown names, malformed
expressions, missing flags) is reported on stderr with exit code 2.

Exit codes: 0 success, 1 a property failed or an evaluation error other
than resource exhaustion, 2 usage, 3 fuel or stabilization exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from ..errors import (
    DepthExceeded,
    GandyHylandError,
    IoError,
    ParseError,
)
from ..evaluator import (
    EvalSession,
    HerbrandWitness,
    g_eval,
    gamma_eval,
    ghs_witness,
    h_eval,
    herbrand_trace,
    make_session,
    replay_check,
    stabilize,
)
from ..fan import fan_modulus, full_fan_modulus, pwc_bound, scf_check, special_fan
from ..functionals import Fuel, Functional, mu
from ..sequences import FinSeq, Point, constant_point, pad
from .checks import run_all
from .fixtures import FLAG_FIXTURES, expr_functional, functional_fixture, parse_seq, tree_fixture

RESULTS_SCHEMA = "gandyhyland-results"
TRACE_SCHEMA = "gandyhyland-trace"


@dataclass
class RunConfig:
    """Caps and selectors for one command invocation. Caps are strictly positive."""

    fuel: int = 1_000_000
    nmax: int = 64
    window: int = 4
    value_cap: int = 3
    tail_cap: int = 2
    depth: int | None = None
    json_path: str | None = None
    fixture: str | None = None
    expr: str | None = None
    seq: str = ""
    pad_value: int = 0
    m0: int = 3
    tree: str | None = None
    hconst: int = 1
    trace_path: str | None = None

    def validate(self) -> None:
        for label, value in (
            ("--fuel", self.fuel),
            ("--nmax", self.nmax),
            ("--window", self.window),
            ("--value-cap", self.value_cap),
            ("--tail-cap", self.tail_cap),
            ("--m0", self.m0),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be strictly positive, got {value}")
        if self.depth is not None and self.depth < 0:
            raise ValueError(f"--depth must not be negative, got {self.depth}")
        if self.pad_value < 0 or self.hconst < 0:
            raise ValueError("--pad and --hconst must be naturals")


@dataclass
class ResultRecord:
    """Outcome of one command: inputs as given, output or embedded error."""

    operation: str
    inputs: dict
    output: object | None
    error: dict | None
    probes: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def emit_json(records: list[ResultRecord], path: str) -> None:
    """Write newline-delimited JSON: a schema header line, then one record per line."""
    lines = [json.dumps({"schema": RESULTS_SCHEMA, "version": 1})]
    lines.extend(json.dumps(rec.as_dict(), sort_keys=True) for rec in records)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from None


def write_trace(witness: HerbrandWitness, path: str) -> None:
    """Write the witness and the run it records (start seq, window, nmax).
    JSON writes the witness's tuples as lists, which read_trace turns back."""
    payload = {
        "schema": TRACE_SCHEMA,
        "version": 2,
        "run": {"seq": list(witness.seq), "window": witness.window, "nmax": witness.nmax},
        "witness": {
            "probes": {"apply": witness.probes["apply"]},
            "depth": witness.depth,
            "result": witness.result,
            "trajectory": witness.trajectory,
        },
    }
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from None


def _is_natural(x: object) -> bool:
    return type(x) is int and x >= 0


def _is_naturals(x: object, length: int) -> bool:
    return isinstance(x, list) and len(x) == length and all(map(_is_natural, x))


def read_trace(path: str) -> HerbrandWitness:
    """The witness a write_trace file holds, under the run it records.

    IoError if the file does not have write_trace's shape, version 2 with
    its run included. Groups under probes other than apply are ignored.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise IoError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise IoError(f"{path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != TRACE_SCHEMA:
        raise IoError(f"{path}: not a trace file")
    if payload.get("version") != 2:
        raise IoError(f"{path}: unsupported trace version {payload.get('version')!r}")
    run = payload.get("run")
    if not (
        isinstance(run, dict)
        and set(run) == {"seq", "window", "nmax"}
        and isinstance(run["seq"], list)
        and all(map(_is_natural, run["seq"]))
        and all(_is_natural(run[knob]) and run[knob] > 0 for knob in ("window", "nmax"))
    ):
        raise IoError(f"{path}: malformed run: expected seq naturals, window and nmax positive")
    raw = payload.get("witness")
    if not isinstance(raw, dict) or not isinstance(raw.get("probes"), dict):
        raise IoError(
            f"{path}: malformed witness: expected an object whose probes map groups to rows"
        )
    entries = raw["probes"].get("apply")
    if not isinstance(entries, list) or not all(
        isinstance(row, list)
        and len(row) == 2
        and isinstance(row[0], list)
        and all(_is_naturals(read, 2) for read in row[0])
        and _is_natural(row[1])
        for row in entries
    ):
        raise IoError(
            f"{path}: malformed witness: probes.apply rows must be "
            "[list of [position, value] pairs, natural]"
        )
    for name in ("depth", "result"):
        if not _is_natural(raw.get(name)):
            raise IoError(f"{path}: malformed witness: {name} must be a natural")
    trajectory = raw.get("trajectory")
    if not isinstance(trajectory, list) or not all(_is_naturals(t, 3) for t in trajectory):
        raise IoError(f"{path}: malformed witness: trajectory rows must be three naturals")
    return HerbrandWitness(
        probes={"apply": [(tuple(map(tuple, reads)), answer) for reads, answer in entries]},
        depth=raw["depth"],
        result=raw["result"],
        trajectory=[tuple(step) for step in trajectory],
        seq=FinSeq(run["seq"]),
        window=run["window"],
        nmax=run["nmax"],
    )


def _functional(cfg: RunConfig) -> Functional:
    if cfg.expr is not None and cfg.fixture is not None:
        raise ValueError("give either --expr or --fixture, not both")
    if cfg.expr is not None:
        return expr_functional(cfg.expr)
    if cfg.fixture is not None:
        return functional_fixture(cfg.fixture, m0=cfg.m0, fuel_budget=cfg.fuel)
    raise ValueError("this command needs --expr or --fixture")


def _session(cfg: RunConfig) -> EvalSession:
    return make_session(fuel_steps=cfg.fuel, window=cfg.window, nmax=cfg.nmax)


def _seq(cfg: RunConfig) -> FinSeq:
    return parse_seq(cfg.seq)


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"this command needs {flag}")
    return value


def _point(cfg: RunConfig) -> Point:
    return pad(_seq(cfg), cfg.pad_value)


def _height(cfg: RunConfig) -> Point:
    return constant_point(cfg.hconst, name=f"h{cfg.hconst}")


def _print_output(record: ResultRecord) -> None:
    print(f"{record.operation}: {json.dumps(record.output)}")


@dataclass(frozen=True)
class Command:
    """One CLI command: everything run_command and main know about it.

    run(cfg) returns (output, probes). inputs names the record keys the
    command lists, each read from the RunConfig field of that name ("pad"
    from pad_value, "trace" from trace_path); "functional" also lists m0
    for a flag fixture, and "fuel" is always listed, last. show prints a
    successful record, and passed(output) is false when the run should
    exit with 1.
    """

    run: Callable[[RunConfig], tuple[object, dict]]
    inputs: tuple[str, ...] = ()
    show: Callable[[ResultRecord], None] = _print_output
    passed: Callable[[object], bool] = lambda output: output is not False


_FIELDS = {"pad": "pad_value", "trace": "trace_path"}


def _describe_inputs(command: Command, cfg: RunConfig) -> dict:
    inputs: dict = {}
    for key in command.inputs:
        if key == "functional":
            inputs[key] = cfg.expr if cfg.expr is not None else cfg.fixture
            if cfg.fixture in FLAG_FIXTURES:
                inputs["m0"] = cfg.m0
        elif key == "seq":
            inputs[key] = list(_seq(cfg))
        else:
            inputs[key] = getattr(cfg, _FIELDS.get(key, key))
    inputs["fuel"] = cfg.fuel
    return inputs


# Command bodies name their callees inside a function body instead of
# binding them at import, so that a callee replaced on this module at run
# time (by perfbench's tracer or a test's monkeypatch) is the one that runs.

def _eval_gh(cfg: RunConfig):
    y, s, session = _functional(cfg), _seq(cfg), _session(cfg)
    value = gamma_eval(y, s, session)
    return {"value": value, "depth": session.gamma_depth(s)}, {}


def _depth_args(cfg: RunConfig):
    return _functional(cfg), _seq(cfg), _require(cfg.depth, "--depth"), _session(cfg)


def _stabilize(cfg: RunConfig):
    n0, value = stabilize(_functional(cfg), _seq(cfg), _session(cfg))
    return {"depth": n0, "value": value}, {}


def _depth_cap(cfg: RunConfig) -> int:
    return cfg.depth if cfg.depth is not None else 16


def _special_fan(cfg: RunConfig):
    theta = special_fan(lambda fn: fan_modulus(fn, Fuel(cfg.fuel)), _functional(cfg))
    theta = theta.within(_depth_cap(cfg))
    points = [[p.value_at(i) for i in range(theta.bound)] for p in theta.points]
    return {"bound": theta.bound, "points": points}, {}


def _scf_check(cfg: RunConfig):
    y = _functional(cfg)
    tree = tree_fixture(_require(cfg.tree, "--tree"))
    theta = special_fan(lambda fn: fan_modulus(fn, Fuel(cfg.fuel)), y)
    return scf_check(theta, y, tree, depth=_depth_cap(cfg)), {}


def _ghs(cfg: RunConfig):
    y, alpha, session = _functional(cfg), _point(cfg), _session(cfg)
    return ghs_witness(y, alpha, session, value_cap=cfg.value_cap, tail_cap=cfg.tail_cap), {}


def _probe_counts(witness: HerbrandWitness) -> dict:
    return {group: len(entries) for group, entries in witness.probes.items()}


def _trace(cfg: RunConfig):
    witness = herbrand_trace(_functional(cfg), _seq(cfg), _session(cfg))
    write_trace(witness, _require(cfg.trace_path, "--trace"))
    return {"depth": witness.depth, "result": witness.result}, _probe_counts(witness)


def _replay(cfg: RunConfig):
    witness = read_trace(_require(cfg.trace_path, "--trace"))
    return replay_check(witness, cfg.fuel), _probe_counts(witness)


def _check_all(cfg: RunConfig):
    results = run_all()
    checks = [
        {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
        for r in results
    ]
    return {"passed": all(r.passed for r in results), "checks": checks}, {}


def _print_checks(record: ResultRecord) -> None:
    checks = record.output["checks"]
    for entry in checks:
        mark = "PASS" if entry["passed"] else "FAIL"
        print(f"{mark} {entry['name']} ({entry['seconds']:.3f}s): {entry['detail']}")
    good = sum(1 for entry in checks if entry["passed"])
    print(f"{good}/{len(checks)} checks passed")


COMMANDS: dict[str, Command] = {
    "eval-gh": Command(_eval_gh, ("functional", "seq")),
    "h": Command(lambda cfg: (h_eval(*_depth_args(cfg)), {}), ("functional", "seq", "depth")),
    "g": Command(lambda cfg: (g_eval(*_depth_args(cfg)), {}), ("functional", "seq", "depth")),
    "stabilize": Command(_stabilize, ("functional", "seq")),
    "fan": Command(
        lambda cfg: (fan_modulus(_functional(cfg), Fuel(cfg.fuel)), {}), ("functional",)
    ),
    "full-fan": Command(
        lambda cfg: (full_fan_modulus(_functional(cfg), _height(cfg), Fuel(cfg.fuel)), {}),
        ("functional", "hconst"),
    ),
    "special-fan": Command(_special_fan, ("functional", "depth")),
    "scf-check": Command(_scf_check, ("functional", "depth", "tree")),
    "pwc": Command(
        lambda cfg: (pwc_bound(_functional(cfg), _point(cfg), _height(cfg), Fuel(cfg.fuel)), {}),
        ("functional", "seq", "pad", "hconst"),
    ),
    "ghs": Command(_ghs, ("functional", "seq", "pad", "value_cap", "tail_cap")),
    "trace": Command(_trace, ("functional", "seq", "trace")),
    "replay": Command(_replay, ("trace",)),
    "mu": Command(lambda cfg: (mu(_point(cfg), Fuel(cfg.fuel)), {}), ("seq", "pad")),
    "check-all": Command(_check_all, show=_print_checks, passed=lambda output: output["passed"]),
}


def run_command(cmd: str, cfg: RunConfig) -> ResultRecord:
    cfg.validate()
    command = COMMANDS.get(cmd)
    if command is None:
        raise ValueError(f"unknown command {cmd!r}")
    return _record(cmd, command, cfg)


# Kept apart from run_command for speed: CPython 3.11 maps and unmaps a 16 KiB
# frame-stack chunk each time recursion crosses a chunk edge, and with one frame
# fewer below the evaluator perfbench's deep-probe crossed edges far more often
# (7.5k page faults a round, not 2.7k; p90 latency up by a third).

def _record(cmd: str, command: Command, cfg: RunConfig) -> ResultRecord:
    """Run one command under a timer; embed its evaluation error, if any,
    and a RecursionError as DepthExceeded naming the frame limit."""
    inputs = _describe_inputs(command, cfg)
    started = time.perf_counter()
    output = None
    error = None
    probes: dict = {}
    try:
        output, probes = command.run(cfg)
    except ParseError:
        raise
    except GandyHylandError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    except RecursionError:
        message = f"recursion passed {sys.getrecursionlimit()} Python frames"
        error = {"type": DepthExceeded.__name__, "message": message}
    wall_ms = (time.perf_counter() - started) * 1000.0
    return ResultRecord(
        operation=cmd, inputs=inputs, output=output, error=error, probes=probes, wall_ms=wall_ms
    )


# A depth level of an approximation nests a few Python frames per read
# (about 7 for f(k), more for nested expressions), so deep --nmax runs pass
# the default limit of 1000 frames, and so can a shallow value that reads
# far along its point. main runs each command on one thread whose stack
# holds _STACK_BYTES, with a recursion limit of _MAX_FRAMES: a frame that
# recurses through builtins takes under 1 KiB of C stack on CPython 3.11,
# so the limit leaves the stack more than a twofold margin.
_STACK_BYTES = 512 << 20
_MAX_FRAMES = 200_000


def _run_on_large_stack(cmd: str, cfg: RunConfig) -> ResultRecord:
    """run_command on one thread with a large stack; whatever it raises is
    raised again here, once the old limits are back."""
    outcome: list = []

    def body() -> None:
        try:
            outcome.append(run_command(cmd, cfg))
        except BaseException as exc:
            outcome.append(exc)

    old_limit = sys.getrecursionlimit()
    old_stack = threading.stack_size(_STACK_BYTES)
    sys.setrecursionlimit(_MAX_FRAMES)
    try:
        worker = threading.Thread(target=body, name=f"gandyhyland {cmd}", daemon=True)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    result = outcome.pop()
    if isinstance(result, BaseException):
        raise result
    return result


def _exit_code(record: ResultRecord) -> int:
    if record.error is not None:
        if record.error["type"] in ("FuelExhausted", "StabilizationFailed"):
            return 3
        return 1
    return 0 if COMMANDS[record.operation].passed(record.output) else 1


def _print_record(record: ResultRecord) -> None:
    if record.error is not None:
        print(f"{record.operation}: error[{record.error['type']}] {record.error['message']}")
        return
    COMMANDS[record.operation].show(record)


def _build_parser() -> argparse.ArgumentParser:
    # Every flag left out stays out of the namespace, so RunConfig alone
    # holds the defaults.
    parser = argparse.ArgumentParser(
        prog="gandyhyland",
        description="Depth-limited evaluation of bar-recursive functionals, "
        "with fan bounds, trace replay, and built-in checks.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("cmd", choices=COMMANDS)
    parser.add_argument("--fuel", type=int, help="evaluation step budget")
    parser.add_argument("--nmax", type=int, help="largest depth tried when settling")
    parser.add_argument("--window", type=int, help="agreement window width")
    parser.add_argument("--value-cap", type=int, help="entry cap for witness tails")
    parser.add_argument("--tail-cap", type=int, help="length cap for witness tails")
    parser.add_argument("--depth", type=int, help="explicit depth for h/g; bound cap for "
                        "special-fan and scf-check (default 16)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="also write the result record as NDJSON")
    parser.add_argument("--fixture", help="named functional fixture")
    parser.add_argument("--expr", help="functional given as an expression")
    parser.add_argument("--seq", help='finite sequence, e.g. "1,0,2"')
    parser.add_argument("--pad", dest="pad_value", type=int,
                        help="padding value when a sequence is read as a point")
    parser.add_argument("--m0", type=int, help="threshold for the flag fixtures")
    parser.add_argument("--tree", help="named tree fixture for scf-check")
    parser.add_argument("--hconst", type=int, help="constant height for full-fan and pwc")
    parser.add_argument("--trace", dest="trace_path", metavar="PATH",
                        help="trace file to write (trace) or read (replay)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    fields = vars(args)
    cmd = fields.pop("cmd")
    cfg = RunConfig(**fields)
    try:
        record = _run_on_large_stack(cmd, cfg)
    except (ParseError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _print_record(record)
    if cfg.json_path:
        try:
            emit_json([record], cfg.json_path)
        except IoError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 1
    return _exit_code(record)


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
