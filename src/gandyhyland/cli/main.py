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
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from ..errors import (
    GandyHylandError,
    IoError,
    ParseError,
)
from ..evaluator import (
    EvalSession,
    HerbrandWitness,
    g_eval,
    gamma_eval,
    h_eval,
    herbrand_trace,
    make_session,
    modulus_from_ghs,
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

    @classmethod
    def from_dict(cls, data: dict) -> "ResultRecord":
        return cls(
            operation=data["operation"],
            inputs=data["inputs"],
            output=data["output"],
            error=data["error"],
            probes=data.get("probes", {}),
            wall_ms=data.get("wall_ms", 0.0),
        )


def emit_json(records: list[ResultRecord], path: str) -> None:
    """Write newline-delimited JSON: a schema header line, then one record per line."""
    lines = [json.dumps({"schema": RESULTS_SCHEMA, "version": 1})]
    lines.extend(json.dumps(rec.as_dict(), sort_keys=True) for rec in records)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from None


def read_json(path: str) -> list[ResultRecord]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as exc:
        raise IoError(str(exc)) from None
    if not lines:
        raise IoError(f"{path}: missing schema header")
    try:
        header = json.loads(lines[0])
        body = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as exc:
        raise IoError(f"{path}: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != RESULTS_SCHEMA:
        raise IoError(f"{path}: not a results file")
    if header.get("version") != 1:
        raise IoError(f"{path}: unsupported results version {header.get('version')!r}")
    return [ResultRecord.from_dict(entry) for entry in body]


def write_trace(witness: HerbrandWitness, path: str) -> None:
    payload = {"schema": TRACE_SCHEMA, "version": 1, "witness": witness.as_dict()}
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from None


def read_trace(path: str) -> HerbrandWitness:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise IoError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise IoError(f"{path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != TRACE_SCHEMA:
        raise IoError(f"{path}: not a trace file")
    if payload.get("version") != 1:
        raise IoError(f"{path}: unsupported trace version {payload.get('version')!r}")
    try:
        return HerbrandWitness.from_dict(payload.get("witness"))
    except IoError as exc:
        raise IoError(f"{path}: {exc}") from None


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


def _special_fan(cfg: RunConfig):
    theta = special_fan(lambda fn: fan_modulus(fn, Fuel(cfg.fuel)), _functional(cfg))
    points = [[p.value_at(i) for i in range(theta.bound)] for p in theta.points]
    return {"bound": theta.bound, "points": points}, {}


def _scf_check(cfg: RunConfig):
    y = _functional(cfg)
    tree = tree_fixture(_require(cfg.tree, "--tree"))
    theta = special_fan(lambda fn: fan_modulus(fn, Fuel(cfg.fuel)), y)
    depth = cfg.depth if cfg.depth is not None else 16
    return scf_check(theta, y, tree, depth=depth), {}


def _ghs(cfg: RunConfig):
    y, alpha, session = _functional(cfg), _point(cfg), _session(cfg)
    return modulus_from_ghs(y, alpha, session, value_cap=cfg.value_cap, tail_cap=cfg.tail_cap), {}


def _probe_counts(witness: HerbrandWitness) -> dict:
    return {group: len(entries) for group, entries in witness.probes.items()}


def _trace(cfg: RunConfig):
    witness = herbrand_trace(_functional(cfg), _seq(cfg), _session(cfg))
    write_trace(witness, _require(cfg.trace_path, "--trace"))
    return {"depth": witness.depth, "result": witness.result}, _probe_counts(witness)


def _replay(cfg: RunConfig):
    witness = read_trace(_require(cfg.trace_path, "--trace"))
    return replay_check(witness, _seq(cfg), _session(cfg)), _probe_counts(witness)


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
    "special-fan": Command(_special_fan, ("functional",)),
    "scf-check": Command(_scf_check, ("functional", "depth", "tree")),
    "pwc": Command(
        lambda cfg: (pwc_bound(_functional(cfg), _point(cfg), _height(cfg), Fuel(cfg.fuel)), {}),
        ("functional", "seq", "pad", "hconst"),
    ),
    "ghs": Command(_ghs, ("functional", "seq", "pad", "value_cap", "tail_cap")),
    "trace": Command(_trace, ("functional", "seq", "trace")),
    "replay": Command(_replay, ("seq", "trace")),
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
    """Run one command under a timer; embed its evaluation error, if any."""
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
    wall_ms = (time.perf_counter() - started) * 1000.0
    return ResultRecord(
        operation=cmd, inputs=inputs, output=output, error=error, probes=probes, wall_ms=wall_ms
    )


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
    parser.add_argument("--depth", type=int, help="explicit depth for h/g, cap for scf-check")
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
        record = run_command(cmd, cfg)
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
