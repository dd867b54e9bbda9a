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
from ..sequences import FinSeq, constant_point, pad
from .checks import run_all
from .fixtures import expr_functional, functional_fixture, parse_seq, tree_fixture

COMMANDS = (
    "eval-gh",
    "h",
    "g",
    "stabilize",
    "fan",
    "full-fan",
    "special-fan",
    "scf-check",
    "pwc",
    "ghs",
    "trace",
    "replay",
    "mu",
    "check-all",
)

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


def _describe_inputs(cmd: str, cfg: RunConfig) -> dict:
    inputs: dict = {}
    if cmd in ("eval-gh", "h", "g", "stabilize", "fan", "full-fan", "special-fan",
               "scf-check", "pwc", "ghs", "trace"):
        inputs["functional"] = cfg.expr if cfg.expr is not None else cfg.fixture
        if cfg.fixture in ("flag-gamma", "flag-epsilon"):
            inputs["m0"] = cfg.m0
    if cmd in ("eval-gh", "h", "g", "stabilize", "pwc", "ghs", "trace", "replay", "mu"):
        inputs["seq"] = list(_seq(cfg))
    if cmd in ("pwc", "ghs", "mu"):
        inputs["pad"] = cfg.pad_value
    if cmd in ("h", "g", "scf-check"):
        inputs["depth"] = cfg.depth
    if cmd in ("full-fan", "pwc"):
        inputs["hconst"] = cfg.hconst
    if cmd == "scf-check":
        inputs["tree"] = cfg.tree
    if cmd in ("trace", "replay"):
        inputs["trace"] = cfg.trace_path
    if cmd == "ghs":
        inputs["value_cap"] = cfg.value_cap
        inputs["tail_cap"] = cfg.tail_cap
    inputs["fuel"] = cfg.fuel
    return inputs


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"this command needs {flag}")
    return value


def _dispatch(cmd: str, cfg: RunConfig):
    """Returns (output, probes)."""
    if cmd == "eval-gh":
        y = _functional(cfg)
        s = _seq(cfg)
        session = _session(cfg)
        value = gamma_eval(y, s, session)
        return {"value": value, "depth": session.gamma_depth(s)}, {}
    if cmd == "h":
        y = _functional(cfg)
        return h_eval(y, _seq(cfg), _require(cfg.depth, "--depth"), _session(cfg)), {}
    if cmd == "g":
        y = _functional(cfg)
        return g_eval(y, _seq(cfg), _require(cfg.depth, "--depth"), _session(cfg)), {}
    if cmd == "stabilize":
        n0, value = stabilize(_functional(cfg), _seq(cfg), _session(cfg))
        return {"depth": n0, "value": value}, {}
    if cmd == "fan":
        return fan_modulus(_functional(cfg), Fuel(cfg.fuel)), {}
    if cmd == "full-fan":
        bound = full_fan_modulus(
            _functional(cfg), constant_point(cfg.hconst, name=f"h{cfg.hconst}"), Fuel(cfg.fuel)
        )
        return bound, {}
    if cmd == "special-fan":
        theta = special_fan(lambda fn: fan_modulus(fn, Fuel(cfg.fuel)), _functional(cfg))
        points = [[p.value_at(i) for i in range(theta.bound)] for p in theta.points]
        return {"bound": theta.bound, "points": points}, {}
    if cmd == "scf-check":
        y = _functional(cfg)
        tree = tree_fixture(_require(cfg.tree, "--tree"))
        theta = special_fan(lambda fn: fan_modulus(fn, Fuel(cfg.fuel)), y)
        depth = cfg.depth if cfg.depth is not None else 16
        return scf_check(theta, y, tree, depth=depth), {}
    if cmd == "pwc":
        y = _functional(cfg)
        f = pad(_seq(cfg), cfg.pad_value)
        h = constant_point(cfg.hconst, name=f"h{cfg.hconst}")
        return pwc_bound(y, f, h, Fuel(cfg.fuel)), {}
    if cmd == "ghs":
        y = _functional(cfg)
        alpha = pad(_seq(cfg), cfg.pad_value)
        bound = modulus_from_ghs(
            y, alpha, _session(cfg), value_cap=cfg.value_cap, tail_cap=cfg.tail_cap
        )
        return bound, {}
    if cmd == "trace":
        y = _functional(cfg)
        s = _seq(cfg)
        witness = herbrand_trace(y, s, _session(cfg))
        write_trace(witness, _require(cfg.trace_path, "--trace"))
        counts = {group: len(entries) for group, entries in witness.probes.items()}
        return {"depth": witness.depth, "result": witness.result}, counts
    if cmd == "replay":
        witness = read_trace(_require(cfg.trace_path, "--trace"))
        return replay_check(witness, _seq(cfg), _session(cfg)), {
            group: len(entries) for group, entries in witness.probes.items()
        }
    if cmd == "mu":
        point = pad(_seq(cfg), cfg.pad_value)
        return mu(point, Fuel(cfg.fuel)), {}
    if cmd == "check-all":
        results = run_all()
        output = {
            "passed": all(r.passed for r in results),
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                    "seconds": round(r.seconds, 3),
                }
                for r in results
            ],
        }
        return output, {}
    raise ValueError(f"unknown command {cmd!r}")


def run_command(cmd: str, cfg: RunConfig) -> ResultRecord:
    cfg.validate()
    inputs = _describe_inputs(cmd, cfg)
    started = time.perf_counter()
    output = None
    error = None
    probes: dict = {}
    try:
        output, probes = _dispatch(cmd, cfg)
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
    if record.output is False:
        return 1
    if record.operation == "check-all" and not record.output["passed"]:
        return 1
    return 0


def _print_record(record: ResultRecord) -> None:
    if record.error is not None:
        print(f"{record.operation}: error[{record.error['type']}] {record.error['message']}")
        return
    if record.operation == "check-all":
        for entry in record.output["checks"]:
            mark = "PASS" if entry["passed"] else "FAIL"
            print(f"{mark} {entry['name']} ({entry['seconds']:.3f}s): {entry['detail']}")
        total = len(record.output["checks"])
        good = sum(1 for entry in record.output["checks"] if entry["passed"])
        print(f"{good}/{total} checks passed")
        return
    print(f"{record.operation}: {json.dumps(record.output)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gandyhyland",
        description="Depth-limited evaluation of bar-recursive functionals, "
        "with fan bounds, trace replay, and built-in checks.",
    )
    parser.add_argument("cmd", choices=COMMANDS)
    parser.add_argument("--fuel", type=int, default=1_000_000, help="evaluation step budget")
    parser.add_argument("--nmax", type=int, default=64, help="largest depth tried when settling")
    parser.add_argument("--window", type=int, default=4, help="agreement window width")
    parser.add_argument("--value-cap", type=int, default=3, help="entry cap for witness tails")
    parser.add_argument("--tail-cap", type=int, default=2, help="length cap for witness tails")
    parser.add_argument("--depth", type=int, default=None, help="explicit depth for h/g, cap for scf-check")
    parser.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                        help="also write the result record as NDJSON")
    parser.add_argument("--fixture", default=None, help="named functional fixture")
    parser.add_argument("--expr", default=None, help="functional given as an expression")
    parser.add_argument("--seq", default="", help='finite sequence, e.g. "1,0,2"')
    parser.add_argument("--pad", dest="pad_value", type=int, default=0,
                        help="padding value when a sequence is read as a point")
    parser.add_argument("--m0", type=int, default=3, help="threshold for the flag fixtures")
    parser.add_argument("--tree", default=None, help="named tree fixture for scf-check")
    parser.add_argument("--hconst", type=int, default=1, help="constant height for full-fan and pwc")
    parser.add_argument("--trace", dest="trace_path", default=None, metavar="PATH",
                        help="trace file to write (trace) or read (replay)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        fuel=args.fuel,
        nmax=args.nmax,
        window=args.window,
        value_cap=args.value_cap,
        tail_cap=args.tail_cap,
        depth=args.depth,
        json_path=args.json_path,
        fixture=args.fixture,
        expr=args.expr,
        seq=args.seq,
        pad_value=args.pad_value,
        m0=args.m0,
        tree=args.tree,
        hconst=args.hconst,
        trace_path=args.trace_path,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    cfg = _config_from_args(args)
    try:
        record = run_command(args.cmd, cfg)
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
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
