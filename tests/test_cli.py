"""Expression grammar, command dispatch, serialization, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gandyhyland import (
    EMPTY,
    FinSeq,
    FuelExhausted,
    Point,
    gamma_eval,
    herbrand_trace,
    make_session,
    replay_check,
    settled,
)
from gandyhyland.errors import ArityError, ParseError
from gandyhyland.cli.dsl import (
    Add,
    Ifz,
    Least,
    Lit,
    Mul,
    Probe,
    functional_from_ast,
    parse_spec,
    render,
)
from gandyhyland.cli.checks import CheckResult
from gandyhyland.cli import main as cli_main
from gandyhyland.cli.fixtures import EXPR_FIXTURES, FLAG_FIXTURES, expr_functional, parse_seq
from gandyhyland.cli.main import (
    RESULTS_SCHEMA,
    RunConfig,
    cli_entry,
    emit_json,
    main,
    read_trace,
    run_command,
)
from oracles import FAN_MODULI, brute_eval_ast


def test_parse_builds_the_expected_trees():
    assert parse_spec("f(0)+f(1)") == Add(Probe(Lit(0)), Probe(Lit(1)))
    assert parse_spec("ifz(f(0),1,2)") == Ifz(Probe(Lit(0)), Lit(1), Lit(2))
    assert parse_spec("least(3,f(f(0)))") == Least(3, Probe(Probe(Lit(0))))
    assert parse_spec(" f( 0 )\t+ 1 ") == Add(Probe(Lit(0)), Lit(1))


def test_parse_precedence_and_grouping():
    assert parse_spec("1+2*3") == Add(Lit(1), Mul(Lit(2), Lit(3)))
    assert parse_spec("(1+2)*3") == Mul(Add(Lit(1), Lit(2)), Lit(3))
    assert render(Mul(Add(Lit(1), Lit(2)), Lit(3))) == "(1+2)*3"
    assert render(Add(Lit(1), Add(Lit(2), Lit(3)))) == "1+(2+3)"
    assert render(Add(Add(Lit(1), Lit(2)), Lit(3))) == "1+2+3"


def test_parse_rejects_trailing_input_with_position():
    with pytest.raises(ParseError) as exc:
        parse_spec("f(0)+")
    assert exc.value.offset == 5
    assert exc.value.line == 1
    assert exc.value.column == 6


def test_parse_rejects_bad_arity():
    with pytest.raises(ArityError):
        parse_spec("f(1,2)")
    with pytest.raises(ArityError) as exc:
        parse_spec("1+ifz(1,2)")
    assert exc.value.offset == 2


def test_parse_rejects_computed_least_bound():
    with pytest.raises(ParseError) as exc:
        parse_spec("least(f(0),1)")
    assert "numeral" in str(exc.value)


def test_parse_rejects_unknown_names_and_characters():
    with pytest.raises(ParseError) as exc:
        parse_spec("g(0)")
    assert "unknown name" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_spec("f(0)$")
    assert exc.value.offset == 4
    # Numerals are ASCII digits only: str.isdigit accepts a superscript
    # two, which int cannot read, and str.isdecimal an Arabic-Indic three,
    # which int reads as 3.
    for text, ch in (("f(²)", "²"), ("f(٣)+1", "٣")):
        with pytest.raises(ParseError) as exc:
            parse_spec(text)
        assert str(exc.value) == f"unexpected character '{ch}' (line 1, column 3)"


def _ast():
    # Probes of a literal are leaves too, so that most trees read the point.
    lit = st.builds(Lit, st.integers(min_value=0, max_value=9))
    return st.recursive(
        lit | st.builds(Probe, lit),
        lambda node: st.one_of(
            st.builds(Probe, node),
            st.builds(Add, node, node),
            st.builds(Mul, node, node),
            st.builds(Ifz, node, node, node),
            st.builds(Least, st.integers(min_value=0, max_value=3), node),
        ),
        max_leaves=12,
    )


@given(_ast())
def test_render_parse_round_trip(tree):
    assert parse_spec(render(tree)) == tree


def test_eval_semantics():
    zeros = Point(lambda n: 0, name="zeros")
    ones = Point(lambda n: 1, name="ones")
    assert functional_from_ast(parse_spec("2*3+1")).apply(zeros) == 7
    assert functional_from_ast(parse_spec("ifz(f(0),5,7)")).apply(zeros) == 5
    assert functional_from_ast(parse_spec("ifz(f(0),5,7)")).apply(ones) == 7
    # least scans shifted views and returns the first shift landing on zero
    tail_zero = Point(lambda n: 1 if n == 0 else 0, name="1,0,0,..")
    assert functional_from_ast(parse_spec("least(4,f(0))")).apply(tail_zero) == 1
    assert functional_from_ast(parse_spec("least(4,f(0))")).apply(ones) == 4
    assert functional_from_ast(parse_spec("least(0,f(0))")).apply(zeros) == 0


@given(
    _ast(),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=6),
)
def test_compiled_expressions_agree_with_the_oracle(tree, entries, k):
    """Value and forced positions in order, against plain recursion over
    the tree on a cyclic point with entries at most 3; and settled on the
    point's first k entries is the value at their zero-padding exactly when
    that evaluation reads nothing past them."""
    reads: list[int] = []
    forced: list[int] = []

    def logged(log: list[int]):
        def read(i: int) -> int:
            log.append(i)
            return entries[i % len(entries)]

        return read

    want = brute_eval_ast(tree, logged(reads))
    y = functional_from_ast(tree)
    assert y.apply(Point(logged(forced))) == want
    assert forced == list(dict.fromkeys(reads))
    prefix = tuple(entries[i % len(entries)] for i in range(k))
    padded_reads: list[int] = []

    def padded(i: int) -> int:
        padded_reads.append(i)
        return prefix[i] if i < k else 0

    padded_value = brute_eval_ast(tree, padded)
    covered = max(padded_reads, default=-1) < k
    assert settled(y, FinSeq(prefix)) == (padded_value if covered else None)


def test_expression_modulus_is_one_past_the_deepest_read():
    # The shortest prefix that settles an expression ends one past the
    # deepest position read at its zero-padding.
    y = functional_from_ast(parse_spec("f(f(0))"))
    assert settled(y, EMPTY) is None
    assert settled(y, FinSeq((0,))) == 0
    assert settled(y, FinSeq((3, 0, 0))) is None
    assert settled(y, FinSeq((3, 0, 0, 0))) == 0
    scan = functional_from_ast(parse_spec("least(3,f(0))"))
    assert settled(scan, FinSeq((1,))) is None
    assert settled(scan, FinSeq((1, 0))) == 1
    assert settled(scan, FinSeq((1, 1))) is None
    assert settled(scan, FinSeq((1, 1, 1))) == 3
    assert y.name == "f(f(0))"


@pytest.mark.parametrize(
    "cmd,cfg,expected",
    [
        ("eval-gh", RunConfig(fixture="sum01"), {"value": 1, "depth": 1}),
        ("h", RunConfig(fixture="sum01", seq="5,7", depth=2), 12),
        ("g", RunConfig(fixture="sum01", seq="5,7", depth=0), 12),
        ("stabilize", RunConfig(fixture="sum01"), {"depth": 1, "value": 1}),
        ("fan", RunConfig(fixture="nest"), FAN_MODULI["nest"]),
        ("full-fan", RunConfig(fixture="proj3", hconst=5), 4),
        (
            "special-fan",
            RunConfig(fixture="const2"),
            {"bound": 2, "points": [[0, 0], [0, 1], [1, 0], [1, 1]]},
        ),
        ("scf-check", RunConfig(fixture="const2", tree="full-3"), True),
        ("pwc", RunConfig(fixture="proj1", hconst=1), 1),
        ("ghs", RunConfig(fixture="flag-gamma", m0=3, pad_value=1), 4),
        ("mu", RunConfig(seq="1,1,0"), 2),
    ],
)
def test_run_command_outputs(cmd, cfg, expected):
    record = run_command(cmd, cfg)
    assert record.error is None
    assert record.output == expected
    assert record.operation == cmd
    assert record.wall_ms >= 0.0
    assert "fuel" in record.inputs


def test_run_command_records_inputs():
    record = run_command("ghs", RunConfig(fixture="flag-gamma", m0=4, pad_value=1))
    assert record.inputs["functional"] == "flag-gamma"
    assert record.inputs["m0"] == 4
    assert record.inputs["seq"] == []
    assert record.inputs["pad"] == 1
    assert record.inputs["value_cap"] == 3
    assert record.inputs["tail_cap"] == 2


FUEL = RunConfig().fuel


@pytest.mark.parametrize(
    "cmd,cfg,expected",
    [
        ("eval-gh", RunConfig(fixture="sum01", seq="0,2"),
         {"functional": "sum01", "seq": [0, 2], "fuel": FUEL}),
        ("h", RunConfig(expr="f(0)+1", depth=2),
         {"functional": "f(0)+1", "seq": [], "depth": 2, "fuel": FUEL}),
        ("g", RunConfig(fixture="flag-epsilon", m0=4, seq="1", depth=3),
         {"functional": "flag-epsilon", "m0": 4, "seq": [1], "depth": 3, "fuel": FUEL}),
        ("stabilize", RunConfig(fixture="nest", fuel=50_000),
         {"functional": "nest", "seq": [], "fuel": 50_000}),
        ("fan", RunConfig(fixture="flag-gamma", m0=3),
         {"functional": "flag-gamma", "m0": 3, "fuel": FUEL}),
        ("full-fan", RunConfig(fixture="proj3", hconst=5),
         {"functional": "proj3", "hconst": 5, "fuel": FUEL}),
        ("special-fan", RunConfig(expr="f(0)+1"),
         {"functional": "f(0)+1", "depth": None, "fuel": FUEL}),
        ("scf-check", RunConfig(fixture="const2", tree="full-3"),
         {"functional": "const2", "depth": None, "tree": "full-3", "fuel": FUEL}),
        ("pwc", RunConfig(fixture="proj1", hconst=1, seq="1", pad_value=2),
         {"functional": "proj1", "seq": [1], "pad": 2, "hconst": 1, "fuel": FUEL}),
        ("ghs", RunConfig(fixture="flag-gamma", m0=3, pad_value=1),
         {"functional": "flag-gamma", "m0": 3, "seq": [], "pad": 1, "value_cap": 3,
          "tail_cap": 2, "fuel": FUEL}),
        ("trace", RunConfig(fixture="sum01", seq="0,2", trace_path="run.trace"),
         {"functional": "sum01", "seq": [0, 2], "trace": "run.trace", "fuel": FUEL}),
        ("replay", RunConfig(seq="0,2", window=5, nmax=6, trace_path="run.trace"),
         {"trace": "run.trace", "fuel": FUEL}),
        ("mu", RunConfig(seq="1,1,0", fuel=500), {"seq": [1, 1, 0], "pad": 0, "fuel": 500}),
    ],
)
def test_run_command_records_exactly_its_inputs(tmp_path, monkeypatch, cmd, cfg, expected):
    monkeypatch.chdir(tmp_path)
    assert run_command(cmd, cfg).inputs == expected


def test_run_command_refuses_an_unknown_command():
    with pytest.raises(ValueError):
        run_command("no-such", RunConfig())


def _readme_cli_examples() -> list[tuple[str, list[str]]]:
    """(command line, expected stdout lines) for each `$ gandyhyland` line
    of the first fenced block under the README's "## CLI" heading."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ gandyhyland "):
            examples.append((line.removeprefix("$ gandyhyland "), []))
        elif line:
            examples[-1][1].append(line)
    return examples


def test_readme_cli_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_examples()
    assert len(examples) == 7
    for command, expected in examples:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


@pytest.mark.parametrize("second_passes,code", [(False, 1), (True, 0)])
def test_check_all_prints_each_check_and_exits_by_the_verdict(
    monkeypatch, capsys, second_passes, code
):
    results = [
        CheckResult(name="alpha", passed=True, detail="fine", seconds=0.0012),
        CheckResult(name="beta", passed=second_passes, detail="broke", seconds=0.5),
    ]
    monkeypatch.setattr(sys.modules[main.__module__], "run_all", lambda: results)
    assert main(["check-all"]) == code
    mark = "PASS" if second_passes else "FAIL"
    assert capsys.readouterr().out.splitlines() == [
        "PASS alpha (0.001s): fine",
        f"{mark} beta (0.500s): broke",
        f"{1 + second_passes}/2 checks passed",
    ]


@pytest.mark.parametrize("module", ["gandyhyland", "gandyhyland.cli.main"])
def test_python_dash_m_runs_without_warnings(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "mu", "--seq", "1,1,0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "mu: 2\n", "")


def test_run_command_embeds_evaluation_errors():
    record = run_command("mu", RunConfig(seq="", pad_value=1, fuel=300))
    assert record.output is None
    assert record.error["type"] == "FuelExhausted"


def test_eval_gh_reaches_a_deep_probe():
    # Evaluation cost follows the nodes forced, so a probe far past the
    # point where sequence codes grow to megabits still certifies.
    record = run_command("eval-gh", RunConfig(expr="f(40)+1", window=42, nmax=200))
    assert record.error is None
    assert record.output == {"value": 41, "depth": 40}


def test_exit_codes():
    assert main(["eval-gh", "--fixture", "sum01"]) == 0
    assert main(["mu", "--seq", "", "--pad", "1", "--fuel", "300"]) == 3
    assert main(["stabilize", "--fixture", "flag-epsilon", "--m0", "3", "--nmax", "1"]) == 3
    assert main(["not-a-command"]) == 2
    assert main(["eval-gh", "--expr", "f(0)+"]) == 2
    assert main(["eval-gh"]) == 2
    assert main(["eval-gh", "--expr", "f(0)", "--fixture", "sum01"]) == 2
    assert main(["eval-gh", "--fixture", "no-such-fixture"]) == 2
    assert main(["scf-check", "--fixture", "const2", "--tree", "no-such-tree"]) == 2
    assert main(["eval-gh", "--fixture", "sum01", "--window", "-1"]) == 2
    assert main(["h", "--fixture", "sum01"]) == 2  # missing --depth


def test_scf_check_refuses_a_bound_past_the_depth_cap_at_once(capsys):
    # special-fan's bound here is 100; scf-check must not list its 2^100 points
    assert main(["scf-check", "--expr", "f(9)+f(0)*99", "--tree", "full-3"]) == 1
    assert capsys.readouterr().out == (
        "scf-check: error[DepthExceeded] theta bound 100 exceeds depth cap 16\n"
    )


def test_special_fan_refuses_a_bound_past_the_depth_cap_before_listing_points(capsys):
    assert main(["special-fan", "--expr", "f(9)+f(0)*99"]) == 1
    assert capsys.readouterr().out == (
        "special-fan: error[DepthExceeded] theta bound 100 exceeds depth cap 16\n"
    )


def test_a_deep_nmax_run_gets_the_stack_it_needs(capsys):
    # f(150) nests about a thousand Python frames, past the default limit,
    # however small --nmax is: the value settles at depth 0.
    limit, threads = sys.getrecursionlimit(), threading.active_count()
    for nmax in ("400", "10"):
        assert main(["eval-gh", "--expr", "f(150)", "--nmax", nmax]) == 0, nmax
        assert capsys.readouterr().out == 'eval-gh: {"value": 0, "depth": 0}\n'
    assert (sys.getrecursionlimit(), threading.active_count()) == (limit, threads)


def test_the_deepest_benchmark_probe_fits_the_default_frame_limit():
    # The benchmark calls run_command under the interpreter's default limit,
    # where a RecursionError is a failed operation.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        record = run_command("eval-gh", RunConfig(expr="f(17)+1", seq="1,0", window=19))
    finally:
        sys.setrecursionlimit(limit)
    assert record.output == {"value": 16, "depth": 17}


def test_recursion_past_the_frame_limit_exits_with_depth_exceeded(monkeypatch, capsys):
    monkeypatch.setattr(cli_main, "_MAX_FRAMES", 600)
    limit = sys.getrecursionlimit()
    assert main(["eval-gh", "--expr", "f(150)", "--nmax", "400"]) == 1
    assert capsys.readouterr().out == (
        "eval-gh: error[DepthExceeded] recursion passed 600 Python frames\n"
    )
    assert sys.getrecursionlimit() == limit


def test_run_command_embeds_a_recursion_error_as_depth_exceeded():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        record = run_command("eval-gh", RunConfig(expr="f(150)", nmax=400))
    finally:
        sys.setrecursionlimit(limit)
    assert record.output is None
    assert record.error == {
        "type": "DepthExceeded",
        "message": "recursion passed 400 Python frames",
    }


_EXPRS = ["f(0)+1", "f(3)*f(1)", "ifz(f(2), 1, f(0))", "least(2, f(1))", "f(f(0))+f(9)",
          "f(0)+", "f(", "g(1)", "least(f(0), 1)", "", "f(²)"]
_FUNCTIONALS = [[], *(["--expr", e] for e in _EXPRS),
                *(["--fixture", name] for name in [*EXPR_FIXTURES, *FLAG_FIXTURES, "no-such"])]
_ARGV_FLAGS = {
    "--seq": st.sampled_from(["", "0", "1,2", "0,2,1", "1,,2", "x"]),
    "--fuel": st.integers(min_value=0, max_value=10_000),
    "--nmax": st.integers(min_value=0, max_value=6),
    **{
        flag: st.integers(min_value=0, max_value=2)
        for flag in ("--window", "--value-cap", "--tail-cap", "--depth", "--pad", "--m0",
                     "--hconst")
    },
    "--tree": st.sampled_from(["full-2", "no-consecutive-ones", "no-such"]),
    "--trace": st.sampled_from(["run.trace", "bad.trace", "missing/run.trace"]),
    "--json": st.sampled_from(["run.ndjson", "missing/run.ndjson"]),
}


_NEEDED = {"h": "--depth", "g": "--depth", "scf-check": "--tree", "trace": "--trace",
           "replay": "--trace"}


@st.composite
def _argvs(draw) -> list[str]:
    """A command but check-all, a functional or none, the flag the command
    needs and a few more, malformed values included."""
    cmd = draw(st.sampled_from([cmd for cmd in cli_main.COMMANDS if cmd != "check-all"]))
    flags = draw(st.lists(st.sampled_from(sorted(_ARGV_FLAGS)), unique=True, max_size=5))
    if cmd in _NEEDED and _NEEDED[cmd] not in flags:
        flags.append(_NEEDED[cmd])
    argv = [cmd, *draw(st.sampled_from(_FUNCTIONALS))]
    for flag in flags:
        argv += [flag, str(draw(_ARGV_FLAGS[flag]))]
    return argv


@settings(deadline=None)
@given(argv=_argvs())
def test_no_argv_ends_in_a_traceback(tmp_path_factory, argv):
    # --trace and --json name files in one directory: a trace run writes
    # run.trace there, which later replays read.
    work = tmp_path_factory.getbasetemp() / "argv"
    work.mkdir(exist_ok=True)
    (work / "bad.trace").write_text('{"schema": "gandyhyland-trace", "version": 2')
    argv = [str(work / value) if flag in ("--trace", "--json") else value
            for flag, value in zip(["", *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, out.getvalue(), err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


def test_usage_errors_go_to_stderr(capsys):
    assert main(["eval-gh", "--expr", "f(0)+"]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert "column 6" in captured.err


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(value_cap=0).validate()
    with pytest.raises(ValueError):
        RunConfig(depth=-1).validate()
    with pytest.raises(ValueError):
        RunConfig(pad_value=-1).validate()
    RunConfig().validate()


def test_sequence_literals():
    assert parse_seq("1,0,2") == FinSeq((1, 0, 2))
    assert parse_seq("  ") == FinSeq(())
    assert parse_seq(" 4 , 5 ") == FinSeq((4, 5))
    with pytest.raises(ParseError):
        parse_seq("1,,2")
    with pytest.raises(ParseError):
        parse_seq("1,-2")
    # Entries are the grammar's naturals, not int's literals, and a bad
    # one is named at its own column.
    for text, entry, column in (
        ("1_0", "1_0", 1), ("+3", "+3", 1), ("٣", "٣", 1), ("1,2_0", "2_0", 3), ("0, ²", "²", 4)
    ):
        with pytest.raises(ParseError) as exc:
            parse_seq(text)
        assert str(exc.value) == (
            f"bad sequence literal: entry '{entry}' is not a natural (line 1, column {column})"
        )


def test_json_results_round_trip(tmp_path):
    path = str(tmp_path / "out.ndjson")
    records = [
        run_command("eval-gh", RunConfig(fixture="sum01")),
        run_command("mu", RunConfig(seq="1,1,0")),
    ]
    emit_json(records, path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert json.loads(lines[0]) == {"schema": RESULTS_SCHEMA, "version": 1}
    assert [json.loads(line) for line in lines[1:]] == [r.as_dict() for r in records]


def test_json_results_empty_and_invalid(tmp_path):
    path = tmp_path / "empty.ndjson"
    emit_json([], str(path))
    assert path.read_text(encoding="utf-8").splitlines() == [
        json.dumps({"schema": RESULTS_SCHEMA, "version": 1})
    ]


def test_json_flag_writes_the_record(tmp_path):
    path = str(tmp_path / "run.ndjson")
    assert main(["eval-gh", "--fixture", "sum01", "--json", path]) == 0
    with open(path, encoding="utf-8") as handle:
        header, line = handle.read().splitlines()
    assert json.loads(header) == {"schema": RESULTS_SCHEMA, "version": 1}
    record = json.loads(line)
    assert record["operation"] == "eval-gh"
    assert record["output"] == {"value": 1, "depth": 1}


def test_trace_then_replay(tmp_path):
    path = str(tmp_path / "run.trace")
    assert main(["trace", "--fixture", "sum01", "--seq", "0,2", "--trace", path]) == 0
    assert main(["replay", "--trace", path]) == 0


def test_deep_trace_replays_at_the_cost_of_eval_gh(tmp_path, capsys):
    # The probe at position 12 skips positions 1..11; a trace that forced
    # them cost exponential work and ran out of fuel here.
    path = str(tmp_path / "deep.trace")
    assert main(["trace", "--expr", "f(12)+1", "--window", "14", "--trace", path]) == 0
    capsys.readouterr()
    assert main(["replay", "--trace", path]) == 0
    assert capsys.readouterr().out == "replay: true\n"

    # Each of evaluating, tracing and replaying spends exactly 115 steps.
    y = expr_functional("f(12)+1")
    witness = herbrand_trace(y, EMPTY, make_session(115, window=14))
    assert gamma_eval(y, EMPTY, make_session(115, window=14)) == 13
    assert replay_check(witness, 115)
    for run in (
        lambda: gamma_eval(y, EMPTY, make_session(114, window=14)),
        lambda: herbrand_trace(y, EMPTY, make_session(114, window=14)),
        lambda: replay_check(witness, 114),
    ):
        with pytest.raises(FuelExhausted):
            run()


def test_trace_refuses_a_window_past_its_fuel_before_writing(tmp_path, capsys):
    # Ten million trajectory rows are memo hits, which spend no fuel; read,
    # they would fill memory. They are refused before any is read.
    path = tmp_path / "wide.trace"
    argv = ["trace", "--expr", "f(3)+1", "--window", "10000000", "--trace", str(path)]
    assert main(argv) == 3
    assert capsys.readouterr().out == (
        "trace: error[FuelExhausted] herbrand_trace(f(3)+1): the trajectory holds "
        "10000004 rows, more than the fuel budget of 1000000 steps\n"
    )
    assert not path.exists()


def test_replay_takes_its_run_from_the_file(tmp_path, capsys):
    path = tmp_path / "deep.trace"
    assert main(["trace", "--expr", "f(12)+1", "--window", "14", "--trace", str(path)]) == 0
    assert json.loads(path.read_text())["run"] == {"seq": [], "window": 14, "nmax": 64}
    # The same answers replay false under other knobs; replay never reads
    # the flags, so every one of these replays the recorded run.
    witness = read_trace(str(path))
    assert not replay_check(replace(witness, nmax=5))
    # ifz(f(3),3,0) at [2] is 3 at every window, but its plateau starts at
    # depth 3 at window 4 and at depth 0 at window 1.
    run = herbrand_trace(expr_functional("ifz(f(3),3,0)"), FinSeq((2,)), make_session(window=4))
    assert (run.result, run.depth) == (3, 3)
    assert replay_check(run)
    assert not replay_check(replace(run, window=1))
    for flags in ([], ["--window", "4"], ["--window", "14", "--seq", "1"], ["--nmax", "5"]):
        capsys.readouterr()
        assert main(["replay", "--trace", str(path), *flags]) == 0, flags
        assert capsys.readouterr().out == "replay: true\n"
    record = run_command("replay", RunConfig(window=4, seq="1", trace_path=str(path)))
    assert (record.output, record.inputs) == (True, {"trace": str(path), "fuel": FUEL})


@pytest.mark.parametrize(
    "run",
    [
        [[], 4, 64],
        {"seq": [0, 2], "window": 4},
        {"seq": [0, 2], "window": 4, "nmax": 64, "fuel": 5},
        {"seq": "0,2", "window": 4, "nmax": 64},
        {"seq": [0, -2], "window": 4, "nmax": 64},
        {"seq": [0, 2], "window": 0, "nmax": 64},
        {"seq": [0, 2], "window": 4, "nmax": True},
    ],
    ids=["list", "no-nmax", "extra-key", "text-seq", "negative-entry", "zero-window", "bool-nmax"],
)
def test_replay_of_a_malformed_run_is_an_io_error(tmp_path, capsys, run):
    path = tmp_path / "run.trace"
    assert main(["trace", "--fixture", "sum01", "--seq", "0,2", "--trace", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["run"] = run
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["replay", "--trace", str(path)]) == 1
    assert "error[IoError]" in capsys.readouterr().out


def test_replay_rejects_a_tampered_trace_file(tmp_path):
    path = tmp_path / "run.trace"
    assert main(["trace", "--fixture", "nest", "--trace", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["witness"]["result"] += 1
    path.write_text(json.dumps(payload))
    assert main(["replay", "--trace", str(path)]) == 1


def test_replay_missing_file_is_an_io_error(tmp_path, capsys):
    assert main(["replay", "--trace", str(tmp_path / "nope.trace")]) == 1
    assert "error[IoError]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: payload.pop("witness"),
        lambda payload: payload["witness"]["probes"].update(apply=[[5, 1]]),
        lambda payload: payload["witness"].update(trajectory=[[0]]),
        lambda payload: payload["witness"].update(probes=[]),
        lambda payload: payload["witness"]["probes"].update(apply=[[0]]),
        lambda payload: payload.update(version=3),
        lambda payload: payload.update(version=1),
        lambda payload: payload.pop("run"),
    ],
    ids=[
        "no-witness",
        "scalar-prefix",
        "short-trajectory-row",
        "probes-list",
        "one-element-row",
        "version-3",
        "version-1",
        "no-run",
    ],
)
def test_replay_of_a_malformed_trace_is_an_io_error(tmp_path, capsys, edit):
    path = tmp_path / "run.trace"
    assert main(["trace", "--fixture", "sum01", "--seq", "0,2", "--trace", str(path)]) == 0
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["replay", "--trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert "error[IoError]" in captured.out
    assert "Traceback" not in captured.err


def test_cheap_checks_are_deterministic():
    from gandyhyland.cli.checks import (
        check_gh_fixed_point,
        check_golden_values,
        check_herbrand_replay,
        check_mu_round_trips,
    )

    for fn in (check_golden_values, check_gh_fixed_point, check_mu_round_trips,
               check_herbrand_replay):
        first = fn()
        second = fn()
        assert first.passed and second.passed, first.detail
        assert (first.name, first.detail) == (second.name, second.detail)


def test_cli_entry_exits_with_the_main_code(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gandyhyland", "eval-gh", "--fixture", "const2"])
    with pytest.raises(SystemExit) as exc:
        cli_entry()
    assert exc.value.code == 0
