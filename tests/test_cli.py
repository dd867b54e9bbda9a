"""Expression grammar, command dispatch, serialization, exit codes."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gandyhyland import FinSeq, Point
from gandyhyland.errors import ArityError, IoError, ParseError
from gandyhyland.cli.dsl import (
    Add,
    Ifz,
    Least,
    Lit,
    Mul,
    Probe,
    eval_ast,
    functional_from_ast,
    parse_spec,
    render,
)
from gandyhyland.cli.checks import CheckResult
from gandyhyland.cli.fixtures import parse_seq
from gandyhyland.cli.main import (
    RESULTS_SCHEMA,
    ResultRecord,
    RunConfig,
    cli_entry,
    emit_json,
    main,
    read_json,
    run_command,
)
from oracles import FAN_MODULI


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


def _ast():
    return st.recursive(
        st.builds(Lit, st.integers(min_value=0, max_value=9)),
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
    assert eval_ast(parse_spec("2*3+1"), zeros) == 7
    assert eval_ast(parse_spec("ifz(f(0),5,7)"), zeros) == 5
    assert eval_ast(parse_spec("ifz(f(0),5,7)"), ones) == 7
    # least scans shifted views and returns the first shift landing on zero
    tail_zero = Point(lambda n: 1 if n == 0 else 0, name="1,0,0,..")
    assert eval_ast(parse_spec("least(4,f(0))"), tail_zero) == 1
    assert eval_ast(parse_spec("least(4,f(0))"), ones) == 4
    assert eval_ast(parse_spec("least(0,f(0))"), zeros) == 0


def test_expression_modulus_is_one_past_the_deepest_read():
    y = functional_from_ast(parse_spec("f(f(0))"))
    zeros = Point(lambda n: 0, name="zeros")
    spiky = Point(lambda n: 3 if n == 0 else 0, name="3,0,0,..")
    assert y.modulus(zeros) == 1
    assert y.modulus(spiky) == 4
    scan = functional_from_ast(parse_spec("least(3,f(0))"))
    tail_zero = Point(lambda n: 1 if n == 0 else 0, name="1,0,0,..")
    ones = Point(lambda n: 1, name="ones")
    assert scan.modulus(tail_zero) == 2
    assert scan.modulus(ones) == 3
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
        ("special-fan", RunConfig(expr="f(0)+1"), {"functional": "f(0)+1", "fuel": FUEL}),
        ("scf-check", RunConfig(fixture="const2", tree="full-3"),
         {"functional": "const2", "depth": None, "tree": "full-3", "fuel": FUEL}),
        ("pwc", RunConfig(fixture="proj1", hconst=1, seq="1", pad_value=2),
         {"functional": "proj1", "seq": [1], "pad": 2, "hconst": 1, "fuel": FUEL}),
        ("ghs", RunConfig(fixture="flag-gamma", m0=3, pad_value=1),
         {"functional": "flag-gamma", "m0": 3, "seq": [], "pad": 1, "value_cap": 3,
          "tail_cap": 2, "fuel": FUEL}),
        ("trace", RunConfig(fixture="sum01", seq="0,2", trace_path="run.trace"),
         {"functional": "sum01", "seq": [0, 2], "trace": "run.trace", "fuel": FUEL}),
        ("replay", RunConfig(seq="0,2", trace_path="run.trace"),
         {"seq": [0, 2], "trace": "run.trace", "fuel": FUEL}),
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


def test_json_results_round_trip(tmp_path):
    path = str(tmp_path / "out.ndjson")
    records = [
        run_command("eval-gh", RunConfig(fixture="sum01")),
        run_command("mu", RunConfig(seq="1,1,0")),
    ]
    emit_json(records, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert json.loads(lines[0]) == {"schema": RESULTS_SCHEMA, "version": 1}
    assert len(lines) == 3
    back = read_json(path)
    assert [r.as_dict() for r in back] == [r.as_dict() for r in records]


def test_json_results_empty_and_invalid(tmp_path):
    path = str(tmp_path / "empty.ndjson")
    emit_json([], path)
    assert read_json(path) == []
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"schema": "something-else", "version": 1}\n')
    with pytest.raises(IoError):
        read_json(str(bad))
    with pytest.raises(IoError):
        read_json(str(tmp_path / "missing.ndjson"))


def test_json_flag_writes_the_record(tmp_path):
    path = str(tmp_path / "run.ndjson")
    assert main(["eval-gh", "--fixture", "sum01", "--json", path]) == 0
    back = read_json(path)
    assert len(back) == 1
    assert back[0].operation == "eval-gh"
    assert back[0].output == {"value": 1, "depth": 1}


def test_trace_then_replay(tmp_path):
    path = str(tmp_path / "run.trace")
    assert main(["trace", "--fixture", "sum01", "--seq", "0,2", "--trace", path]) == 0
    assert main(["replay", "--seq", "0,2", "--trace", path]) == 0


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
        lambda payload: payload.update(version=2),
    ],
    ids=[
        "no-witness",
        "scalar-prefix",
        "short-trajectory-row",
        "probes-list",
        "one-element-row",
        "version-2",
    ],
)
def test_replay_of_a_malformed_trace_is_an_io_error(tmp_path, capsys, edit):
    path = tmp_path / "run.trace"
    assert main(["trace", "--fixture", "sum01", "--seq", "0,2", "--trace", str(path)]) == 0
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["replay", "--seq", "0,2", "--trace", str(path)]) == 1
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


def test_result_record_from_dict_defaults():
    rec = ResultRecord.from_dict(
        {"operation": "mu", "inputs": {}, "output": 2, "error": None}
    )
    assert rec.probes == {}
    assert rec.wall_ms == 0.0
