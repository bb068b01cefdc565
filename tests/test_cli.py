import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from dendrite import checks, cli, network

BASE = [sys.executable, "-m", "dendrite.cli"]
# a child process imports the dendrite package that this process imported
CHILD_PATH = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")])
)


def run_cli(*args, env=None):
    full_env = dict(os.environ, PYTHONPATH=CHILD_PATH)
    if env:
        full_env.update(env)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=full_env
    )


def test_resistance_unit_value():
    out = run_cli("resistance", "--from=-:2", "--to=-:1", "--level", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "1/1"


def test_resistance_q0_to_q2():
    out = run_cli("resistance", "--from=2:1", "--to=-:2", "--level", "3")
    assert out.stdout.strip() == "1/2"


def test_usage_error_exit_code():
    out = run_cli("resistance", "--from=-:2")
    assert out.returncode == 2


def test_validation_error_exit_code():
    out = run_cli("resistance", "--from=zz:9", "--to=-:1")
    assert out.returncode == 3


def test_empty_range_is_a_validation_error():
    for command in ("doubling", "exit-ratio"):
        out = run_cli(command, "--n", "3..2")
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr.splitlines() == ["error: range '3..2' is empty"]


def test_capacity_error_exit_code():
    out = run_cli("exit-ratio", "--n", "4..5", env={"DENDRITE_MAX_LEVEL": "6"})
    assert out.returncode == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--level", "7"],
        ["resistance", "--from=-:2", "--to=-:1", "--level", "7"],
        ["ball", "--n", "1", "--level", "7"],
        ["exit-ratio", "--n", "1..5", "--level-offset", "3"],
        ["ehi", "--n", "2..3"],
        ["weh", "--n", "2..3"],
        ["doubling", "--n", "20"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_level_is_checked_before_any_work(argv):
    out = run_cli(*argv, env={"DENDRITE_MAX_LEVEL": "6"})
    assert out.returncode == 4
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("capacity error: ")


def test_max_level_variable_that_is_no_integer_names_itself():
    out = run_cli("measure", "--cell", "0", env={"DENDRITE_MAX_LEVEL": "2.5"})
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.splitlines() == ["error: DENDRITE_MAX_LEVEL must be an integer, got '2.5'"]


def test_max_level_zero_is_a_validation_error():
    out = run_cli("--max-level", "0", "measure", "--cell", "2")
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["error: max_level must be at least 1"]


@pytest.mark.parametrize("command", ["ehi", "weh"])
def test_single_ball_runs(command):
    out = run_cli(command, "--n", "2..2")
    assert out.returncode == 0
    assert out.stdout.splitlines()[2].startswith("2,")


def _main_counting_builds(monkeypatch, argv):
    """Run the CLI in this process; return its exit code and the graphs it built."""
    built = []
    build = network.build_cells_graph

    def counting(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(network, "build_cells_graph", counting)
    return cli.main(argv), len(built)


def test_build_counter_sees_ball_builds(monkeypatch):
    code, builds = _main_counting_builds(
        monkeypatch, ["exit-ratio", "--n", "1..2", "--level-offset", "2", "--summary", os.devnull]
    )
    assert code == 0 and builds > 0


@pytest.mark.parametrize("command", ["exit-ratio", "ehi", "weh"])
def test_ball_commands_refuse_s0_other_than_half(monkeypatch, capsys, command):
    code, builds = _main_counting_builds(
        monkeypatch, ["--s0", "1/3", command, "--n", "2..3", "--level-offset", "3"]
    )
    assert (code, builds) == (3, 0)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: ball subgraphs assume s0 = 1/2 (dyadic radii)"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exit-ratio", "--n", "4,0", "--level-offset", "6"], "ball index n must be >= 1"),
        (["ehi", "--n", "3,0"], "ball index n must be >= 1"),
        (["weh", "--n", "2,0"], "ball index n must be >= 1"),
        (["weh", "--rho", "1,0", "--n", "2..3"], "rho must be positive"),
        (["ball", "--n", "-1", "--level", "5"], "ball index n must be >= 1"),
        (["--s0", "1/3", "ball", "--n", "2", "--level", "5"],
         "ball subgraphs assume s0 = 1/2 (dyadic radii)"),
        (["doubling", "--n", "-1"], "doubling index n must be >= 0"),
        (["doubling", "--n", "2,-1"], "doubling index n must be >= 0"),
        (["ehi", "--n", "2..3", "--k", "-1"], "piece indices m and k must be >= 0"),
    ],
    ids=["exit-ratio-n", "ehi-n", "weh-n", "weh-rho", "ball-n", "ball-s0", "doubling-n",
         "doubling-list", "ehi-k"],
)
def test_ball_commands_validate_before_building(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(cli, "doubling_ratio", None)  # doubling work would crash
    code, builds = _main_counting_builds(monkeypatch, argv)
    assert (code, builds) == (3, 0)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


# arguments that every command must refuse before any work: argparse usage
# errors exit 2, validation errors 3 and capacity errors 4
BAD_ARGUMENTS = [
    [],
    ["nope"],
    ["resistance", "--from=-:2"],
    ["graph", "--level", "x"],
    ["ehi", "--n", "2", "--k", "x"],
    ["doubling", "--n", "2", "--radius", "-1/2"],
    ["measure", "--integrate", "udown", "--depth", "x"],
    ["resistance", "--from=zz:9", "--to=-:1"],
    ["harmonics", "--at", "04:1"],
    ["harmonics", "--at", "02:5"],
    ["harmonics", "--at", "nonsense"],
    ["harmonics", "--kind", "uminus"],
    ["harmonics", "--coeffs", "xmk", "--n", "0"],
    ["harmonics", "--coeffs", "yk", "--k0", "0"],
    ["measure", "--cell", "4"],
    ["measure"],
    ["doubling", "--n", "2", "--x", "04:1"],
    ["exit-ratio", "--n", "3..2"],
    ["doubling", "--n", "5..1"],
    ["ehi", "--n", ""],
    ["weh", "--n", "2,"],
    ["exit-ratio", "--n", "a..b"],
    ["exit-ratio", "--n", "2", "--level-offset", "0"],
    ["ehi", "--n", "2", "--level-offset", "0"],
    ["weh", "--n", "2", "--level-offset", "0"],
    ["doubling", "--n", "2", "--radius", "0"],
    ["doubling", "--n", "2", "--radius", "x"],
    ["--s0", "x", "measure", "--cell", "2"],
    ["--s0", "1", "measure", "--cell", "2"],
    ["--s0", "1/0", "measure", "--cell", "2"],
    ["--weights", "1/0,1", "measure", "--cell", "2"],
    ["ehi", "--n", "2", "--epsilon", "1/0"],
    ["weh", "--n", "2", "--rho", "1/0"],
    ["--weights", "1,1", "measure", "--cell", "2"],
    ["--max-level", "0", "measure", "--cell", "2"],
    ["--max-level", "2", "graph", "--level", "3"],
    ["ball", "--n", "1", "--level", "99"],
    ["ehi", "--n", "2..3", "--k", "-1"],
    ["ehi", "--n", "2", "--epsilon", "0"],
    ["weh", "--n", "2", "--delta", "0"],
    ["weh", "--n", "2", "--rho", "x"],
    ["ehi", "--n", "2", "--epsilon", "-1/2"],
    ["weh", "--n", "2", "--rho", "-1/2"],
    ["--s0", "-1/2", "measure", "--cell", "2"],
    ["verify", "--suite", "nope"],
    ["graph", "--level", "-1"],
]


# config documents of the wrong shape or type, and the one error line each gets
BAD_CONFIGS = [
    ("[1]", "a config file must hold a JSON object"),
    ('"abc"', "a config file must hold a JSON object"),
    ('{"max_level": null}', "config max_level must be an integer, got null"),
    ('{"max_level": 2.5}', "config max_level must be an integer, got 2.5"),
    ('{"max_level": true}', "config max_level must be an integer, got true"),
    ('{"weights": 5}', "config weights must be a string 'w0,w2', got 5"),
    ('{"s0": [1]}', "config s0 must be a number or a string 'p/q', got [1]"),
    ('{"s0": false}', "config s0 must be a number or a string 'p/q', got false"),
    ('{"s0": Infinity}', "config s0 got inf: cannot convert Infinity to integer ratio"),
]


def _config_argv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return ["--config", str(path), "measure", "--cell", "0"]


def test_bad_arguments_exit_with_a_code_and_no_traceback(monkeypatch, capsys, tmp_path):
    missing_config = ["--config", str(tmp_path / "missing.json"), "measure", "--cell", "2"]
    bad_configs = [_config_argv(tmp_path, f"bad{i}.json", text) for i, (text, _) in enumerate(BAD_CONFIGS)]
    for argv in BAD_ARGUMENTS + [missing_config] + bad_configs:
        try:
            code, builds = _main_counting_builds(monkeypatch, argv)
        except SystemExit as exc:
            code, builds = exc.code, 0
        captured = capsys.readouterr()
        assert (code, builds) in ((2, 0), (3, 0), (4, 0)), argv
        assert captured.out == "", argv
        assert "Traceback" not in captured.err, argv


# the argument grammar of every command but verify: per flag, the kind of value it
# takes (None for a switch), and whether the command requires it
FUZZ_VALUES = {
    "int": ["-1", "0", "1", "2", "3", "4", "5"],
    "frac": ["1/2", "1/3", "2/5", "1", "3/2", "1/4", "0", "-1/2", "1/0"],
    "fracs": ["1/2,1", "1/2,1,3/2,2", "1", "1,0", "2/3,-1"],
    "range": ["1", "2", "1..3", "2..4", "2,3", "3..2", "0..2", "1,0"],
    "weights": ["1/4,1/4", "1/10,2/5", "1/6,1/3", "1,1", "1/0,1", "1/4"],
    "vertex": ["2:1", "-:1", "-:2", "-:3", "02:1", "0:2", "13:3", "04:1", "zz:9", "2:7"],
    "word": ["-", "0", "02", "213", "4", ""],
    "kind": ["udown", "uup", "uminus", "uplus", "nope"],
    "params": ["0,1,0", "1,1/2,1/4", "1,2", "x"],
    "coeffs": ["xmk", "yk", "zz"],
}
FUZZ_BAD_TOKENS = ["", "x", "nan", "inf", "-", "1/", ",", "..", "1.5", "2a", "--n"]
FUZZ_GLOBAL = {"--s0": "frac", "--weights": "weights", "--max-level": "int", "--config": "config"}
FUZZ_COMMANDS = {
    "graph": {"--level": ("int", True), "--out": ("path", False)},
    "resistance": {"--from": ("vertex", True), "--to": ("vertex", True), "--level": ("int", False),
                   "--float": (None, False)},
    "ball": {"--n": ("int", True), "--level": ("int", True), "--out": ("path", False)},
    "harmonics": {"--kind": ("kind", False), "--params": ("params", False), "--at": ("vertex", False),
                  "--coeffs": ("coeffs", False), "--n": ("int", False), "--m0": ("int", False),
                  "--k0": ("int", False), "--out": ("path", False)},
    "measure": {"--cell": ("word", False), "--integrate": ("kind", False), "--params": ("params", False),
                "--depth": ("int", False)},
    "exit-ratio": {"--n": ("range", True), "--level-offset": ("int", False), "--out": ("path", False),
                   "--summary": ("path", False)},
    "ehi": {"--n": ("range", True), "--k": ("int", False), "--epsilon": ("frac", False),
            "--level-offset": ("int", False), "--out": ("path", False)},
    "weh": {"--delta": ("frac", False), "--rho": ("fracs", False), "--n": ("range", True),
            "--level-offset": ("int", False), "--out": ("path", False)},
    "doubling": {"--n": ("range", True), "--x": ("vertex", False), "--radius": ("frac", False),
                 "--out": ("path", False)},
}


def _fuzz_argv(rng, paths):
    """One argv drawn from the grammar: mostly well-formed values, sometimes a bad
    token, a dropped value, a missing required flag or an unknown flag."""
    values = dict(FUZZ_VALUES, path=paths["out"], config=paths["config"])

    def value(kind):
        if kind != "path" and rng.random() < 0.08:  # a bad output path would write into the working directory
            return rng.choice(FUZZ_BAD_TOKENS)
        return rng.choice(values[kind])

    argv = []
    for flag, kind in FUZZ_GLOBAL.items():
        if rng.random() < 0.15:
            argv += [flag, value(kind)]
    command = rng.choice(list(FUZZ_COMMANDS))
    argv.append(command)
    for flag, (kind, required) in FUZZ_COMMANDS[command].items():
        if rng.random() < (0.95 if required else 0.35):
            argv.append(flag)
            if kind is not None and rng.random() > 0.03:
                argv.append(value(kind))
    if rng.random() < 0.03:
        argv.insert(rng.randrange(len(argv) + 1), "--bogus")
    return argv


def test_fuzzed_arguments_exit_with_a_code_and_no_traceback(monkeypatch, capsys, tmp_path):
    """600 seeded argvs from the argument grammar, at a level cap of 5: every run
    ends with exit code 0, 2, 3 or 4 and prints no traceback."""
    monkeypatch.setenv("DENDRITE_MAX_LEVEL", "5")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"weights": "1/10,2/5", "max_level": 4}))
    bad.write_text('{"max_level": "x"}')
    paths = {"out": [str(tmp_path / "out.csv")], "config": [str(good), str(bad), str(tmp_path / "none.json")]}
    rng = random.Random(20)
    codes = Counter()
    for _ in range(600):
        argv = _fuzz_argv(rng, paths)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash names the argv that caused it
            pytest.fail(f"{argv} raised {exc!r}")
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in captured.err, argv
        codes[code] += 1
    assert set(codes) == {0, 2, 3, 4}, codes


def test_parser_is_built_once_and_answers_alike_every_time(monkeypatch, capsys):
    """`cli.main` builds its parser once per process; a parse, good or bad, leaves
    it as it was, so a usage error reads the same before and after other runs."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    answers = []
    try:
        for argv in (["ehi", "--k"], ["measure", "--cell", "2"], ["--bogus", "graph"], ["ehi", "--k"]):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            answers.append((code, *capsys.readouterr()))
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert answers[0] == answers[-1] and answers[0][0] == 2 and "usage: dendrite ehi" in answers[0][2]
    assert [code for code, _, _ in answers] == [2, 0, 2, 2]


@pytest.mark.parametrize(
    "argv, flag, text",
    [(["--s0", "1/0", "measure", "--cell", "2"], "--s0", "1/0"),
     (["--weights", "1/0,1", "measure", "--cell", "2"], "--weights", "1/0,1"),
     (["ehi", "--n", "2", "--epsilon", "1/0"], "--epsilon", "1/0"),
     (["weh", "--n", "2", "--rho", "1/0"], "--rho", "1/0")],
)
def test_zero_denominator_names_its_flag(monkeypatch, capsys, argv, flag, text):
    code, builds = _main_counting_builds(monkeypatch, argv)
    assert (code, builds) == (3, 0)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} got {text!r}: zero denominator"]


@pytest.mark.parametrize(
    "argv, message",
    [(["doubling", "--n", "2", "--radius", "-1/2"], "radius must be positive"),
     (["ehi", "--n", "2", "--epsilon", "-1/2"], "epsilon must lie in (0, 1/2]"),
     (["weh", "--n", "2", "--rho", "-1/2"], "rho must be positive"),
     (["--s0", "-1/2", "measure", "--cell", "2"], "s0 must lie strictly between 0 and 1")],
    ids=["radius", "epsilon", "rho", "s0"],
)
def test_negative_fractions_reach_their_value_checks(monkeypatch, capsys, argv, message):
    """argparse would read -1/2 as an option and exit 2; the value's own check answers instead."""
    code, builds = _main_counting_builds(monkeypatch, argv)
    assert (code, builds) == (3, 0)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_weights_of_the_right_shape_are_refused_for_their_values(monkeypatch, capsys):
    code, builds = _main_counting_builds(monkeypatch, ["--weights", "1,1", "measure", "--cell", "2"])
    assert (code, builds) == (3, 0)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --weights got '1,1': weights must satisfy 2 w0 + 2 w2 = 1"]


@pytest.mark.parametrize(
    "argv", [["harmonics", "--kind", "uup", "--at", "002:1"], ["measure", "--integrate", "uup"]]
)
def test_uup_refuses_s0_other_than_half(argv):
    out = run_cli("--s0", "1/3", *argv)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.splitlines() == ["error: the upward ladder is only available at s0 = 1/2"]


def test_graph_export(tmp_path):
    path = tmp_path / "g.json"
    out = run_cli("graph", "--level", "1", "--out", str(path))
    assert out.returncode == 0
    data = json.loads(path.read_text())
    assert len(data["vertices"]) == 9


def test_harmonics_eval_and_energy():
    assert run_cli("harmonics", "--kind", "udown", "--at", "23:1").stdout.strip() == "1/16"
    assert run_cli("harmonics", "--kind", "uup").stdout.strip() == "3/2"
    out = run_cli("harmonics", "--kind", "uminus", "--params", "0,1,0", "--at", "2:1")
    assert out.stdout.strip() == "1/2"


def test_coefficient_table_output():
    out = run_cli("harmonics", "--coeffs", "xmk", "--n", "1", "--m0", "1", "--k0", "0")
    body = [l for l in out.stdout.splitlines() if not l.startswith("#")]
    assert body[0] == "case,n,m0,k0,index,value_exact,value_float"
    assert any("20/41" in line for line in body)


def test_measure_commands():
    assert run_cli("measure", "--cell", "02").stdout.strip() == "1/16"
    out = run_cli("measure", "--integrate", "udown", "--depth", "9")
    assert "exact=1/2" in out.stdout


def test_exit_ratio_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    s1 = run_cli("exit-ratio", "--n", "2..3", "--level-offset", "4", "--out", str(a), "--summary", str(tmp_path / "s1.json"))
    s2 = run_cli("exit-ratio", "--n", "2..3", "--level-offset", "4", "--out", str(b), "--summary", str(tmp_path / "s2.json"))
    assert s1.returncode == s2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "s1.json").read_text() == (tmp_path / "s2.json").read_text()


def test_report_embeds_config(tmp_path):
    path = tmp_path / "r.csv"
    run_cli("--weights", "1/6,1/3", "exit-ratio", "--n", "2..2", "--level-offset", "4", "--out", str(path), "--summary", str(tmp_path / "s.json"))
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config:")
    cfg = json.loads(first.split(":", 1)[1])
    assert cfg["weights"] == "1/6,1/3"


def test_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"weights": "1/6,1/3", "max_level": 11, "seed": 3}))
    out = run_cli("--config", str(cfg_path), "measure", "--cell", "2")
    assert out.stdout.strip() == "1/3"


@pytest.mark.parametrize("text, message", BAD_CONFIGS)
def test_bad_config_is_refused_with_one_line_naming_the_key(monkeypatch, capsys, tmp_path, text, message):
    code, builds = _main_counting_builds(monkeypatch, _config_argv(tmp_path, "cfg.json", text))
    assert (code, builds) == (3, 0)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_config_s0_may_be_a_json_number(monkeypatch, capsys, tmp_path):
    assert cli.main(_config_argv(tmp_path, "cfg.json", '{"s0": 0.5, "max_level": 11}')) == 0
    assert capsys.readouterr().out == "1/4\n"


def test_config_file_with_unread_keys_loads(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3, "outdir": "elsewhere", "tolerance_profile": "strict"}))
    out = run_cli("--config", str(cfg_path), "harmonics", "--coeffs", "xmk", "--n", "1", "--m0", "1")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == (
        '# config: {"max_level": 12, "outdir": ".", "s0": "1/2", "seed": 0, '
        '"tolerance_profile": "default", "weights": "1/4,1/4"}'
    )


def _strict_json(text):
    """Parse JSON as strict parsers do: NaN and Infinity are not JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("n_range", ["2..2", "2..3"])
@pytest.mark.parametrize("command", ["exit-ratio", "ehi", "weh"])
def test_summaries_are_strict_json(capsys, command, n_range):
    """A slope needs two n; with one, the summary says null, not NaN."""
    offset = ["--level-offset", "2"] if command == "exit-ratio" else []
    assert cli.main([command, "--n", n_range, *offset]) == 0
    summary = _strict_json(capsys.readouterr().out.splitlines()[-1])
    rows = summary if command == "weh" else [summary]
    key = "growth_per_n" if command == "weh" else "slope"
    assert all((row[key] is None) == (n_range == "2..2") for row in rows)
    if command != "weh":
        assert (summary["stderr"] is None) == (n_range == "2..2")


def test_ball_summary():
    out = run_cli("ball", "--n", "1", "--level", "5")
    assert "interior" in out.stdout and out.returncode == 0


def test_doubling_report():
    out = run_cli("doubling", "--n", "2..2")
    assert out.returncode == 0
    assert "ratio_lower" in out.stdout


def test_cli_import_leaves_the_checks_unloaded():
    """A fresh interpreter, since this test session has imported the checks already."""
    code = "import dendrite.cli, sys; assert 'dendrite.checks' not in sys.modules"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=CHILD_PATH)
    )
    assert out.returncode == 0, out.stderr


def test_verify_suite_exit_zero(monkeypatch, capsys):
    monkeypatch.setattr(checks, "SUITES", {"stub": [("holds", lambda: (True, "ok"))]})
    assert cli.main(["verify", "--suite", "stub"]) == 0
    assert "[PASS] stub/holds" in capsys.readouterr().out


def test_verify_unknown_suite():
    out = run_cli("verify", "--suite", "bogus")
    assert out.returncode == 3
