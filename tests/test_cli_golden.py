"""Golden command line: flags, settings file and ledger header stay in step.

The expected header lines and option strings below were recorded from the
code before the settings table was introduced.  Every setting is given a
non-default value, once as flags and once through ``--config-file``, and
both runs must write the same ``# key = value`` header.
"""

import argparse
import shlex
import sys
import textwrap

import pytest

from madshpo.campaign import LEDGER_NAME
from madshpo.cli import build_parser, main
from madshpo.ledger import read_ledger
from madshpo.space import preset_config, serialize

# A p2 start point under preset p3: the --initial file must win.
INITIAL = serialize(preset_config("p2"))

STUB = textwrap.dedent(
    """
    import sys
    sys.stdin.readline()
    for e, a in ((1, 0.3), (2, 0.4), (3, 0.45)):
        print(f"EPOCH {e} ACC {a} LOSS 1.0 LR 0.01", flush=True)
        if sys.stdin.readline().strip() == "STOP":
            break
    print("DONE", flush=True)
    """
)

RUN_OPTIONS = [
    "--backend", "--backend-cmd", "--budget", "--config-file", "--initial", "--margins",
    "--max-epochs", "--max-iterations", "--milestones", "--min-mesh-index",
    "--no-charge-ranking", "--noise-sigma", "--out", "--preset", "--rank",
    "--seed", "--stop", "-h", "--help",
]


def expected_header(command):
    return [
        "# format = 1",
        "# seed = 5",
        "# bbe_budget = 4",
        "# max_epochs = 30",
        "# stop_mode = last-success",
        "# surrogate = custom 12 0.5 0.25",
        "# backend = external",
        f"# external_command = {command}",
        "# charge_ranking = 0",
        "# min_mesh_index = -1",
        "# max_iterations = 0",
        "# milestones = 5 10",
        "# margins = 0.4 0.8",
        "# noise_sigma = 0.001",
        f"# initial = {INITIAL}",
    ]


@pytest.fixture
def setup(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    initial = tmp_path / "start.cfg"
    initial.write_text(INITIAL + "\n")
    command = shlex.join([sys.executable, "-u", str(stub)])
    values = {
        "preset": "p3",
        "initial": str(initial),
        "budget": "4",
        "max-epochs": "30",
        "stop": "last-success",
        "rank": "12,0.5,0.25",
        "seed": "5",
        "backend": "external",
        "backend-cmd": command,
        "min-mesh-index": "-1",
        "max-iterations": "0",
        "milestones": "5,10",
        "margins": "0.4,0.8",
        "noise-sigma": "0.001",
    }
    return tmp_path, command, values


def header_lines(out_dir):
    text = (out_dir / LEDGER_NAME).read_text()
    return [line for line in text.splitlines() if line.startswith("#")]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().err


def test_every_flag_reaches_the_header(setup, capsys):
    tmp_path, command, values = setup
    argv = ["run", "--no-charge-ranking", "--out", str(tmp_path / "flags")]
    for key, value in values.items():
        argv += [f"--{key}", value]
    code, err = run_cli(argv, capsys)
    assert code == 0, err
    assert header_lines(tmp_path / "flags") == expected_header(command)
    _, records = read_ledger(tmp_path / "flags" / LEDGER_NAME)
    assert [r.epochs_used for r in records] == [3]  # the external stub trained the start point


def test_settings_file_gives_the_same_header(setup, capsys):
    tmp_path, command, values = setup
    cfg = tmp_path / "campaign.cfg"
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines += ["charge_ranking = 0", f"out = {tmp_path / 'file'}"]
    cfg.write_text("\n".join(lines) + "\n")
    code, err = run_cli(["run", "--config-file", str(cfg)], capsys)
    assert code == 0, err
    assert header_lines(tmp_path / "file") == expected_header(command)


def test_run_option_strings():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    run_parser = subparsers.choices["run"]
    options = sorted(opt for action in run_parser._actions for opt in action.option_strings)
    assert options == sorted(RUN_OPTIONS)


@pytest.mark.parametrize(
    "argv",
    [["--budget", "abc"], ["--rank", "1,2"], ["--milestones", "5,x"]],
    ids=["budget", "rank", "milestones"],
)
def test_bad_flag_value_is_an_error(argv, tmp_path, capsys):
    code, err = run_cli(["run", *argv, "--out", str(tmp_path / "out")], capsys)
    assert code != 0
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "out" / LEDGER_NAME).exists()


@pytest.mark.parametrize("rank", ["bogus", "1,2"])
def test_bad_rank_names_the_setting(rank, tmp_path, capsys):
    code, err = run_cli(["run", "--rank", rank, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith("error: rank: ") and err.count("\n") == 1


def test_bad_settings_file_value_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("charge_ranking = maybe\n")
    code, err = run_cli(["run", "--config-file", str(cfg), "--out", str(tmp_path / "out")], capsys)
    assert code != 0
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "out" / LEDGER_NAME).exists()

