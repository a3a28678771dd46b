"""Config-file keys come from the parser: every long option of every command
round-trips through a config file to the same namespace as the flag."""

import argparse

import pytest

from fadelab.cli import _COMMANDS, build_parser, parse_config
from fadelab.errors import UsageError

#: one valid value per option dest (store_true options take none)
SAMPLE = {
    "model": "ar1", "a": "0.5", "lambda_c": "0.25", "table": "t.csv", "mass": "0.3",
    "loc": "0.1", "residual": "memoryless", "seed": "7", "out": "r.txt", "fmt": "csv",
    "method": "series", "tol": "1e-6", "delta2": "0.5", "past": "16", "b": "3",
    "alpha": "0.5", "amplitude": "2.0", "n": "100", "sigma2": "2.0", "samples": "20000",
    "partitions": "2", "b_list": "1,2", "alpha_list": "0.5,1", "snr_list": "0.1",
}


def _options():
    """(command, flag, action) for every long option of every command."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = []
    for command, sub in commands.choices.items():
        for action in sub._actions:
            out += [(command, flag, action) for flag in action.option_strings
                    if flag.startswith("--") and flag != "--help"]
    return out


def _required(command):
    return [(flag, SAMPLE[a.dest]) for c, flag, a in _options() if c == command and a.required]


def _write(tmp_path, pairs):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs))
    return str(path)


def test_every_command_has_options():
    assert {c for c, _, _ in _options()} == set(_COMMANDS)


@pytest.mark.parametrize("command,flag,action", _options(),
                         ids=[f"{c}{f}" for c, f, _ in _options()])
def test_option_round_trips(tmp_path, command, flag, action):
    key = flag[2:].replace("-", "_")
    required = [(f, v) for f, v in _required(command) if f != flag]
    value = [] if action.nargs == 0 else [SAMPLE[action.dest]]
    from_flags = parse_config([command, *(x for pair in required for x in pair), flag, *value])
    pairs = [("command", command), *((f[2:].replace("-", "_"), v) for f, v in required),
             (key, value[0] if value else "true")]
    from_file = parse_config(["--config", _write(tmp_path, pairs)])
    assert from_file.command == from_flags.command
    assert vars(from_file.args) == vars(from_flags.args)


def test_boolean_key_values(tmp_path):
    base = [("command", "sweep"), ("b_list", "1"), ("alpha_list", "0.5"), ("snr_list", "0.1")]
    assert parse_config(["--config", _write(tmp_path, [*base, ("mc", "yes")])]).args.mc
    assert not parse_config(["--config", _write(tmp_path, [*base, ("mc", "false")])]).args.mc
    with pytest.raises(UsageError):
        parse_config(["--config", _write(tmp_path, [*base, ("mc", "maybe")])])


@pytest.mark.parametrize("key", ["help", "bogus", "config", "fmt", "amplitude"])
def test_unknown_keys_rejected(tmp_path, key):
    with pytest.raises(UsageError):
        parse_config(["--config", _write(tmp_path, [("command", "capacity"), (key, "1")])])
