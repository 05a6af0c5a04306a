"""Tests for the ``fleet`` subcommand and cross-subcommand flag parity."""

import json

from repro.cli import build_parser, main
from repro.workload.arrivals import PoissonArrivals
from repro.workload.spec import HomogeneousWorkloadSpec

#: The shared-flag presence matrix: every listed subcommand must carry
#: the flag with an identical spec; every other subcommand must not.
SHARED_FLAGS = {
    "--jobs": ("sweep", "load", "chaos", "fleet"),
    "--no-cache": ("sweep", "load", "chaos", "fleet"),
    "--json-out": ("sweep", "load", "chaos", "report", "check", "alloc",
                   "fleet"),
    "--duration": ("rate", "load", "fleet"),
}


def _subcommands(parser):
    return parser._subparsers._group_actions[0].choices


def test_shared_flags_are_identical_everywhere():
    commands = _subcommands(build_parser())
    for flag, expected in SHARED_FLAGS.items():
        seen = None
        for name, command in commands.items():
            actions = {option: action for action in command._actions
                       for option in action.option_strings}
            if name in expected:
                assert flag in actions, f"{name} is missing {flag}"
                action = actions[flag]
                spec = (tuple(action.option_strings), action.dest,
                        action.type, action.default, action.help)
                if seen is None:
                    seen = (name, spec)
                assert spec == seen[1], \
                    f"{name}'s {flag} diverges from {seen[0]}'s"
            else:
                assert flag not in actions, \
                    f"{name} has {flag} but is not in the parity matrix"


def test_every_expected_subcommand_exists():
    assert set(_subcommands(build_parser())) == {
        "profile", "colocate", "table3", "rate", "load", "sweep", "trace",
        "chaos", "report", "check", "alloc", "fleet"}


def _write_spec(tmp_path, rate=50.0):
    spec = HomogeneousWorkloadSpec(
        model="squeezenet", arrivals=PoissonArrivals(rate), batch_size=4)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


def test_fleet_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = _write_spec(tmp_path)
    out = tmp_path / "fleet.json"
    argv = ["fleet", str(spec), "--devices", "1", "2", "--scales", "0.5",
            "1.0", "--duration", "0.6", "--jobs", "1", "--no-cache",
            "--json-out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "fleet grid over 4 cells" in printed
    assert "knee" in printed

    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 4
    assert {"devices", "router", "offered_rps", "goodput_rps",
            "conservation_ok"} <= set(payload["rows"][0])
    assert all(row["conservation_ok"] for row in payload["rows"])

    # A second uncached run reproduces the document byte-for-byte.
    out2 = tmp_path / "fleet2.json"
    argv2 = argv[:-1] + [str(out2)]
    assert main(argv2) == 0
    capsys.readouterr()
    assert out.read_text() == out2.read_text()


def test_fleet_command_crash_node(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = _write_spec(tmp_path)
    out = tmp_path / "fleet.json"
    assert main(["fleet", str(spec), "--devices", "2", "--scales", "1.0",
                 "--duration", "0.8", "--jobs", "1", "--crash-node", "0",
                 "--crash-time", "0.2", "--json-out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["crashes"] >= 1 and row["restarts"] >= 1
    assert row["conservation_ok"]
