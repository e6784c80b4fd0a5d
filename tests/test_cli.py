"""CLI surface: parser wiring and command behaviour."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("command", ["fly", "serve-bench", "fleet-bench"])
def test_parser_rejects_unknown_command(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command])


def test_parser_defaults():
    args = build_parser().parse_args(["table1"])
    assert args.command == "table1"
    assert args.per_class == 10
    args = build_parser().parse_args(["recognize", "yes", "--index", "4"])
    assert args.word == "yes" and args.index == 4 and args.speaker is None
    args = build_parser().parse_args(["train", "--arch", "conv_pool",
                                      "--epochs", "3"])
    assert args.arch == "conv_pool" and args.epochs == 3


def test_parser_trace_defaults_and_flags():
    args = build_parser().parse_args(["trace"])
    assert args.command == "trace"
    assert args.requests == 12 and args.batch == 4
    assert args.sessions == 2 and args.seed == 7
    assert not args.op_profile
    assert args.out is None and args.prom is None
    args = build_parser().parse_args(
        ["trace", "--op-profile", "--out", "t.json", "--prom", "m.prom",
         "--seed", "3"])
    assert args.op_profile and args.out == "t.json"
    assert args.prom == "m.prom" and args.seed == 3


def test_trace_command_writes_exports(tmp_path, capsys,
                                      standard_model_and_meta):
    import json

    out = tmp_path / "trace.json"
    prom = tmp_path / "metrics.prom"
    assert main(["trace", "--requests", "4", "--batch", "2",
                 "--workers", "1", "--sessions", "1",
                 "--out", str(out), "--prom", str(prom)]) == 0
    printed = capsys.readouterr().out
    assert "== spans (virtual clock) ==" in printed
    assert "served 4 requests" in printed
    doc = json.loads(out.read_text())
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
    assert "omg_serve_responses_total 4" in prom.read_text()


def test_info_command(capsys, standard_model_and_meta):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "HiKey 960" in out
    assert "MACs/inference: 404,800" in out


def test_recognize_command_success(capsys, standard_model_and_meta):
    assert main(["recognize", "yes", "--index", "3"]) == 0
    out = capsys.readouterr().out
    assert "recognized: 'yes'" in out


def test_recognize_command_rejects_bad_word(standard_model_and_meta):
    from repro.errors import AudioError

    with pytest.raises(AudioError):
        main(["recognize", "banana"])


def test_attack_command_all_blocked(capsys, standard_model_and_meta):
    assert main(["attack"]) == 0
    out = capsys.readouterr().out
    assert "SUCCEEDED" not in out
    assert out.count("blocked") >= 5


def test_protocol_command(capsys, standard_model_and_meta):
    assert main(["protocol"]) == 0
    out = capsys.readouterr().out
    assert "I. preparation" in out
    assert "recognized:" in out


def test_table1_command_small(capsys, standard_model_and_meta):
    assert main(["table1", "--per-class", "2"]) == 0
    out = capsys.readouterr().out
    assert 'TensorFlow Lite "micro" (OMG)' in out


def test_analyze_command_clean_tree(capsys):
    assert main(["analyze"]) == 0  # defaults to the installed package
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_analyze_command_json_and_rule_filter(capsys):
    import json

    assert main(["analyze", "--json", "--rule", "layering",
                 "--rule", "determinism"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["determinism", "layering"]
    assert payload["findings"] == []


def test_analyze_command_fails_on_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "hw"
    bad.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (bad / "__init__.py").write_text("")
    (bad / "clockful.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    assert main(["analyze", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out
