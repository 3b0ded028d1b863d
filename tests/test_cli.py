"""Tests for the command-line interface."""

import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main

VULN = "<?php echo $_GET['q'];\n"
SAFE = "<?php echo 'hello';\n"


@pytest.fixture
def vuln_file(tmp_path):
    path = tmp_path / "vuln.php"
    path.write_text(VULN)
    return path


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.php"
    path.write_text(SAFE)
    return path


class TestVerify:
    def test_safe_exit_zero(self, safe_file, capsys):
        assert main(["verify", str(safe_file)]) == 0
        out = capsys.readouterr().out
        assert "SAFE" in out

    def test_vulnerable_exit_one(self, vuln_file, capsys):
        assert main(["verify", str(vuln_file)]) == 1
        out = capsys.readouterr().out
        assert "VULNERABLE" in out

    def test_detailed_flag(self, vuln_file, capsys):
        main(["verify", "--detailed", str(vuln_file)])
        out = capsys.readouterr().out
        assert "counterexample" in out

    def test_directory_recursion(self, tmp_path, safe_file, vuln_file, capsys):
        assert main(["verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "safe.php" in out and "vuln.php" in out

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify", str(empty)]) == 2

    def test_multiple_paths(self, safe_file, vuln_file):
        assert main(["verify", str(safe_file), str(vuln_file)]) == 1


class TestPatch:
    def test_patch_writes_output(self, vuln_file, tmp_path, capsys):
        output = tmp_path / "out.php"
        assert main(["patch", str(vuln_file), "-o", str(output)]) == 0
        assert "__webssari_sanitize" in output.read_text()
        assert "guard(s)" in capsys.readouterr().out

    def test_patch_default_output_name(self, vuln_file):
        main(["patch", str(vuln_file)])
        assert vuln_file.with_suffix(".patched.php").exists()

    def test_ts_strategy(self, vuln_file, tmp_path):
        output = tmp_path / "ts.php"
        assert main(["patch", str(vuln_file), "-o", str(output), "--strategy", "ts"]) == 0
        assert "__webssari_sanitize" in output.read_text()

    def test_patched_file_verifies_safe(self, vuln_file, tmp_path):
        output = tmp_path / "out.php"
        main(["patch", str(vuln_file), "-o", str(output)])
        assert main(["verify", str(output)]) == 0


class TestHtml:
    def test_html_report_written(self, vuln_file, tmp_path):
        output = tmp_path / "r.html"
        assert main(["html", str(vuln_file), "-o", str(output)]) == 1
        text = output.read_text()
        assert "<!DOCTYPE html>" in text
        assert "VULNERABLE" in text

    def test_html_safe_exit_zero(self, safe_file, tmp_path):
        output = tmp_path / "r.html"
        assert main(["html", str(safe_file), "-o", str(output)]) == 0


class TestPreludeOption:
    def test_custom_prelude_applies(self, tmp_path, capsys):
        prelude = tmp_path / "p.prelude"
        prelude.write_text("source read_config tainted\nsink show tainted xss\n")
        php = tmp_path / "app.php"
        php.write_text("<?php $x = read_config(); show($x);")
        # Without the prelude: safe; with it: vulnerable.
        assert main(["verify", str(php)]) == 0
        assert main(["--prelude", str(prelude), "verify", str(php)]) == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "app", "--solver", "portfolio"],
            ["audit", "app", "--sat-seed", "1"],
            ["audit", "app", "--restart-strategy", "luby"],
            ["verify", "x.php", "--sat-seed", "1"],
        ],
    )
    def test_removed_solver_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


_JOBS = os.cpu_count() or 1
_SOLVER_DEFAULTS = {"solver": "cdcl", "replay": "off"}
_ENGINE_DEFAULTS = {
    "jobs": _JOBS,
    "timeout": None,
    "cache_dir": None,
    "no_cache": False,
    "parse_cache": "on",
    "start_method": None,
    "sat_cache": "on",
}

#: Every subcommand's parsed namespace with only its required arguments.
PARSED_DEFAULTS = {
    "verify": (
        ["verify", "x.php"],
        dict(_SOLVER_DEFAULTS, paths=[Path("x.php")], detailed=False, stats=False,
             trace=None, sat_cache="off"),
    ),
    "audit": (
        ["audit", "app"],
        dict(_SOLVER_DEFAULTS, **_ENGINE_DEFAULTS, paths=[Path("app")], jsonl=None,
             detailed=False, quiet=False, trace=None, metrics=None, shard=None),
    ),
    "watch": (
        ["watch", "app"],
        dict(_SOLVER_DEFAULTS, **_ENGINE_DEFAULTS, root=Path("app"), interval=2.0,
             debounce=0.5, out_dir=None, serve_metrics=None, once=False, quiet=False),
    ),
    "serve": (
        ["serve"],
        dict(bind="127.0.0.1:9410", lease_timeout=60.0, submit=None, jsonl_dir=None,
             trace=None, drain_grace=30.0),
    ),
    "work": (
        ["work", "--connect", "http://h"],
        dict(_SOLVER_DEFAULTS, **_ENGINE_DEFAULTS, connect="http://h", node=None,
             lease=None, poll=1.0, quiet=False),
    ),
    "report": (
        ["report", "a.jsonl"],
        dict(path=Path("a.jsonl"), diff=None, top=10, json=False, html=None),
    ),
    "patch": (["patch", "x.php"], dict(path=Path("x.php"), output=None, strategy="bmc")),
    "html": (["html", "x.php"], dict(path=Path("x.php"), output=None)),
    "figure10": (["figure10"], dict(jobs=1)),
}


@pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
def test_parsed_defaults(command):
    argv, expected = PARSED_DEFAULTS[command]
    parsed = vars(build_parser().parse_args(argv))
    assert parsed == dict(expected, command=command, prelude=None)
