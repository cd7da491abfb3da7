"""The README's examples run as written: the library quick start at a
smaller N, and the CLI walkthrough's commands through ``main``."""

import re
import shlex
from pathlib import Path

from atdev.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_quick_start_runs(capsys):
    code = _block("Library quick start", "python")
    assert "n=100_000" in code
    exec(code.replace("n=100_000", "n=5_000"), {})
    assert capsys.readouterr().out


def test_cli_walkthrough_runs(tmp_path, monkeypatch):
    script = _block("CLI walkthrough", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [c[:2] for c in commands] == [
        ["atdev", "simulate"], ["atdev", "effects"], ["atdev", "matrix"],
        ["atdev", "matrix"], ["atdev", "heatmap"], ["atdev", "importance"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = ["2000" if a == "100000" else a for a in argv[1:]]
        assert main(argv) == 0, argv
    assert (tmp_path / "out" / "importance.csv").exists()
    assert (tmp_path / "out" / "correlation_heatmap.svg").exists()
    assert (tmp_path / "out" / "matrix_le.svg").exists()
