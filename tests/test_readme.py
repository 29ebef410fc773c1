"""The README's examples run as written.

The ```python blocks run in order in one namespace, as a reader pasting
them into one session would run them, and every command of the Command
line section runs through cli.main in a scratch directory and exits 0.
"""

import re
import shlex
from pathlib import Path

from dyadlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_examples_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) >= 4
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (block,) = _blocks("sh", section)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) >= 7 and all(words[0] == "dyadlab" for words in commands)
    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert main(words[1:]) == 0, (words, capsys.readouterr().err)
