"""README.md's examples against the code: each `$ classprime ...` block's
output and the Library block's documented values."""
import re
import shlex
from pathlib import Path

import pytest

from classprime import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
COMMANDS = [body for lang, body in BLOCKS if not lang and body.startswith("$ classprime ")]


def test_readme_has_its_examples():
    assert len(COMMANDS) >= 3
    assert sum(lang == "python" for lang, _ in BLOCKS) == 1


@pytest.mark.parametrize("body", COMMANDS, ids=lambda body: body.splitlines()[0][2:])
def test_readme_command_output(body, tmp_path, monkeypatch, capsys):
    # run where an --out file of the example may land
    command, *want = body.splitlines()
    monkeypatch.chdir(tmp_path)
    rc = cli.main(shlex.split(command)[2:])
    assert rc == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in want)


def test_readme_library_block():
    [code] = [body for lang, body in BLOCKS if lang == "python"]
    ns: dict = {}
    exec(code, ns)
    g = ns["g"]
    assert g.h == 25 and g.orders() == (25,)
