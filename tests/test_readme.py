"""The README's examples run and give the results it states."""

import re
import shlex
from pathlib import Path

from modalkit import Valid
from modalkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["holds"] is True
    assert isinstance(namespace["verdict"], Valid)
    assert namespace["world"] == 1
    assert namespace["minimal"] == ["K4"]


def _block_after(text: str, heading: str) -> str:
    """The first fenced block of the section that starts at heading."""
    section = text[text.index(heading):]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def _shell_examples(text: str):
    """(argv, shown output lines, exit code) for each `$ modalkit` line.

    The output shown is the lines up to the next `$` line or the end of the
    block, and a `...` line among them ends what is compared.  A
    `# exits N` comment gives the exit code; otherwise it is 0.
    """
    out = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, re.S):
        for example in re.split(r"^(?=\$ )", block, flags=re.M):
            if not example.startswith("$ modalkit "):
                continue
            command, *shown = example.rstrip("\n").split("\n")
            exits = re.search(r"# exits (\d+)", command)
            argv = shlex.split(command[len("$ modalkit "):], comments=True)
            out.append((argv, shown, int(exits.group(1)) if exits else 0))
    return out


def test_readme_shell_examples(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.km").write_text(_block_after(text, "## Model files"), encoding="utf-8")
    (tmp_path / "proof.txt").write_text(_block_after(text, "## Proof scripts"), encoding="utf-8")
    examples = _shell_examples(text)
    assert len(examples) == 20
    for argv, shown, code in examples:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        if "..." in shown:
            cut = shown.index("...")
            assert out.split("\n")[:cut] == shown[:cut], argv
        elif shown:
            assert out == "\n".join(shown) + "\n", argv
