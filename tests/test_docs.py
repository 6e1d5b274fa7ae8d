"""The README's claims about the package's public names and its runtime dependency."""

import ast
import re
from pathlib import Path

import orbitrans
from orbitrans.cli import main
from test_cli import child

README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).parent / "data"


def test_readme_entry_points_are_exported():
    paragraph = next(
        p for p in README.read_text().split("\n\n") if p.startswith("Other entry points:")
    )
    names = re.findall(r"`(\w+)`", paragraph)
    assert len(names) >= 8
    missing = [name for name in names if name not in orbitrans.__all__]
    assert not missing, missing
    for name in names:
        assert callable(getattr(orbitrans, name))


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    library = README.read_text().split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    (tmp_path / "contacts.txt").write_text((DATA / "alpha.txt").read_text())
    monkeypatch.chdir(tmp_path)
    exec(snippet, {})
    # the fingerprint: one row of labels per orbit
    printed = ast.literal_eval(capsys.readouterr().out)
    assert len(printed) == 11 and all(len(row) == 11 for row in printed)
    assert {label for row in printed for label in row} <= {"Rare", "Common", "Frequent"}


def test_readme_numpy_free_commands_run_without_numpy(tmp_path):
    paragraph = next(p for p in README.read_text().split("\n\n") if p.startswith("Runtime dependency:"))
    commands = [" ".join(c.split()) for c in re.findall(r"`orbitrans\s+([^`]+)`", paragraph)]
    assert "cluster" in commands and len(commands) >= 4, commands
    # the stored records each command reads back, and a matrix for cluster
    manifest = ["--manifest", str(DATA / "manifest.ini")]
    for argv in (["transitions"], ["motifs"], ["compare", "--metric", "ota"]):
        assert main([*argv, *manifest, "--out", str(tmp_path / "stored")]) == 0
    for command in commands:
        argv = command.split()
        if argv[0] == "cluster":
            argv += ["--matrix", str(tmp_path / "stored" / "compare_ota.csv")]
        else:
            assert argv[0] == "compare", f"no stored records prepared for {command!r}"
            argv += manifest
        code = ("import sys\nsys.modules.update(numpy=None, dataclasses=None, inspect=None)\n"
                "from orbitrans.cli import main\n"
                f"sys.exit(main({[*argv, '--out', str(tmp_path / 'stored')]!r}))\n")
        # a command that needed one of them would fail on its import, not exit 0
        proc = child("-c", code)
        assert proc.returncode == 0, (command, proc.stderr)
