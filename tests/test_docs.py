"""The README's claims about the package's public names."""

import ast
import re
from pathlib import Path

import orbitrans

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
