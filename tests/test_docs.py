"""The README's claims about the package's public names."""

import re
from pathlib import Path

import orbitrans

README = Path(__file__).resolve().parents[1] / "README.md"


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
