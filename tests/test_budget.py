"""The package's line budget: the library and CLI stay small."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pdsplit"


def test_the_package_has_at_most_2500_lines():
    files = sorted(SRC.glob("*.py"))
    assert files
    lines = sum(len(path.read_text().splitlines()) for path in files)
    assert lines <= 2500, f"src/pdsplit/*.py has {lines} lines, over the 2,500 budget"
