"""The README's library example runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.failed == 0
    assert result.attempted >= 3
