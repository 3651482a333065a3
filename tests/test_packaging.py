"""Every data file of the package is shipped with it: the tests run from
``src/``, where a file missing from the wheel would go unnoticed."""

import ast
import re
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _package_data() -> list:
    """The ``exchnet`` globs of ``[tool.setuptools.package-data]``."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[tool.setuptools.package-data]", 1)[1].split("\n[", 1)[0]
    return ast.literal_eval(re.search(r"^exchnet\s*=\s*(\[.*?\])", section, re.M | re.S)[1])


def test_every_data_file_matches_a_package_data_glob():
    package = ROOT / "src" / "exchnet"
    files = [
        p.relative_to(package).as_posix()
        for p in package.rglob("*")
        if p.is_file() and p.suffix not in (".py", ".pyc")
    ]
    globs = _package_data()
    assert "atlas.npy" in files
    assert [f for f in files if not any(fnmatch(f, g) for g in globs)] == []
    # and every glob ships something
    assert [g for g in globs if not any(fnmatch(f, g) for f in files)] == []
