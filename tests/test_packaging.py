"""The data files motifbench reads at run time ship in its wheel."""

import fnmatch
import os

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "motifbench")


@pytest.mark.parametrize("data_dir", ["specs", "trees"])
def test_every_data_file_matches_a_package_data_pattern(data_dir):
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["motifbench"]
    files = [os.path.relpath(os.path.join(parent, name), PACKAGE).replace(os.sep, "/")
             for parent, _, names in os.walk(os.path.join(PACKAGE, data_dir))
             for name in names]
    assert files
    unshipped = [f for f in files if not any(fnmatch.fnmatchcase(f, p) for p in patterns)]
    assert unshipped == []
