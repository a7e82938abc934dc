"""Test-suite settings shared by every test module.

Hypothesis runs derandomized and without its example database, so a test
run depends only on the files in the repository: the same examples are
drawn on every run and every checkout, and an input a property once failed
on is kept as an explicit `@example` next to the property, not in the
git-ignored `.hypothesis/` directory.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
