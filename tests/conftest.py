"""Fixtures shared by every test module, and the one hypothesis profile."""

import pytest
from hypothesis import settings

from solenoidlab import circle_map, cli, symbolic, thermo, twisted

# Every property test draws the same cases on every run, with no time limit
# per example and no example database; a test sets only its max_examples.
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def fresh_caches():
    # Every process-lifetime cache of the package (test_solenoid finds them);
    # emptying them before each test keeps a test from reading a state that an
    # earlier test built, or built under a monkeypatch.
    circle_map._TABLES.clear()
    circle_map._TERMS.clear()
    symbolic._zero_memo.cache_clear()
    thermo._stencil.cache_clear()
    twisted._zeta_values.cache_clear()
    cli._solved = None
