"""Fixtures shared by every test module."""

import pytest

from solenoidlab import circle_map, cli, symbolic, thermo, twisted


@pytest.fixture(autouse=True)
def fresh_caches():
    # The coefficient tables, g's term tables, the x = 0 preimage tree, the
    # grid stencil, the last phase table and the CLI's last solved
    # equilibrium live for the process; emptying them before each test keeps
    # a test from reading a state that an earlier test built, or built under
    # a monkeypatch.
    circle_map._TABLES.clear()
    circle_map._TERMS.clear()
    symbolic._zero_memo.cache_clear()
    thermo._stencil.cache_clear()
    twisted._zeta_values.cache_clear()
    cli._solved = None
