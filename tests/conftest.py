"""Fixtures shared by every test module."""

import pytest

from solenoidlab import cli, thermo, twisted


@pytest.fixture(autouse=True)
def fresh_caches():
    # The grid stencil, the last phase table and the CLI's last solved
    # equilibrium live for the process; emptying them before each test keeps
    # a test from reading a state that an earlier test built, or built under
    # a monkeypatch.
    thermo._stencil.cache_clear()
    twisted._zeta_values.cache_clear()
    cli._solved = None
