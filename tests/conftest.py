"""Fixtures shared by every test module."""

import pytest

from solenoidlab import cli, thermo


@pytest.fixture(autouse=True)
def fresh_caches():
    # The grid stencil and the CLI's last solved equilibrium live for the
    # process; emptying both before each test keeps a test from reading a
    # state that an earlier test solved, or solved under a monkeypatch.
    thermo._stencil.cache_clear()
    cli._solved = None
