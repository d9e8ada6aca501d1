"""Shared fixtures."""

import pytest

from ellop import acceptance, locus3


@pytest.fixture(scope="session")
def verify_results():
    """acceptance.run_all(0), computed once per test session: the criteria
    tests assert each verdict and the CLI test checks how it is printed."""
    return acceptance.run_all(0)


@pytest.fixture
def uncached_constraints():
    """An empty constraints_for cache, before and after the test: a test
    that patches what constraints_for calls must not read a cell that an
    earlier test computed, nor leave one behind."""
    cached = locus3.constraints_for      # the test may patch the name
    cached.cache_clear()
    yield
    cached.cache_clear()
