"""Shared fixtures."""

import pytest

from ellop import acceptance


@pytest.fixture(scope="session")
def verify_results():
    """acceptance.run_all(0), computed once per test session: the criteria
    tests assert each verdict and the CLI test checks how it is printed."""
    return acceptance.run_all(0)
