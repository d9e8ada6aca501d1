"""Shared fixtures."""

import contextlib
import signal

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


@pytest.fixture
def within():
    """within(seconds) is a context manager that raises TimeoutError in its
    block once the block has run longer than seconds."""
    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"took more than {seconds} s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return limit
