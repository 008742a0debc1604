"""Fixtures shared by the suites."""

import pytest

from hsikit.classify import _pool as pool


@pytest.fixture
def force_cpus(monkeypatch):
    """``force_cpus(n)`` makes the classifiers' pool see ``n`` CPUs.

    The pool is dropped at each call and at teardown, so the next pool is
    forked after every patch in place and none outlives the test.
    """

    def force(n):
        pool._drop_pool()
        monkeypatch.setattr(pool, "_cpu_count", lambda: n)

    yield force
    pool._drop_pool()
