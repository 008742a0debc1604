"""Fixtures shared by the suites."""

import pytest

from hsikit.classify import svm


@pytest.fixture
def force_cpus(monkeypatch):
    """``force_cpus(n)`` makes the SVM pool see ``n`` CPUs.

    The pool is dropped at each call and at teardown, so the next pool is
    forked after every patch in place and none outlives the test.
    """

    def force(n):
        svm._drop_pool()
        monkeypatch.setattr(svm, "_cpu_count", lambda: n)

    yield force
    svm._drop_pool()
