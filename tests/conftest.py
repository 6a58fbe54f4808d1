"""Fixtures shared by the test modules."""

import functools

import pytest

from amalgam.k1.engine import build_generic_k1


@pytest.fixture(scope="session")
def builds():
    """``build(steps, bound, seed, max_n_star=0)``: ``build_generic_k1``
    at trunc 6, each run once per test session, so the tests that read
    one build share it, across modules too."""
    @functools.cache
    def build(steps, bound, seed, max_n_star=0):
        return build_generic_k1(steps=steps, bound=bound, trunc=6,
                                seed=seed, max_n_star=max_n_star)
    return build
