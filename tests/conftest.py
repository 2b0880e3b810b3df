"""Fixtures shared across the test tree."""

import pytest

from repro.scenarios import judged_run


@pytest.fixture(scope="session")
def lab_product():
    """``judged_run("lab")`` (seed 0) as ``(record, obs)``.

    The 104-node row takes seconds to build, so every test that only
    reads it shares this one run; a test must not mutate it."""
    return judged_run("lab")
