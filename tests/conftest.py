"""Fixtures shared across test files."""

import pytest

from cogmac import validation


@pytest.fixture(scope="session")
def full():
    """``full(check_id)``: the check's full-level result, from one
    ``validation.run_all("full")`` per session, which runs the twelve
    checks concurrently on every usable core.  The acceptance gate and the
    golden validation files both read it."""
    try:
        cache = {r.check_id: r for r in validation.run_all("full")}
    except Exception:
        # Some check raised: each caller reruns its own check alone, so only
        # the faulty check's tests error.
        cache = {}

    def run(check_id):
        if check_id not in cache:
            cache[check_id] = validation.run_check(check_id, "full")
        return cache[check_id]

    return run
