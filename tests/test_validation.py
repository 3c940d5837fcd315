"""Working-set guard: every validation check draws in the simulator's blocks."""

import tracemalloc

import pytest

from cogmac import validation

# Every check's traced peak at fast level, after a warm-up run, is at most
# about 1.4 MiB when its draws take blocks of max(1, 2^15 // e) slots; a
# draw of 2000 slots of 256 users held 11.8 MiB.
MAX_TRACED_PEAK = 2 * 2**20


@pytest.mark.parametrize("check_id", validation.CHECK_IDS)
def test_check_traced_peak_stays_within_the_block_rule(check_id):
    # The warm-up run keeps first-use imports and caches out of the peak.
    validation.run_check(check_id, "fast")
    tracemalloc.start()
    try:
        validation.run_check(check_id, "fast")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MAX_TRACED_PEAK, f"{check_id}: traced peak {peak / 2**20:.2f} MiB"
