"""Working-set guard: every validation check draws in the simulator's blocks."""

import tracemalloc
import weakref

import pytest

from cogmac import channels, simulator, validation

# Every check's traced peak at fast level, after a warm-up run, is at most
# about 0.95 MiB when its draws take blocks of max(1, 2^15 // e) slots, and
# 1.4 and 1.7 MiB in the growth checks c05 and c07, whose sampler points are
# one block of 20000 slots each; a draw of 2000 slots of 256 users held 11.8 MiB.
# c04 and c06 read 0.75 and 0.50 MiB, set by their brute-force K > 0 points;
# their Rayleigh references are one sampler block of 20000 slots each.
MAX_TRACED_PEAK = 2 * 2**20
# Tighter bounds where no block may outlive its reduction.  c03 reduces each
# block before the next is drawn (the block reader test below): 938 KiB with
# one block of 256 users live, 1705 with two.  c02 and c09 keep only the ratios
# of their one-block KS samples: 537 and 794 KiB, against 771 and 1263 while
# the draw buffer stayed alive.  c08's peak, 771 KiB, is set by part (c); it
# read 1161 while part (a)'s 10^4-slot, M = 16 buffer stayed alive through
# parts (b) and (c).
ONE_BLOCK_PEAK = {
    "ratio_distribution_fit": 0.65 * 2**20,
    "frechet_normalization": 1.2 * 2**20,
    "rab_distribution_facts": 0.9 * 2**20,
    "rab_m2_closed_form": 1.1 * 2**20,
}
BLOCK_READERS = ("frechet_normalization", "rab_distribution_facts")


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
    bound = ONE_BLOCK_PEAK.get(check_id, MAX_TRACED_PEAK)
    assert peak <= bound, f"{check_id}: traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("check_id", BLOCK_READERS)
def test_block_reader_drops_each_block_before_the_next_draw(check_id, monkeypatch):
    # One reader passes the same config to every block it draws.
    last, later_blocks = [None, None], []

    def draw_gains(cfg, rng, size):
        if last[0] is cfg:
            assert last[1]() is None, f"{check_id}: the previous block is live at the next draw"
            later_blocks.append(size)
        g_s, g_sp = channels.draw_gains(cfg, rng, size)
        last[:] = cfg, weakref.ref(g_s.base)
        return g_s, g_sp

    # c03 draws inside the simulator's brute-force block, c08(b) in validation.
    for module in (simulator, validation):
        monkeypatch.setattr(module, "draw_gains", draw_gains)
    assert validation.run_check(check_id, "fast").passed
    assert later_blocks


def test_distribution_checks_see_a_faulty_brute_force_block(monkeypatch):
    # c02, c03 and c09 sample through the simulator's own block, so a slot
    # maximum of gain_s alone, not of gain_s / gain_sp, put in wherever the
    # package binds the block, must turn each red.
    def max_of_gain_s(config, size, rng):
        gain_s, _ = channels.draw_gains(config, rng, size)
        return gain_s.max(axis=1) * config.peak_interference

    for module in (simulator, validation):
        monkeypatch.setattr(module, "_brute_block", max_of_gain_s, raising=False)
    for check_id in ("ratio_distribution_fit", "frechet_normalization", "rab_m2_closed_form"):
        assert not validation.run_check(check_id, "fast").passed, check_id
