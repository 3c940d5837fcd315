"""Scheduler and Monte-Carlo engine tests."""

import concurrent.futures
import io
import math
import re
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product
from statistics import NormalDist

import numpy as np
import pytest

from cogmac import analytic, simulator, validation
from cogmac.analytic import RatioDistParams, ratio_pdf
from cogmac.channels import draw_gains
from cogmac.simulator import METHODS, NetworkConfig, run_experiment, sweep, write_sweep_csv
from cogmac.validation import N_GROWTH_GRID


def small_cfg(**kw):
    base = dict(n_users=2, m_patterns=1, mode="baseline", trials=200, seed=5)
    base.update(kw)
    return NetworkConfig(**base)


def chunk_sums(cfg, size=500):
    """(sum C, sum C^2, sum best numerator, sum 1/denominator) of chunk 0,
    drawn by brute force."""
    rng = simulator._chunk_rng(cfg, 0)
    return simulator._chunk_sums(cfg, size, rng, "brute")


def chunk_gains(cfg, size=500):
    """Chunk 0's channel gains, drawn again from the chunk's own stream."""
    return draw_gains(cfg, simulator._chunk_rng(cfg, 0), size)


@pytest.fixture
def run_calls(monkeypatch):
    """The ``threads`` of every run_experiment call made through the module."""
    calls = []
    real = simulator.run_experiment

    def counted(cfg, threads=1, method="auto"):
        calls.append(threads)
        return real(cfg, threads=threads, method=method)

    monkeypatch.setattr(simulator, "run_experiment", counted)
    return calls


class TestConfigValidation:
    def test_baseline_forces_single_pattern(self):
        with pytest.raises(ValueError):
            NetworkConfig(mode="baseline", m_patterns=2)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_users=0),
            dict(trials=0),
            dict(k_factor=-1.0),
            dict(mean_secondary_power=0.0),
            dict(peak_interference=0.0),
            dict(mode="duplex"),
            dict(seed=-1),
            dict(primary_power=-0.1),
            dict(k_factor=10**400),
            dict(mean_secondary_power=-(10**400)),
            dict(max_power_cap=10**400),
        ],
    )
    def test_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            NetworkConfig(**kw)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("n_users", 8.5),
            ("n_users", 8.0),
            ("n_users", True),
            ("n_users", math.inf),
            ("m_patterns", 2.5),
            ("m_patterns", np.True_),
            ("trials", 150.7),
            ("trials", "200"),
            ("seed", 3.9),
            ("seed", True),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        kw = dict(n_users=8, m_patterns=2, mode="rab", trials=200, seed=1)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            NetworkConfig(**{**kw, name: value})

    @pytest.mark.parametrize("name,value", [
        (name, value) for name, _ in simulator._REAL_FIELDS
        for value in (True, np.True_, "1", None, 1j) if (name, value) != ("max_power_cap", None)
    ])
    def test_real_fields_must_be_real_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            NetworkConfig(**{name: value})

    @pytest.mark.parametrize("name,value,message", [
        ("k_factor", -1, "k_factor must be finite and >= 0, got -1"),
        ("mean_secondary_power", 0, "mean_secondary_power must be finite and > 0, got 0"),
        ("mean_interference_power", math.inf,
         "mean_interference_power must be finite and > 0, got inf"),
        ("peak_interference", -2.5, "peak_interference must be finite and > 0, got -2.5"),
        ("primary_power", math.nan, "primary_power must be finite and >= 0, got nan"),
        ("max_power_cap", 0, "max_power_cap must be finite and > 0, got 0"),
    ])
    def test_real_field_bounds(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkConfig(**{name: value})

    def test_real_fields_become_floats(self):
        ints = dict(k_factor=2, mean_secondary_power=np.int64(3), mean_interference_power=1,
                    peak_interference=np.float32(0.5), primary_power=0, max_power_cap=4)
        cfg = small_cfg(trials=300, **ints)
        assert all(type(getattr(cfg, name)) is float for name, _ in simulator._REAL_FIELDS)
        floats = small_cfg(trials=300, **{k: float(v) for k, v in ints.items()})
        assert cfg == floats
        texts = []
        for c in (cfg, floats):
            buf = io.StringIO()
            write_sweep_csv([run_experiment(c)], buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("k", [0.0, 2.0])
    def test_power_ratio_that_overflows_the_quantile_fails_fast(self, k):
        # rho = 1e-310 is finite and > 0, but (K+1) N 2^53 / rho is not: the
        # sampler's largest scheduled ratio would be inf.
        with pytest.raises(ValueError, match=f"largest scheduled ratio.* n_users = 16, "
                           f"m_patterns = 2, k_factor = {k}, .*mean_secondary_power = 1e-310"):
            NetworkConfig(n_users=16, m_patterns=2, k_factor=k, mean_interference_power=1e-310)

    def test_peak_interference_that_overflows_the_numerator_fails_fast(self):
        # rho = 1e-10 keeps the scheduled ratio finite, but Q_p = 1e300
        # times it is not: the sampler's best numerator would be inf.
        with pytest.raises(ValueError, match="numerator.* peak_interference = 1e\\+300, "
                           "max_power_cap = None"):
            NetworkConfig(n_users=16, m_patterns=2, k_factor=2.0, peak_interference=1e300,
                          mean_interference_power=1e-10)

    def test_n_users_past_the_float_range_fails_fast(self):
        # rho = 1e300 keeps the scheduled ratio below 1, so the bound is N's
        # own: past the float range the sampler's log(U) / N would raise
        # OverflowError.
        with pytest.raises(ValueError, match="N, or .* the float range at n_users = about 1e400,"):
            NetworkConfig(mean_interference_power=1e300, n_users=10**400, trials=100,
                          mode="baseline", m_patterns=1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_power_cap_bounds_a_huge_peak_interference(self, m):
        # The cap, not Q_p / gain_sp, sets every transmit power, so a
        # smaller Q_p that the cap still binds gives the same run.
        cfg = NetworkConfig(n_users=16, m_patterns=m, mode="rab" if m > 1 else "baseline",
                            k_factor=2.0, peak_interference=1e300, max_power_cap=1e9,
                            trials=2000, seed=3)
        est = run_experiment(cfg)
        assert all(math.isfinite(x) and x > 0.0
                   for x in (est.mean_nats, est.stderr_nats, est.jensen_bound_nats))
        same = run_experiment(replace(cfg, peak_interference=1e100))
        assert (est.mean_nats, est.stderr_nats) == (same.mean_nats, same.stderr_nats)

    @pytest.mark.parametrize("k", [0.0, 2.0])
    @pytest.mark.parametrize("rho", [1e-12, 1e12])
    def test_extreme_finite_power_ratios_run(self, rho, k):
        cfg = NetworkConfig(n_users=16, m_patterns=2, k_factor=k, mean_interference_power=rho,
                            trials=2000, seed=3)
        for method in METHODS:
            est = run_experiment(cfg, method=method)
            assert all(math.isfinite(x) and x > 0.0
                       for x in (est.mean_nats, est.stderr_nats, est.jensen_bound_nats))

    def test_numpy_integer_counts_become_int(self):
        cfg = NetworkConfig(n_users=np.int64(8), m_patterns=np.uint8(2), trials=np.int32(200),
                            seed=np.uint64(2**64 - 1))
        assert (cfg.n_users, cfg.m_patterns, cfg.trials, cfg.seed) == (8, 2, 200, 2**64 - 1)
        assert all(type(v) is int for v in (cfg.n_users, cfg.m_patterns, cfg.trials, cfg.seed))


class TestSlotSinr:
    """Each slot schedules the user with the best SINR gain_s Q_p / gain_sp."""

    def test_unit_case(self, monkeypatch):
        def unit_gains(config, rng, size):
            return np.ones((size, config.n_users)), np.ones((size, config.n_users))

        monkeypatch.setattr(simulator, "draw_gains", unit_gains)
        cap, capsq, num, inv = chunk_sums(small_cfg(n_users=1), size=10)
        assert num == 10.0 and inv == 10.0
        assert cap == pytest.approx(10.0 * math.log(2.0))
        assert capsq == pytest.approx(10.0 * math.log(2.0) ** 2)

    def test_qp_scaling_preserves_argmax(self):
        cfg1 = small_cfg(n_users=8, peak_interference=1.0)
        cfg2 = small_cfg(n_users=8, peak_interference=7.5)
        s1, s2 = chunk_sums(cfg1), chunk_sums(cfg2)
        assert s2[2] == pytest.approx(7.5 * s1[2], rel=1e-12)
        g_s, g_sp = chunk_gains(cfg1)
        best = (g_s / g_sp).max(axis=1)
        assert s2[0] == pytest.approx(np.sum(np.log1p(7.5 * best)), rel=1e-12)

    def test_argmax_matches_ratio_oracle(self):
        cfg = small_cfg(n_users=2)
        g_s, g_sp = chunk_gains(cfg)
        best = (g_s / g_sp).max(axis=1)
        cap, capsq, num, inv = chunk_sums(cfg)
        assert num == pytest.approx(np.sum(best), rel=1e-12)
        assert cap == pytest.approx(np.sum(np.log1p(best)), rel=1e-12)
        assert capsq == pytest.approx(np.sum(np.log1p(best) ** 2), rel=1e-12)
        assert inv == 500.0

    def test_common_denominator(self):
        # Primary interference 1 + P gamma_ps is common to all users of a
        # slot; gamma_ps is drawn after the gains from the same stream.
        cfg = small_cfg(n_users=4, primary_power=1.5)
        rng = simulator._chunk_rng(cfg, 0)
        g_s, g_sp = draw_gains(cfg, rng, 500)
        inv_denom = 1.0 / (1.0 + 1.5 * rng.standard_exponential(500))
        best = (g_s / g_sp).max(axis=1)
        cap, _, num, inv = chunk_sums(cfg)
        assert inv == pytest.approx(np.sum(inv_denom), rel=1e-12)
        assert num == pytest.approx(np.sum(best), rel=1e-12)
        assert cap == pytest.approx(np.sum(np.log1p(best * inv_denom)), rel=1e-12)


class TestChunkStreams:
    def test_chunk_rng_is_sfc64_from_a_spawned_seed_sequence(self):
        cfg = small_cfg(seed=2**64 - 1)
        for c in (0, 1, 7):
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(c,))
            expected = np.random.Generator(np.random.SFC64(seq)).random(100)
            assert np.array_equal(simulator._chunk_rng(cfg, c).random(100), expected)

    def test_distinct_chunks_draw_distinct_streams(self):
        cfg = small_cfg(seed=3)
        draws = [simulator._chunk_rng(cfg, c).random(100) for c in range(4)]
        draws.append(simulator._chunk_rng(replace(cfg, seed=4), 0).random(100))
        assert len({d.tobytes() for d in draws}) == len(draws)


class TestBlocks:
    """A chunk is drawn and reduced in blocks of whole slots, in block order."""

    @pytest.mark.parametrize("primary", [{}, dict(primary_power=1.0)])
    def test_chunk_replays_block_by_block(self, primary):
        cfg = NetworkConfig(n_users=300, m_patterns=2, mode="rab", k_factor=3.0,
                            trials=1000, seed=7, **primary)
        rows = simulator._BLOCK_ELEMENTS // (300 * 2)
        size = 3 * rows + rows // 2
        rng = simulator._chunk_rng(cfg, 0)
        expected = np.zeros(4)
        for start in range(0, size, rows):
            b = min(rows, size - start)
            g_s, g_sp = draw_gains(cfg, rng, b)
            if primary:
                inv_denom = 1.0 / (1.0 + rng.standard_exponential(b))
            else:
                inv_denom = np.ones(b)
            best = (g_s / g_sp).max(axis=1)
            caps = np.log1p(best * inv_denom)
            expected += [np.sum(caps), np.sum(caps**2), np.sum(best), np.sum(inv_denom)]
        assert size // rows >= 3 and size % rows
        assert chunk_sums(cfg, size) == pytest.approx(tuple(expected), rel=1e-12)

    @pytest.mark.parametrize("method", ["brute", "auto"])
    def test_power_off_sums_equal_the_ones_formula(self, method):
        # Without primary power every denominator is 1: the chunk's sums are
        # those of an all-ones 1/denominator array, bit for bit.
        cfg = NetworkConfig(n_users=300, m_patterns=2, mode="rab", k_factor=3.0,
                            trials=1000, seed=7)
        block, _, rows = simulator._layout(cfg, method)
        size = 3 * rows + rows // 2
        rng = simulator._chunk_rng(cfg, 0)
        expected = np.zeros(4)
        for start in range(0, size, rows):
            best = block(cfg, min(rows, size - start), rng)
            inv_denom = np.ones(best.size)
            caps = np.log1p(best * inv_denom)
            expected[:3] += (np.sum(caps), np.sum(caps * caps), np.sum(best))
            expected[3] += np.sum(inv_denom)
        got = simulator._chunk_sums(cfg, size, simulator._chunk_rng(cfg, 0), method)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [1, 4])
    def test_full_chunk_working_set_is_bounded(self, m):
        cfg = NetworkConfig(n_users=512, m_patterns=m, mode="rab" if m > 1 else "baseline",
                            k_factor=10.0, trials=10**4, seed=3)
        size = simulator._chunk_size(cfg)
        assert size * 512 * m == simulator._CHUNK_ELEMENTS
        tracemalloc.start()
        try:
            chunk_sums(cfg, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestRunSlot:
    def test_single_user_always_selected(self):
        cfg = small_cfg(n_users=1, peak_interference=3.0)
        g_s, g_sp = chunk_gains(cfg)
        assert chunk_sums(cfg)[2] == pytest.approx(np.sum(3.0 * g_s[:, 0] / g_sp[:, 0]), rel=1e-12)

    def test_peak_interference_identity(self):
        # Power Q_p / gain_sp puts exactly Q_p at the primary receiver; a
        # binding power cap can only lower it.
        for mode, m in [("baseline", 1), ("rab", 2), ("rab", 4)]:
            cfg = small_cfg(n_users=4, m_patterns=m, mode=mode, k_factor=3.0)
            g_s, g_sp = chunk_gains(cfg)
            qp = cfg.peak_interference
            cap = float(np.median(qp / g_sp))
            uncapped, capped = qp / g_sp, np.minimum(qp / g_sp, cap)
            assert np.allclose(uncapped * g_sp, qp, rtol=1e-12, atol=0.0)
            assert np.all(capped * g_sp <= qp * (1.0 + 1e-12))
            for config, power in [(cfg, uncapped), (replace(cfg, max_power_cap=cap), capped)]:
                best = (g_s * power).max(axis=1)
                assert chunk_sums(config)[2] == pytest.approx(np.sum(best), rel=1e-12)

    def test_selection_symmetry(self):
        # Two statistically identical users are each scheduled half the time.
        g_s, g_sp = chunk_gains(small_cfg(n_users=2), size=10**4)
        wins = np.argmax(g_s / g_sp, axis=1).sum()
        assert abs(wins / 10**4 - 0.5) < 0.015


class TestErgodicCapacity:
    def test_single_user_quadrature_oracle(self):
        # E log(1 + z) for z a ratio of unit exponentials is exactly 1 nat.
        integrate = pytest.importorskip("scipy.integrate")
        p = RatioDistParams(0.0, 1.0)
        oracle, _ = integrate.quad(lambda z: math.log1p(z) * ratio_pdf(z, p), 0.0, np.inf,
                                   limit=200)
        assert oracle == pytest.approx(1.0, abs=1e-9)
        cfg = NetworkConfig(n_users=1, m_patterns=1, mode="baseline", trials=10**5, seed=11)
        est = run_experiment(cfg)
        assert abs(est.mean_nats - oracle) < 3.0 * est.stderr_nats

    def test_rayleigh_capacity_is_the_harmonic_number(self):
        # N Rayleigh users at unit mean powers, Q_p = 1 and primary power off:
        # the capacity int_0^inf (1 - (t/(1+t))^N)/(1+t) dt is, with
        # u = t/(1+t), int_0^1 (1 - u^N)/(1 - u) du = H_N = sum_{k <= N} 1/k.
        # validate's Rayleigh references (c04, c06) are such points at N = 203,
        # 278 and 806.  Both methods at each N and seed; |z| within a Bonferroni
        # bound at a family level of 1e-3.  The sampler points of one seed
        # share their uniforms (one per slot, whatever N), so their z's are
        # correlated; Bonferroni needs no independence.
        h = {n: float(sum(Fraction(1, k) for k in range(1, n + 1))) for n in (1, 8, 203, 278, 806)}
        cases = list(product(h, (31, 32, 33), METHODS))
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(cases)))
        z = {}
        for n, seed, method in cases:
            cfg = NetworkConfig(n_users=n, m_patterns=1, mode="baseline", trials=20_000,
                                seed=seed)
            est = run_experiment(cfg, method=method)
            z[n, seed, method] = (est.mean_nats - h[n]) / est.stderr_nats
        worst = max(z, key=lambda case: abs(z[case]))
        assert abs(z[worst]) <= bound, f"(N, seed, method) = {worst}: z = {z[worst]:.2f}"
        for n, h_n in h.items():  # the value validate prints beside each reference
            assert validation._rayleigh_capacity(n) == pytest.approx(h_n, rel=1e-15, abs=0.0)

    def test_primary_interference_quadrature_oracle(self):
        # One user, K = 0: E log(1 + c z) = c log(c) / (c - 1) for z a ratio of
        # unit exponentials, with c = 1 / (1 + P gamma_ps) and gamma_ps ~ Exp(1).
        integrate = pytest.importorskip("scipy.integrate")
        def h(g):
            c = 1.0 / (1.0 + 2.0 * g)
            return c * math.log(c) / (c - 1.0) if g > 0.0 else 1.0

        oracle, _ = integrate.quad(lambda g: h(g) * math.exp(-g), 0.0, np.inf, limit=200)
        cfg = NetworkConfig(n_users=1, m_patterns=1, mode="baseline", trials=10**5, seed=21,
                            primary_power=2.0)
        est = run_experiment(cfg)
        assert est.mean_nats < 0.9
        assert abs(est.mean_nats - oracle) < 3.0 * est.stderr_nats

    def test_monotone_in_users(self):
        est8 = run_experiment(
            NetworkConfig(n_users=8, m_patterns=1, mode="baseline", trials=2 * 10**4, seed=12)
        )
        est64 = run_experiment(
            NetworkConfig(n_users=64, m_patterns=1, mode="baseline", trials=2 * 10**4, seed=12)
        )
        margin = 3.0 * math.hypot(est8.stderr_nats, est64.stderr_nats)
        assert est64.mean_nats > est8.mean_nats + margin

    def test_los_interference_hurts_baseline(self):
        k0 = run_experiment(
            NetworkConfig(n_users=200, m_patterns=1, mode="baseline", k_factor=0.0,
                          trials=2 * 10**4, seed=13)
        )
        k10 = run_experiment(
            NetworkConfig(n_users=200, m_patterns=1, mode="baseline", k_factor=10.0,
                          trials=2 * 10**4, seed=13)
        )
        assert k10.mean_nats < k0.mean_nats

    def test_seed_determinism_and_threads(self):
        cfg = NetworkConfig(n_users=16, m_patterns=2, mode="rab", k_factor=2.0,
                            trials=5000, seed=14)
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=1)
        c = run_experiment(cfg, threads=4)
        assert a == b == c

    def test_mode_reduction_single_pattern(self):
        # RAB with one pattern only rotates phases: capacity matches baseline.
        base = run_experiment(
            NetworkConfig(n_users=8, m_patterns=1, mode="baseline", k_factor=2.0,
                          trials=4 * 10**4, seed=15)
        )
        rab1 = run_experiment(
            NetworkConfig(n_users=8, m_patterns=1, mode="rab", k_factor=2.0,
                          trials=4 * 10**4, seed=16)
        )
        margin = 3.0 * math.hypot(base.stderr_nats, rab1.stderr_nats)
        assert abs(base.mean_nats - rab1.mean_nats) < margin

    def test_jensen_bound_dominates(self):
        cfg = NetworkConfig(n_users=32, m_patterns=1, mode="baseline", trials=10**4, seed=17)
        est = run_experiment(cfg)
        assert est.jensen_bound_nats >= est.mean_nats

    def test_trials_guard(self):
        with pytest.raises(ValueError, match="trials must be an integer >= 100, got 99"):
            small_cfg(trials=99)
        for threads in (0, 1.5, True):
            with pytest.raises(ValueError, match="^threads must be an integer >= 1, got "):
                run_experiment(small_cfg(trials=100), threads=threads)

    def test_power_cap_reduces_capacity(self):
        base = run_experiment(
            NetworkConfig(n_users=8, m_patterns=1, mode="baseline", trials=10**4, seed=18)
        )
        capped = run_experiment(
            NetworkConfig(n_users=8, m_patterns=1, mode="baseline", trials=10**4, seed=18,
                          max_power_cap=1.0)
        )
        assert capped.mean_nats < base.mean_nats


class TestGrowthGrid:
    """An N grid swept at the default method, as the growth checks draw
    theirs: every point is its own run from the template's seed, so the
    order-statistic points share their uniforms slot for slot."""

    @pytest.mark.parametrize("kw", [
        dict(n_users=64, k_factor=10.0, trials=3000),
        dict(n_users=40, m_patterns=2, mode="rab", k_factor=10.0, trials=2000,
             primary_power=1.0),
        dict(n_users=24, m_patterns=3, mode="rab", k_factor=2.0, trials=700,
             max_power_cap=1.5),
        dict(n_users=8, m_patterns=2, mode="rab", k_factor=0.0, trials=500),
    ])
    def test_points_are_their_own_runs(self, kw):
        cfg = small_cfg(**kw)
        n = cfg.n_users
        configs = [replace(cfg, n_users=m) for m in (1, n // 4, n // 2, n)]
        estimates = sweep(configs)
        assert [e.config for e in estimates] == configs
        assert estimates == [run_experiment(e.config) for e in estimates]

    def test_points_are_their_own_runs_across_chunks(self, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK_ELEMENTS", 1 << 12)
        cfg = small_cfg(n_users=64, m_patterns=2, mode="rab", k_factor=10.0, trials=9000)
        assert simulator._layout(cfg, "auto")[1] * 2 < cfg.trials  # three chunks
        estimates = sweep([replace(cfg, n_users=n) for n in (8, 64)])
        assert estimates == [run_experiment(e.config) for e in estimates]

    @pytest.mark.parametrize("m", [1, 2])
    def test_each_point_matches_brute_force(self, m):
        # Against independent brute-force runs (another seed) at each N:
        # z = 4 per comparison, eight comparisons.
        cfg = NetworkConfig(n_users=128, m_patterns=m, mode="baseline" if m == 1 else "rab",
                            k_factor=10.0, trials=4000, seed=11)
        for est in sweep([replace(cfg, n_users=n) for n in (2, 8, 32, 128)]):
            assert simulator._layout(est.config, "auto")[0] is simulator._quantile_block
            alone = run_experiment(replace(est.config, seed=12), method="brute")
            spread = math.hypot(est.stderr_nats, alone.stderr_nats)
            assert abs(est.mean_nats - alone.mean_nats) <= 4.0 * spread, est.config

    @pytest.mark.parametrize("m,k,primary", [
        (1, 0.0, {}),
        (1, 10.0, dict(primary_power=1.0)),
        (2, 10.0, {}),
        (3, 10.0, dict(primary_power=1.0)),
    ], ids=["rayleigh", "m1-primary", "m2", "m3-primary"])
    def test_sampler_slots_grow_with_n(self, m, k, primary):
        # Common random numbers: at every N the sampler reads one uniform per
        # slot in the same blocks, and the scheduled maximum's quantile rises
        # with N, so each slot's SINR is nondecreasing along the growth grid.
        prev = None
        for n in N_GROWTH_GRID:
            cfg = NetworkConfig(n_users=n, m_patterns=m, mode="baseline" if m == 1 else "rab",
                                k_factor=k, **primary)
            block, _, rows = simulator._layout(cfg, "auto")
            assert block is simulator._quantile_block and rows == simulator._block_slots(1)
            rng = simulator._chunk_rng(cfg, 0)
            sinrs = []
            for start in range(0, 2 * rows + rows // 3, rows):
                best_num = block(cfg, min(rows, 2 * rows + rows // 3 - start), rng)
                inv_denom = simulator._inv_denom(cfg, best_num.size, rng)
                sinrs.append(best_num if inv_denom is None else best_num * inv_denom)
            sinrs = np.concatenate(sinrs)
            if prev is not None:
                assert np.all(sinrs >= prev), n
            prev = sinrs


class TestSweep:
    def test_singleton_matches_direct(self):
        cfg = small_cfg(trials=2000, n_users=4)
        estimates = sweep([cfg])
        assert len(estimates) == 1
        direct = run_experiment(cfg)
        assert estimates[0] == direct
        assert estimates[0].config == cfg == direct.config

    def test_points_run_in_the_given_order(self):
        # Any list of configs, in no grid order: each estimate is its own
        # config's run, in the list's order.
        cfg = small_cfg(trials=500)
        configs = [replace(cfg, mode="rab", m_patterns=3, n_users=4, k_factor=2.0),
                   replace(cfg, n_users=8), cfg,
                   replace(cfg, mode="rab", m_patterns=2, n_users=2, seed=9)]
        estimates = sweep(configs)
        assert [e.config for e in estimates] == configs
        assert estimates == [run_experiment(c) for c in configs]
        assert sweep([]) == []

    def test_thread_count_invariance(self, run_calls):
        # Brute force: the RAB M=3, K=2, N=512 point spans four chunks.
        cfg = small_cfg(trials=5000)
        configs = [replace(cfg, mode=mode, m_patterns=m, k_factor=2.0, n_users=n)
                   for mode, m in (("baseline", 1), ("rab", 3)) for n in (2, 512)]
        assert simulator._chunk_size(configs[-1]) < cfg.trials
        runs = {}
        for threads in (1, 2, 4):
            run_calls.clear()
            seen = []
            runs[threads] = sweep(configs, threads=threads, progress=seen.append,
                                  method="brute")
            assert seen == runs[threads]
            assert run_calls == [threads] * 4
        assert len(runs[1]) == 4
        assert runs[1] == runs[2] == runs[4]

    def test_single_point_keeps_chunk_threads(self, run_calls):
        # Brute force: 128 users x 4 patterns per slot, three chunks.
        cfg = small_cfg(n_users=128, m_patterns=4, mode="rab", k_factor=2.0, trials=9000)
        assert 2 * simulator._chunk_size(cfg) < cfg.trials  # three chunks
        (est,) = sweep([cfg], threads=3, method="brute")
        assert run_calls == [3]
        assert est.config == cfg
        assert est == run_experiment(cfg, threads=1, method="brute")

    def test_single_chunk_points_build_no_thread_pool(self, monkeypatch):
        # The pool class is looked up in concurrent.futures when a pool is built.
        pools = []
        real = concurrent.futures.ThreadPoolExecutor

        def counted(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
        cfg = small_cfg(trials=500)
        configs = [replace(cfg, mode=mode, m_patterns=m, k_factor=k, n_users=n)
                   for mode, m in (("baseline", 1), ("rab", 3)) for k in (0.0, 2.0)
                   for n in (2, 8)]
        points = sweep(configs, threads=4)
        assert len(points) == 8 and pools == []

    def test_wall_time_is_each_points_own(self, monkeypatch):
        # The points run one after another in list order; each progress
        # callback reports the time its own point took.
        sleeps = {2: 0.25, 3: 0.05, 4: 0.05, 5: 0.1}
        real = simulator._chunk_sums

        def slow(cfg, size, rng, method):
            time.sleep(sleeps[cfg.n_users])
            return real(cfg, size, rng, method)

        monkeypatch.setattr(simulator, "_chunk_sums", slow)
        seen = []
        estimates = sweep([small_cfg(n_users=n) for n in sleeps], threads=2,
                          progress=lambda e: seen.append((e.config.n_users, e.wall_s)))
        assert [n for n, _ in seen] == list(sleeps)
        for n, wall_s in seen:
            assert sleeps[n] <= wall_s < sleeps[n] + 1.0, (n, wall_s)
        # The time is a measurement, not part of the result.
        assert estimates[0] == replace(estimates[0], wall_s=0.0)

    def test_rab_k0_rows_equal_baseline_rows(self):
        # At K = 0 the weights do not matter: same law, same uniforms.
        cfg = small_cfg(trials=3000)
        estimates = sweep([replace(cfg, mode=mode, m_patterns=m, n_users=n)
                           for mode, m in (("baseline", 1), ("rab", 2), ("rab", 4))
                           for n in (8, 64)])

        def numbers(e):
            return (e.mean_nats, e.stderr_nats, e.jensen_bound_nats)

        base = {e.config.n_users: numbers(e) for e in estimates if e.config.mode == "baseline"}
        rab = [e for e in estimates if e.config.mode == "rab"]
        assert len(rab) == 4
        assert all(numbers(e) == base[e.config.n_users] for e in rab)


def slot_sinrs(block, cfg, size, seed):
    """Per-slot scheduled SINR best_num / (1 + P gamma_ps) of ``size`` slots,
    drawn by a simulator block sampler in blocks of 2^15 elements, each
    block's primary-to-secondary powers after its numerators."""
    rng = np.random.default_rng(seed)
    rows = max(1, simulator._BLOCK_ELEMENTS // cfg.n_users)
    out = []
    for start in range(0, size, rows):
        best_num = block(cfg, min(rows, size - start), rng)
        inv_denom = simulator._inv_denom(cfg, best_num.size, rng)  # None: primary power off
        out.append(best_num if inv_denom is None else best_num * inv_denom)
    return np.concatenate(out)


QUANTILE_N = (1, 8, 512)
QUANTILE_K = (0.0, 2.0, 10.0, 100.0)
# RAB M >= 2 at K > 0; at K = 0 the law is the Rayleigh one tested above.
QUANTILE_RAB_K = (2.0, 10.0, 100.0)
PRIMARY = ({}, dict(primary_power=1.0))
# RAB M >= 3 through the table: (M, N, K), each (M, N) at every
# QUANTILE_RAB_K, and two at the top of the certified range, K = 1000.
QUANTILE_TABLE_MNK = ([(m, n, k) for m in (3, 4) for n in QUANTILE_N for k in QUANTILE_RAB_K]
                      + [(8, n, k) for n in (1, 8, 64) for k in QUANTILE_RAB_K]
                      + [(3, 64, 1000.0), (8, 64, 1000.0)])
# One comparison per case; 1% is the level of the whole family, every
# pattern count (Bonferroni).
QUANTILE_CASES = (len(QUANTILE_N) * (len(QUANTILE_K) + len(QUANTILE_RAB_K))
                  + len(QUANTILE_TABLE_MNK)) * len(PRIMARY)
QUANTILE_ALPHA = 0.01 / QUANTILE_CASES


def two_sample_ks_p(m, n, k, primary):
    """KS p-value of 10k scheduled SINRs, order-statistic sampler against
    brute force, at gamma_s = 2.5, gamma_sp = 0.4, Q_p = 1.7; seeds fixed
    per case."""
    ks_2samp = pytest.importorskip("scipy.stats").ks_2samp
    cfg = NetworkConfig(n_users=n, m_patterns=m, mode="baseline" if m == 1 else "rab",
                        k_factor=k, mean_secondary_power=2.5, mean_interference_power=0.4,
                        peak_interference=1.7, **primary)
    seed = 10_000 * n + 10 * int(k) + len(primary) + 2 * 10**7 * (m - 1)
    fast = slot_sinrs(simulator._quantile_block, cfg, 10_000, seed)
    brute = slot_sinrs(simulator._brute_block, cfg, 10_000, 10**7 + seed)
    return ks_2samp(fast, brute).pvalue


class TestQuantileSampler:
    """No power cap: the scheduled maximum drawn from one uniform, through
    the Rayleigh form (K = 0) or RatioDistParams.isf: the closed form
    (M = 1), the Bessel law (M = 2), or the table of Kluyver's law (M >= 3),
    each up to K = 1000."""

    @pytest.mark.parametrize("primary", PRIMARY, ids=["no-primary", "primary"])
    @pytest.mark.parametrize("k", QUANTILE_K)
    @pytest.mark.parametrize("n", QUANTILE_N)
    def test_two_sample_ks_against_brute_force(self, n, k, primary):
        p = two_sample_ks_p(1, n, k, primary)
        assert p >= QUANTILE_ALPHA, f"two-sample KS p = {p:.2e}"

    @pytest.mark.parametrize("primary", PRIMARY, ids=["no-primary", "primary"])
    @pytest.mark.parametrize("k", QUANTILE_RAB_K)
    @pytest.mark.parametrize("n", QUANTILE_N)
    def test_rab_m2_two_sample_ks_against_brute_force(self, n, k, primary):
        p = two_sample_ks_p(2, n, k, primary)
        assert p >= QUANTILE_ALPHA, f"two-sample KS p = {p:.2e}"

    @pytest.mark.parametrize("primary", PRIMARY, ids=["no-primary", "primary"])
    @pytest.mark.parametrize("m,n,k", QUANTILE_TABLE_MNK)
    def test_rab_table_two_sample_ks_against_brute_force(self, m, n, k, primary):
        p = two_sample_ks_p(m, n, k, primary)
        assert p >= QUANTILE_ALPHA, f"two-sample KS p = {p:.2e}"

    @pytest.mark.parametrize("k", [0.0, 10.0, 100.0, 1000.0])
    def test_extreme_uniforms_give_finite_ratio(self, k):
        for n, m in product((1, 512), (1, 2, 3, 4)):
            cfg = NetworkConfig(n_users=n, m_patterns=m, mode="baseline" if m == 1 else "rab",
                                k_factor=k)
            u = np.array([0.0, 1.0 - 2.0**-53])  # _max_ratio overwrites its uniforms
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                z = simulator._max_ratio(cfg, u)
            assert z[0] == 0.0
            assert np.isfinite(z[1]) and z[1] > 0.0

    @pytest.mark.parametrize(
        "m,k",
        [(m, k) for m in (1, 2) for k in (1e4, 1e12, 1e200, 1e308)]
        + [(3, math.nextafter(1000.0, math.inf)), (3, 1e4)],
    )
    def test_large_k_takes_brute_force(self, m, k):
        # 16 users x 3 patterns reach the table's crossover in N*M.
        cfg = NetworkConfig(n_users=8 if m <= 2 else 16, m_patterns=m,
                            mode="baseline" if m == 1 else "rab", k_factor=k, trials=2000, seed=3)
        auto = run_experiment(cfg)
        assert auto == run_experiment(cfg, method="brute")
        assert math.isfinite(auto.mean_nats) and math.isfinite(auto.stderr_nats)
        assert math.isfinite(auto.jensen_bound_nats)

    def test_thread_invariance_across_chunks(self):
        for mode, m in (("baseline", 1), ("rab", 2)):
            cfg = NetworkConfig(n_users=64, m_patterns=m, mode=mode, k_factor=2.0,
                                trials=simulator._CHUNK_ELEMENTS + 3000, seed=23,
                                primary_power=1.0)
            runs = [run_experiment(cfg, threads=t) for t in (1, 2, 3)]
            assert runs[0] == runs[1] == runs[2]

    def test_table_point_thread_invariance_across_chunks(self, monkeypatch):
        # Chunks of 4096 slots, so that 6000 trials span two of them; each
        # run starts without a table, so two chunk threads may build it at once.
        monkeypatch.setattr(simulator, "_CHUNK_ELEMENTS", 1 << 12)
        cfg = NetworkConfig(n_users=64, m_patterns=3, k_factor=10.0, trials=6000, seed=29,
                            primary_power=1.0)
        assert simulator._layout(cfg, "auto")[:2] == (simulator._quantile_block, 4096)
        runs = []
        for threads in (1, 2):
            analytic._rab_law.cache_clear()
            runs.append(run_experiment(cfg, threads=threads))
        assert runs[0] == runs[1]

    def test_table_block_working_set_is_bounded(self):
        # Building the K = 100, M = 4 table (one c-node at a time) and
        # drawing two full sampler blocks stays within a few MB.
        cfg = NetworkConfig(n_users=512, m_patterns=4, mode="rab", k_factor=100.0, seed=3)
        analytic._rab_law.cache_clear()
        tracemalloc.start()
        try:
            simulator._chunk_sums(cfg, 2 * simulator._BLOCK_ELEMENTS,
                                  simulator._chunk_rng(cfg, 0), "auto")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert analytic._rab_law.cache_info().currsize == 1
        assert peak <= 8 * 2**20

    def test_rab_block_working_set_is_bounded(self):
        # The Bessel sums behind the M = 2 isf keep a few block-sized arrays,
        # not a 64-term table per block (16 MiB).
        cfg = NetworkConfig(n_users=8, m_patterns=2, mode="rab", k_factor=100.0, seed=3)
        tracemalloc.start()
        try:
            simulator._chunk_sums(cfg, 2 * simulator._BLOCK_ELEMENTS,
                                  simulator._chunk_rng(cfg, 0), "auto")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("m,n,top", [(1, 8, 1000.0), (2, 8, 1000.0), (3, 16, 1000.0),
                                         (4, 12, 1000.0)])
    def test_sampler_range_is_the_range_isf_accepts(self, m, n, top):
        # analytic alone knows the K that isf is certified for, one K for
        # every M; the layout asks it.  N*M >= 48, so M >= 3 clears the
        # table's crossover.
        above = math.nextafter(top, math.inf)
        assert math.isfinite(RatioDistParams(top, 1.0, m).isf(0.5))
        with pytest.raises(ValueError, match=f"k_factor <= {top:g} at m_patterns = {m}"):
            RatioDistParams(above, 1.0, m).isf(0.5)
        cfg = NetworkConfig(n_users=n, m_patterns=m, mode="baseline" if m == 1 else "rab")
        blocks = [simulator._layout(replace(cfg, k_factor=k), "auto")[0] for k in (top, above)]
        assert blocks == [simulator._quantile_block, simulator._brute_block]

    def test_path_selection(self, monkeypatch):
        used = []
        for name in ("_quantile_block", "_brute_block"):
            real = getattr(simulator, name)

            def spy(cfg, size, rng, real=real, name=name):
                used.append(name)
                return real(cfg, size, rng)

            monkeypatch.setattr(simulator, name, spy)

        def path(method="auto", **kw):
            used.clear()
            run_experiment(small_cfg(**{"n_users": 4, **kw}), method=method)
            assert len(set(used)) == 1
            return used[0]

        rab = dict(mode="rab", k_factor=3.0)
        assert path() == "_quantile_block"
        assert path(mode="rab") == "_quantile_block"
        assert path(m_patterns=2, **rab) == "_quantile_block"
        assert path(mode="rab", m_patterns=2) == "_quantile_block"
        assert path(mode="rab", m_patterns=3) == "_quantile_block"  # K = 0
        assert path(m_patterns=3, **rab) == "_brute_block"
        # M >= 3 at K > 0 from N*M = 48 on, and up to K = 1000.
        assert simulator._TABLE_MIN_ELEMENTS == 48
        assert path(n_users=16, m_patterns=3, **rab) == "_quantile_block"
        assert path(n_users=15, m_patterns=3, **rab) == "_brute_block"
        assert path(n_users=12, m_patterns=4, **rab) == "_quantile_block"
        assert path(n_users=11, m_patterns=4, **rab) == "_brute_block"
        assert path(n_users=16, mode="rab", m_patterns=3, k_factor=1000.0) == "_quantile_block"
        assert path(n_users=16, mode="rab", m_patterns=3,
                    k_factor=math.nextafter(1000.0, math.inf)) == "_brute_block"
        assert path(n_users=16, m_patterns=3, max_power_cap=1.0, **rab) == "_brute_block"
        assert path(n_users=16, m_patterns=3, method="brute", **rab) == "_brute_block"
        assert path(max_power_cap=1.0) == "_brute_block"
        assert path(m_patterns=2, max_power_cap=1.0, **rab) == "_brute_block"
        assert path(method="brute") == "_brute_block"
        assert path(m_patterns=2, method="brute", **rab) == "_brute_block"
        # The quantiles are certified up to K = 1000 only.
        assert path(k_factor=1000.0) == "_quantile_block"
        assert path(mode="rab", m_patterns=2, k_factor=1000.0) == "_quantile_block"
        assert path(k_factor=1001.0) == "_brute_block"
        assert path(mode="rab", m_patterns=2, k_factor=1001.0) == "_brute_block"
        with pytest.raises(ValueError, match="method"):
            path(method="quantile")
        # sweep hands its method to every point.
        used.clear()
        sweep([small_cfg(n_users=4, k_factor=3.0),
               small_cfg(n_users=4, k_factor=3.0, mode="rab", m_patterns=2)], method="brute")
        assert set(used) == {"_brute_block"}

