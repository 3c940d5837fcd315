"""CLI tests: config parsing, presets, CSV determinism, subcommand wiring."""

import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cogmac import analytic, cli, espar, simulator, validation
from cogmac.cli import ConfigError, main, parse_config
from cogmac.simulator import (
    CapacityEstimate,
    NetworkConfig,
    run_experiment,
    sweep,
    write_sweep_csv,
)


# The head of NetworkConfig's float-range error; each case adds its inputs.
FLOAT_RANGE = ("N, or the largest scheduled ratio or numerator, (K+1) N 2^53 max(1, Q_p) / rho "
               "(Q_p = 1 under a power cap), leaves the float range at ")


def write_cfg(tmp_path, payload, name="cfg.json"):
    """Write ``payload`` as JSON, or a str payload as it is."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


@st.composite
def network_configs(draw):
    """Any valid NetworkConfig."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    nonnegative = st.floats(min_value=0.0, allow_infinity=False)
    mode = draw(st.sampled_from(["baseline", "rab"]))
    gamma_s, gamma_sp = draw(positive), draw(positive)
    rho = gamma_sp / gamma_s
    assume(0.0 < rho < math.inf)  # rho in float range
    n = draw(st.integers(1, 10**6))
    m = 1 if mode == "baseline" else draw(st.integers(1, 64))
    k = draw(nonnegative)
    # The sampler's largest scheduled ratio, about (K+1) N 2^53 / rho, is
    # finite, and so is Q_p times it unless a power cap bounds the
    # numerator; above the sampler's K range there is no K+1.
    k_sampled = k if k <= analytic._ISF_MAX_K else 0.0
    ratio = (k_sampled + 1.0) * n * 2.0**53 / rho
    peak, cap = draw(positive), draw(st.none() | positive)
    assume(math.isfinite(ratio) and (cap is not None or math.isfinite(ratio * peak)))
    return NetworkConfig(
        n_users=n,
        m_patterns=m,
        k_factor=k,
        mean_secondary_power=gamma_s,
        mean_interference_power=gamma_sp,
        primary_power=draw(nonnegative),
        peak_interference=peak,
        trials=draw(st.integers(100, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        mode=mode,
        max_power_cap=cap,
    )


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        config, cfg = parse_config(write_cfg(tmp_path, {}))
        assert config.n_users == 100
        assert config.m_patterns == 2
        assert config.k_factor == 0.0
        assert config.trials == 100_000
        assert config.seed == 42
        assert config.peak_interference == 1.0
        assert cfg.m_elements == espar.EsparConfig().m_elements

    def test_unknown_key_named(self, tmp_path):
        path = write_cfg(tmp_path, {"network": {"n_user": 3}})
        with pytest.raises(ConfigError, match="network.n_user"):
            parse_config(path)

    def test_invalid_value_names_key(self, tmp_path):
        path = write_cfg(tmp_path, {"network": {"trials": 0}})
        with pytest.raises(ConfigError, match="trials"):
            parse_config(path)

    def test_type_check(self, tmp_path):
        path = write_cfg(tmp_path, {"network": {"trials": 10.5}})
        with pytest.raises(ConfigError, match="^network: trials must be an integer, got 10.5$"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "absent.json"))

    def test_baseline_defaults_to_single_pattern(self, tmp_path):
        config, _ = parse_config(write_cfg(tmp_path, {"network": {"mode": "baseline"}}))
        assert config.m_patterns == 1
        bad = write_cfg(tmp_path, {"network": {"mode": "baseline", "m_patterns": 2}}, "b.json")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_round_trip(self, tmp_path):
        config = NetworkConfig(n_users=12, m_patterns=3, mode="rab", k_factor=1.5,
                               trials=500, seed=9, peak_interference=1.7)
        config2, _ = parse_config(write_cfg(tmp_path, {"network": asdict(config)}))
        assert config2 == config

    @given(config=network_configs())
    def test_round_trip_property(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cfg.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"network": asdict(config)}, fh)
            assert parse_config(path)[0] == config

    def test_null_means_default_where_the_default_is_none(self, tmp_path):
        payload = {"network": {"max_power_cap": None},
                   "espar": {"admittance": None, "element_angles": None}}
        config, cfg = parse_config(write_cfg(tmp_path, payload))
        assert config.max_power_cap is None
        assert cfg.element_angles == espar.EsparConfig().element_angles

    def test_espar_section(self, tmp_path):
        payload = {
            "espar": {
                "m_elements": 2,
                "feed_voltage": [1.0, 0.5],
                "admittance": [[[0.02, 0.0], [0.002, -0.001]], [[0.002, -0.001], [0.02, 0.0]]],
            }
        }
        _, cfg = parse_config(write_cfg(tmp_path, payload))
        assert cfg.m_elements == 2
        assert cfg.feed_voltage == 1.0 + 0.5j
        assert cfg.admittance[0, 1] == 0.002 - 0.001j

    def test_espar_bad_matrix(self, tmp_path):
        payload = {"espar": {"admittance": [[[0.02, 0.0], "x"]]}}
        with pytest.raises(ConfigError, match="^espar: admittance must be a matrix of numbers"):
            parse_config(write_cfg(tmp_path, payload))

    def test_unknown_top_level(self, tmp_path):
        with pytest.raises(ConfigError, match="misc"):
            parse_config(write_cfg(tmp_path, {"misc": {}}))


def test_built_in_defaults():
    # Flags left off the command line take these defaults, with no other source.
    parser = cli.build_parser()
    assert parser.parse_args(["simulate"]).threads == 1
    assert parser.parse_args(["validate"]).level == "fast"


def step_wall_clock_back(monkeypatch):
    """The CLI's time.time() steps back an hour on every call; its
    perf_counter stays the real monotonic clock."""
    hours = iter(range(0, -10**6, -3600))
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: float(next(hours)),
                                                     perf_counter=time.perf_counter))


def printed_seconds(line):
    return float(re.search(r"(-?[0-9.]+)s(?: total)?\)$", line).group(1))


class TestSimulateCommand:
    def run_simulate(self, tmp_path, extra_args=(), payload=None, name="out.csv"):
        payload = payload or {}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / name
        code = main(["simulate", "--config", cfg, "--out", str(out), *extra_args])
        return code, out.read_text() if out.exists() else None

    def test_fig5_structure(self, tmp_path):
        code, text = self.run_simulate(
            tmp_path, ["--preset", "fig5", "--trials", "200"],
        )
        assert code == 0
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[:12] == [
            "mode", "N", "M", "K", "gamma_s", "gamma_sp", "Qp",
            "mean_capacity", "stderr", "trials", "seed", "jensen_bound",
        ]
        rows = [line.split(",") for line in lines[1:]]
        assert {r[0] for r in rows} == {"baseline"}
        assert sorted({float(r[3]) for r in rows}) == [0.0, 2.0, 3.0, 10.0]
        assert sorted({int(r[1]) for r in rows}) == [8, 16, 32, 64, 128, 256, 512]

    def test_byte_identical_runs_and_threads(self, tmp_path):
        args = ["--preset", "fig7", "--trials", "150", "--seed", "3"]
        _, first = self.run_simulate(tmp_path, args + ["--threads", "1"], name="a.csv")
        _, second = self.run_simulate(tmp_path, args + ["--threads", "1"], name="b.csv")
        _, third = self.run_simulate(tmp_path, args + ["--threads", "4"], name="c.csv")
        assert first == second == third

    def test_preset_builds_each_point_once(self, tmp_path, monkeypatch):
        # Every config built in the run, by the order it was built in: each
        # fig7 point once, mode, then K, then M, then N, as the CSV rows are.
        built, default_n = [], NetworkConfig().n_users  # the network's own point: N = 100
        real = NetworkConfig.__post_init__

        def counted(cfg):
            real(cfg)
            built.append((cfg.mode, cfg.n_users, cfg.m_patterns, cfg.k_factor))

        monkeypatch.setattr(NetworkConfig, "__post_init__", counted)
        code, text = self.run_simulate(tmp_path, ["--preset", "fig7", "--trials", "150"])
        assert code == 0
        points = [(mode, n, m, k) for mode, m in (("baseline", 1), ("rab", 2))
                  for k in (0.0, 10.0, 100.0) for n in cli.N_GRID]
        assert [p for p in built if p[1] != default_n] == points
        rows = [line.split(",")[:4] for line in text.splitlines()[1:]]
        assert [(r[0], int(r[1]), int(r[2]), float(r[3])) for r in rows] == points

    def test_custom_preset_single_point(self, tmp_path):
        payload = {"network": {"n_users": 4, "mode": "baseline", "trials": 200}}
        code, text = self.run_simulate(tmp_path, payload=payload)
        assert code == 0
        assert len(text.strip().splitlines()) == 2

    def test_total_time_ignores_a_wall_clock_step(self, tmp_path, monkeypatch, capsys):
        step_wall_clock_back(monkeypatch)
        payload = {"network": {"n_users": 4, "mode": "baseline", "trials": 200}}
        assert self.run_simulate(tmp_path, payload=payload)[0] == 0
        total = capsys.readouterr().err.splitlines()[-1]
        assert total.startswith("[simulate] wrote ") and 0.0 <= printed_seconds(total) < 600.0

    def test_fig6_gain_column(self, tmp_path):
        code, text = self.run_simulate(
            tmp_path, ["--preset", "fig6", "--trials", "150"],
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].endswith(",multiuser_gain")
        gain_by_n = {}
        for line in lines[1:]:
            parts = line.split(",")
            if parts[0] == "rab" and parts[2] == "2":
                gain_by_n[int(parts[1])] = float(parts[-1])
        assert gain_by_n[1] == pytest.approx(1.0)
        assert gain_by_n[512] > gain_by_n[8] > 1.0

    def test_rows_of_two_sweeps_keep_their_own_configs(self):
        # Two templates that differ in every column a row copies from its
        # config, written into one CSV: each row shows its own config's values,
        # and each gain divides by its own N = 1 estimate.
        first = NetworkConfig(trials=300, seed=3)
        second = replace(first, seed=11, mean_secondary_power=2.5, mean_interference_power=0.5,
                         peak_interference=1.7)
        estimates = sweep([replace(cfg, mode=mode, m_patterns=m, k_factor=k, n_users=n)
                           for cfg in (first, second) for mode, m in (("rab", 2), ("baseline", 1))
                           for k in (2.0, 10.0) for n in (1, 8)])
        singles = {e.config: e.mean_nats for e in estimates if e.config.n_users == 1}
        assert len(set(singles.values())) == len(singles) == 8
        extras = cli._preset_extras(estimates, ("multiuser_gain", "norm_logN"))
        buf = io.StringIO()
        write_sweep_csv(estimates, buf, extra_columns=extras)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == len(estimates) == 16
        for row, est in zip(rows, estimates):
            cfg = est.config
            assert row["mode"] == cfg.mode and int(row["N"]) == cfg.n_users
            assert int(row["M"]) == cfg.m_patterns and float(row["K"]) == cfg.k_factor
            assert float(row["gamma_s"]) == cfg.mean_secondary_power
            assert float(row["gamma_sp"]) == cfg.mean_interference_power
            assert float(row["Qp"]) == cfg.peak_interference
            assert int(row["trials"]) == cfg.trials and int(row["seed"]) == cfg.seed
            assert float(row["mean_capacity"]) == est.mean_nats
            assert float(row["stderr"]) == est.stderr_nats
            assert float(row["jensen_bound"]) == est.jensen_bound_nats
            single = singles[replace(cfg, n_users=1)]
            assert float(row["multiuser_gain"]) == est.mean_nats / single
            if cfg.n_users > 1:
                assert float(row["norm_logN"]) == est.mean_nats / math.log(cfg.n_users)
            else:
                assert row["norm_logN"] == ""

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, {"network": {"trials": -3}})
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "bad", [["--trials", "50"], ["--threads", "0"], ["--trials", "0"]]
    )
    def test_bad_run_wide_input_fails_fast(self, tmp_path, capsys, bad):
        out = tmp_path / "never.csv"
        code = main(["simulate", "--preset", "fig5", "--out", str(out), *bad])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "[simulate]" not in err

    def test_bad_override_fails_fast(self, tmp_path, capsys):
        # A preset keeps every network field but mode, K, M and N, so a bad
        # trials count in network fails the preset run before any point.
        cfg = write_cfg(tmp_path, {"network": {"trials": 50}})
        out = tmp_path / "never.csv"
        assert main(["simulate", "--preset", "fig5", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "network" in err and "[simulate]" not in err

    def test_default_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {"network": {"n_users": 2, "mode": "baseline", "trials": 150}}
        cfg = write_cfg(tmp_path, payload)
        assert main(["simulate", "--config", cfg]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sweep.csv"]


class TestValidateMachinery:
    def test_registry_complete(self):
        assert len(validation.CHECK_IDS) == 12

    def test_fast_check_runs(self):
        result = validation.run_check("quantile_identity", "fast")
        assert result.passed

    def test_mutation_sensitivity(self, monkeypatch):
        # A 1% Lambert W corruption must break the quantile identity.
        exact = analytic.wright_omega
        monkeypatch.setattr(analytic, "wright_omega", lambda y: exact(y) * 1.01)
        result = validation.run_check("quantile_identity", "full")
        assert not result.passed

    def test_unknown_check(self):
        with pytest.raises(KeyError):
            validation.run_check("nope")
        with pytest.raises(ValueError):
            validation.run_check("quantile_identity", level="medium")

    def test_ks_rows_collected(self):
        result = validation.run_check("ratio_distribution_fit", "fast")
        assert len(result.ks_rows) == 3
        for case, n, stat, threshold, passed in result.ks_rows:
            assert n == 10_000 and stat < threshold and passed

    def test_failing_ks_row_fails_the_check(self, monkeypatch):
        # A CDF shifted by 0.5 in z must fail every KS case and the check.
        exact = validation.ratio_cdf
        monkeypatch.setattr(validation, "ratio_cdf", lambda z, p: exact(np.asarray(z) + 0.5, p))
        result = validation.run_check("ratio_distribution_fit", "fast")
        assert not result.passed
        assert [row[0] for row in result.ks_rows] == ["K=0.5", "K=2.0", "K=10.0"]
        assert not any(passed for *_, passed in result.ks_rows)

    @staticmethod
    def record_runs(monkeypatch, check_id):
        """(K, N, threads, method) of every run_experiment call ``check_id``
        makes at fast level, whichever entry it calls."""
        runs = []

        def engine(config, threads=1, method="auto"):
            runs.append((config.k_factor, config.n_users, threads, method))
            return CapacityEstimate(config, 1.0 + math.log(config.n_users), 0.0, 0.0, 0.0)

        for module in (simulator, validation):
            monkeypatch.setattr(module, "run_experiment", engine)
        validation.run_check(check_id, "fast")
        return runs

    @pytest.mark.parametrize("check_id, points", [
        ("effective_users_moderate", [(2.0, 500), (0.0, 203)]),
        ("rab_effective_users", [(10.0, 200), (0.0, 278), (100.0, 200), (0.0, 806)]),
    ])
    def test_capacity_checks_draw_every_user_where_the_law_is_tested(
            self, monkeypatch, check_id, points):
        # No capacity check may compare a closed form with itself: the K > 0
        # point that carries the law under test draws every user.  The K = 0
        # Rayleigh reference, a law neither check tests, takes the default
        # method, the exact order-statistic sampler.  One thread per run:
        # run_all spreads the checks over the cores.
        expected = [(k, n, 1, "brute" if k > 0.0 else "auto") for k, n in points]
        assert self.record_runs(monkeypatch, check_id) == expected

    def test_determinism_check_draws_every_user(self, monkeypatch):
        runs = self.record_runs(monkeypatch, "determinism")
        assert len(runs) == 24 and {method for *_, method in runs} == {"brute"}

    @pytest.mark.parametrize("check_id", ["large_k_growth", "rab_restores_log_growth"])
    def test_growth_checks_take_the_sampler(self, monkeypatch, check_id):
        # The growth checks compare no closed form with a simulation: each N
        # of the grid is one order-statistic point, drawn on the check's own
        # thread, one block of 20000 slots at fast level.
        blocks = []
        for name in ("_quantile_block", "_brute_block"):
            real = getattr(simulator, name)

            def spy(cfg, size, rng, real=real, name=name):
                blocks.append((name, cfg.n_users, size, threading.get_ident()))
                return real(cfg, size, rng)

            monkeypatch.setattr(simulator, name, spy)
        validation.run_check(check_id, "fast")
        here = threading.get_ident()
        assert blocks == [("_quantile_block", n, 20_000, here) for n in validation.N_GROWTH_GRID]


class TestRunAll:
    """run_all runs the checks concurrently and reports them in order."""

    @staticmethod
    def use_checks(monkeypatch, checks, cores):
        monkeypatch.setattr(validation, "_CHECKS", checks)
        monkeypatch.setattr(validation, "CHECK_IDS", tuple(checks))
        monkeypatch.setattr(validation, "_usable_cores", lambda: cores)

    @staticmethod
    def recording(started, check_id, verdict=True):
        def run(level, ks):
            started.append(check_id)
            if verdict is None:
                raise RuntimeError(f"{check_id} blew up")
            return verdict, check_id
        return run

    def test_reports_in_check_order_whatever_finishes_first(self, monkeypatch):
        finished = []

        def finishing(check_id, check):
            def run(level, ks):
                out = check(level, ks)
                finished.append(check_id)
                return out
            return run

        def slow(level, ks):
            time.sleep(1.0)
            return True, "slept"

        cheap = ("quantile_identity", "ratio_distribution_fit", "frechet_normalization",
                 "rab_distribution_facts", "rab_m2_closed_form", "espar_identities",
                 "special_functions")
        checks = {"slow": ("sleeps first", slow), **{c: validation._CHECKS[c] for c in cheap}}
        checks = {c: (name, finishing(c, check)) for c, (name, check) in checks.items()}
        self.use_checks(monkeypatch, checks, cores=len(checks))
        reported = []
        results = validation.run_all("fast", report=reported.append)
        assert finished[-1] == "slow" and sorted(finished) == sorted(checks)
        assert [r.check_id for r in reported] == list(checks)
        assert results == reported
        assert results == [validation.run_check(c, "fast") for c in checks]

    def test_a_raising_check_propagates_and_leaves_no_check_running(self, monkeypatch):
        started, finished = [], []

        def boom(level, ks):
            started.append("boom")
            raise RuntimeError("check blew up")

        def later(level, ks):
            started.append("later")
            time.sleep(0.05)
            finished.append("later")
            return True, ""

        self.use_checks(monkeypatch, {"boom": ("raises", boom), "later": ("queued", later)},
                        cores=1)
        reported = []
        with pytest.raises(RuntimeError, match="check blew up"):
            validation.run_all("fast", report=reported.append)
        # "later" is cancelled, or it started before the cancel and has ended.
        assert reported == [] and started[0] == "boom" and finished == started[1:]

    @staticmethod
    def raising_then(raised, started, check_id):
        """A check that raises, and sets ``raised`` as its error leaves it."""
        def run(level, ks):
            started.append(check_id)
            try:
                raise RuntimeError(f"{check_id} blew up")
            finally:
                raised.set()
        return run

    @staticmethod
    def held_until(raised, started, check_id):
        """A passing check that ends only once ``raised`` is set."""
        def run(level, ks):
            started.append(check_id)
            assert raised.wait(timeout=60.0), f"{check_id}: no check raised"
            started.append(f"{check_id} done")
            return True, check_id
        return run

    def test_checks_start_and_report_in_check_order(self, monkeypatch):
        started = []
        checks = {c: (c, self.recording(started, c)) for c in ("d", "b", "a", "c")}
        self.use_checks(monkeypatch, checks, cores=1)
        reported = []
        validation.run_all("fast", report=reported.append)
        assert started == ["d", "b", "a", "c"]
        assert [r.check_id for r in reported] == ["d", "b", "a", "c"]

    def test_checks_listed_before_a_raising_one_report_before_its_error(self, monkeypatch):
        # "late" raises while "b", listed before it, is held on the other
        # core; "a" has ended.  Both report before late's error propagates.
        started, raised = [], threading.Event()
        checks = {"a": ("a", self.recording(started, "a")),
                  "b": ("held", self.held_until(raised, started, "b")),
                  "late": ("raises", self.raising_then(raised, started, "late")),
                  "c": ("after", self.recording(started, "c"))}
        self.use_checks(monkeypatch, checks, cores=2)
        reported = []
        with pytest.raises(RuntimeError, match="late blew up"):
            validation.run_all("fast", report=reported.append)
        assert started.index("late") < started.index("b done")
        assert [r.check_id for r in reported] == ["a", "b"]

    def test_a_raising_check_that_ends_first_propagates_its_own_error(self, monkeypatch):
        # "early", listed first, is held until "late" has raised on the other
        # core; early reports, then late's error propagates.
        started, raised = [], threading.Event()
        checks = {"early": ("listed first", self.held_until(raised, started, "early")),
                  "late": ("raises", self.raising_then(raised, started, "late"))}
        self.use_checks(monkeypatch, checks, cores=2)
        reported = []
        with pytest.raises(RuntimeError, match="late blew up"):
            validation.run_all("fast", report=reported.append)
        assert started.index("late") < started.index("early done")
        assert [r.check_id for r in reported] == ["early"]

    def test_validate_exits_3_naming_a_raising_check(self, monkeypatch, capsys, tmp_path):
        # A check that raises is a fault, not a red verdict: exit 3, not 1,
        # with the summary and KS rows of the checks that reported.
        started = []
        checks = {"a": ("passes", self.recording(started, "a")),
                  "b": ("fails", self.recording(started, "b", verdict=False)),
                  "boom": ("raises", self.recording(started, "boom", verdict=None)),
                  "c": ("after", self.recording(started, "c"))}
        self.use_checks(monkeypatch, checks, cores=1)
        out = tmp_path / "ks.csv"
        assert main(["validate", "--level", "fast", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[:3] == ["[PASS] a: a", "[FAIL] b: b",
                             "[ERROR] boom: RuntimeError: boom blew up"]
        assert lines[3].startswith("1/2 checks passed (fast level, ")
        assert lines[4:] == ["failed: b"]
        assert "Traceback" in captured.err
        assert out.read_text().splitlines() == ["check,case,n,statistic,threshold_1pct,passed"]

    def test_validate_exits_1_on_a_failed_check(self, monkeypatch, capsys):
        started = []
        checks = {c: (c, self.recording(started, c, verdict=c != "b")) for c in ("a", "b")}
        self.use_checks(monkeypatch, checks, cores=1)
        assert main(["validate", "--level", "fast"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["[PASS] a: a", "[FAIL] b: b"] and lines[-1] == "failed: b"

    def test_validate_total_time_ignores_a_wall_clock_step(self, monkeypatch, capsys):
        step_wall_clock_back(monkeypatch)
        checks = {c: (c, self.recording([], c)) for c in ("a", "b")}
        self.use_checks(monkeypatch, checks, cores=1)
        assert main(["validate", "--level", "fast"]) == 0
        total = capsys.readouterr().out.splitlines()[-1]
        assert total.startswith("2/2 checks passed") and 0.0 <= printed_seconds(total) < 600.0

    def test_an_error_of_report_propagates_and_ends_the_report(self, monkeypatch):
        started = []
        checks = {c: (c, self.recording(started, c)) for c in ("a", "b", "c")}
        self.use_checks(monkeypatch, checks, cores=1)
        reported = []

        def report(result):
            reported.append(result.check_id)
            raise OSError("report failed")

        with pytest.raises(OSError, match="report failed"):
            validation.run_all("fast", report=report)
        assert reported == ["a"]

    def test_an_error_writing_a_report_line_is_no_checks(self, monkeypatch, capsys):
        # The output failed, not check "b": no [ERROR] line and no traceback
        # of it, and the error itself ends the run.
        checks = {c: (c, self.recording([], c)) for c in ("a", "b")}
        self.use_checks(monkeypatch, checks, cores=1)

        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullDisk())
        with pytest.raises(OSError, match="No space left on device"):
            main(["validate", "--level", "fast"])
        assert capsys.readouterr().err == ""


def test_a_closed_stdout_ends_validate_quietly():
    # `cogmac validate | head -1`: the first report line meets a closed pipe.
    # The run ends with no traceback and with 141, a shell's status for a
    # process that SIGPIPE ended, neither a pass (0) nor a raising check (3).
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "cogmac.cli", "validate", "--level", "fast"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141, err
    assert err == ""


class TestLogNSlope:
    """validation's growth statistic: the slope against log N over the
    upper half of the N grid."""

    def test_exact_log_growth(self):
        ns = [8, 16, 32, 64, 128, 256]
        vals = np.array([3.7 * math.log(n) for n in ns])
        assert abs(validation._log_n_slope(ns, vals / np.log(ns))) < 1e-12

    def test_undernormalized_loglog_decays(self):
        ns = [8, 16, 32, 64, 128, 256]
        vals = np.array([2.0 * math.log(math.log(n)) for n in ns])
        assert validation._log_n_slope(ns, vals / np.log(ns)) < -1e-3

    def test_matches_polyfit_on_random_curves(self):
        rng = np.random.default_rng(27)
        for size in (4, 6, 7, 12):
            ns = np.cumsum(rng.integers(1, 64, size=size)) + 1
            for _ in range(20):
                vals = rng.normal(scale=rng.uniform(0.01, 10.0), size=size) + rng.uniform(-5, 5)
                half = size // 2
                expected = np.polyfit(np.log(ns[half:]), vals[half:], 1)[0]
                assert validation._log_n_slope(ns, vals) == pytest.approx(expected, rel=1e-12)

    def test_rayleigh_capacities_flat_vs_control(self):
        ns = [8, 16, 32, 64, 128, 256, 512]
        caps = np.array([
            run_experiment(
                NetworkConfig(n_users=n, m_patterns=1, mode="baseline", trials=2 * 10**4,
                              seed=19)
            ).mean_nats
            for n in ns
        ])
        log_n = np.log(ns)
        ll = np.log(log_n)
        control = float(np.dot(caps, ll) / np.dot(ll, ll)) * ll  # c log(log N), fitted
        assert (abs(validation._log_n_slope(ns, caps / log_n))
                < abs(validation._log_n_slope(ns, control / log_n)))


class TestEsparCommand:
    def test_single_element_constant_pattern(self, tmp_path):
        cfg = write_cfg(tmp_path, {"espar": {"m_elements": 1}})
        out = tmp_path / "pat.csv"
        code = main(["espar", "--config", cfg, "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        mags = [math.hypot(float(r[1]), float(r[2])) for r in rows]
        assert max(mags) - min(mags) < 1e-12

    def test_repeat_invocation_identical(self, tmp_path):
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        main(["espar", "--reactances", "5,-5,10", "--out", str(out1)])
        main(["espar", "--reactances", "5,-5,10", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_wrong_reactance_count(self, tmp_path):
        assert main(["espar", "--reactances", "1.0", "--out", str(tmp_path / "x.csv")]) == 2

    def test_degenerate_load_exit(self, tmp_path):
        y_inv = np.array([[1.0 + 0.0j, 2.0j], [2.0j, -4.0 / 51.0 + 0.0j]])
        y = np.linalg.inv(y_inv)
        payload = {
            "espar": {
                "m_elements": 2,
                "admittance": [[[v.real, v.imag] for v in row] for row in y],
            }
        }
        cfg = write_cfg(tmp_path, payload)
        code = main(["espar", "--config", cfg, "--reactances", "0.0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestAnalyticCommand:
    def test_theorem1_rayleigh(self, tmp_path, capsys):
        assert main(["analytic", "--law", "theorem1-law", "--k", "0", "--n", "1000"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "N,value"
        assert float(out[1].split(",")[1]) == pytest.approx(math.log(1000.0))

    def test_user_counts_print_exactly(self, capsys):
        # 2^53 + 1 and 10^17 are echoed as given, not rounded to 17 digits.
        assert main(["analytic", "--law", "theorem1-law",
                     "--n", "9007199254740993,100000000000000000"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["9007199254740993", "100000000000000000"]

    def test_there_is_no_bits_flag(self, tmp_path, monkeypatch, capsys):
        # Every table is in nats: the flag is an argparse usage error.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["analytic", "--law", "theorem1-law", "--bits", "--out", "x.csv"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --bits" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("law", ["theorem1-law", "effective-users-rab2", "effective-users"])
    @pytest.mark.parametrize("k", ["1e200", "1e308"])
    def test_huge_k_laws_are_finite(self, capsys, law, k):
        # Each law stays finite, where K(K+1), N(K+1) or 2 pi K would overflow.
        assert main(["analytic", "--law", law, "--k", k]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 7 and all(math.isfinite(float(r.split(",")[1])) for r in rows)

    @pytest.mark.parametrize("k", ["1e200", "1e308"])
    def test_huge_k_rab2_cdf_is_finite(self, capsys, k):
        # y -> rho z as K grows; K rho z itself would overflow.
        assert main(["analytic", "--law", "rab2-cdf", "--k", k]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 5 and all(math.isfinite(float(r.split(",")[1])) for r in rows)

    @pytest.mark.parametrize("law", ["rab2-cdf", "rab2-tail"])
    def test_cdf_past_the_float_range_is_one(self, capsys, law):
        # rho z = 1e309 overflows; each CDF takes its z -> inf limit, as ratio-cdf does.
        assert main(["analytic", "--law", law, "--k", "10", "--rho", "10",
                     "--z", "1,1e308"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows[1] == "1e+308,1"

    @pytest.mark.parametrize("law", ["ratio-cdf", "ratio-pdf"])
    @pytest.mark.parametrize("k", ["1e200", "1e308"])
    def test_huge_k_ratio_laws_are_finite(self, capsys, law, k):
        # The Rayleigh limit of one user: 1 - F = f = e^{-z} at rho = 1.
        assert main(["analytic", "--law", law, "--k", k]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(rows) == 5
        for z, value in rows:
            expected = -math.expm1(-float(z)) if law == "ratio-cdf" else math.exp(-float(z))
            assert float(value) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", ["1000.5", "1e17"])
    def test_normalizer_past_its_certified_k_fails(self, capsys, k):
        # From K of about 1e10 on, K/W - 1 cancels: at K = 1e17 a_8, about
        # 2.08, would print as 0.
        assert main(["analytic", "--law", "normalizer", "--k", k, "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --law normalizer")
        assert "k_factor <= 1000 at m_patterns = 1" in captured.err

    def test_normalizer_file_output(self, tmp_path):
        out = tmp_path / "an.csv"
        main(["analytic", "--law", "normalizer", "--k", "0", "--rho", "1",
              "--n", "100", "--out", str(out)])
        assert float(out.read_text().splitlines()[1].split(",")[1]) == pytest.approx(99.0)


class TestInputBoundary:
    """Every bad input exits 2 with ``config error:`` and the key path or flag,
    before any work and without writing a file."""

    @pytest.mark.parametrize(
        "argv,payload,where",
        [
            (["simulate"], {"preset": {"name": "fig5"}}, "preset: unknown top-level key"),
            (["simulate"], {"network": {"max_power_cap": True}},
             "network: max_power_cap must be a real number, got True"),
            (["simulate"], {"network": {"mean_interference_power": 1e-200,
                                        "mean_secondary_power": 1e200}}, "network:"),
            (["simulate"], {"network": {"mean_interference_power": 1e200,
                                        "mean_secondary_power": 1e-200}}, "network:"),
            (["simulate", "--trials", "100"], {"network": {"max_power_cap": math.inf}},
             "network: max_power_cap must be finite"),
            (["espar", "--reactances", "10"],
             {"espar": {"m_elements": 2, "admittance": [[0.02, math.inf], [math.inf, 0.02]]}},
             "espar: admittance must be finite"),
            (["espar", "--reactances", "10"],
             {"espar": {"m_elements": 2, "admittance": [[0.02, math.nan], [math.nan, 0.02]]}},
             "espar: admittance must be finite"),
            (["espar"], {"espar": {"radius_wavelengths": "abc"}},
             "espar: radius_wavelengths must be a number, got 'abc'"),
            (["espar"], {"espar": {"radius_wavelengths": None}},
             "espar: radius_wavelengths must be a number, got None"),
            (["espar"], {"espar": {"element_angles": ["a"]}},
             "espar: element_angles must be real numbers, got 'a'"),
            (["espar"], {"espar": {"m_elements": True}},
             "espar: m_elements must be an integer, got True"),
            (["espar"], {"espar": {"m_elements": 2, "admittance": [[0.02, True], [True, 0.02]]}},
             "espar: admittance must be a matrix of numbers, got True"),
            (["espar"], {"espar": {"element_angles": [math.nan, 1.0, 2.0]}}, "espar:"),
            (["espar"], {"espar": {"feed_voltage": [1.0, math.inf]}}, "espar:"),
            (["espar", "--reactances", "a,b,c"], None, "--reactances"),
            (["espar", "--reactances", "1,2,3", "--grid", "3"], None, "--grid"),
            (["espar", "--reactances", "inf,1,2"], None,
             "--reactances: reactances must be finite"),
            (["espar", "--reactances", "1e400,0,0"], None,
             "--reactances: reactances must be finite"),
            (["espar", "--reactances", "nan,1,2"], None,
             "--reactances: reactances must be finite"),
            (["analytic", "--law", "normalizer", "--n", "1"], None, "--n"),
            (["analytic", "--law", "effective-users-rab2", "--k", "0"], None, "--k"),
            (["analytic", "--law", "rab2-tail", "--k", "0"], None, "--k"),
            (["analytic", "--law", "ratio-cdf", "--z", "-1"], None, "--z"),
            (["analytic", "--law", "ratio-cdf", "--z", "abc"], None, "--z"),
            (["analytic", "--law", "ratio-cdf", "--rho", "0"], None, "--rho"),
            (["analytic", "--law", "theorem1-law", "--k", "-1"], None, "--k"),
            (["analytic", "--law", "rab2-tail", "--k", "10", "--z=-1"], None, "--z"),
            (["analytic", "--law", "ratio-cdf", "--z=nan"], None, "--z"),
            (["analytic", "--law", "ratio-pdf", "--z=inf"], None, "--z"),
            (["analytic", "--law", "rab2-cdf", "--z=inf"], None, "--z"),
            (["analytic", "--law", "ratio-pdf", "--k", "inf"], None, "finite k_factor"),
            (["analytic", "--law", "ratio-cdf", "--rho", "inf"], None, "power_ratio must be"),
            (["analytic", "--law", "normalizer", "--rho", "1e-308", "--n", "2,8"], None,
             "not finite at N = 8"),
            (["simulate"], {"network": {"mean_interference_power": 1e-310, "k_factor": 0.0,
                                        "m_patterns": 2, "n_users": 16}},
             "network: " + FLOAT_RANGE + "n_users = 16, m_patterns = 2, k_factor = 0.0, "
             "peak_interference = 1.0, max_power_cap = None, and rho = mean_interference_power "
             "/ mean_secondary_power = 1e-310"),
            (["simulate"], {"network": {"mean_interference_power": 1e-310, "k_factor": 2.0,
                                        "m_patterns": 2, "n_users": 16}},
             "network: " + FLOAT_RANGE + "n_users = 16, m_patterns = 2, k_factor = 2.0, "
             "peak_interference = 1.0, max_power_cap = None, and rho = mean_interference_power "
             "/ mean_secondary_power = 1e-310"),
            (["simulate"], {"network": {"n_users": 10**400}},
             "network: " + FLOAT_RANGE + "n_users = about 1e400, m_patterns = 2, k_factor = 0.0, "
             "peak_interference = 1.0, max_power_cap = None, and rho = mean_interference_power "
             "/ mean_secondary_power = 1.0"),
            # The network's own point (N = 100, K = 0) is fine; fig7's N = 256,
            # K = 10 point is the first that is not.
            (["simulate", "--preset", "fig7"], {"network": {"mean_interference_power": 1e-289}},
             "network: a fig7 point: " + FLOAT_RANGE + "n_users = 256, m_patterns = 1, "
             "k_factor = 10.0, peak_interference = 1.0, max_power_cap = None, and rho = "
             "mean_interference_power / mean_secondary_power = 1e-289"),
            (["simulate"], {"network": {"peak_interference": 1e300, "k_factor": 2.0,
                                        "mean_interference_power": 1e-10, "n_users": 16}},
             "network: " + FLOAT_RANGE + "n_users = 16, m_patterns = 2, k_factor = 2.0, "
             "peak_interference = 1e+300, max_power_cap = None, and rho = "
             "mean_interference_power / mean_secondary_power = 1e-10"),
            (["simulate", "--preset", "fig7"], {"network": {"peak_interference": 1e289}},
             "network: a fig7 point: " + FLOAT_RANGE + "n_users = 256, m_patterns = 1, "
             "k_factor = 10.0, peak_interference = 1e+289, max_power_cap = None, and rho = "
             "mean_interference_power / mean_secondary_power = 1.0"),
            (["simulate"], {"network": {"n_users": 10**400, "mean_interference_power": 1e300,
                                        "mode": "baseline", "m_patterns": 1}},
             "network: " + FLOAT_RANGE + "n_users = about 1e400, m_patterns = 1, k_factor = 0.0, "
             "peak_interference = 1.0, max_power_cap = None, and rho = mean_interference_power "
             "/ mean_secondary_power = 1e+300"),
            (["espar", "--reactances", "10"],
             {"espar": {"m_elements": 2, "admittance": [[1, 1], [1, 1]]}},
             "espar: admittance must be invertible"),
            (["espar", "--reactances", "10"],
             {"espar": {"m_elements": 2, "admittance": [[0, 0], [0, 0]]}},
             "espar: admittance must be invertible"),
            (["simulate"], {"network": []}, "network: expected an object"),
            (["simulate"], "{not json", "cfg.json: not a readable JSON file"),
            (["simulate"], [], "config root: expected an object"),
            (["simulate"], {"network": {"log_base": "nats"}}, "network.log_base: unknown key"),
            (["simulate"], {"network": {"mean_ps_power": 1.0}},
             "network.mean_ps_power: unknown key"),
            # Integers past the float range: under each real-valued config
            # field, in an [re, im] pair, and as a user count.
            (["simulate"], {"network": {"k_factor": 10**400}},
             "network: k_factor must be finite, got a number past the float range"),
            (["simulate"], {"network": {"max_power_cap": -(10**400)}},
             "network: max_power_cap must be finite, got a number past the float range"),
            (["espar"], {"espar": {"radius_wavelengths": 10**400}},
             "espar: radius_wavelengths must be finite, got a number past the float range"),
            (["espar"], {"espar": {"feed_voltage": 10**400}},
             "espar: feed_voltage must be finite, got a number past the float range"),
            (["espar"], {"espar": {"feed_voltage": [1.0, 10**400]}},
             "espar.feed_voltage: number past the float range"),
            (["espar"], {"espar": {"element_angles": [0.0, 10**400, 1.0]}},
             "espar: element_angles must be finite, got a number past the float range"),
            (["espar"], {"espar": {"m_elements": 2, "admittance": [[0.02, 10**400], [0, 0.02]]}},
             "espar: admittance must be finite, got a number past the float range"),
            (["espar"], {"espar": {"m_elements": 2,
                                   "admittance": [[0.02, 0], [0, [0.02, -(10**400)]]]}},
             "espar.admittance[1][1]: number past the float range"),
            (["analytic", "--law", "effective-users", "--n", "8,1" + "0" * 400], None,
             "--n 8,1" + "0" * 400 + ": "),
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, argv, payload, where):
        monkeypatch.chdir(tmp_path)
        if payload is not None:
            argv = [*argv, "--config", write_cfg(tmp_path, payload)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and where in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["cfg.json"] if payload is not None else [])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--preset", "fig6", "--trials", "200"],
            ["validate"],
            ["espar", "--reactances", "5,-5,10"],
            ["analytic", "--law", "theorem1-law"],
        ],
    )
    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, monkeypatch, capsys, argv,
                                                  where):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", where]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: output path {where!r}")
        assert captured.out == "" and "[simulate]" not in captured.err
        assert list(tmp_path.iterdir()) == []
