"""CLI tests: config parsing, presets, CSV determinism, subcommand wiring."""

import csv
import io
import json
import math
import tempfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cogmac import analytic, cli, espar, validation
from cogmac.cli import (
    PRESET_NAMES,
    ConfigError,
    ExperimentPreset,
    main,
    parse_config,
)
from cogmac.simulator import CapacityEstimate, NetworkConfig, sweep, write_sweep_csv


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@st.composite
def network_configs(draw):
    """Any valid NetworkConfig."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    nonnegative = st.floats(min_value=0.0, allow_infinity=False)
    mode = draw(st.sampled_from(["baseline", "rab"]))
    return NetworkConfig(
        n_users=draw(st.integers(1, 10**6)),
        m_patterns=1 if mode == "baseline" else draw(st.integers(1, 64)),
        k_factor=draw(nonnegative),
        mean_secondary_power=draw(positive),
        mean_interference_power=draw(positive),
        primary_power=draw(nonnegative),
        mean_ps_power=draw(nonnegative),
        peak_interference=draw(positive),
        trials=draw(st.integers(100, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        mode=mode,
        log_base=draw(st.sampled_from(["nats", "bits"])),
        max_power_cap=draw(st.none() | positive),
    )


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        config, preset, _ = parse_config(write_cfg(tmp_path, {}))
        assert config.n_users == 100
        assert config.m_patterns == 2
        assert config.k_factor == 0.0
        assert config.trials == 100_000
        assert config.seed == 42
        assert config.peak_interference == 1.0
        assert preset.name == "custom"

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
        with pytest.raises(ConfigError, match="network.trials"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "absent.json"))

    def test_baseline_defaults_to_single_pattern(self, tmp_path):
        config, _, _ = parse_config(write_cfg(tmp_path, {"network": {"mode": "baseline"}}))
        assert config.m_patterns == 1
        bad = write_cfg(tmp_path, {"network": {"mode": "baseline", "m_patterns": 2}}, "b.json")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_round_trip(self, tmp_path):
        config = NetworkConfig(n_users=12, m_patterns=3, mode="rab", k_factor=1.5,
                               trials=500, seed=9, log_base="bits")
        preset = ExperimentPreset(name="fig7", output_path="x.csv")
        path = write_cfg(tmp_path, {"network": asdict(config), "preset": asdict(preset)})
        config2, preset2, _ = parse_config(path)
        assert config2 == config
        assert preset2 == preset

    @given(config=network_configs(), name=st.sampled_from(PRESET_NAMES), output=st.text())
    def test_round_trip_property(self, config, name, output):
        preset = ExperimentPreset(name=name, output_path=output)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cfg.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"network": asdict(config), "preset": asdict(preset)}, fh)
            assert parse_config(path)[:2] == (config, preset)

    def test_null_means_default_where_the_default_is_none(self, tmp_path):
        payload = {"network": {"max_power_cap": None},
                   "espar": {"admittance": None, "element_angles": None}}
        config, _, cfg = parse_config(write_cfg(tmp_path, payload))
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
        _, _, cfg = parse_config(write_cfg(tmp_path, payload))
        assert cfg.m_elements == 2
        assert cfg.feed_voltage == 1.0 + 0.5j
        assert cfg.admittance[0, 1] == 0.002 - 0.001j

    def test_espar_bad_matrix(self, tmp_path):
        payload = {"espar": {"admittance": [[[0.02, 0.0], "x"]]}}
        with pytest.raises(ConfigError, match="espar.admittance"):
            parse_config(write_cfg(tmp_path, payload))

    def test_unknown_top_level(self, tmp_path):
        with pytest.raises(ConfigError, match="misc"):
            parse_config(write_cfg(tmp_path, {"misc": {}}))


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

    def test_custom_preset_single_point(self, tmp_path):
        payload = {"network": {"n_users": 4, "mode": "baseline", "trials": 200}}
        code, text = self.run_simulate(tmp_path, payload=payload)
        assert code == 0
        assert len(text.strip().splitlines()) == 2

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
        # config, written into one CSV: each row shows its own config's values
        # in its own units, and each gain divides by its own N = 1 estimate.
        nats = NetworkConfig(trials=300, seed=3)
        bits = replace(nats, seed=11, mean_secondary_power=2.5, mean_interference_power=0.5,
                       peak_interference=1.7, log_base="bits")
        grid = ([1, 8], [2.0, 10.0], [2], ["rab", "baseline"])
        estimates = [*sweep(nats, *grid), *sweep(bits, *grid)]
        singles = {e.config: e.mean_nats for e in estimates if e.config.n_users == 1}
        assert len(set(singles.values())) == len(singles) == 8
        extras = cli._preset_extras(estimates, ("multiuser_gain", "norm_logN"))
        buf = io.StringIO()
        write_sweep_csv(estimates, buf, extra_columns=extras)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == len(estimates) == 16
        for row, est in zip(rows, estimates):
            cfg = est.config
            scale = 1.0 / math.log(2.0) if cfg.log_base == "bits" else 1.0
            assert row["mode"] == cfg.mode and int(row["N"]) == cfg.n_users
            assert int(row["M"]) == cfg.m_patterns and float(row["K"]) == cfg.k_factor
            assert float(row["gamma_s"]) == cfg.mean_secondary_power
            assert float(row["gamma_sp"]) == cfg.mean_interference_power
            assert float(row["Qp"]) == cfg.peak_interference
            assert int(row["trials"]) == cfg.trials and int(row["seed"]) == cfg.seed
            assert float(row["mean_capacity"]) == est.mean_nats * scale
            assert float(row["stderr"]) == est.stderr_nats * scale
            assert float(row["jensen_bound"]) == est.jensen_bound_nats * scale
            single = singles[replace(cfg, n_users=1)]
            assert float(row["multiuser_gain"]) == est.mean_nats / single
            if cfg.n_users > 1:
                assert float(row["norm_logN"]) == est.mean_nats * scale / math.log(cfg.n_users)
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

    def test_bad_override_fails_fast(self, tmp_path):
        cfg = write_cfg(tmp_path, {"preset": {"name": "fig5", "overrides": {"n_users": 0}}})
        out = tmp_path / "never.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COGMAC_SEED", "123")
        payload = {"network": {"n_users": 2, "mode": "baseline", "trials": 150}}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "env.csv"
        # The environment is read when the command runs.
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert ",123," in out.read_text().splitlines()[1]

    def test_environment_is_read_for_the_command_in_use(self, monkeypatch, capsys):
        # analytic has no --threads, so a bad COGMAC_THREADS is not its concern.
        monkeypatch.setenv("COGMAC_THREADS", "abc")
        assert main(["analytic", "--law", "ratio-cdf", "--z", "1"]) == 0
        assert capsys.readouterr().out == "z,value\n1,0.5\n"

    @pytest.mark.parametrize(
        "name,value,argv",
        [
            ("THREADS", "abc", ["simulate", "--preset", "fig5"]),
            ("SEED", "1.5", ["simulate", "--preset", "fig5"]),
            ("PRESET", "fig9", ["simulate"]),
            ("LEVEL", "medium", ["validate"]),
        ],
    )
    def test_bad_environment_value_fails_fast(self, tmp_path, monkeypatch, capsys, name,
                                              value, argv):
        monkeypatch.setenv(f"COGMAC_{name}", value)
        out = tmp_path / "never.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: COGMAC_{name}=")
        assert captured.out == ""


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

    @pytest.mark.parametrize("check_id, calls", [
        ("effective_users_moderate", 2),
        ("large_k_growth", 6),
        ("rab_effective_users", 4),
        ("rab_restores_log_growth", 6),
    ])
    def test_capacity_checks_use_brute_force(self, monkeypatch, check_id, calls):
        # No capacity check may compare a closed form with itself: each of
        # its runs draws every user, through validation's own binding.
        methods = []

        def fake(config, threads=1, method="auto"):
            methods.append(method)
            return CapacityEstimate(config, 1.0 + math.log(config.n_users), 0.0, 0.0, 0.0)

        monkeypatch.setattr(validation, "run_experiment", fake)
        validation.run_check(check_id, "fast")
        assert methods == ["brute"] * calls


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

    def test_bits_conversion(self, tmp_path, capsys):
        main(["analytic", "--law", "theorem1-law", "--k", "0", "--n", "1024", "--bits"])
        out = capsys.readouterr().out.strip().splitlines()
        assert float(out[1].split(",")[1]) == pytest.approx(10.0)

    @pytest.mark.parametrize("law", ["theorem1-law", "effective-users-rab2", "effective-users"])
    @pytest.mark.parametrize("k", ["1e200", "1e308"])
    def test_huge_k_laws_are_finite(self, capsys, law, k):
        # Each law stays finite, where K(K+1), N(K+1) or 2 pi K would overflow.
        assert main(["analytic", "--law", law, "--k", k]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 7 and all(math.isfinite(float(r.split(",")[1])) for r in rows)

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
            (["simulate"], {"preset": {"output_path": 5}}, "preset.output_path"),
            (["simulate"], {"preset": {"overrides": {}}}, "preset.overrides: unknown key"),
            (["simulate"], {"network": {"max_power_cap": True}}, "network.max_power_cap"),
            (["espar"], {"espar": {"radius_wavelengths": "abc"}}, "espar.radius_wavelengths"),
            (["espar"], {"espar": {"radius_wavelengths": None}}, "espar.radius_wavelengths"),
            (["espar"], {"espar": {"element_angles": ["a"]}}, "espar.element_angles[0]"),
            (["espar"], {"espar": {"m_elements": True}}, "espar.m_elements"),
            (["espar"], {"espar": {"element_angles": [math.nan, 1.0, 2.0]}}, "espar:"),
            (["espar"], {"espar": {"feed_voltage": [1.0, math.inf]}}, "espar:"),
            (["espar", "--reactances", "a,b,c"], None, "--reactances"),
            (["espar", "--reactances", "1,2,3", "--grid", "3"], None, "--grid"),
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
            (["analytic", "--law", "ratio-pdf", "--k", "1e308"], None, "not finite at z = 0.5"),
            (["analytic", "--law", "ratio-cdf", "--k", "1e308"], None, "not finite at z = 0.5"),
            (["analytic", "--law", "normalizer", "--rho", "1e-308", "--n", "2,8"], None,
             "not finite at N = 8"),
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
        assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if payload else [])

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

    def test_out_from_environment_and_preset_are_checked(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, {"preset": {"name": "fig5", "output_path": "missing/a.csv"}})
        assert main(["simulate", "--config", cfg, "--trials", "100"]) == 2
        monkeypatch.setenv("COGMAC_OUT", "missing/b.csv")
        assert main(["simulate", "--preset", "fig5", "--trials", "100"]) == 2
        err = capsys.readouterr().err
        assert "output path 'missing/a.csv'" in err and "output path 'missing/b.csv'" in err
        assert "[simulate]" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
