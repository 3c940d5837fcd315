"""What each subcommand loads: every CLI call here runs in a fresh
interpreter, as in-process tests find every module already imported and
would hide a lazy import that is broken or missing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogmac

SRC = str(Path(cogmac.__file__).resolve().parents[1])
# The child runs the CLI, then lists sys.modules into a file before it
# imports anything more.
CHILD = "\n".join([
    "import sys",
    "from cogmac import cli",
    "rc = cli.main(sys.argv[2:])",
    "loaded = sorted(sys.modules)",
    "open(sys.argv[1], 'w').write('\\n'.join([str(rc), *loaded]))",
])
# Modules a simulate run must not load: the other layers and what only
# they (or a thread pool) need.
NOT_FOR_SIMULATE = ("cogmac.validation", "cogmac.espar", "cogmac.stats", "cogmac.rab",
                    "json", "csv", "concurrent.futures", "logging")


def run_cli(tmp_path, *argv):
    """(exit code, loaded module names) of ``cogmac *argv`` in a fresh
    interpreter running in ``tmp_path``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    listing = tmp_path / "modules.txt"
    out = subprocess.run([sys.executable, "-c", CHILD, str(listing), *argv], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    rc, *loaded = listing.read_text().split("\n")
    return int(rc), set(loaded)


@pytest.mark.parametrize("preset", ["fig6", "fig7"])
def test_simulate_loads_only_the_simulator(tmp_path, preset):
    # fig6 builds the M >= 3 laws, fig7 draws baseline and M = 2 points.
    rc, loaded = run_cli(tmp_path, "simulate", "--preset", preset, "--trials", "300",
                         "--threads", "1", "--seed", "5", "--out", "out.csv")
    assert rc == 0 and (tmp_path / "out.csv").read_text().count("\n") > 1
    assert not loaded.intersection(NOT_FOR_SIMULATE)
    ours = {name for name in loaded if name == "cogmac" or name.startswith("cogmac.")}
    assert ours == {"cogmac", "cogmac.analytic", "cogmac.channels", "cogmac.simulator",
                    "cogmac.cli"}


def test_simulate_config_with_an_espar_section(tmp_path):
    (tmp_path / "cfg.json").write_text(
        '{"network": {"n_users": 8, "trials": 200}, "espar": {"m_elements": 4}}')
    rc, loaded = run_cli(tmp_path, "simulate", "--config", "cfg.json", "--out", "out.csv")
    assert rc == 0 and (tmp_path / "out.csv").read_text().count("\n") == 2
    assert {"cogmac.espar", "json"} <= loaded
    assert "cogmac.validation" not in loaded


def test_espar(tmp_path):
    rc, loaded = run_cli(tmp_path, "espar", "--reactances", "10,-20,15", "--grid", "64",
                         "--out", "pattern.csv")
    assert rc == 0 and (tmp_path / "pattern.csv").read_text().count("\n") == 65
    assert "cogmac.espar" in loaded and "cogmac.validation" not in loaded


def test_analytic(tmp_path):
    rc, loaded = run_cli(tmp_path, "analytic", "--law", "rab2-cdf", "--k", "2", "--out",
                         "law.csv")
    assert rc == 0 and (tmp_path / "law.csv").read_text().startswith("z,value\n")
    assert not loaded.intersection(("cogmac.validation", "cogmac.espar", "json", "csv"))


def test_validate_loads_validation_and_writes_its_report(tmp_path):
    # Exit 0 or 1: criterion 7 is the known red.  The report is written
    # with csv, imported in the command.
    rc, loaded = run_cli(tmp_path, "validate", "--level", "fast", "--out", "ks.csv")
    assert rc in (0, 1)
    assert (tmp_path / "ks.csv").read_text().startswith(
        "check,case,n,statistic,threshold_1pct,passed\n")
    assert {"cogmac.validation", "csv"} <= loaded
