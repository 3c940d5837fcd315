"""Golden outputs: each case of ``tests/golden/regen.py``, rerun, must give
the bytes of its checked-in file.

A mismatch names the file and its first differing row.  The files pin the
environment of their manifest: on another numpy, Python, platform or numpy
SIMD dispatch, libm, numpy's distribution code and its vector loops can
move last bits, so there a mismatch fails with a note that names each
difference, and a match is reported as a skip, not a pass, until
``python tests/golden/regen.py`` rewrites the files there.
"""

import json
import os
import subprocess
import sys
from itertools import zip_longest

import pytest

from cogmac import validation
from golden import regen

# The AVX-512 targets of numpy's x86 dispatch; with them off, np.exp and
# np.log take other vector loops.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _environment_note():
    """None where the manifest's environment is this one, else each difference."""
    pinned = json.loads((regen.HERE / regen.MANIFEST).read_text(encoding="utf-8"))
    here = regen.environment()
    if pinned == here:
        return None
    differences = "; ".join(f"{key} {pinned.get(key)} there, {here.get(key)} here"
                            for key in sorted(pinned.keys() | here.keys())
                            if pinned.get(key) != here.get(key))
    return f"golden files were written elsewhere ({differences}); last bits may differ"


def assert_matches_golden(name, text):
    golden = (regen.HERE / name).read_bytes().decode("utf-8")
    note = _environment_note()
    if text != golden:
        rows = zip_longest(golden.split("\n"), text.split("\n"))
        row, (want, got) = next((i, pair) for i, pair in enumerate(rows, 1) if pair[0] != pair[1])
        message = f"{name}: first differing row {row}:\n  golden: {want!r}\n  now:    {got!r}"
        pytest.fail(message if note is None else f"{note}\n{message}")
    if note is not None:
        pytest.skip(f"{name} is byte-identical, but {note}; run tests/golden/regen.py")


@pytest.mark.parametrize("name", sorted(regen.CLI_CASES))
def test_cli_output_is_golden(name):
    assert_matches_golden(name, regen.CLI_CASES[name]())


@pytest.mark.parametrize("name", sorted(regen.VALIDATE_CASES))
def test_full_validation_is_golden(name, full):
    results = [full(check_id) for check_id in validation.CHECK_IDS]
    assert_matches_golden(name, regen.VALIDATE_CASES[name](results))


def test_another_simd_dispatch_is_named():
    # One golden case in a process with numpy's AVX-512 targets off: its
    # failure, or its skip where the bytes still match, names the dispatch.
    disabled = [t for t in AVX512_TARGETS if t in regen.simd_dispatch()]
    if not disabled:
        pytest.skip(f"numpy dispatches none of {AVX512_TARGETS} here")
    pinned = json.loads((regen.HERE / regen.MANIFEST).read_text(encoding="utf-8"))
    left = [t for t in regen.simd_dispatch() if t not in disabled]
    if pinned.get("simd_dispatch") == left:
        pytest.skip(f"the golden files were written with the dispatch {left}")
    case = "tests/test_golden.py::test_cli_output_is_golden[analytic_ratio-cdf.txt]"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider", case],
        cwd=regen.HERE.parents[1], capture_output=True, text=True, timeout=300,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)})
    assert run.returncode in (0, 1), run.stdout + run.stderr
    note = f"simd_dispatch {pinned.get('simd_dispatch')} there, {left} here"
    assert note in run.stdout, run.stdout
