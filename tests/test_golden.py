"""Golden outputs: each case of ``tests/golden/regen.py``, rerun, must give
the bytes of its checked-in file.

A mismatch names the file and its first differing row.  The files pin the
environment of their manifest: on another numpy, Python or platform, libm
and numpy's distribution code can move last bits, so there a mismatch says
so in its message, and a match is reported as a skip, not a pass, until
``python tests/golden/regen.py`` rewrites the files there.
"""

import json
from itertools import zip_longest

import pytest

from cogmac import validation
from golden import regen


def _environment_note():
    """None where the manifest's environment is this one, else what differs."""
    pinned = json.loads((regen.HERE / regen.MANIFEST).read_text(encoding="utf-8"))
    here = regen.environment()
    if pinned == here:
        return None
    return (f"golden files were written on {pinned}, this is {here}; "
            "last bits may differ between the two")


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
