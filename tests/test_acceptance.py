"""Acceptance gate: every criterion at its stated tolerance and sample count.

Each test prints one pass/fail line (bypassing capture) and then asserts.
Criterion 7's strict 5x control margin is not attainable on the pinned
N <= 512 grid (see notes in the validation module); the test states the
criterion faithfully and is expected red, with the supplementary
restoration diagnostic printed alongside.

Every test reads the session fixture ``full`` (``tests/conftest.py``):
one ``validation.run_all("full")`` call, which runs the twelve checks
concurrently on every usable core, and which the golden validation files
read too; each test then asserts its own criterion (if a check raises, each test
reruns its own check, so only that criterion's test errors).  Runtime is
dominated by the four 100k-trial capacity checks: the file takes about
9 s on a 2-core Xeon (a shared host whose speed drifts by up to 2x).
"""


def announce_and_assert(capsys, number, result):
    with capsys.disabled():
        mark = "PASS" if result.passed else "FAIL"
        print(f"\nACCEPTANCE {number:02d} [{mark}] {result.check_id}: {result.detail}")
    assert result.passed, f"criterion {number}: {result.detail}"


def test_c01_quantile_identity(full, capsys):
    announce_and_assert(capsys, 1, full("quantile_identity"))


def test_c02_ratio_distribution_fit(full, capsys):
    announce_and_assert(capsys, 2, full("ratio_distribution_fit"))


def test_c03_frechet_normalization(full, capsys):
    announce_and_assert(capsys, 3, full("frechet_normalization"))


def test_c04_effective_users_moderate(full, capsys):
    announce_and_assert(capsys, 4, full("effective_users_moderate"))


def test_c05_large_k_growth(full, capsys):
    announce_and_assert(capsys, 5, full("large_k_growth"))


def test_c06_rab_effective_users(full, capsys):
    announce_and_assert(capsys, 6, full("rab_effective_users"))


def test_c07_rab_restores_log_growth(full, capsys):
    announce_and_assert(capsys, 7, full("rab_restores_log_growth"))


def test_c08_rab_distribution_facts(full, capsys):
    announce_and_assert(capsys, 8, full("rab_distribution_facts"))


def test_c09_rab_m2_closed_form(full, capsys):
    announce_and_assert(capsys, 9, full("rab_m2_closed_form"))


def test_c10_espar_identities(full, capsys):
    announce_and_assert(capsys, 10, full("espar_identities"))


def test_c11_special_functions(full, capsys):
    announce_and_assert(capsys, 11, full("special_functions"))


def test_c12_determinism(full, capsys):
    announce_and_assert(capsys, 12, full("determinism"))
