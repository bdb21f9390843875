"""Sign-off battery: one test per acceptance criterion.

Each test delegates to the shared runner in refleq.acceptance, so the
command line's "suite acceptance" and this module always agree.  A failure
message carries the runner's detail line verbatim.
"""

import pytest

from refleq import acceptance, relations
from refleq.acceptance import CRITERIA, run_criterion


def _run(index):
    rep = run_criterion(index)
    assert rep["ok"], f"criterion {index} ({rep['title']}): {rep['detail']}"


def test_01_fixed_point_counts():
    _run(1)


def test_02_charge_condition_example():
    _run(2)


def test_03_tangent_dimensions():
    _run(3)


def test_04_betti_structure():
    _run(4)


def test_05_longest_reflection_composite():
    _run(5)


def test_06_r_matrix_identities():
    _run(6)


def test_07_reflection_equation():
    _run(7)


def test_08_monodromy_exchange():
    _run(8)


def test_09_boundary_operator():
    _run(9)


def test_10_polarization_dichotomy():
    _run(10)


def test_11_flag_fixed_points():
    _run(11)


def test_reports_carry_no_timings():
    # the stdout report of "suite acceptance" must not vary between runs
    assert run_criterion(2) == run_criterion(2)


def test_progress_receives_the_timings():
    seen = []
    rep = run_criterion(2, progress=lambda *args: seen.append(args))
    assert len(seen) == 1
    assert seen[0][0] is rep
    assert seen[0][1] >= 0 and seen[0][2] is None


def test_budget_overrun_fails_the_criterion(monkeypatch):
    stub = ("stub", lambda: iter(()), -1.0, "fine")
    monkeypatch.setattr(acceptance, "CRITERIA", (stub,))
    rep = run_criterion(1)
    assert rep["ok"] is False
    assert rep["detail"].startswith("fine [exceeded -1.0s budget: ")


def test_a_failing_criterion_reports_its_first_four_failures(monkeypatch):
    stub = ("stub", lambda: (f"failure {i}" for i in range(6)), None, "fine")
    monkeypatch.setattr(acceptance, "CRITERIA", (stub,))
    rep = run_criterion(1)
    assert rep == {
        "ok": False,
        "detail": "failure 0; failure 1; failure 2; failure 3",
        "criterion": 1,
        "title": "stub",
    }


def test_a_failing_suite_item_fails_its_criterion_by_name(monkeypatch):
    # criterion 6 runs its Yang-Baxter items through relations.run_suite_item,
    # which looks check_ybe up on the module at call time
    def failing_ybe(l, mode="symbolic"):
        return {"identity": "yangBaxter", "l": l, "holds": False, "mode": mode, "detail": "stub"}

    monkeypatch.setattr(relations, "check_ybe", failing_ybe)
    rep = run_criterion(6)
    assert rep["ok"] is False
    assert rep["detail"].split("; ") == [
        "yangBaxter (l=2): holds is False",
        "yangBaxter (l=3): holds is False",
        "yangBaxter (l=4, mode=multipoint): holds is False",
        "yangBaxter (l=5, mode=multipoint): holds is False",
    ]


def test_battery_is_complete():
    assert len(CRITERIA) == 11


@pytest.mark.parametrize("index", [0, -10, 12])
def test_index_outside_the_battery_is_rejected(index):
    # 0 and negative indices would otherwise count from the end of CRITERIA
    with pytest.raises(ValueError, match=rf"criterion index {index} is outside 1\.\.11"):
        run_criterion(index)
