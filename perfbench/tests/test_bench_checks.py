"""Output checks against a recorded reference CSV and replay reports."""

import os

from thzbench import checks

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "reference", "desk-dump-replay.csv")


def _reference() -> str:
    with open(REFERENCE, encoding="utf-8", newline="") as fh:
        return fh.read()


def _with_first_rate(text: str, factor: float) -> str:
    lines = text.split("\n")
    row = lines[1].split(",")
    row[3] = format(float(row[3]) * factor, ".9g")
    lines[1] = ",".join(row)
    return "\n".join(lines)


def test_reference_matches_itself_bytewise():
    ref = _reference()
    result = checks.check_csv(ref, ref, 50, compare_values=True)
    assert result == {"ok": True, "byte_equal": True, "problems": []}


def test_small_rate_drift_passes_but_is_not_byte_equal():
    ref = _reference()
    result = checks.check_csv(_with_first_rate(ref, 1 + 1e-8), ref, 50, compare_values=True)
    assert result["ok"] and result["byte_equal"] is False


def test_rate_drift_beyond_tolerance_fails():
    ref = _reference()
    assert not checks.check_csv(_with_first_rate(ref, 1 + 1e-4), ref, 50,
                                compare_values=True)["ok"]


def test_structure_check_at_other_seeds():
    ref = _reference()
    drifted = _with_first_rate(ref, 1.5)
    assert checks.check_csv(drifted, ref, 50, compare_values=False)["ok"]
    assert not checks.check_csv(drifted, ref, 49, compare_values=False)["ok"]
    assert not checks.check_csv(_with_first_rate(ref, float("nan")), ref, 50,
                                compare_values=False)["ok"]
    assert not checks.check_csv(ref.replace("agd,", "xgd,"), ref, 50,
                                compare_values=False)["ok"]


def test_replay_report_parsing():
    out = ("seed 7\nagd      rate at 10 dB: 12.345 bps/Hz (64 elements, 4 streams)\n"
           "random   rate at 10 dB: 3.210 bps/Hz (64 elements, 4 streams)\n")
    assert checks.replay_rates(out) == {"agd": 12.345, "random": 3.21}
    assert checks.replay_ok(0, out)
    assert not checks.replay_ok(1, out)
    assert not checks.replay_ok(0, out.replace("3.210", "nan"))
    assert not checks.replay_ok(0, out.splitlines()[1])
