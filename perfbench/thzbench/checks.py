"""Output checks: run CSVs against the recorded references, replay reports.

Pure Python, so the benchmark process itself never imports thzris.
"""

from __future__ import annotations

import math
import re

CSV_HEADER = "sweep_value,scheme,snr_db,mean_rate,std_rate,n_real,mean_iters,mean_wall_ms"
KEY_COLUMNS = 3              # sweep_value, scheme, snr_db identify a row
RATE_COLUMNS = (3, 4)        # mean_rate, std_rate
RATE_REL_TOL = 1e-6          # reference mismatch beyond this fails the run
REPLAY_RATE = re.compile(r"^(agd|random)\s+rate at .*: (\S+) bps/Hz", re.M)


def _rows(text: str) -> tuple:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines[0] if lines else "", [ln.split(",") for ln in lines[1:]]


def check_csv(text: str, reference: str, n_real: int, compare_values: bool) -> dict:
    """Structure check always; value check against `reference` when
    `compare_values` (the reference seed and scale).

    Returns {"ok", "byte_equal", "problems"}; byte_equal is None when values
    were not compared.
    """
    problems = []
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(reference)
    if header != CSV_HEADER:
        problems.append(f"header {header!r}")
    if any(len(row) != 8 for row in rows):
        problems.append("row with a field count other than 8")
        return {"ok": False, "byte_equal": None, "problems": problems}
    keys = [tuple(row[:KEY_COLUMNS]) for row in rows]
    ref_keys = [tuple(row[:KEY_COLUMNS]) for row in ref_rows]
    if keys != ref_keys:
        problems.append(f"row keys differ from the reference ({len(keys)} vs {len(ref_keys)} rows)")
    for row in rows:
        if row[5] != str(n_real):
            problems.append(f"n_real {row[5]} != {n_real} in row {row[:3]}")
            break
        rates = [float(row[c]) for c in RATE_COLUMNS]
        if not all(math.isfinite(v) and v >= 0.0 for v in rates):
            problems.append(f"rate not finite and non-negative in row {row[:3]}")
            break
    byte_equal = None
    if compare_values and not problems:
        byte_equal = text == reference
        for row, ref in zip(rows, ref_rows):
            exact = [c for c in range(8) if c not in RATE_COLUMNS]
            if any(row[c] != ref[c] for c in exact):
                problems.append(f"row {row} differs from reference {ref}")
                break
            if any(abs(float(row[c]) - float(ref[c])) > RATE_REL_TOL * abs(float(ref[c]))
                   for c in RATE_COLUMNS):
                problems.append(f"rates {row[3:5]} beyond {RATE_REL_TOL:g} of reference {ref[3:5]}")
                break
    return {"ok": not problems, "byte_equal": byte_equal, "problems": problems}


def replay_rates(stdout: str) -> dict:
    """Scheme -> rate printed by `thzris replay`."""
    return {m.group(1): float(m.group(2)) for m in REPLAY_RATE.finditer(stdout)}


def replay_ok(code: int, stdout: str) -> bool:
    rates = replay_rates(stdout)
    return (code == 0 and set(rates) == {"agd", "random"}
            and all(math.isfinite(v) for v in rates.values()))
