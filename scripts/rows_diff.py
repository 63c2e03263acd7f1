"""Compare two sweep tables written by ``iga-asp run --format json``.

    python scripts/rows_diff.py OLD.json NEW.json

Rows are matched on their key columns (``KEYS``; rows with equal keys,
such as two specs that differ only in an option the table does not show,
are matched in their order).  A key column that no row of one table
carries, as in a table written before the column was added, is dropped
from both tables' keys, with a note naming it; a key that only some rows
lack reads ``None`` in them.  ``iters`` and ``converged`` must be
equal.  ``kappa2``, ``res_err`` and ``l2_err`` match when they differ by
at most ``max(floor, rtol * max(|old|, |new|))`` with the per-column
``(rtol, floor)`` of ``TOLERANCES``; ``None`` matches only ``None``.
``wall_ms`` is ignored, and any other column must be equal.  Prints the
largest deviation per toleranced column and one line per mismatch, and
exits 1 on any mismatch, a missing row or an extra row (0 otherwise).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

KEYS = ("problem", "dim", "p", "n", "tau", "precond", "smoother",
        "curl_smoother", "nu1", "nu2", "nu_asp")
IGNORED = ("wall_ms",)
# (rtol, floor) per column.  kappa2 has moved by up to 6.2e-9 relative
# under round-off (the BLAS thread count moves it too); res_err and
# l2_err of a solve stopped at tol 1e-6 sit at a round-off floor below
# 1e-12 and 1e-8 respectively
TOLERANCES = {
    "kappa2": (1e-6, 0.0),
    "res_err": (1e-4, 1e-12),
    "l2_err": (1e-4, 1e-8),
}


def key_columns(old: list[dict], new: list[dict]) -> tuple[str, ...]:
    """``KEYS`` less the columns that no row of a non-empty table
    carries."""
    return tuple(k for k in KEYS if not any(
        rows and all(k not in row for row in rows) for rows in (old, new)))


def _keyed(rows: list[dict], keys: tuple[str, ...] = KEYS) -> dict[tuple, dict]:
    """Rows by their ``keys`` columns plus the occurrence count of that
    key."""
    seen: Counter = Counter()
    out = {}
    for row in rows:
        key = tuple(row.get(k) for k in keys)
        out[key + (seen[key],)] = row
        seen[key] += 1
    return out


def compare(old: list[dict], new: list[dict],
            tolerances: dict = TOLERANCES) -> tuple[list[str], dict]:
    """``(mismatches, worst)``: one message per mismatching cell or row,
    and per toleranced column the largest relative difference
    ``|new - old| / max(|old|, |new|)`` over the matched rows."""
    keys = key_columns(old, new)
    old_rows, new_rows = _keyed(old, keys), _keyed(new, keys)
    problems = [f"missing row {key[:-1]}" for key in old_rows if key not in new_rows]
    problems += [f"extra row {key[:-1]}" for key in new_rows if key not in old_rows]
    worst = dict.fromkeys(tolerances, 0.0)
    for key, a in old_rows.items():
        b = new_rows.get(key)
        if b is None:
            continue
        for column in sorted(set(a) | set(b)):
            if column in KEYS or column in IGNORED:
                continue
            x, y = a.get(column), b.get(column)
            if column not in tolerances or x is None or y is None:
                if x != y:
                    problems.append(f"{key[:-1]} {column}: {x!r} -> {y!r}")
                continue
            diff = abs(y - x)
            scale = max(abs(x), abs(y))
            if diff:
                worst[column] = max(worst[column], diff / scale)
            rtol, floor = tolerances[column]
            if diff > max(floor, rtol * scale):
                problems.append(f"{key[:-1]} {column}: {x!r} -> {y!r} "
                                f"(rtol {rtol:g}, floor {floor:g})")
    return problems, worst


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python scripts/rows_diff.py OLD.json NEW.json",
              file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    problems, worst = compare(old, new)
    dropped = [k for k in KEYS if k not in key_columns(old, new)]
    if dropped:
        print(f"note: no row of one table carries {', '.join(dropped)}; "
              "rows are paired without them")
    for column, value in worst.items():
        print(f"{column}: largest relative difference {value:.3g}")
    for line in problems:
        print(f"MISMATCH {line}")
    print(f"{len(old)} old rows, {len(new)} new rows, "
          f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
