"""The README sweep's rows as a checked contract, the rows of cells past
the product rule, and the rules of ``scripts/rows_diff.py`` that check
them.

``tests/data/readme_sweep_n16.json`` holds the README sweep's n <= 16
cells (54 cells, dense kappa) as written by ``SWEEP`` with
``--out``.  ``tests/data/past_rule_rows.json`` holds the rows of
``PAST_RULE`` (every cell past ``assembly.factored_product_wins``, so
that the ASP applies its transfer factored) and
``tests/data/gauss_seidel_rows.json`` those of ``GAUSS_SEIDEL`` (the
Gauss-Seidel smoother of A and the sgs curl smoother), both rewritten by

    PYTHONPATH=src python tests/test_rows.py

A change that moves a row rewrites the file and says in CHANGES.md which
rows moved and why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from iga_asp.assembly import factored_product_wins
from iga_asp.bench import ExperimentSpec, emit, run_experiment
from iga_asp.cli import main
from iga_asp.derham import build_space

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "readme_sweep_n16.json"
PAST_RULE_PINNED = ROOT / "tests" / "data" / "past_rule_rows.json"
PAST_RULE = [
    ExperimentSpec("curl", 2, (3,), (32,), (1e-4, 1.0, 1e4), precond="asp"),
    ExperimentSpec("curl", 3, (2,), (8,), (1e-4,), precond="asp"),
    ExperimentSpec("div", 3, (2,), (8,), (1e-4,), precond="asp"),
    ExperimentSpec("div", 3, (2,), (8,), (1.0,), precond="asp-glt",
                   curl_smoother="sgs", nu2_rule="pcube"),
    ExperimentSpec("curl", 2, (6,), (64,), (1e-4,), precond="asp-glt"),
]
GAUSS_SEIDEL_PINNED = ROOT / "tests" / "data" / "gauss_seidel_rows.json"
GAUSS_SEIDEL = [
    ExperimentSpec("curl", 2, (1, 2), (4, 8), (1e-2, 1e2), precond="asp",
                   smoother="gs", report=("iters", "cond", "errors")),
    ExperimentSpec("div", 3, (2,), (3,), (1e-4, 1.0, 1e4), precond="asp",
                   curl_smoother="sgs", report=("iters", "cond")),
]
SWEEP = ["run", "--problem", "curl", "--dim", "2", "--p", "1..3",
         "--n", "8,16", "--tau", "1e-4..1e4", "--precond", "asp",
         "--smoother", "jacobi", "--report", "iters,cond,errors",
         "--format", "json"]

README_DIV3D = ["run", "--problem", "div", "--dim", "3", "--p", "2,3",
                "--n", "8", "--tau", "1e-4", "--precond", "asp-glt",
                "--nu2", "pcube", "--curl-smoother", "sgs", "--format", "json"]
OPTION_KEYS = ("curl_smoother", "nu1", "nu2", "nu_asp")

_spec = importlib.util.spec_from_file_location(
    "rows_diff", ROOT / "scripts" / "rows_diff.py")
rows_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rows_diff)
KEYS_WITHOUT_OPTIONS = tuple(k for k in rows_diff.KEYS if k not in OPTION_KEYS)


def test_readme_sweep_rows_match_the_pinned_table(tmp_path):
    out = tmp_path / "rows.json"
    assert main(SWEEP + ["--out", str(out)]) == 0
    pinned, rows = json.loads(PINNED.read_text()), json.loads(out.read_text())
    assert len(pinned) == len(rows) == 54
    problems, _ = rows_diff.compare(pinned, rows)
    assert problems == []


def past_rule_rows() -> list[dict]:
    return json.loads(emit([r for spec in PAST_RULE for r in run_experiment(spec)],
                           "json"))


def test_rows_past_the_product_rule_match_the_pinned_table():
    # iteration counts and convergence exactly; res_err only against tol,
    # since the factored and the CSR products differ in round-off
    for spec in PAST_RULE:
        for p in spec.p_values:
            for n in spec.n_values:
                assert factored_product_wins(build_space(
                    spec.problem, p, n, dim=spec.dim, bc="essential"))
    pinned, rows = json.loads(PAST_RULE_PINNED.read_text()), past_rule_rows()
    assert len(pinned) == len(rows) == 7
    keyed = rows_diff._keyed(rows)
    assert keyed.keys() == rows_diff._keyed(pinned).keys()
    for key, want in rows_diff._keyed(pinned).items():
        got = keyed[key]
        assert (got["iters"], got["converged"]) == (want["iters"], want["converged"])
        assert got["res_err"] <= 1e-6


def gauss_seidel_rows() -> list[dict]:
    return json.loads(emit([r for spec in GAUSS_SEIDEL
                            for r in run_experiment(spec)], "json"))


def test_gauss_seidel_rows_match_the_pinned_table():
    pinned, rows = json.loads(GAUSS_SEIDEL_PINNED.read_text()), gauss_seidel_rows()
    assert len(pinned) == len(rows) == 11
    problems, _ = rows_diff.compare(pinned, rows)
    assert problems == []


def row(**changes) -> dict:
    out = {"problem": "curl", "dim": 2, "p": 2, "n": 8, "tau": 1.0,
           "precond": "asp", "smoother": "jacobi", "iters": 12,
           "converged": True, "kappa2": 9.5, "res_err": 4.0e-7,
           "l2_err": 2.0e-5, "wall_ms": 3.0}
    out.update(changes)
    return out


class TestRowsDiff:
    def test_equal_rows_match_whatever_their_wall_time(self):
        problems, worst = rows_diff.compare([row(), row(tau=10.0)],
                                            [row(tau=10.0, wall_ms=9.0), row()])
        assert problems == []
        assert worst == {"kappa2": 0.0, "res_err": 0.0, "l2_err": 0.0}

    @pytest.mark.parametrize("changes", [
        dict(iters=13), dict(converged=False, iters=None),
        dict(kappa2=9.5 * (1 + 1e-5)), dict(kappa2=None),
        dict(res_err=4.0e-7 * (1 + 1e-3)), dict(l2_err=2.1e-5),
        dict(l2_err=None), dict(error="MemoryError")])
    def test_a_moved_column_is_a_mismatch(self, changes):
        problems, _ = rows_diff.compare([row()], [row(**changes)])
        assert [c for c in changes if any(f" {c}: " in p for p in problems)] == (
            list(changes))
        assert len(problems) == len(changes)

    def test_tolerances_and_floors(self):
        # kappa2 within 1e-6 relative; l2_err and res_err below their
        # floors are round-off whatever their relative change
        new = row(kappa2=9.5 * (1 + 5e-7), l2_err=2.0e-5 * (1 + 5e-5),
                  res_err=4.0e-7 * (1 + 5e-5))
        problems, worst = rows_diff.compare([row()], [new])
        assert problems == []
        assert worst["kappa2"] == pytest.approx(5e-7, rel=1e-3)
        problems, _ = rows_diff.compare([row(l2_err=1e-9, res_err=1e-13)],
                                        [row(l2_err=5e-9, res_err=5e-13)])
        assert problems == []

    def test_missing_and_extra_rows(self):
        problems, _ = rows_diff.compare([row(), row(n=16)], [row(), row(p=3)])
        assert sorted(p.split(" ")[0] for p in problems) == ["extra", "missing"]

    def test_rows_with_equal_keys_match_in_order(self):
        # two specs that differ only in an option the table does not show
        old = [row(iters=5), row(iters=7)]
        assert rows_diff.compare(old, [row(iters=5), row(iters=7)])[0] == []
        assert len(rows_diff.compare(old, [row(iters=7), row(iters=5)])[0]) == 2

    def test_option_keys_pair_rows_and_read_none_when_absent(self):
        # two 3-D div rows that differ only in their curl smoother pair by
        # it, whatever their order; a table written before the option keys
        # existed reads them as None
        div = dict(problem="div", dim=3, precond="asp-glt", nu1=1, nu2=8,
                   nu_asp=3)
        old = [row(**div, curl_smoother="diag", iters=18),
               row(**div, curl_smoother="sgs", iters=4)]
        assert rows_diff.compare(old, old[::-1])[0] == []
        assert len(rows_diff.compare(old, [row(**div, curl_smoother="diag",
                                                iters=18)])[0]) == 1
        assert rows_diff.compare([row()], [row(curl_smoother=None, nu1=None,
                                               nu2=None, nu_asp=None)])[0] == []

    def test_a_key_no_row_of_a_table_carries_is_dropped(self):
        # rows that differ only in a dropped key pair in their order
        div = dict(problem="div", dim=3, precond="asp-glt")
        old = [row(**div, iters=18), row(**div, iters=4)]
        new = [row(**div, curl_smoother="diag", nu1=1, nu2=27, nu_asp=3,
                   iters=18),
               row(**div, curl_smoother="sgs", nu1=1, nu2=27, nu_asp=3,
                   iters=4)]
        assert rows_diff.key_columns(old, new) == KEYS_WITHOUT_OPTIONS
        assert rows_diff.compare(old, new)[0] == []
        assert rows_diff.compare(new, old)[0] == []
        assert len(rows_diff.compare(old, new[::-1])[0]) == 2
        assert rows_diff.key_columns(new, new[::-1]) == rows_diff.KEYS
        assert rows_diff.key_columns([], new) == rows_diff.KEYS

    def test_old_format_table_matches_a_new_one(self, tmp_path, capsys):
        # the README 3-D div example written before the option columns,
        # against the same table written now
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        assert main(README_DIV3D + ["--out", str(new)]) == 0
        rows = json.loads(new.read_text())
        assert {r["curl_smoother"] for r in rows} == {"sgs"}
        old.write_text(json.dumps([{k: v for k, v in r.items()
                                    if k not in OPTION_KEYS} for r in rows]))
        capsys.readouterr()
        for pair in ((old, new), (new, old)):
            assert rows_diff.main([str(path) for path in pair]) == 0
            out = capsys.readouterr().out
            assert ("note: no row of one table carries curl_smoother, nu1, "
                    "nu2, nu_asp") in out
            assert out.rstrip().endswith("2 old rows, 2 new rows, 0 mismatches")

    def test_exit_codes(self, tmp_path, capsys):
        old, same, moved = (tmp_path / f"{name}.json" for name in ("a", "b", "c"))
        old.write_text(json.dumps([row()]))
        same.write_text(json.dumps([row(wall_ms=1.0)]))
        moved.write_text(json.dumps([row(iters=11)]))
        assert rows_diff.main([str(old), str(same)]) == 0
        assert rows_diff.main([str(old), str(moved)]) == 1
        assert "MISMATCH" in capsys.readouterr().out
        assert rows_diff.main([str(old)]) == 2


if __name__ == "__main__":
    PAST_RULE_PINNED.write_text(json.dumps(past_rule_rows(), indent=2) + "\n")
    GAUSS_SEIDEL_PINNED.write_text(json.dumps(gauss_seidel_rows(), indent=2)
                                   + "\n")
