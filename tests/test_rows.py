"""The README sweep's rows as a checked contract, the rows of cells past
the product rule, and the rules of ``scripts/rows_diff.py`` that check
them.

``tests/data/readme_sweep_n16.json`` holds the README sweep's n <= 16
cells (54 cells, dense kappa) as ``SWEEP`` writes them with ``--out``.  ``tests/data/past_rule_rows.json`` holds the rows of
``PAST_RULE`` (every cell past ``assembly.factored_product_wins``, so
that CG applies A factored; the rule decides A's product alone, and the
ASP applies its transfers factored on every mesh) and
``tests/data/gauss_seidel_rows.json`` those of ``GAUSS_SEIDEL`` (the
Gauss-Seidel smoother of A and the sgs curl smoother) and
``tests/data/cycle_rows.json`` those of ``CYCLE`` (the composite cycle
on a vector and a scalar range) and ``tests/data/scale3d_rows.json``
those of ``SCALE3D`` (3-D cells at n = 8 and 16, the paper's 3-D range
below n = 32).  The tables are rewritten by

    PYTHONPATH=src python tests/test_rows.py [readme past_rule cycle gauss_seidel scale3d]

which rewrites the named ones, or all of them when none is named.  A
change that moves a row rewrites the file and says in CHANGES.md which
rows moved and why.
"""

import importlib.util
import json
import os
import subprocess
import sys
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
    ExperimentSpec("curl", 2, (3,), (32,), (1e-4, 1.0, 1e4), precond="asp",
                   report=("iters", "cond")),
    ExperimentSpec("curl", 3, (2,), (8,), (1e-4,), precond="asp",
                   report=("iters", "cond")),
    ExperimentSpec("div", 3, (2,), (8,), (1e-4,), precond="asp"),
    ExperimentSpec("div", 3, (2,), (8,), (1.0,), precond="asp-glt",
                   curl_smoother="sgs", nu2_rule="pcube"),
    ExperimentSpec("curl", 2, (6,), (64,), (1e-4,), precond="asp-glt"),
]
CYCLE_PINNED = ROOT / "tests" / "data" / "cycle_rows.json"
CYCLE = [
    ExperimentSpec("curl", 3, (2,), (8,), (1e-4, 1.0), precond="asp-glt",
                   nu2_rule="pcube"),
    ExperimentSpec("div", 2, (1, 2), (8,), (1e-4, 1.0), precond="asp-glt"),
]
SCALE3D_PINNED = ROOT / "tests" / "data" / "scale3d_rows.json"
SCALE3D = [
    ExperimentSpec("curl", 3, (2,), (16,), (1e-4, 1.0), precond="asp"),
    ExperimentSpec("div", 3, (2,), (16,), (1e-4,), precond="asp"),
    ExperimentSpec("div", 3, (3,), (16,), (1e-4,), precond="asp-glt"),
    ExperimentSpec("curl", 3, (1, 2, 3), (8,), (1e-4,), precond="asp"),
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
    # since the factored and the CSR products differ in round-off; the
    # dense kappa of the Jacobi ASP cells within rows_diff's tolerance
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
        if want["kappa2"] is None:
            assert got["kappa2"] is None
        else:
            assert got["kappa2"] == pytest.approx(
                want["kappa2"], rel=rows_diff.TOLERANCES["kappa2"][0])
    assert sum(r["kappa2"] is not None for r in rows) == 4


def cycle_rows() -> list[dict]:
    return json.loads(emit([r for spec in CYCLE for r in run_experiment(spec)],
                           "json"))


def test_cycle_rows_match_the_pinned_table():
    # the composite cycle on 3-D curl (a vector range, past the product
    # rule) and 2-D div (a scalar range, below it): iteration counts and
    # convergence exactly; res_err only against tol, since the cycle's
    # truncated MINRES amplifies round-off
    assert [factored_product_wins(build_space(
        spec.problem, p, spec.n_values[0], dim=spec.dim, bc="essential"))
        for spec in CYCLE for p in spec.p_values] == [True, False, False]
    pinned, rows = json.loads(CYCLE_PINNED.read_text()), cycle_rows()
    assert len(pinned) == len(rows) == 6
    keyed = rows_diff._keyed(rows)
    assert keyed.keys() == rows_diff._keyed(pinned).keys()
    for key, want in rows_diff._keyed(pinned).items():
        got = keyed[key]
        assert (got["iters"], got["converged"]) == (want["iters"], want["converged"])
        assert got["converged"] and got["res_err"] <= 1e-6


def scale3d_rows() -> list[dict]:
    return json.loads(emit([r for spec in SCALE3D for r in run_experiment(spec)],
                           "json"))


def test_scale3d_rows_match_the_pinned_table():
    # the 3-D cells up to n = 16: iteration counts and convergence
    # exactly, the other columns within rows_diff's tolerances
    pinned, rows = json.loads(SCALE3D_PINNED.read_text()), scale3d_rows()
    assert len(pinned) == len(rows) == 7
    keyed = rows_diff._keyed(rows)
    assert keyed.keys() == rows_diff._keyed(pinned).keys()
    for key, want in rows_diff._keyed(pinned).items():
        got = keyed[key]
        assert (got["iters"], got["converged"]) == (want["iters"], want["converged"])
    problems, _ = rows_diff.compare(pinned, rows)
    assert problems == []


def gauss_seidel_rows() -> list[dict]:
    return json.loads(emit([r for spec in GAUSS_SEIDEL
                            for r in run_experiment(spec)], "json"))


def test_gauss_seidel_rows_match_the_pinned_table():
    pinned, rows = json.loads(GAUSS_SEIDEL_PINNED.read_text()), gauss_seidel_rows()
    assert len(pinned) == len(rows) == 11
    problems, _ = rows_diff.compare(pinned, rows)
    assert problems == []


def test_rewrite_refuses_an_unknown_table_before_writing_any():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__)), "readme", "nope"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.strip() == (
        "unknown table nope; choose from readme past_rule cycle gauss_seidel scale3d")


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


def _write(path: Path, rows: list[dict]) -> None:
    path.write_text(json.dumps(rows, indent=2) + "\n")


# the rewrite of each pinned table, by the name the command line takes
REWRITES = {
    "readme": lambda: main(SWEEP + ["--out", str(PINNED)]),
    "past_rule": lambda: _write(PAST_RULE_PINNED, past_rule_rows()),
    "cycle": lambda: _write(CYCLE_PINNED, cycle_rows()),
    "gauss_seidel": lambda: _write(GAUSS_SEIDEL_PINNED, gauss_seidel_rows()),
    "scale3d": lambda: _write(SCALE3D_PINNED, scale3d_rows()),
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(REWRITES)
    unknown = [name for name in names if name not in REWRITES]
    if unknown:
        sys.exit(f"unknown table {', '.join(unknown)}; "
                 f"choose from {' '.join(REWRITES)}")
    for name in names:
        REWRITES[name]()
