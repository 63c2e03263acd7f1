"""Tier-1 ratchet: run the Tier-1 suite and hold it to its known state.

    python scripts/tier1_ratchet.py

Runs the Tier-1 command of ROADMAP.md with a JUnit report and exits 1,
naming the test, on any failure or collection error other than the
standing reds below, and also when a standing red passes or does not
run: whoever mends one removes it from ``STANDING_REDS`` and from
ROADMAP.md in the same change.  Exits 0 otherwise.  It also prints the
suite's total time and its five slowest tests, from the same report,
for Tier-1's one-minute budget (ROADMAP.md item 3).

pytest runs on one BLAS thread (``OPENBLAS_NUM_THREADS=1``) unless the
environment sets the count, as CI and the benchmark's workers do: at
tau = 1e-4 dense kappa moves with the thread count.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# known failures of the program, kept red until it is mended (ROADMAP.md,
# "Standing reds")
STANDING_REDS = {
    "tests/test_acceptance.py::test_criterion_03_asp_mesh_robustness_jacobi",
    "tests/test_acceptance.py::test_criterion_04_asp_gauss_seidel",
}


def _test_id(case: ET.Element) -> str:
    """``path::name`` of a JUnit test case (classes join the path); a
    collection error names only its module."""
    classname, name = case.get("classname", ""), case.get("name", "")
    if not classname:
        classname, name = name, ""
    parts = classname.split(".")
    for i in range(len(parts), 0, -1):
        path = "/".join(parts[:i]) + ".py"
        if (ROOT / path).is_file():
            return "::".join([path, *parts[i:], *filter(None, [name])])
    return "::".join(filter(None, [classname, name]))


def read_report(report: Path) -> tuple[dict, dict, float]:
    """The JUnit report's outcome ("passed", "failed" or "skipped") and
    seconds per test id, and the suite's total seconds (the sum over its
    ``testsuite`` elements)."""
    root = ET.parse(report).getroot()
    outcome, seconds = {}, {}
    for case in root.iter("testcase"):
        test = _test_id(case)
        bad = case.find("failure") is not None or case.find("error") is not None
        outcome[test] = "failed" if bad else (
            "skipped" if case.find("skipped") is not None else "passed")
        seconds[test] = float(case.get("time", 0.0))
    total = sum(float(suite.get("time", 0.0)) for suite in root.iter("testsuite"))
    return outcome, seconds, total


def timing_lines(seconds: dict, total: float) -> list[str]:
    """The total time, then the five slowest tests, slowest first."""
    lines = [f"{total:.1f} s in total; slowest:"]
    for test in sorted(seconds, key=seconds.get, reverse=True)[:5]:
        lines.append(f"  {seconds[test]:6.2f} s  {test}")
    return lines


def main() -> int:
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", f"--junitxml={report}"],
            cwd=ROOT, env=env).returncode
        if not report.is_file():
            print(f"tier1: pytest wrote no report (exit {code})")
            return 1
        outcome, seconds, total = read_report(report)
    problems = [f"unexpected failure: {t}" for t, o in sorted(outcome.items())
                if o == "failed" and t not in STANDING_REDS]
    problems += [f"standing red {o}: {t} (update STANDING_REDS and ROADMAP.md)"
                 for t in sorted(STANDING_REDS)
                 for o in [outcome.get(t, "not run")] if o != "failed"]
    if code not in (0, 1):
        problems.append(f"pytest exited {code}")
    for line in problems:
        print(f"tier1: {line}")
    for line in timing_lines(seconds, total):
        print(f"tier1: {line}")
    counts = {o: sum(v == o for v in outcome.values())
              for o in ("passed", "failed", "skipped")}
    print(f"tier1: {counts['passed']} passed, {counts['failed']} failed"
          f" ({len(STANDING_REDS)} standing), {counts['skipped']} skipped;"
          f" {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
