"""The report reading of ``scripts/tier1_ratchet.py``, on a synthetic
JUnit report; no suite runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "tier1_ratchet", ROOT / "scripts" / "tier1_ratchet.py")
tier1_ratchet = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1_ratchet)

REPORT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" tests="7" time="12.5">
<testcase classname="tests.test_krylov.TestMinres" name="test_a" time="0.5"/>
<testcase classname="tests.test_krylov.TestMinres" name="test_b" time="3.25">
<failure message="boom"/></testcase>
<testcase classname="tests.test_rows" name="test_c" time="4.0"/>
<testcase classname="tests.test_rows" name="test_d" time="0.01">
<skipped message="no"/></testcase>
<testcase classname="tests.test_cli" name="test_e" time="1.0"/>
<testcase classname="tests.test_cli" name="test_f" time="2.0"/>
<testcase classname="tests.test_cli" name="test_g" time="0.25"/>
</testsuite></testsuites>
"""


def test_outcomes_times_and_total(tmp_path):
    report = tmp_path / "tier1.xml"
    report.write_text(REPORT)
    outcome, seconds, total = tier1_ratchet.read_report(report)
    assert outcome["tests/test_krylov.py::TestMinres::test_b"] == "failed"
    assert outcome["tests/test_rows.py::test_c"] == "passed"
    assert outcome["tests/test_rows.py::test_d"] == "skipped"
    assert seconds["tests/test_krylov.py::TestMinres::test_b"] == 3.25
    assert total == 12.5


def test_timing_lines_name_the_five_slowest_first(tmp_path):
    report = tmp_path / "tier1.xml"
    report.write_text(REPORT)
    _, seconds, total = tier1_ratchet.read_report(report)
    lines = tier1_ratchet.timing_lines(seconds, total)
    assert lines[0] == "12.5 s in total; slowest:"
    assert [line.split()[-1] for line in lines[1:]] == [
        "tests/test_rows.py::test_c",
        "tests/test_krylov.py::TestMinres::test_b",
        "tests/test_cli.py::test_f",
        "tests/test_cli.py::test_e",
        "tests/test_krylov.py::TestMinres::test_a"]
