"""Smoke tests for the scripts under scripts/.

The discrepancy report rebuilds defective variant readings from private
tshuffle helpers, so a change to those helpers shows here first.  The
calibration report reads the private series of mzvnum, and each of its
rows must find the true error within the proven bound.  The suite
summary must exit 1 and say FAIL when a report fails.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from imzv.verify import VerifyReport

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of the report's full output: any change to a variant, a grid or
# the oracle shows as a different digest
DISCREPANCY_REPORT_SHA256 = "6b15f1bcf82e6329667ab1bc7609be7fb383c817ea3f50a2c9c0329140e4da58"


def test_discrepancy_report_main(capsys):
    assert load_script("discrepancy_report").main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DISCREPANCY_REPORT_SHA256
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["kind"] == "formula-discrepancy"
    assert report["count"] == len(report["reports"]) == 879
    assert {r["variant"] for r in report["reports"]} == {
        "expanded-height-one-without-unit-tail-family",
        "block-split-trailing-long",
        "block-split-boundary-prefixes",
        "alternating-merge-parity-family-clamped",
    }


def test_calibrate_eval_main(capsys):
    assert load_script("calibrate_eval").main() == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "honest=" in line]
    assert len(rows) == 24
    assert "honest=False" not in out


def test_verify_all_exits_1_and_prints_fail_on_a_failing_report(monkeypatch, capsys):
    module = load_script("verify_all")
    failing = VerifyReport("oracle-laws")
    failing.record({"u": "xy"}, False, "lhs", "rhs", "xy")
    passing = VerifyReport("shuffle-consistency")
    passing.record({"u": "y"}, True)
    monkeypatch.setattr(module, "run_oracle_laws", lambda: failing)
    monkeypatch.setattr(module, "run_shuffle_consistency", lambda: passing)
    monkeypatch.setattr(module, "SUITES", {})
    assert module.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("oracle-laws") and lines[0].endswith("FAIL")
    assert lines[1] == "    {'u': 'xy'}  diff=xy"
    assert lines[2].startswith("shuffle-consistency") and lines[2].endswith("ok")
