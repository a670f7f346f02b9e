"""Smoke tests for the scripts under scripts/.

The discrepancy report rebuilds defective variant readings from private
tshuffle helpers, so a change to those helpers shows here first.  The
calibration report reads the private series of mzvnum, and each of its
rows must find the true error within the proven bound.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

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
