"""Smoke tests for the scripts under scripts/.

The discrepancy report rebuilds defective variant readings from private
tshuffle helpers, so a change to those helpers shows here first.
"""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_discrepancy_report_main(capsys):
    assert load_script("discrepancy_report").main() == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["kind"] == "formula-discrepancy"
    assert report["count"] == len(report["reports"]) == 879
    assert {r["variant"] for r in report["reports"]} == {
        "expanded-height-one-without-unit-tail-family",
        "block-split-trailing-long",
        "block-split-boundary-prefixes",
        "alternating-merge-parity-family-clamped",
    }
