#!/usr/bin/env python3
"""Run every verification suite at its default grid and print a summary."""

import sys

from imzv.cli import piped
from imzv.verify import SUITES, run_oracle_laws, run_shuffle_consistency


def main() -> int:
    reports = [run_oracle_laws(), run_shuffle_consistency()]
    reports.extend(fn() for fn in SUITES.values())
    ok = True
    for rep in reports:
        status = "ok" if rep.passed else "FAIL"
        print(
            "%-22s %5d/%-5d %7.2fs  %s"
            % (rep.suite, rep.cases_passed, rep.cases_total, rep.wall_time_s, status)
        )
        for f in rep.failures[:5]:
            print("    %s  diff=%s" % (f.parameters, f.diff[:100]))
        ok = ok and rep.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(piped(main))
