#!/usr/bin/env python3
"""Accuracy and honesty report for the numeric evaluator.

Evaluates the series split at 1/2 (eval_mzv, eval_combo) and at 1/3 (the
duality suite) against independent references on families with known
closed forms, printing each split's true error next to its reported
estimate (floored at 1e-9) and its raw proven bound, then the duality gaps
of the 1/3 split over the weight <= 8 envelope.
"""

import math
import sys
import time

from imzv import mzvnum
from imzv.mzvnum import HALF, eval_mzv, zeta_ref
from imzv.verify import DUALITY_SPLIT
from imzv.words import admissible_indices, dual, index_from_word, word_from_index


def _row(label, parts, ref):
    cells = []
    for name, split in (("1/2", HALF), ("1/3", DUALITY_SPLIT)):
        r = eval_mzv(parts, split=split)
        point = mzvnum._split_point(split, r.cutoff_used)
        _, bound = mzvnum._split_series(word_from_index(parts), point)
        err = abs(r.value - ref)
        cells.append(
            "%s err=%.2e est=%.0e bound=%.2e n=%-3d honest=%s"
            % (name, err, r.error_estimate, bound, r.cutoff_used, err <= bound)
        )
    print("  %-16s %s" % (label, " | ".join(cells)))


def main() -> int:
    print("depth-one values against the single-series reference:")
    for s in range(2, 9):
        _row("z(%d)" % s, (s,), zeta_ref(s, 400))

    print("trailing-ones family z(2,1^k) = z(k+2):")
    for k in range(1, 7):
        _row("k=%d" % k, (2,) + (1,) * k, zeta_ref(k + 2, 400))

    print("even family z({2}^n) = pi^(2n)/(2n+1)!:")
    for n in range(1, 7):
        _row("n=%d" % n, (2,) * n, math.pi ** (2 * n) / math.factorial(2 * n + 1))

    print("closed forms:")
    for parts, ref, label in [
        ((2, 1), zeta_ref(3, 400), "z(2,1)=z(3)"),
        ((3, 1), math.pi ** 4 / 360, "z(3,1)=pi^4/360"),
        ((2, 2), math.pi ** 4 / 120, "z(2,2)=pi^4/120"),
        ((2, 1, 1), math.pi ** 4 / 90, "z(2,1,1)=z(4)"),
        ((3, 1) * 2, 2 * math.pi ** 8 / math.factorial(10), "z({3,1}^2)"),
    ]:
        _row(label, parts, ref)

    print("duality spread of the 1/3 split over the weight<=8 envelope:")
    start = time.perf_counter()
    cache = {}
    worst = (0.0, None)
    for idx in admissible_indices(8):
        partner = index_from_word(dual(word_from_index(idx)))
        r1 = eval_mzv(idx, cache=cache, split=DUALITY_SPLIT)
        r2 = eval_mzv(partner, cache=cache, split=DUALITY_SPLIT)
        gap = abs(r1.value - r2.value)
        if worst[1] is None or gap > worst[0]:
            worst = (gap, (idx.parts, partner.parts))
    print(
        "  worst |z(idx)-z(dual)| = %.3e at %s ~ %s   (%.3fs)"
        % (worst[0], worst[1][0], worst[1][1], time.perf_counter() - start)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
