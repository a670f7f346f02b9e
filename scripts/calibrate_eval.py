#!/usr/bin/env python3
"""Accuracy and honesty report for the numeric evaluators.

Compares the split-at-1/2 series (eval_mzv) and the direct nested-sum
reference (eval_mzv_direct) against independent references on families
with known closed forms, printing each one's true error next to its
reported bound.  The series' bound is proven; the reference's estimate
is calibrated, so this is where its cutoffs and safety factor are tuned.
"""

import math
import sys
import time

from imzv.mzvnum import eval_mzv, eval_mzv_direct, zeta_ref
from imzv.words import admissible_indices, dual, index_from_word, word_from_index


def _row(label, parts, ref):
    cells = []
    for name, evaluate in (("series", eval_mzv), ("direct", eval_mzv_direct)):
        r = evaluate(parts)
        err = abs(r.value - ref)
        cells.append(
            "%s err=%.3e est=%.3e n=%-7d honest=%s"
            % (name, err, r.error_estimate, r.cutoff_used, err <= r.error_estimate)
        )
    print("  %-16s %s" % (label, " | ".join(cells)))


def main() -> int:
    print("depth-one values against the single-series reference:")
    for s in range(2, 9):
        _row("z(%d)" % s, (s,), zeta_ref(s, 400))

    print("trailing-ones family z(2,1^k) = z(k+2):")
    for k in range(1, 7):
        _row("k=%d" % k, (2,) + (1,) * k, zeta_ref(k + 2, 400))

    print("closed forms:")
    for parts, ref, label in [
        ((2, 1), zeta_ref(3, 400), "z(2,1)=z(3)"),
        ((3, 1), math.pi ** 4 / 360, "z(3,1)=pi^4/360"),
        ((2, 2), math.pi ** 4 / 120, "z(2,2)=pi^4/120"),
        ((2, 1, 1), math.pi ** 4 / 90, "z(2,1,1)=z(4)"),
        ((2,) * 4, math.pi ** 8 / math.factorial(9), "z({2}^4)"),
        ((3, 1) * 2, 2 * math.pi ** 8 / math.factorial(10), "z({3,1}^2)"),
    ]:
        _row(label, parts, ref)

    print("direct-sum duality spread over the weight<=8 envelope:")
    start = time.perf_counter()
    cache = {}
    worst = (0.0, None)
    for idx in admissible_indices(8):
        partner = index_from_word(dual(word_from_index(idx)))
        r1 = eval_mzv_direct(idx, cache=cache)
        r2 = eval_mzv_direct(partner, cache=cache)
        gap = abs(r1.value - r2.value)
        if gap > worst[0]:
            worst = (gap, (idx.parts, partner.parts))
    print(
        "  worst |z(idx)-z(dual)| = %.3e at %s ~ %s   (%.1fs)"
        % (worst[0], worst[1][0], worst[1][1], time.perf_counter() - start)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
