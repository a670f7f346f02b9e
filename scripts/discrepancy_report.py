#!/usr/bin/env python3
"""Emit a JSON formula-discrepancy report for defective variant readings.

The closed forms in the package correct several defects that plausible
variant readings of the typeset formulas contain.  Rather than patching
silently, this script reconstructs each defective variant, diffs it
against the recursive product oracle over a small grid, and prints the
differing monomials as a machine-readable report.

Variants covered:

* expanded-height-one-without-unit-tail-family: drops the replacement
  family that is active when the right word has a single y.
* block-split-trailing-long: the trailing correction of the block
  recursion shuffles one letter too many of the leading run.
* block-split-boundary-prefixes: the single-block correction only
  ranges over prefixes ending at block boundaries, missing prefixes
  that end inside the last block.
* alternating-merge-parity-family-clamped: the parity-weighted merge
  family of the alternating closed form restricted to k = 2.
"""

import json
import sys
from itertools import groupby, product

from imzv.cli import piped
from imzv.closedforms import (
    alternating_product_closed_form,
    alternating_product_sum,
    compositions,
    expanded_height_one_product,
)
from imzv.coeffs import QtPoly, binom
from imzv.halg import HElement, accumulate, make_helement
from imzv.tshuffle import _sh, tshuffle_words
from imzv.words import Word, all_words

# -t times the empty word: the right factor of every correction term
_MINUS_T = {"": QtPoly({1: -1})}


def _blocks(w) -> tuple:
    """Run-length encode a word into (letter, exponent) blocks."""
    return tuple((ch, len(list(run))) for ch, run in groupby(Word(w).letters))


def _add_concat(acc, left, mid, right):
    """Add the concatenation product left . mid . right of a plain shuffle
    table (int multiplicities) and a QtPoly table into the QtPoly table
    acc with accumulate, so a defective variant's sum may cancel."""
    for lw, l in left.items():
        for rw, r in right.items():
            accumulate(acc, lw + mid + rw, r * l)


def _diff_rows(diff: HElement):
    return [{"word": w or "1", "coeff": str(c)} for w, c in diff.sorted_terms()]


def _report(variant, parameters, oracle, got):
    return {
        "variant": variant,
        "parameters": parameters,
        "difference": _diff_rows(oracle - got),
    }


def expanded_without_unit_tail(m, j, n, k) -> HElement:
    """The expanded height-one form minus its k=1 replacement family."""
    full = expanded_height_one_product(m, j, n, k)
    if k != 1:
        return full
    # the family enters the full form as -t times these words
    family = {}
    for n1 in range(n + 1):
        cn = binom(m + n1 - 1, m - 1)
        if not cn:
            continue
        for i in range(j):
            for aa in compositions(n - n1, i + 1):
                runs = [aa[0] + m + n1, *aa[1:]]
                runs[-1] += 1
                w = "y".join("x" * e for e in runs) + "y" * (j - i)
                accumulate(family, w, QtPoly({1: cn}))
    return full + make_helement(family)


def block_split_variant(a_word, b_word, mode) -> HElement:
    """The block recursion with one of the defective readings, summed into
    QtPoly tables.  The script keeps its own copy of the recursion, which
    splits a at the end of its first block, so each defect sits where a
    typeset reading puts it."""

    def rec(a_blocks, b, shmemo):
        if not a_blocks:
            return {b: QtPoly.one()}
        a1, m1 = a_blocks[0]
        head = a1 * (m1 - 1)
        tail_blocks = a_blocks[1:]
        n = len(b)
        acc = {}
        for i in range(1, n + 1):
            right = rec(tail_blocks, b[i:], shmemo)
            _add_concat(acc, _sh(head, b[:i], shmemo), a1, right)
        _add_concat(acc, {a1 * m1: 1}, "", rec(tail_blocks, b, shmemo))
        if len(a_blocks) == 1 and a1 == "y":
            if mode == "boundary-prefixes":
                cuts = [0]
                pos = 0
                for _, e in _blocks(b)[:-1]:
                    pos += e
                    cuts.append(pos)
            else:
                cuts = range(n)
            for i in cuts:
                _add_concat(acc, _sh(head, b[:i], shmemo), "x" + b[i:], _MINUS_T)
        if n >= 1 and b[-1] == "y":
            run = a1 * m1 if mode == "trailing-long" else head
            tail = a1 + "".join(ch * e for ch, e in tail_blocks)
            _add_concat(acc, _sh(run, b[: n - 1] + "x", shmemo), tail, _MINUS_T)
        return acc

    return make_helement(rec(_blocks(a_word), Word(b_word).letters, {}))


def alternating_with_clamped_parity(k, p) -> HElement:
    """Alternating closed form with the parity family active only at k=2."""
    full = alternating_product_closed_form(k, p)
    if k == 2:
        return full
    # the full form includes the family, as -t times these words, at every
    # k; removing it at k != 2 yields the clamped reading
    family = {}
    for l in range(1, k):
        weight = 2 * (-1 + (-1) ** l)
        if not weight:
            continue
        for alpha in compositions(2 * (p - 1), l + 1):
            w = "".join("x" * e + "y" for e in alpha) + "xy" + "y" * (k - l - 1)
            accumulate(family, w, QtPoly({1: weight * binom(alpha[0], p - 1)}))
    return full + make_helement(family)


def main() -> int:
    reports = []
    cache = {}

    for m, j, n, k in product(range(1, 3), repeat=4):
        got = expanded_without_unit_tail(m, j, n, k)
        oracle = tshuffle_words(Word("x" * m + "y" * j), Word("x" * n + "y" * k), cache)
        if got != oracle:
            reports.append(
                _report(
                    "expanded-height-one-without-unit-tail-family",
                    {"m": m, "j": j, "n": n, "k": k},
                    oracle,
                    got,
                )
            )

    words = [w for w in all_words(4) if w.letters]
    for mode in ("trailing-long", "boundary-prefixes"):
        for wa in words:
            for wb in words:
                got = block_split_variant(wa, wb, mode)
                oracle = tshuffle_words(wa, wb, cache)
                if got != oracle:
                    reports.append(
                        _report(
                            "block-split-%s" % mode,
                            {"a": str(wa), "b": str(wb)},
                            oracle,
                            got,
                        )
                    )

    for k in (2, 4, 6):
        for p in (1, 2, 3):
            got = alternating_with_clamped_parity(k, p)
            oracle = alternating_product_sum(k, p)
            if got != oracle:
                reports.append(
                    _report(
                        "alternating-merge-parity-family-clamped",
                        {"k": k, "p": p},
                        oracle,
                        got,
                    )
                )

    out = {
        "schema": 1,
        "kind": "formula-discrepancy",
        "count": len(reports),
        "reports": reports,
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(piped(main))
