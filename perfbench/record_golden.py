#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Writes golden/product_table.json (a digest of both JSON forms of every
product-table row) and golden/cli_pool.json (the cli-session request pool
with the digest of each exact reply and the value and error estimate of
each eval).  The files in the repository were recorded from the commit
that introduced the benchmark; re-record only when an output format is
meant to change, never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_SEED = 1812


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = W.imzv("cli").main(list(argv))
    if rc != 0:
        raise SystemExit("request %r exited %d" % (argv, rc))
    return buf.getvalue()


def _eval_entry(combo: str, t: str):
    argv = ["eval", combo, "--t", t, "--tol", "1e-6", "--format", "json"]
    res = json.loads(_cli(argv))
    return {"argv": argv, "value": res["value"], "error_estimate": res["error_estimate"]}


def _exact_entry(argv):
    return {"argv": argv, "digest": W.digest(_cli(argv))}


def cli_pool():
    words, zeta = W.imzv("words"), W.imzv("zeta")
    tshuffle_words = W.imzv("tshuffle").tshuffle_words
    rng = random.Random(POOL_SEED)
    t_values = ("0", "1/2", "1")

    # eval: interpolated symbols of weight <= 8 and depth <= 3, written as
    # their plain expansion, and zeta images of word products of total
    # weight <= 6; t runs through 0, 1/2, 1 from one request to the next.
    combos = [zeta.expand_interpolation(zeta.interpolated_symbol(idx.parts))
              for idx in words.admissible_indices(8) if idx.depth <= 3]
    small = list(words.admissible_words(4))
    combos += [zeta.expand_interpolation(zeta.zeta_map(tshuffle_words(u, v)))
               for i, u in enumerate(small) for v in small[i:] if len(u) + len(v) <= 6]
    evals = [_eval_entry(str(c), t_values[i % 3]) for i, c in enumerate(combos)]

    def admissible(n):
        return "x" + "".join(rng.choice("xy") for _ in range(n - 2)) + "y"

    # The other kinds are sized to make the pool 40 % eval, 30 % product,
    # 20 % expand and 10 % dual/index.
    # product: admissible word pairs of total weight 14..18
    products = []
    for _ in range(55):
        total = rng.randint(14, 18)
        a = rng.randint(2, total - 2)
        products.append(_exact_entry(["product", admissible(a), admissible(total - a),
                                      "--format", "json"]))

    # expand: indices of depth 6..12
    expands = []
    for _ in range(36):
        parts = [rng.randint(2, 4)] + [rng.randint(1, 3) for _ in range(rng.randint(5, 11))]
        expands.append(_exact_entry(["expand", "(%s)" % ",".join(map(str, parts)),
                                     "--format", "json"]))

    # meta: dual and index of indices and words
    metas = []
    for i in range(18):
        if i % 2:
            parts = [rng.randint(2, 5)] + [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
            arg = "(%s)" % ",".join(map(str, parts))
        else:
            arg = admissible(rng.randint(2, 12))
        cmd = "dual" if i % 4 < 2 else "index"
        if cmd == "index" and i % 3 == 0:
            arg = "".join(rng.choice("xy") for _ in range(rng.randint(1, 10)))
        metas.append(_exact_entry([cmd, arg, "--format", "json"]))

    return {"eval": evals, "product": products, "expand": expands, "meta": metas}


def product_table(max_weight=None):
    max_weight = max_weight or W.TABLE_MAX_WEIGHT
    tshuffle_words = W.imzv("tshuffle").tshuffle_words
    zeta_map = W.imzv("zeta").zeta_map
    digests = {}
    for u, v in W.table_pairs(max_weight):
        prod = tshuffle_words(u, v)
        digests["%s*%s" % (u.letters, v.letters)] = W.digest(W.table_entry(prod, zeta_map(prod)))
    return {"max_weight": max_weight, "digests": digests}


def _write(name, obj):
    path = HERE / "golden" / name
    path.write_text(json.dumps(obj, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % path)


def main() -> int:
    _write("product_table.json", product_table())
    _write("cli_pool.json", cli_pool())
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads as W

    sys.exit(main())
