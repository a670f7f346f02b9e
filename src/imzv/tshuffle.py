"""Product engines on words.

The recursive t-shuffle is the single source of truth: on letters a, b and
words w1, w2 it satisfies

    1 sh w = w sh 1 = w
    a.w1 sh b.w2 = a(w1 sh b.w2) + b(a.w1 sh w2)
                   - [w1 empty] rho(a) b.w2 - [w2 empty] rho(b) a.w1

with rho(x) = 0 and rho(y) = t x.  Every closed form in this package is
checked against this recursion.  A product of two plain words is always of
degree at most one in t (corrections contribute single standalone words, so
no path multiplies two t factors), so every engine here sums into one
halg pair table, word -> (c0, c1) meaning c0 + c1*t, and wraps it once
with halg.from_pairs.  tshuffle_table hands out the recursion's table
itself, for a caller that prints it (imzv product) instead of wrapping it.

The two split engines share one step, _split: the split formula for
a sh b at one letter of a, summed from the tables of the tails
a[k:] sh b[i:] for every suffix b[i:] of b.  split_product takes those
tails from the recursion.  block_product splits at the end of a's first
block, and builds its tails with the same step bottom-up: from a's last
block to its first, each block suffix of a against every suffix of b,
each level from the one below, so no tail is computed twice.

A cache passed to tshuffle_words or shuffle_words holds the recursion's
tables under (u, v) and (u, v, 0) keys, and one entry for from_pairs
with a Word per distinct word and a QtPoly per distinct pair; every
product wrapped with that cache shares them, and a zeta_map of any of
them computes each shared word's index once.  Nothing is shared between
caches, and a call without one shares nothing with any other call.
"""

from __future__ import annotations

from .coeffs import QtPoly, binom
from .halg import HElement, add_pair, from_pairs, make_helement
from .words import MAX_LETTERS, Word


def _letters(w1, w2) -> tuple:
    """The letters of both words, refused above MAX_LETTERS in all."""
    u, v = Word(w1).letters, Word(w2).letters
    if len(u) + len(v) > MAX_LETTERS:
        raise ValueError("a product of words with %d letters in all is over the "
                         "limit of %d" % (len(u) + len(v), MAX_LETTERS))
    return u, v


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _add_prefixed(out: dict, b: str, table: dict, overlap: bool):
    """Add b.w for every word w of the pair table into out; the entries
    are stored directly unless some b.w may already be in out."""
    if overlap:
        for w, (c0, c1) in table.items():
            add_pair(out, b + w, c0, c1)
    else:
        for w, c in table.items():
            out[b + w] = c


def _tsh(u: str, v: str, memo: dict) -> dict:
    """t-shuffle of two plain strings as a word -> (c0, c1) table."""
    if not u:
        return {v: (1, 0)}
    if not v:
        return {u: (1, 0)}
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    a, u1 = u[0], u[1:]
    b, v1 = v[0], v[1:]
    # the words of a(u1 sh v) are all distinct, and for a != b none of
    # them begins like a word of b(u sh v1), so only a == b needs add_pair
    out = {a + w: c for w, c in _tsh(u1, v, memo).items()}
    _add_prefixed(out, b, _tsh(u, v1, memo), a == b)
    if not u1 and a == "y":
        add_pair(out, "x" + v, 0, -1)
    if not v1 and b == "y":
        add_pair(out, "x" + u, 0, -1)
    memo[key] = out
    return out


def tshuffle_table(w1, w2, cache: dict | None = None) -> dict:
    """The t-shuffle product of two words as the recursion's own pair
    table, str word -> (c0, c1) meaning c0 + c1*t, with no zero pairs:
    what tshuffle_words wraps, and what halg.table_str and table_json print
    without building a Word or a QtPoly per term.  Refuses words over
    MAX_LETTERS letters in all before any work.

    The table may be a cache entry or part of one, so it must not be
    mutated; a cache is kept as in tshuffle_words."""
    return _tsh(*_letters(w1, w2), {} if cache is None else cache)


def tshuffle_words(w1, w2, cache: dict | None = None) -> HElement:
    """The t-shuffle product of two words, by direct recursion: its pair
    table (tshuffle_table) wrapped with halg.from_pairs.

    A cache passed in keeps the recursion's tables, and one Word and one
    coefficient per distinct word and pair, for every later product that
    uses it; the results must not be mutated."""
    return from_pairs(tshuffle_table(w1, w2, cache), cache)


def tshuffle(u: HElement, v: HElement, cache: dict | None = None) -> HElement:
    """Q[t]-bilinear extension of tshuffle_words, summed in one table of
    degree -> coefficient rows."""
    if cache is None:
        cache = {}
    # the longest word on each side sets the depth of the recursion
    _letters(max(u.terms, key=len, default=""), max(v.terms, key=len, default=""))
    acc = {}
    for w1, a in u.terms.items():
        for w2, b in v.terms.items():
            ab = (a * b).coeffs.items()
            for w, (c0, c1) in _tsh(w1.letters, w2.letters, cache).items():
                row = acc.setdefault(w, {})
                for d, k in ab:
                    row[d] = row.get(d, 0) + k * c0
                    row[d + 1] = row.get(d + 1, 0) + k * c1
    terms = {}
    for w, row in acc.items():
        c = QtPoly(row)
        if c:
            terms[Word(w)] = c
    return make_helement(terms)


def _sh(u: str, v: str, memo: dict) -> dict:
    """Plain shuffle of two strings as a word -> (multiplicity, 0) table."""
    if not u:
        return {v: (1, 0)}
    if not v:
        return {u: (1, 0)}
    key = (u, v, 0)  # apart from _tsh's (u, v) keys in a shared memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = {u[0] + w: c for w, c in _sh(u[1:], v, memo).items()}
    _add_prefixed(out, v[0], _sh(u, v[1:], memo), u[0] == v[0])
    memo[key] = out
    return out


# -t times the empty word: the right factor of every correction term
_MINUS_T = {"": (0, -1)}


def _add_concat(acc: dict, left: dict, mid: str, right: dict):
    """Add the concatenation product left . mid . right into the pair table
    acc.  left is a plain shuffle table (c1 = 0), so every product stays of
    t-degree at most one."""
    for lw, (l0, _) in left.items():
        head = lw + mid
        for rw, (r0, r1) in right.items():
            add_pair(acc, head + rw, l0 * r0, l0 * r1)


def shuffle_words(w1, w2, cache: dict | None = None) -> HElement:
    """The ordinary shuffle product: sum over all order-preserving
    interleavings.  Equals the t-shuffle at t = 0.  A cache is kept and
    shared as in tshuffle_words, and one cache may serve both."""
    table = _sh(*_letters(w1, w2), {} if cache is None else cache)
    return from_pairs(table, cache)


def _yy_corrections(m: int, n: int):
    """Lemma 3.1's correction family for y^m sh y^n: the words
    y^i x y^(m+n-i-1) with their coefficients C(i, m-1) + C(i, n-1), for
    i = min(m,n)-1 .. m+n-2.  Each enters the product as -t times its
    coefficient; the height-one forms reuse the family inside longer words.
    """
    for i in range(max(min(m, n) - 1, 0), m + n - 1):
        yield "y" * i + "x" + "y" * (m + n - i - 1), binom(i, m - 1) + binom(i, n - 1)


def yy_product_formula(m: int, n: int) -> HElement:
    """Closed form for y^m sh y^n:

        C(m+n, n) y^(m+n)
        - t * sum_{i=min(m,n)-1}^{m+n-2} [C(i, m-1) + C(i, n-1)] y^i x y^(m+n-i-1)
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    acc = {}
    add_pair(acc, "y" * (m + n), binom(m + n, n), 0)
    for w, c in _yy_corrections(m, n):
        add_pair(acc, w, 0, -c)
    return from_pairs(acc)


def xpow_times_ypow(m: int, n: int) -> HElement:
    """x^m sh y^n: the block words x^(m_1) y x^(m_2) y ... y x^(m_{n+1}),
    one per composition of m into n+1 runs, minus t times the merge words
    x^(m_1) y ... x^(m_{n-1}) y x^(m_n + m - i + 1), where the last y
    merged into the x run, over compositions (m_1..m_n) of i < m."""
    acc = {}
    for comp in compositions(m, n + 1):
        add_pair(acc, "y".join("x" * c for c in comp), 1, 0)
    for i in range(m if n >= 1 else 0):
        for comp in compositions(i, n):
            head = "".join("x" * c + "y" for c in comp[:-1])
            add_pair(acc, head + "x" * (comp[-1] + m - i + 1), 0, -1)
    return from_pairs(acc)


def _split(a: str, b: str, k: int, tails, shmemo: dict) -> dict:
    """The split formula for a sh b at letter position k (1 <= k <= len(a)):

        sum_{i=0}^{n} (a[:k-1] sh0 b[:i]) a_k (a[k:] sh b[i:])
        - (a[:k-1] sh0 b[:n-1].rho(b_n)) a_k a[k+1:]...
        - [k == m] sum_{i=0}^{n-1} (a[:m-1] sh0 b[:i]) rho(a_m) b[i:]

    where sh0 is the plain shuffle, summed into a pair table.  tails[i] is
    the pair table of a[k:] sh b[i:] for i = 0..n.  The value does not
    depend on k.
    """
    m, n = len(a), len(b)
    pre, mid = a[: k - 1], a[k - 1]
    acc = {}
    for i in range(n + 1):
        _add_concat(acc, _sh(pre, b[:i], shmemo), mid, tails[i])
    if n >= 1 and b[-1] == "y":
        _add_concat(acc, _sh(pre, b[: n - 1] + "x", shmemo), a[k - 1:], _MINUS_T)
    if k == m and a[-1] == "y":
        for i in range(n):
            _add_concat(acc, _sh(pre, b[:i], shmemo), "x" + b[i:], _MINUS_T)
    return acc


def split_product(a_word, b_word, k: int, cache: dict | None = None) -> HElement:
    """The t-shuffle a sh b computed by splitting a at letter position k
    (1 <= k <= len(a)), with the oracle's tables for the tails a[k:] sh b[i:]
    (kept in cache, as in tshuffle_words).  The value does not depend on k.
    """
    a, b = _letters(a_word, b_word)
    if not 1 <= k <= len(a):
        raise ValueError("k must satisfy 1 <= k <= len(a)")
    if cache is None:
        cache = {}
    tails = [_tsh(a[k:], b[i:], cache) for i in range(len(b) + 1)]
    return from_pairs(_split(a, b, k, tails, {}))


def word_blocks(w) -> tuple:
    """Run-length encode a word into (letter, exponent) blocks."""
    s = Word(w).letters
    blocks = []
    for ch in s:
        if blocks and blocks[-1][0] == ch:
            blocks[-1][1] += 1
        else:
            blocks.append([ch, 1])
    return tuple((ch, e) for ch, e in blocks)


def _blocks_to_string(blocks) -> str:
    return "".join(ch * e for ch, e in blocks)


def block_product(blocks_a, blocks_b) -> HElement:
    """The t-shuffle of two words given as (letter, exponent) blocks: the
    split formula at the end of a's first block, with every tail built
    bottom-up by the same step (see the module docstring).

    Zero exponents are allowed and ignored.  The plain shuffle handles the
    prefix factors, so this engine never calls the letter-level t-shuffle
    recursion.
    """
    a_blocks = tuple((ch, e) for ch, e in blocks_a if e > 0)
    _, b = _letters(_blocks_to_string(a_blocks), _blocks_to_string(blocks_b))
    shmemo = {}
    # tables[i] is the pair table of s sh b[i:], s the block suffix of a so far
    tables = [{b[i:]: (1, 0)} for i in range(len(b) + 1)]
    s = ""
    for ch, e in reversed(a_blocks):
        s = ch * e + s
        tables = [_split(s, b[i:], e, tables[i:], shmemo) for i in range(len(b) + 1)]
    return from_pairs(tables[0])
