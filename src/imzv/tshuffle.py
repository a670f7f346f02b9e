"""Product engines on words.

The recursive t-shuffle is the single source of truth: on letters a, b and
words w1, w2 it satisfies

    1 sh w = w sh 1 = w
    a.w1 sh b.w2 = a(w1 sh b.w2) + b(a.w1 sh w2)
                   - [w1 empty] rho(a) b.w2 - [w2 empty] rho(b) a.w1

with rho(x) = 0 and rho(y) = t x.  Every closed form in this package is
checked against this recursion.  A product of two plain words is always of
degree at most one in t (corrections contribute single standalone words, so
no path multiplies two t factors), which lets the recursion run on integer
coefficient pairs (c0, c1) meaning c0 + c1*t.
"""

from __future__ import annotations

from .coeffs import QtPoly, binom, make_qtpoly
from .halg import HElement, add_into, make_helement
from .words import Word


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


def interleavings(s1: str, s2: str):
    """Yield every order-preserving interleaving of two letter strings,
    one per merge pattern (C(n+m, n) of them, with repetitions as words)."""
    if not s1:
        yield s2
        return
    if not s2:
        yield s1
        return
    for rest in interleavings(s1[1:], s2):
        yield s1[0] + rest
    for rest in interleavings(s1, s2[1:]):
        yield s2[0] + rest


def _add_pair(table: dict, w: str, c0: int, c1: int):
    old = table.get(w)
    if old is None:
        table[w] = (c0, c1)
    else:
        n0, n1 = old[0] + c0, old[1] + c1
        if n0 or n1:
            table[w] = (n0, n1)
        else:
            del table[w]


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
    out = {}
    for w, (c0, c1) in _tsh(u1, v, memo).items():
        _add_pair(out, a + w, c0, c1)
    for w, (c0, c1) in _tsh(u, v1, memo).items():
        _add_pair(out, b + w, c0, c1)
    if not u1 and a == "y":
        _add_pair(out, "x" + v, 0, -1)
    if not v1 and b == "y":
        _add_pair(out, "x" + u, 0, -1)
    memo[key] = out
    return out


def _pairs_to_helement(table: dict) -> HElement:
    terms = {}
    for w, (c0, c1) in table.items():
        if not c1:
            coeffs = {0: c0}
        else:
            coeffs = {0: c0, 1: c1} if c0 else {1: c1}
        terms[Word(w)] = make_qtpoly(coeffs)
    return make_helement(terms)


def tshuffle_words(w1, w2, cache: dict | None = None) -> HElement:
    """The t-shuffle product of two words, by direct recursion."""
    if cache is None:
        cache = {}
    return _pairs_to_helement(_tsh(Word(w1).letters, Word(w2).letters, cache))


def tshuffle(u: HElement, v: HElement, cache: dict | None = None) -> HElement:
    """Q[t]-bilinear extension of tshuffle_words, summed in one table of
    degree -> coefficient rows."""
    if cache is None:
        cache = {}
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
    """Plain shuffle of two strings as a word -> multiplicity table."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = {}
    for w, c in _sh(u[1:], v, memo).items():
        nw = u[0] + w
        out[nw] = out.get(nw, 0) + c
    for w, c in _sh(u, v[1:], memo).items():
        nw = v[0] + w
        out[nw] = out.get(nw, 0) + c
    memo[key] = out
    return out


def shuffle_words(w1, w2, cache: dict | None = None) -> HElement:
    """The ordinary shuffle product: sum over all order-preserving
    interleavings.  Equals the t-shuffle at t = 0."""
    if cache is None:
        cache = {}
    table = _sh(Word(w1).letters, Word(w2).letters, cache)
    return make_helement({Word(w): make_qtpoly({0: c}) for w, c in table.items()})


def yy_product_formula(m: int, n: int) -> HElement:
    """Closed form for y^m sh y^n:

        C(m+n, n) y^(m+n)
        - t * sum_{i=min(m,n)-1}^{m+n-2} [C(i, m-1) + C(i, n-1)] y^i x y^(m+n-i-1)
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    terms = {Word("y" * (m + n)): QtPoly.const(binom(m + n, n))}
    for i in range(max(min(m, n) - 1, 0), m + n - 1):
        c = binom(i, m - 1) + binom(i, n - 1)
        if c:
            w = Word("y" * i + "x" + "y" * (m + n - i - 1))
            terms[w] = QtPoly({1: -c})
    return HElement(terms)


def xy_block_sum(m: int, n: int) -> HElement:
    """The shuffle part of x^m sh y^n: one word per composition of m into
    n+1 runs, x^(m_1) y x^(m_2) y ... y x^(m_{n+1})."""
    acc = {}
    for comp in compositions(m, n + 1):
        w = "y".join("x" * c for c in comp)
        acc[w] = acc.get(w, 0) + 1
    return make_helement({Word(w): make_qtpoly({0: c}) for w, c in acc.items()})


def xy_merge_sum(m: int, n: int) -> HElement:
    """The t-part of x^m sh y^n: words where the last y merged into the x
    run, x^(m_1) y ... x^(m_{n-1}) y x^(m_n + m - i + 1) over compositions
    (m_1..m_n) of i, for 0 <= i <= m-1."""
    if m < 1 or n < 1:
        return HElement.zero()
    acc = {}
    for i in range(m):
        for comp in compositions(i, n):
            head = "".join("x" * c + "y" for c in comp[:-1])
            w = head + "x" * (comp[-1] + m - i + 1)
            acc[w] = acc.get(w, 0) + 1
    return make_helement({Word(w): make_qtpoly({0: c}) for w, c in acc.items()})


def xpow_times_ypow(m: int, n: int) -> HElement:
    """x^m sh y^n assembled from the two block sums."""
    return xy_block_sum(m, n) - xy_merge_sum(m, n).scale(QtPoly.t())


def split_product(a_word, b_word, k: int, cache: dict | None = None) -> HElement:
    """The t-shuffle a sh b computed by splitting a at letter position k
    (1 <= k <= len(a)):

        sum_{i=0}^{n} (a[:k-1] sh0 b[:i]) a_k (a[k:] sh b[i:])
        - (a[:k-1] sh0 b[:n-1].rho(b_n)) a_k a[k+1:]...
        - [k == m] sum_{i=0}^{n-1} (a[:m-1] sh0 b[:i]) rho(a_m) b[i:]

    where sh0 is the plain shuffle.  The value does not depend on k.
    """
    a = Word(a_word).letters
    b = Word(b_word).letters
    m, n = len(a), len(b)
    if not 1 <= k <= m:
        raise ValueError("k must satisfy 1 <= k <= len(a)")
    if cache is None:
        cache = {}
    shmemo = {}
    minus_t = QtPoly({1: -1})
    pre, mid, post = a[: k - 1], a[k - 1], a[k:]
    acc = {}
    for i in range(n + 1):
        left = shuffle_words(pre, b[:i], shmemo)
        right = tshuffle_words(post, b[i:], cache)
        add_into(acc, (left * HElement.from_word(mid)) * right)
    if n >= 1 and b[-1] == "y":
        left = shuffle_words(pre, b[: n - 1] + "x", shmemo)
        add_into(acc, (left * HElement.from_word(mid + post)).scale(minus_t))
    if k == m and a[-1] == "y":
        for i in range(n):
            left = shuffle_words(a[: m - 1], b[:i], shmemo)
            add_into(acc, (left * HElement.from_word("x" + b[i:])).scale(minus_t))
    return make_helement(acc)


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
    """The t-shuffle of two words given as (letter, exponent) blocks,
    computed by the block recursion: split the first block of a off,
    interleave its head with prefixes of b, and recurse on the rest.

    Zero exponents are allowed and ignored.  The recursion bottoms out at
    an empty a, and the plain shuffle handles the prefix factors, so this
    engine never calls the letter-level t-shuffle recursion.
    """
    a_blocks = tuple((ch, e) for ch, e in blocks_a if e > 0)
    b = _blocks_to_string(blocks_b)
    return _block_rec(a_blocks, b, {})


def _block_rec(a_blocks: tuple, b: str, shmemo: dict) -> HElement:
    if not a_blocks:
        return HElement.from_word(b)
    a1, m1 = a_blocks[0]
    head = a1 * (m1 - 1)
    tail_blocks = a_blocks[1:]
    tail = _blocks_to_string(tail_blocks)
    minus_t = QtPoly({1: -1})
    n = len(b)

    acc = {}
    # prefix-split sum: nonempty prefixes of b absorbed into the shuffle,
    # the empty prefix giving the a_1^{m_1} (rest sh b) term
    for i in range(1, n + 1):
        left = shuffle_words(head, b[:i], shmemo)
        right = _block_rec(tail_blocks, b[i:], shmemo)
        add_into(acc, (left * HElement.from_word(a1)) * right)
    add_into(acc, HElement.from_word(a1 * m1) * _block_rec(tail_blocks, b, shmemo))
    # single-block correction: one term per proper prefix of b, including
    # prefixes that end inside b's last block
    if len(a_blocks) == 1 and a1 == "y":
        for i in range(n):
            left = shuffle_words(head, b[:i], shmemo)
            add_into(acc, (left * HElement.from_word("x" + b[i:])).scale(minus_t))
    # trailing correction from b's last letter
    if n >= 1 and b[-1] == "y":
        left = shuffle_words(head, b[: n - 1] + "x", shmemo)
        add_into(acc, (left * HElement.from_word(a1 + tail)).scale(minus_t))
    return make_helement(acc)
