"""Closed product formulas for whole families of words.

Every closed form of the package lives here, and each produces the same
element as the recursive engine in tshuffle, but by direct summation
instead of the oracle's recursion.  The run formulas come first: Lemma
3.1's y^m sh y^n, whose correction family _yy_corrections the height-one
forms reuse inside longer words, and eq. (4.2)'s x^m sh y^n, one plain
word per composition of m into n+1 runs.  The general rule behind the
rest: walk the output y's in order, each taken from the left or the right
word together with the x's that land in front of it, weighted by the
number of ways those x's interleave; for the t part replace one y by x in
each merge pattern, namely whichever of the two source words' final y's
lands first in the output.  pattern_product is that walk, memoized on a
state of four ints (each word's next y and its x's still pending), with
the one replacement rule applied at the step that places the earlier
final y; height_two_product is pattern_product on its two words' shapes.
The height-one forms list the same terms family by family.  The grid
tests pin each function to the recursive engine exactly, coefficient by
coefficient, and none of them but alternating_product_sum calls that
engine.

Each single product sums into one halg signed table, word -> int c
meaning c if c > 0 and c*t if c < 0: a plain word adds +c and a merged
word -c, so within one product no sum cancels.  The table is wrapped once
with halg.from_signed.  The alternating sums mix signs:
alternating_product_sum folds its odd-i products into its even-i ones
with halg.accumulate, and the alternating closed forms sum QtPoly
coefficients with accumulate throughout.
"""

from __future__ import annotations

from math import comb

from .coeffs import QtPoly, binom
from .halg import HElement, accumulate, from_signed, make_helement
from .tshuffle import _check_letters, _tsh


def _zword(exps) -> str:
    """The word z_{e1+1} ... z_{en+1} as a string, x^e y per entry."""
    return "".join("x" * e + "y" for e in exps)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order; none for a negative total.  Refuses a negative
    `parts`."""
    if parts < 0:
        raise ValueError("need parts >= 0")
    if total < 0:
        return
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


def _yy_corrections(m: int, n: int):
    """Lemma 3.1's correction family for y^m sh y^n: the words
    y^i x y^(m+n-i-1) with their coefficients C(i, m-1) + C(i, n-1), for
    i = min(m,n)-1 .. m+n-2, each at least 1; none when m or n is 0, as
    y^m sh 1 has no t part.  Each enters the product as -t times its
    coefficient; the height-one forms reuse the family inside longer words.
    """
    if not (m and n):
        return
    for i in range(max(min(m, n) - 1, 0), m + n - 1):
        yield "y" * i + "x" + "y" * (m + n - i - 1), binom(i, m - 1) + binom(i, n - 1)


def yy_product_formula(m: int, n: int) -> HElement:
    """Closed form for y^m sh y^n:

        C(m+n, n) y^(m+n)
        - t * sum_{i=min(m,n)-1}^{m+n-2} [C(i, m-1) + C(i, n-1)] y^i x y^(m+n-i-1)

    Refuses m + n over MAX_LETTERS before any work.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    _check_letters(m + n)
    acc = {"y" * (m + n): binom(m + n, n)}
    for w, c in _yy_corrections(m, n):
        acc[w] = -c
    return from_signed(acc)


def xpow_times_ypow(m: int, n: int) -> HElement:
    """x^m sh y^n: the block words x^(m_1) y x^(m_2) y ... y x^(m_{n+1}),
    one per composition of m into n+1 runs, minus t times the merge words
    x^(m_1) y ... x^(m_{n-1}) y x^(m_n + m - i + 1), where the last y
    merged into the x run, over compositions (m_1..m_n) of i < m.
    Refuses m + n over MAX_LETTERS before any work."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    _check_letters(m + n)
    acc = {"y".join("x" * c for c in comp): 1 for comp in compositions(m, n + 1)}
    for i in range(m if n >= 1 else 0):
        for comp in compositions(i, n):
            w = "".join("x" * c + "y" for c in comp[:-1]) + "x" * (comp[-1] + m - i + 1)
            acc[w] = acc.get(w, 0) - 1
    return from_signed(acc)


def pattern_product(a_exps, b_exps) -> HElement:
    """t-shuffle of x^{a1}y...x^{ar}y with x^{b1}y...x^{bs}y, built from
    the merge patterns of the y's (all exponents >= 0, at most MAX_LETTERS
    letters in both words together).

    Each pattern contributes its multinomially filled words, minus t times
    the same words with one y turned into x: the earlier of the two final
    y's.  The later final y stays, so every output word still ends in y.

    One memoized walk places the output y's in order.  Its state is four
    ints: the next y of each word and the x's still pending from each
    word's current run.  The next y comes from the left (0) or the right
    (1) word; it takes all x's still pending from its own word's run plus
    the first q of the other word's, which interleave in comb(run + q, q)
    ways.  Each state returns the signed table of every output suffix from
    there.  A word's final y placed while the other word still has a y to
    place is the earlier final y, so that step, of weight m and x run
    head, adds each suffix word w with coefficient c both as head+"y"+w at
    m*c and as head+"x"+w at -m*c; every suffix after it is plain (c > 0).
    """
    a_exps, b_exps = tuple(a_exps), tuple(b_exps)
    if not a_exps or not b_exps:
        raise ValueError("need at least one y run on each side")
    if min(a_exps + b_exps) < 0:
        raise ValueError("need exponents >= 0")
    _check_letters(sum(a_exps + b_exps) + len(a_exps) + len(b_exps))
    # each word's x runs, then an empty run after its final y
    exps = (a_exps + (0,), b_exps + (0,))
    ends = (len(a_exps), len(b_exps))
    # state: each word's next y, then each word's pending x's; with both
    # words placed the only suffix left is the empty word
    memo: dict = {ends + (0, 0): {"": 1}}

    def suffix(state):
        """Signed table of every output suffix after state."""
        if state in memo:
            return memo[state]
        acc = memo[state] = {}
        get = acc.get
        for side, other in ((0, 1), (1, 0)):
            i, own, theirs = state[side], state[2 + side], state[2 + other]
            if i == ends[side]:
                continue
            nxt = list(state)
            nxt[side], nxt[2 + side] = i + 1, exps[side][i + 1]
            # this word's final y, the other word's still to come
            turns = i + 1 == ends[side] and state[other] < ends[other]
            for q in range(theirs + 1):
                nxt[2 + other] = theirs - q
                m, head = comb(own + q, q), "x" * (own + q)
                for w, c in suffix(tuple(nxt)).items():
                    plain = head + "y" + w
                    acc[plain] = get(plain, 0) + m * c
                    if turns:
                        merged = head + "x" + w
                        acc[merged] = get(merged, 0) - m * c
        return acc

    return from_signed(suffix((0, 0, a_exps[0], b_exps[0])))


def height_one_product(a: int, r: int, b: int, s: int) -> HElement:
    """Summation formula for x^a y^r sh x^b y^s, all arguments >= 1.

    Each word (x exponent e, own y count h, the other's g) contributes,
    for l = 1..h and each composition alpha of a+b into l+1 runs, with
    weight C(alpha_1, e): the plain word alpha with a y^{r+s-l} tail, times
    C(r+s-l-1, h-l); for l < h the t parts with an inner y^{i+1} x block
    and, when g = 1, a bumped final run; for l = h the final two runs
    merged with one extra x.  Refuses words over MAX_LETTERS letters in
    all before any work.
    """
    if min(a, r, b, s) < 1:
        raise ValueError("need a, r, b, s >= 1")
    _check_letters(a + r + b + s)
    acc: dict = {}
    get = acc.get
    # each family comes once per word: its x exponent, its own y count h
    # and the other word's y count g
    for e, h, g in ((a, r, s), (b, s, r)):
        for l in range(1, h + 1):
            for alpha in compositions(a + b, l + 1):
                ce = binom(alpha[0], e)
                if not ce:
                    continue
                head = _zword(alpha[:-1]) + "x" * alpha[-1]
                w = head + "y" * (r + s - l)
                acc[w] = get(w, 0) + ce * binom(r + s - l - 1, h - l)
                if l == h:
                    # final-run merge: the last two runs fuse around the replaced y
                    w = _zword(alpha[:-2]) + "x" * (alpha[-2] + alpha[-1] + 1) + "y" * g
                    acc[w] = get(w, 0) - ce
                    continue
                # inner replacement: ... x^{alpha_{l+1}} y, then each y^{h-l} sh y^{g-1} correction
                for w, c in _yy_corrections(h - l, g - 1):
                    w = head + "y" + w
                    acc[w] = get(w, 0) - ce * c
                # single-height tail: only present when the other word has one y
                if g == 1:
                    w = head + "x" + "y" * (h - l)
                    acc[w] = get(w, 0) - ce
    return from_signed(acc)


def expanded_height_one_product(m: int, j: int, n: int, k: int) -> HElement:
    """Fully expanded form of x^m y^j sh x^n y^k, all arguments >= 1.

    Two plain families (split along which word supplies the leading x run)
    and five replacement families.  The fifth replacement family, active
    only for k = 1, restores the terms the chain loses when the right word
    carries a single y; without it the k = 1 column fails the oracle check.
    Refuses words over MAX_LETTERS letters in all before any work.
    """
    if min(m, j, n, k) < 1:
        raise ValueError("need m, j, n, k >= 1")
    _check_letters(m + j + n + k)
    acc: dict = {}
    get = acc.get

    # every binomial weight below is at least 1, as m, n >= 1
    for n1 in range(n + 1):
        cn = binom(m + n1 - 1, m - 1)
        # leading run absorbed from the left word, plain and with an inner
        # replacement inside the shared y tail
        for m1 in range(j + 1):
            m2 = j - m1
            cm = cn * binom(m2 + k - 1, k - 1)
            for aa in compositions(n - n1, m1 + 1):
                base = "y".join("x" * e for e in (aa[0] + m + n1, *aa[1:]))
                w = base + "y" * (m2 + k)
                acc[w] = get(w, 0) + cm
                for w, c in _yy_corrections(m2, k - 1):
                    w = base + "y" + w
                    acc[w] = get(w, 0) - cn * c
        # left word's last y merged into a bumped run
        for j1 in range(n - n1 + 1):
            j2 = n - n1 - j1
            for aa in compositions(j1, j):
                runs = [aa[0] + m + n1, *aa[1:]]
                runs[-1] += j2 + 1
                w = "y".join("x" * e for e in runs) + "y" * k
                acc[w] = get(w, 0) - cn
        # right word with one y: its y merged into a bumped run
        if k == 1:
            for i in range(j):
                for aa in compositions(n - n1, i + 1):
                    runs = [aa[0] + m + n1, *aa[1:]]
                    runs[-1] += 1
                    w = "y".join("x" * e for e in runs) + "y" * (j - i)
                    acc[w] = get(w, 0) - cn

    for k1 in range(1, k + 1):
        for m1 in range(m):
            m2 = m - 1 - m1
            ca = binom(m1 + n - 1, n - 1)
            # leading run absorbed from the right word, plain and with an
            # inner replacement past the bumped run
            cb = ca * binom(j + k - k1, j)
            for bb in compositions(m2, k1 + 1):
                runs = [bb[0] + n + m1, *bb[1:]]
                runs[-1] += 1
                base = "y".join("x" * e for e in runs)
                w = base + "y" * (j + k - k1)
                acc[w] = get(w, 0) + cb
                for w, c in _yy_corrections(j, k - k1):
                    w = base + w
                    acc[w] = get(w, 0) - ca * c

    # right word's last y merged, all of its y's used as separators
    for m1 in range(m):
        for m2 in range(m - m1):
            m3 = m - 1 - m1 - m2
            ca = binom(m1 + n - 1, n - 1)
            for aa in compositions(m2, k):
                runs = [aa[0] + n + m1, *aa[1:]]
                runs[-1] += m3 + 2
                w = "y".join("x" * e for e in runs) + "y" * j
                acc[w] = get(w, 0) - ca

    return from_signed(acc)


def height_two_product(a: int, r: int, b1: int, s1: int,
                       b2: int, s2: int) -> HElement:
    """t-shuffle of x^a y^r with x^{b1} y^{s1} x^{b2} y^{s2} (a, b1, b2 >= 0
    and r, s1, s2 >= 1): pattern_product on the two words' exponent tuples.

    The paper splits this product four ways, on where the left word's y's
    land in the right word's two y blocks, and names in each case the y
    turned into x.  Every case names the earlier of the two final y's, the
    one pattern_product turns: with no left y after the right word's first
    second-block y, the left final y; with s2 = 1 and a left y after it,
    that y, the right final y; with every right y before the first left
    y, the right final y; with r = 1 and a right y after it, the left
    final y; otherwise the earlier of the two, by name.
    """
    if min(r, s1, s2) < 1 or min(a, b1, b2) < 0:
        raise ValueError("need r, s1, s2 >= 1 and a, b1, b2 >= 0")
    a_exps = (a,) + (0,) * (r - 1)
    b_exps = (b1,) + (0,) * (s1 - 1) + (b2,) + (0,) * (s2 - 1)
    return pattern_product(a_exps, b_exps)


def alternating_product_sum(k: int, p: int, cache: dict | None = None) -> HElement:
    """sum_{i=0}^{k} (-1)^i  (z_p z_1^i sh z_p z_1^{k-i}) by the recursive
    engine.  Zero for odd k: the terms cancel in pairs.  Refuses words
    over MAX_LETTERS letters in all, 2p + k, before any work.  A cache
    passed in keeps the recursion's tables as in tshuffle_words."""
    if k < 1 or p < 1:
        raise ValueError("need k, p >= 1")
    _check_letters(2 * p + k)
    if cache is None:
        cache = {}
    zp = "x" * (p - 1) + "y"
    # every product has 2(p-1) x's in all, so the even-i products and the
    # odd-i ones each sum into one signed table, in which nothing cancels
    tables = ({}, {})
    for i in range(k + 1):
        acc = tables[i % 2]
        get = acc.get
        for w, c in _tsh(zp + "y" * i, zp + "y" * (k - i), cache).items():
            acc[w] = get(w, 0) + c
    even, odd = map(from_signed, tables)
    terms = even.terms  # a new dict, held by nothing else yet
    for w, c in odd.terms.items():
        accumulate(terms, w, -c)
    return make_helement(terms)


def alternating_product_closed_form(k: int, p: int) -> HElement:
    """Closed form of alternating_product_sum for even k.

    The plain part is a single family over compositions into k+2 runs; the
    t part stacks three unsigned families, two alternating families, and a
    parity-weighted family ending in a fixed xy block.  Refuses words over
    MAX_LETTERS letters in all, 2p + k, before any work.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    if k < 2 or k % 2:
        raise ValueError("closed form needs even k >= 2")
    _check_letters(2 * p + k)
    wt = 2 * (p - 1)
    acc: dict = {}

    def runs(parts):
        # compositions alpha of wt into parts runs, with 2 C(alpha_0, p-1);
        # those with alpha_0 < p - 1 weigh nothing and are skipped
        for a0 in range(p - 1, wt + 1):
            c = 2 * binom(a0, p - 1)
            for rest in compositions(wt - a0, parts - 1):
                yield (a0,) + rest, c

    for alpha, c in runs(k + 2):
        accumulate(acc, _zword(alpha), QtPoly.const(c))

    # bumped final run before a y^(k-l) tail, plus both two-run merges
    for l in range(1, k + 1):
        for alpha, c in runs(l + 1):
            w = _zword(alpha[:-1]) + "x" * (alpha[-1] + 1) + "y" * (k - l + 1)
            accumulate(acc, w, QtPoly({1: -c}))
    for alpha, c in runs(2):
        accumulate(acc, "x" * (alpha[0] + alpha[1] + 1) + "y" * (k + 1), QtPoly({1: -c}))
    for alpha, c in runs(k + 2):
        w = _zword(alpha[:k]) + "x" * (alpha[k] + alpha[k + 1] + 1) + "y"
        accumulate(acc, w, QtPoly({1: -c}))

    # alternating merge families, from both ends of the run list: -t c at
    # even i, +t c at odd i
    for i in range(1, k // 2 + 1):
        for alpha, c in runs(i + 2):
            w = (_zword(alpha[:i]) + "x" * (alpha[i] + alpha[i + 1] + 1)
                 + "y" * (k - i + 1))
            accumulate(acc, w, QtPoly({1: c if i % 2 else -c}))
    for i in range(1, k // 2):
        for alpha, c in runs(k - i + 2):
            w = (_zword(alpha[: k - i])
                 + "x" * (alpha[k - i] + alpha[k - i + 1] + 1)
                 + "y" * (i + 1))
            accumulate(acc, w, QtPoly({1: c if i % 2 else -c}))

    # parity-weighted family with a trailing xy block: its weight
    # 2 (-1 + (-1)^l) C(alpha_0, p-1) is -2c at odd l and zero at even l
    for l in range(1, k, 2):
        for alpha, c in runs(l + 1):
            w = _zword(alpha) + "xy" + "y" * (k - l - 1)
            accumulate(acc, w, QtPoly({1: 2 * c}))

    return make_helement(acc)


def alternating_product_weight4_form(k: int) -> HElement:
    """The p = 2 specialization of the alternating sum, for any k >= 1:
    zero for odd k, and for even k a single plain family with weights
    (a_{k+2} + 1) on the lead run plus two explicit t families.  Refuses
    words over MAX_LETTERS letters in all, k + 4, before any work."""
    if k < 1:
        raise ValueError("need k >= 1")
    _check_letters(k + 4)
    if k % 2:
        return HElement.zero()
    acc: dict = {}
    for aa in compositions(1, k + 2):
        c = 2 * (aa[-1] + 1)
        w = "x" * (aa[-1] + 1) + "y" + _zword(aa[:-1])
        accumulate(acc, w, QtPoly.const(c))
    for i in range(k):
        c = 2 * (2 * (-1) ** i - 1)
        accumulate(acc, "xy" + "y" * i + "xxy" + "y" * (k - i - 1), QtPoly({1: c}))
    accumulate(acc, "xxxy" + "y" * k, QtPoly({1: -6}))
    return make_helement(acc)
