"""Tests for zeta-symbol combinations and the word-to-zeta dictionary.

An interpolated symbol stands for the one-parameter family linking the
ordinary nested sums (t = 0) to the star-normalized ones (t = 1);
expanding it merges adjacent parts, one power of t per merge.  The tests
fix the expansion on small indices, the text and JSON formats, and the
exact identities exported to the verify suites.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from imzv import (
    INTERPOLATED,
    PLAIN,
    STAR,
    HElement,
    Index,
    QtPoly,
    Word,
    ZetaCombo,
    admissible_indices,
    alternating_zeta_identity,
    eval_combo,
    eval_mzv,
    euler_decomposition,
    expand_interpolation,
    index_from_word,
    interpolated_symbol,
    is_admissible,
    parse_zeta_combo,
    pattern_product,
    star_expand,
    star_view,
    tshuffle_words,
    zeta_combo_from_json,
    zeta_combo_to_json,
    zeta_map,
)
from imzv.coeffs import binom
from imzv.halg import accumulate
from imzv.words import admissible_parts
from imzv.zeta import MAX_PATTERNS, _fuse, write_expansion

admissible = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4
).map(lambda p: Index([p[0] + 1] + p[1:]))
coeffs = st.builds(
    QtPoly,
    st.dictionaries(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-9, max_value=9).map(Fraction),
        max_size=2,
    ),
)
plain_combos = st.dictionaries(admissible, coeffs, max_size=3).map(
    lambda terms: ZetaCombo(PLAIN, terms)
)
interp_combos = st.dictionaries(admissible, coeffs, max_size=3).map(
    lambda terms: ZetaCombo(INTERPOLATED, terms)
)
star_combos = st.dictionaries(admissible, coeffs, max_size=3).map(
    lambda terms: ZetaCombo(STAR, terms)
)


def test_combo_rejects_non_admissible_index():
    with pytest.raises(ValueError):
        ZetaCombo(PLAIN, {Index((1, 2)): 1})
    with pytest.raises(ValueError, match="non-admissible"):
        parse_zeta_combo("z(1,2) - z(1,2)")


def test_combos_and_the_evaluator_refuse_a_non_admissible_index_alike():
    with pytest.raises(ValueError, match="non-admissible index"):
        eval_mzv((1, 2))
    with pytest.raises(ValueError, match="non-admissible index"):
        ZetaCombo("plain", {(1, 2): 1})


def test_combo_refuses_a_star_that_joins_a_coefficient_to_nothing():
    with pytest.raises(ValueError, match="no coefficient before"):
        parse_zeta_combo("*z(2)")
    with pytest.raises(ValueError, match="no coefficient before"):
        parse_zeta_combo("z(3) - * zs(2)")
    for text in ("2**z(2)", "t**z(2)", "2*"):
        with pytest.raises(ValueError, match="cannot parse polynomial term"):
            parse_zeta_combo(text)
    assert parse_zeta_combo("2 * z(2)") == parse_zeta_combo("2*z(2)")


def test_combo_rejects_kind_mixing():
    a = ZetaCombo(PLAIN, {Index((2,)): 1})
    b = ZetaCombo(STAR, {Index((2,)): 1})
    with pytest.raises(ValueError):
        a + b


def test_zeta_map_requires_admissible_words():
    v = HElement.from_word("yx")
    with pytest.raises(ValueError):
        zeta_map(v)


@pytest.mark.parametrize("word", ["yx", "xyx", "yy", "x"])
def test_zeta_map_names_the_word_outside_the_admissible_span(word):
    v = HElement.from_word("xy") + HElement.from_word(word, QtPoly.t())
    with pytest.raises(ValueError, match="word %s lies outside" % word):
        zeta_map(v)


def test_zeta_map_refuses_a_non_admissible_word_every_time_and_keeps_no_index():
    cache = {}
    prod = tshuffle_words("y", "xy", cache)
    bad = [w for w in prod.terms if not is_admissible(Word(w))]
    assert bad
    for _ in range(2):
        with pytest.raises(ValueError, match="lies outside the admissible span"):
            zeta_map(prod)
    # the same words, met again through the cache, are still refused
    again = tshuffle_words("xy", "y", cache)
    assert {w for w in again.terms if not is_admissible(Word(w))} == set(bad)
    with pytest.raises(ValueError):
        zeta_map(again)
    assert index_from_word(Word("yy")) == Index((1, 1))
    yy = Word("yy")
    index_from_word(yy)
    with pytest.raises(ValueError):
        zeta_map(HElement({yy: 1}))


def test_public_words_map_to_their_indices():
    w = Word("xxy")
    assert zeta_map(HElement({w: 2})) == ZetaCombo(INTERPOLATED, {Index((3,)): 2})
    assert index_from_word(w) == Index((3,))
    assert admissible_parts("xxy") is admissible_parts("xxy")
    assert zeta_map(HElement.from_word(Word("xyxxy"), QtPoly.t()), PLAIN) == ZetaCombo(
        PLAIN, {Index((2, 3)): QtPoly.t()}
    )


def test_zeta_map_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown combo kind"):
        zeta_map(HElement.from_word("xy"), kind="hybrid")


def test_zeta_map_sends_empty_word_to_scalar():
    v = HElement.unit().scale(QtPoly.const(3)) + HElement.from_word("xy", 2)
    zc = zeta_map(v)
    assert zc.scalar == QtPoly.const(3)
    assert zc.coeff(Index((2,))) == QtPoly.const(2)


def test_expansion_of_small_indices():
    assert str(expand_interpolation(interpolated_symbol((2,)))) == "z(2)"
    assert str(expand_interpolation(interpolated_symbol((2, 1)))) == "z(2,1) + t*z(3)"
    got = expand_interpolation(interpolated_symbol((2, 1, 1)))
    want = ZetaCombo(
        PLAIN,
        {
            Index((2, 1, 1)): 1,
            Index((3, 1)): QtPoly.t(),
            Index((2, 2)): QtPoly.t(),
            Index((4,)): QtPoly.t(2),
        },
    )
    assert got == want


@given(idx=admissible)
def test_expansion_has_one_term_per_merge_pattern(idx):
    got = expand_interpolation(interpolated_symbol(idx.parts))
    total = sum(c.eval_at(Fraction(1)) for c in got.terms.values())
    assert total == 2 ** (idx.depth - 1)
    assert all(sum(parts) == idx.weight for parts in got.terms)


def _mask_loop_expansion(zc):
    """Reference expansion: one mask per merge pattern, bit j - 1 set when
    part j is added to the part before it, in ascending mask order."""
    out = {}
    for parts, c in zc.terms.items():
        n = len(parts)
        for mask in range(1 << (n - 1)):
            merged = [parts[0]]
            for j in range(1, n):
                if mask >> (j - 1) & 1:
                    merged[-1] += parts[j]
                else:
                    merged.append(parts[j])
            accumulate(out, Index(merged), c * QtPoly.t(bin(mask).count("1")))
    return ZetaCombo(PLAIN, out, zc.scalar)


def test_expansion_matches_the_mask_loop():
    indices = [i for i in admissible_indices(12) if i.depth <= 8]
    assert len(indices) == 1980
    for idx in indices:
        zc = ZetaCombo(INTERPOLATED, {idx: QtPoly({0: 2, 1: -3})}, 5)
        got, want = expand_interpolation(zc), _mask_loop_expansion(zc)
        assert got == want, idx
        # one symbol's expansion is built in canonical order
        assert list(got.terms) == [i for i, _ in got.sorted_terms()], idx


def _walk_rows(parts):
    """Reference fusion rows: a depth-first walk from the first part to
    the last, closing the open rightmost sum before adding the next part
    into it, one (parts, additions) row per leaf, in the walk's order."""
    rows = []

    def walk(j, head, run, k):
        if j == len(parts):
            rows.append((head + (run,), k))
            return
        walk(j + 1, head + (run,), parts[j], k)
        walk(j + 1, head, run + parts[j], k + 1)

    walk(1, (), parts[0], 0)
    return rows


def _coeff_text(k):
    return "1" if k == 0 else "t" if k == 1 else "t^%d" % k


def _walk_text(parts):
    """What expand prints, written from the reference walk's rows."""
    terms = []
    for row, k in _walk_rows(parts):
        coeff = "" if k == 0 else _coeff_text(k) + "*"
        terms.append("%sz(%s)" % (coeff, ",".join(map(str, row))))
    return " + ".join(terms)


def _walk_json(parts):
    terms = [{"index": list(row), "coeff": _coeff_text(k)} for row, k in _walk_rows(parts)]
    return json.dumps({"kind": "plain", "scalar": "0", "terms": terms})


def test_expand_writes_the_rows_of_the_reference_walk():
    indices = [i for i in admissible_indices(12) if i.depth <= 8]
    assert len(indices) == 1980
    for idx in indices:
        assert write_expansion(idx, False) == _walk_text(idx.parts), idx
        assert write_expansion(idx, True) == _walk_json(idx.parts), idx


def test_expand_json_matches_the_walk_at_every_depth_up_to_the_limit():
    # depth 18 has 2^17 rows, the pattern limit
    for depth in range(1, 19):
        parts = (2,) + tuple(j % 3 + 1 for j in range(depth - 1))
        got = write_expansion(Index(parts), True)
        assert got == _walk_json(parts), parts
    assert 1 << (depth - 1) == MAX_PATTERNS


def test_fusion_sums_the_reference_walk_at_t_one_and_one_plus_2t():
    # every admissible index with parts of at most 3 and depth at most 6
    indices = [(first,) + rest for depth in range(1, 7) for first in (2, 3)
               for rest in itertools.product((1, 2, 3), repeat=depth - 1)]
    assert len(indices) == 728
    c = QtPoly({0: 2, 1: -3})
    for s in (QtPoly.t(), QtPoly.one(), QtPoly({0: 1, 1: 2})):
        scaled = [c]
        for _ in range(5):
            scaled.append(scaled[-1] * s)
        for parts in indices:
            got = _fuse({parts: c}, s)
            rows = _walk_rows(parts)
            # one symbol's rows are distinct, so the table keeps their order
            assert list(got) == [row for row, _ in rows], (s, parts)
            assert all(got[row] == scaled[k] for row, k in rows), (s, parts)


def test_expansion_drops_merged_terms_that_cancel():
    zc = interpolated_symbol((2, 1)) - interpolated_symbol((3,)).scale(QtPoly.t())
    got = expand_interpolation(zc)
    assert got == _mask_loop_expansion(zc)
    assert got == ZetaCombo(PLAIN, {Index((2, 1)): 1})
    assert str(got) == "z(2,1)"


def test_expansion_over_the_pattern_limit_builds_no_index(monkeypatch):
    zc = interpolated_symbol((2,) + (1,) * 17) + interpolated_symbol((3,) + (1,) * 10)

    def refuse(parts, *args):
        raise AssertionError("built %r despite the pattern limit" % (parts,))

    monkeypatch.setattr("imzv.zeta.Index", refuse)
    monkeypatch.setattr("imzv.zeta._fusion_rows", refuse)
    with pytest.raises(ValueError, match="more than the limit of %d" % MAX_PATTERNS):
        expand_interpolation(zc)


# t, -t, 1, 1/2 and 0: the interpolated, inverse, star, midway and plain weights
FUSION_WEIGHTS = [QtPoly.t(), -QtPoly.t(), QtPoly.one(), QtPoly.const(Fraction(1, 2)),
                  QtPoly.zero()]
light_tables = st.dictionaries(
    st.sampled_from(list(admissible_indices(8))), coeffs, max_size=4
).map(lambda terms: ZetaCombo(PLAIN, terms).terms)


@given(terms=light_tables)
def test_fusions_compose_by_adding_their_weights(terms):
    # S_r after S_s is S_(s+r); s = t, r = -t says that S_(-t) undoes S_t
    for s in FUSION_WEIGHTS:
        for r in FUSION_WEIGHTS:
            assert _fuse(_fuse(terms, s), r) == _fuse(terms, s + r), (s, r)
    assert _fuse(terms, QtPoly.zero()) is terms


def test_substitute_t_over_the_pattern_limit_is_refused():
    parts = (2,) + (1,) * 18  # 2^18 patterns, twice the limit
    star = ZetaCombo(STAR, {Index(parts): 1})
    for zc in (interpolated_symbol(parts), star):
        with pytest.raises(ValueError, match="more than the limit of %d" % MAX_PATTERNS):
            zc.substitute_t(0)


@given(zc=st.one_of(interp_combos, star_combos),
       t0=st.sampled_from([0, Fraction(1, 2), 1, Fraction(-1, 3)]))
def test_substitute_t_keeps_the_value_bit_for_bit(zc, t0):
    plain = zc.substitute_t(t0)
    assert plain.kind == PLAIN
    assert all(c.degree() <= 0 for c in plain.terms.values())
    want, got = eval_combo(zc, t0), eval_combo(plain, t0)
    assert got.value.hex() == want.value.hex()
    assert got.error_estimate.hex() == want.error_estimate.hex()
    assert (got.cutoff_used, got.tol_ok) == (want.cutoff_used, want.tol_ok)


def test_substitute_t_writes_each_kind_in_plain_symbols():
    want = parse_zeta_combo("z(2,1) + z(3)")
    assert interpolated_symbol((2, 1)).substitute_t(1) == want
    assert parse_zeta_combo("zs(2,1)").substitute_t(0) == want
    assert eval_combo(want, 1).value == eval_combo(interpolated_symbol((2, 1)), 1).value


def test_star_coefficients_keep_their_t():
    zc = parse_zeta_combo("t*zs(2)")
    assert star_expand(zc) == ZetaCombo(PLAIN, {Index((2,)): QtPoly.t()})
    assert zc.substitute_t(0).is_zero()
    assert eval_combo(zc, 0).value == 0.0
    assert eval_combo(zc, 2).value == 2 * eval_combo(parse_zeta_combo("z(2)")).value


def test_star_view_and_expansion():
    zc = interpolated_symbol((5, 1))
    assert str(star_view(zc)) == "zs(5,1)"
    assert str(star_expand(star_view(zc))) == "z(5,1) + z(6)"


def test_specializing_drops_a_coefficient_that_vanishes_there():
    one_minus_t = QtPoly({0: 1, 1: -1})
    zc = ZetaCombo(INTERPOLATED, {Index((2,)): one_minus_t, Index((3,)): QtPoly.t()})
    at1 = zc.substitute_t(1)
    assert at1.kind == PLAIN and at1.terms == {(3,): QtPoly.one()}
    assert star_view(zc).terms == {(3,): QtPoly.one()}
    assert zc.substitute_t(0).terms == {(2,): QtPoly.one()}


def test_combo_sums_repeated_indices_to_zero():
    assert (ZetaCombo(PLAIN, {Index((2,)): 1}) + ZetaCombo(PLAIN, {(2,): -1})).is_zero()


def test_substitute_t_specializes_kind():
    zc = interpolated_symbol((2, 1))
    at0 = expand_interpolation(zc).substitute_t(Fraction(0))
    assert at0 == ZetaCombo(PLAIN, {Index((2, 1)): 1})


@given(zc=plain_combos)
def test_str_parse_round_trip(zc):
    assert parse_zeta_combo(str(zc)) == zc


def test_parse_handles_scalars_and_signs():
    zc = parse_zeta_combo("3/2 + z(2) - (1 - 2*t)*z(3,1)")
    assert zc.scalar == QtPoly.const(Fraction(3, 2))
    assert zc.coeff(Index((2,))) == QtPoly.one()
    assert zc.coeff(Index((3, 1))) == QtPoly({0: -1, 1: 2})


def test_parse_rejects_mixed_symbols_and_bad_indices():
    with pytest.raises(ValueError):
        parse_zeta_combo("z(2) + zs(3)")
    with pytest.raises(ValueError):
        parse_zeta_combo("z(1,2)")
    for text in ("z(1_0)", "z(+2)", "2*z(3, +1)"):
        with pytest.raises(ValueError, match="cannot parse index"):
            parse_zeta_combo(text)


@given(zc=interp_combos)
def test_json_round_trip(zc):
    assert zeta_combo_from_json(json.loads(zeta_combo_to_json(zc))) == zc


def test_json_sums_the_rows_of_a_repeated_index():
    rows = [{"index": [2, 1], "coeff": "1"}, {"index": [2, 1], "coeff": "-1"}]
    obj = {"kind": "plain", "scalar": "0", "terms": rows}
    assert zeta_combo_from_json(obj).is_zero()
    assert zeta_combo_from_json(obj) == parse_zeta_combo("z(2,1) - z(2,1)")
    rows.append({"index": [2, 1], "coeff": "t"})
    assert zeta_combo_from_json(obj) == parse_zeta_combo("t*z(2,1)")
    # every row's index is checked as the constructor checks it
    for bad in ([2.0, 1], [1, 2], [], [2, 0]):
        with pytest.raises(ValueError):
            zeta_combo_from_json(dict(obj, terms=rows + [{"index": bad, "coeff": "1"}]))
    with pytest.raises(ValueError, match="unknown combo kind"):
        zeta_combo_from_json(dict(obj, kind="hybrid"))


def _keys_are_parts(zc):
    return zc.terms and all(
        type(p) is tuple and all(type(k) is int for k in p) for p in zc.terms)


def test_every_producer_keys_terms_by_parts():
    u = tshuffle_words("xy", "xxy")
    interp = zeta_map(u)
    plain = ZetaCombo(PLAIN, {Index((2, 1)): 2, (3,): QtPoly.t()})
    lhs, rhs = alternating_zeta_identity(2)
    produced = [
        plain,
        ZetaCombo(STAR, {(2,): 1, Index((3, 1)): -1}),
        parse_zeta_combo("2*z(2,2) + 4*z(3,1) - 6*t*z(4)"),
        parse_zeta_combo("zs(5,1)"),
        zeta_combo_from_json(json.loads(zeta_combo_to_json(interp))),
        interp,
        zeta_map(u, PLAIN),
        interp.to_plain(),
        expand_interpolation(interp),
        star_view(interp),
        star_expand(star_view(interp)),
        interp.substitute_t(Fraction(1, 2)),
        plain + plain,
        plain - ZetaCombo(PLAIN, {(2,): 1}),
        -plain,
        plain.scale(QtPoly({0: 2, 1: -1})),
        3 * plain,
        interpolated_symbol((2, 1)),
        interpolated_symbol([3, 1]),
        euler_decomposition(2, 3),
        lhs,
        rhs,
    ]
    for zc in produced:
        assert _keys_are_parts(zc), zc
    assert all(type(p) is tuple for p, _ in interp.sorted_terms())
    # a combo built from Index keys equals one built from tuple keys, and
    # coeff finds a term by either: an Index is its parts, so both are one key
    assert ZetaCombo(INTERPOLATED, {Index(p): c for p, c in interp.terms.items()}) == interp
    assert plain == ZetaCombo(PLAIN, {(2, 1): 2, Index((3,)): QtPoly.t()})
    assert plain.coeff(Index((2, 1))) == plain.coeff((2, 1)) == QtPoly.const(2)
    assert plain.coeff(Index((2, 2))) == plain.coeff([2, 2]) == QtPoly.zero()


def test_alternating_identity_holds_for_small_chains():
    for k in range(1, 15):
        lhs, rhs = alternating_zeta_identity(k)
        assert lhs == rhs, k
        if k % 2:
            assert lhs.is_zero()
        else:
            assert not lhs.is_zero()


def _depth_one_product(i, j):
    """The oracle: zeta image of the t-shuffle of x^(i-1)y and x^(j-1)y."""
    return zeta_map(tshuffle_words("x" * (i - 1) + "y", "x" * (j - 1) + "y"))


def _classical_euler(i, j):
    """The textbook z(i)z(j) = sum_k [C(k-1, i-1) + C(k-1, j-1)] z(k, i+j-k),
    kept here apart from the package's interpolated form."""
    terms = {}
    for k in range(1, j + 1):
        accumulate(terms, Index((i + j - k, k)), QtPoly.const(binom(i + j - k - 1, i - 1)))
    for k in range(1, i + 1):
        accumulate(terms, Index((i + j - k, k)), QtPoly.const(binom(i + j - k - 1, j - 1)))
    return ZetaCombo(PLAIN, terms)


def test_euler_decomposition_of_squares():
    zc = euler_decomposition(2, 2)
    assert zc.kind == INTERPOLATED
    assert str(zc) == "2*z(2,2) + 4*z(3,1) - 6*t*z(4)"
    assert zc.substitute_t(0) == parse_zeta_combo("2*z(2,2) + 4*z(3,1)")


def test_euler_decomposition_matches_the_oracle_in_qt():
    for i in range(2, 9):
        for j in range(2, 9):
            got, want = euler_decomposition(i, j), _depth_one_product(i, j)
            assert got.kind == want.kind == INTERPOLATED
            assert got.scalar == want.scalar
            assert got.terms == want.terms, (i, j)


def test_euler_decomposition_matches_product_at_t_zero():
    for i in range(2, 9):
        for j in range(2, 9):
            classical = _classical_euler(i, j)
            assert euler_decomposition(i, j).substitute_t(0) == classical, (i, j)
            assert _depth_one_product(i, j).substitute_t(Fraction(0)) == classical, (i, j)


def test_uniform_product_frozen_example():
    got = zeta_map(pattern_product((1, 1), (1,)))
    want = parse_zeta_combo(
        "3*z(2,2,2) + 4*z(2,3,1) - 6*t*z(2,4) + 4*z(3,1,2)"
        " + 4*z(3,2,1) - 6*t*z(3,3) - 3*t*z(4,2)"
    )
    assert got.terms == want.terms


