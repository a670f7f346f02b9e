"""Exact word-algebra products for interpolated zeta values.

The package implements the deformed shuffle product on words over {x,y}
with coefficients in Q[t], the closed product formulas it satisfies, the
map onto linear combinations of zeta symbols, and a double-precision
evaluator for cross-checking the resulting identities numerically.
"""

from .coeffs import QtPoly, binom, parse_qtpoly
from .words import (
    EMPTY_WORD,
    Index,
    Word,
    admissible_indices,
    admissible_words,
    all_words,
    dual,
    index_from_word,
    is_admissible,
    parse_index,
    parse_word,
    word_from_index,
    words_of_length,
)
from .halg import (
    HElement,
    helement_from_json,
    helement_to_json,
    parse_helement,
)
from .tshuffle import (
    block_product,
    shuffle_words,
    split_product,
    tshuffle,
    tshuffle_table,
    tshuffle_words,
)
from .closedforms import (
    alternating_product_closed_form,
    alternating_product_sum,
    alternating_product_weight4_form,
    compositions,
    expanded_height_one_product,
    height_one_product,
    height_two_product,
    pattern_product,
    xpow_times_ypow,
    yy_product_formula,
)
from .zeta import (
    INTERPOLATED,
    PLAIN,
    STAR,
    ZetaCombo,
    alternating_zeta_identity,
    euler_decomposition,
    expand_interpolation,
    interpolated_symbol,
    parse_zeta_combo,
    star_expand,
    star_view,
    zeta_combo_from_json,
    zeta_combo_to_json,
    zeta_map,
)
from .mzvnum import EvalResult, eval_combo, eval_mzv, zeta_ref
from .verify import DEFAULT_SEED, SUITES, Failure, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "EMPTY_WORD",
    "EvalResult",
    "Failure",
    "HElement",
    "INTERPOLATED",
    "Index",
    "PLAIN",
    "QtPoly",
    "STAR",
    "SUITES",
    "VerifyReport",
    "Word",
    "ZetaCombo",
    "admissible_indices",
    "admissible_words",
    "all_words",
    "alternating_product_closed_form",
    "alternating_product_sum",
    "alternating_product_weight4_form",
    "alternating_zeta_identity",
    "binom",
    "block_product",
    "compositions",
    "dual",
    "euler_decomposition",
    "eval_combo",
    "eval_mzv",
    "expand_interpolation",
    "expanded_height_one_product",
    "height_one_product",
    "height_two_product",
    "helement_from_json",
    "helement_to_json",
    "index_from_word",
    "interpolated_symbol",
    "is_admissible",
    "parse_helement",
    "parse_index",
    "parse_qtpoly",
    "parse_word",
    "parse_zeta_combo",
    "pattern_product",
    "shuffle_words",
    "split_product",
    "star_expand",
    "star_view",
    "tshuffle",
    "tshuffle_table",
    "tshuffle_words",
    "word_from_index",
    "words_of_length",
    "xpow_times_ypow",
    "yy_product_formula",
    "zeta_combo_from_json",
    "zeta_combo_to_json",
    "zeta_map",
    "zeta_ref",
]
