"""The product and expand replies, written from the engine tables.

`imzv product` prints the t-shuffle recursion's pair table and `imzv
expand` the fusion walk's rows without building an HElement or a
ZetaCombo.  These tests hold both replies, text and JSON, to what the
object writers print for the same product or expansion, replay the
benchmark's recorded request pool against its golden outputs, and pin the
pattern limit and the parsers' spaces on these paths.
"""

import hashlib
import json
import string
from pathlib import Path

import pytest
from test_rendering import _table_pairs

from imzv import (
    admissible_indices,
    expand_interpolation,
    helement_to_json,
    interpolated_symbol,
    parse_index,
    parse_qtpoly,
    parse_word,
    parse_zeta_combo,
    tshuffle_words,
    zeta_combo_to_json,
)
from imzv.cli import main
from imzv.coeffs import SPACES
from imzv.halg import parse_helement
from imzv.zeta import MAX_PATTERNS

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli_pool.json"


def reply(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def both_replies(capsys, *argv):
    code, text, _ = reply(capsys, *argv)
    assert code == 0, argv
    code, as_json, _ = reply(capsys, *argv, "--format", "json")
    assert code == 0, argv
    return text, as_json


def test_product_replies_equal_the_object_writers(capsys):
    pairs = _table_pairs()
    assert len(pairs) == 832
    for u, v in pairs:
        prod = tshuffle_words(u, v)
        text, as_json = both_replies(capsys, "product", str(u), str(v))
        assert text == str(prod) + "\n", (u, v)
        assert as_json == helement_to_json(prod) + "\n", (u, v)


def test_expand_replies_equal_the_object_writers(capsys):
    indices = [i for i in admissible_indices(12) if i.depth <= 8]
    assert len(indices) == 1980
    for idx in indices:
        combo = expand_interpolation(interpolated_symbol(idx.parts))
        text, as_json = both_replies(capsys, "expand", str(idx))
        assert text == str(combo) + "\n", idx
        assert as_json == zeta_combo_to_json(combo) + "\n", idx


def test_the_request_pool_replays_to_its_golden_replies(capsys):
    pool = json.loads(POOL.read_text(encoding="utf-8"))
    entries = [(kind, entry) for kind in sorted(pool) for entry in pool[kind]]
    assert len(entries) == 182
    for kind, entry in entries:
        code, out, err = reply(capsys, *entry["argv"])
        assert code == 0 and not err, entry["argv"]
        if kind == "eval":
            res = json.loads(out)
            tol = float(entry["argv"][entry["argv"].index("--tol") + 1])
            assert res["tol_ok"], entry["argv"]
            assert abs(res["value"] - entry["value"]) <= tol + entry["error_estimate"]
        else:
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            assert digest == entry["digest"], entry["argv"]


def test_expand_accepts_the_deepest_index_under_the_pattern_limit(capsys):
    # depth 18 has exactly 2^17 merge patterns, the limit itself
    index = "(2" + ",1" * 17 + ")"
    assert 1 << 17 == MAX_PATTERNS
    code, out, _ = reply(capsys, "expand", index)
    assert code == 0
    assert out.count("z(") == MAX_PATTERNS
    assert out.startswith("z(2" + ",1" * 17 + ") + t*z(2")
    assert out.endswith(" + t^17*z(19)\n")
    code, out, _ = reply(capsys, "expand", index, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["terms"]) == MAX_PATTERNS


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_refuses_one_part_more_before_any_row(capsys, monkeypatch, fmt):
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr("imzv.zeta._fusion_rows", no_rows)
    code, out, err = reply(capsys, "expand", "(2" + ",1" * 18 + ")", "--format", fmt)
    assert code == 2
    assert not out
    assert "expansion needs 262144 merge patterns" in err


def test_the_fusion_map_refuses_one_part_more_before_any_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr("imzv.zeta._fusion_rows", no_rows)
    with pytest.raises(ValueError, match="262144 merge patterns"):
        expand_interpolation(interpolated_symbol((2,) + (1,) * 18))


# spaces str.strip and the regex \s would take, and no parser may: an
# ideographic space, a no-break space and an information separator
OTHER_SPACES = ["　", "\xa0", "\x1c"]


@pytest.mark.parametrize("space", OTHER_SPACES)
def test_parsers_refuse_spaces_other_than_ascii(space):
    for parse, text in [
        (parse_qtpoly, " 1/2" + space),
        (parse_qtpoly, "1/2" + space + "+ t"),
        (parse_index, "(2," + space + "1)"),
        (parse_index, space + "(2,1)"),
        (parse_word, space + "xy"),
        (parse_helement, "xy" + space + "+ 2*xxy"),
        (parse_zeta_combo, "z(2)" + space + "+z(3)"),
        (parse_zeta_combo, "2*" + space + "z(3)"),
    ]:
        with pytest.raises(ValueError):
            parse(text)


@pytest.mark.parametrize("space", OTHER_SPACES)
@pytest.mark.parametrize("argv", [
    ("product", "{}xy", "xy"),
    ("expand", "(2,{}1)"),
    ("eval", "z(2){}+z(3)"),
    ("index", "(2,{}1)"),
    ("dual", "{}xxy"),
    ("eval", "z(2)", "--tol", "1e-6{}"),
    ("verify", "lemma31", "--max", "{}3"),
], ids=["product", "expand", "eval", "index", "dual", "eval-tol", "verify-max"])
def test_the_cli_refuses_spaces_other_than_ascii(capsys, argv, space):
    code, out, err = reply(capsys, *[a.format(space) for a in argv])
    assert code == 2
    assert not out
    assert "error" in err


def test_parsers_keep_reading_ascii_spaces(capsys):
    assert SPACES == string.whitespace
    assert str(parse_qtpoly(" \t1 / 2 +\nt ^ 2\r")) == "1/2 + t^2"
    assert parse_index("\t( 2 ,\x0b1 )\x0c").parts == (2, 1)
    assert parse_word(" xy\n").letters == "xy"
    assert str(parse_helement(" xy\t+ 2*xxy ")) == "xy + 2*xxy"
    assert str(parse_zeta_combo("z(2)\t+ 3 *\nz(3)")) == "z(2) + 3*z(3)"
    product = str(tshuffle_words(parse_word("xy"), parse_word("y")))
    assert reply(capsys, "product", " xy\t", "y")[:2] == (0, product + "\n")
    assert reply(capsys, "expand", " (2,\t1) ")[:2] == (0, "z(2,1) + t*z(3)\n")
    assert reply(capsys, "index", "\t(2, 1)")[0] == 0
    assert reply(capsys, "verify", "lemma31", "--max", " 3 ")[0] == 0
