"""End-to-end tests for the imzv command line interface.

Each test drives main() with an argv list and checks stdout and the exit
code: 0 for success, 1 for a failed identity or tolerance, 2 for usage
and parse errors.
"""

import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from imzv import HElement, admissible_indices, cli, mzvnum, tshuffle_words, verify
from imzv.cli import main
from imzv.verify import SUITES, run_yy_products


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_known_example(capsys):
    code, out, _ = run(capsys, "product", "xy", "xy")
    assert code == 0
    assert out.strip() == "2*xyxy + 4*xxyy + (-6*t)*xxxy"


def test_product_with_unit_word(capsys):
    code, out, _ = run(capsys, "product", "x", "1")
    assert code == 0
    assert out.strip() == "x"


def test_product_rejects_bad_letters(capsys):
    code, _, err = run(capsys, "product", "x@", "y")
    assert code == 2
    assert "error:" in err


def test_product_refuses_words_over_the_letter_limit(capsys):
    code, out, err = run(capsys, "product", "x" * 1000, "x")
    assert code == 2
    assert out == ""
    assert "over the limit" in err


def test_product_json_format(capsys):
    code, out, _ = run(capsys, "product", "y", "y", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert {"word": "yy", "coeff": "2"} in obj
    assert {"word": "xy", "coeff": "-2*t"} in obj


def test_expand_depth_two(capsys):
    code, out, _ = run(capsys, "expand", "(2,1)")
    assert code == 0
    assert out.strip() == "z(2,1) + t*z(3)"


def test_expand_depth_one(capsys):
    code, out, _ = run(capsys, "expand", "(2)")
    assert code == 0
    assert out.strip() == "z(2)"


def test_expand_refuses_a_depth_beyond_the_pattern_limit(capsys):
    # depth 25 needs 2^24 merge patterns; the guard refuses it before any
    t0 = time.perf_counter()
    code, out, err = run(capsys, "expand", "(2" + ",1" * 24 + ")")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "merge patterns" in err
    assert not out


def test_expand_rejects_non_admissible(capsys):
    code, _, err = run(capsys, "expand", "(1,2)")
    assert code == 2
    assert "error:" in err


def test_eval_depth_one(capsys):
    code, out, _ = run(capsys, "eval", "z(2)", "--tol", "1e-8")
    assert code == 0
    assert out.startswith("1.64493407 ±")


def test_eval_combo(capsys):
    code, out, _ = run(capsys, "eval", "2*z(2,2)+4*z(3,1)", "--tol", "1e-6")
    assert code == 0
    assert out.startswith("2.70580808")


@pytest.mark.parametrize("combo, value", [("1/3", "0.33333333"), ("z(2) - z(2)", "0.00000000")])
def test_eval_of_no_symbols_reports_the_floor(capsys, combo, value):
    code, out, _ = run(capsys, "eval", combo)
    assert code == 0
    assert out == "%s ± 1.000e-09\n" % value


def test_eval_keeps_a_coefficient_of_high_degree_sparse(capsys):
    code, out, _ = run(capsys, "eval", "t^99999999*z(2)", "--t", "1")
    assert code == 0
    assert out == "1.64493407 ± 1.000e-09\n"


def test_eval_rejects_non_admissible(capsys):
    code, _, err = run(capsys, "eval", "z(1,2)")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("combo", ["*z(2)", "2**z(2)"])
def test_eval_refuses_a_star_that_joins_a_coefficient_to_nothing(capsys, combo):
    code, out, err = run(capsys, "eval", combo)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_eval_tolerance_failure_exits_one(capsys):
    # the estimate for 10^6 copies of z(2) cannot drop below 10^6 times
    # the single-term floor, so this tolerance is unreachable
    code, out, err = run(capsys, "eval", "1000000*z(2)", "--tol", "1e-6")
    assert code == 1
    assert "exceeds tolerance" in err
    assert out  # the value line still prints


@pytest.mark.parametrize("argv", [
    ("z(5,1)+t*z(6)", "--t", "1e400"),
    ("t^2000*z(2)", "--t", "2"),
    ("1" + "0" * 309 + "+z(2)",),
    # finite coefficients whose sum is not
    ("1" + "0" * 308 + "*z(2)+" + "1" + "0" * 308 + "*z(3)",),
])
def test_eval_refuses_coefficients_outside_double_range(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2
    assert not out
    assert err.startswith("error:") and "double range" in err
    assert err.count("\n") == 1


def test_eval_names_the_symbol_whose_coefficient_is_refused(capsys):
    code, out, err = run(capsys, "eval", "t^2000*z(2,1)", "--t", "2")
    assert code == 2
    assert not out
    assert "the coefficient of z(2,1) is outside the double range" in err


def test_eval_prints_a_value_near_the_double_limit_in_exponent_form(capsys):
    # finite, but eight decimals of it in fixed point would be 318 characters
    code, out, err = run(capsys, "eval", "1" + "0" * 308 + "*z(2)")
    assert code == 1
    assert out == "1.64493407e+308 ± 1.000e+299\n"
    assert "exceeds tolerance" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_eval_rejects_bad_tolerance(capsys, monkeypatch, tol):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated despite a bad tolerance")

    monkeypatch.setattr("imzv.cli.eval_combo", refuse)
    code, out, err = run(capsys, "eval", "z(2)", "--tol", tol)
    assert code == 2
    assert "--tol" in err
    assert not out


def test_eval_coefficients_at_t_one(capsys):
    # the t-coefficient switches on at t = 1, giving the star-normalized value
    code, out, _ = run(
        capsys, "eval", "z(5,1) + t*z(6)", "--t", "1", "--tol", "1e-6"
    )
    assert code == 0
    assert out.startswith("1.05787996")


def test_eval_keeps_the_t_of_star_coefficients(capsys):
    code, out, _ = run(capsys, "eval", "t*zs(2)", "--t", "0")
    assert code == 0
    assert out == "0.00000000 ± 1.000e-09\n"


@pytest.mark.parametrize("combo", ["1 2*z(2)", "1 2*t*z(2)", "12 t^1 0*z(2)", "1 2"])
def test_eval_refuses_a_number_split_by_a_space(capsys, combo):
    code, out, err = run(capsys, "eval", combo)
    assert code == 2
    assert not out
    assert "cannot parse polynomial term" in err


@pytest.mark.parametrize("combo", ["\u0663*z(2)", "t^\u0662*z(2)", "\uff13*z(2)"])
def test_eval_refuses_digits_other_than_ascii(capsys, combo):
    code, out, err = run(capsys, "eval", combo)
    assert code == 2
    assert not out
    assert "cannot parse polynomial term" in err


@pytest.mark.parametrize("t", ["1_0", "\u0663", "\uff11/2", "1/\u0662"])
def test_eval_refuses_a_t_other_than_ascii_digits(capsys, t):
    code, out, err = run(capsys, "eval", "t*z(2)", "--t", t)
    assert code == 2
    assert not out
    assert "--t" in err


@pytest.mark.parametrize("t", ["1/0", "3/00", "0/0", "abc", ""])
def test_eval_refuses_a_t_that_is_not_a_number(capsys, monkeypatch, t):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated despite a bad --t")

    monkeypatch.setattr("imzv.cli.eval_combo", refuse)
    code, out, err = run(capsys, "eval", "1/3", "--t", t)
    assert code == 2
    assert not out
    assert err.startswith("error: --t ") and repr(t) in err


def test_eval_refuses_a_zero_denominator_in_a_coefficient(capsys):
    code, out, err = run(capsys, "eval", "1/0*z(2)")
    assert code == 2
    assert not out
    assert err == "error: zero denominator in polynomial term '1/0'\n"


def test_a_negative_fraction_t_follows_an_equals_sign(capsys):
    code, out, _ = run(capsys, "eval", "t*z(2)", "--t=-1/2")
    assert code == 0
    assert out == "-0.82246703 ± 1.000e-09\n"
    # as an argument of its own, argparse takes -1/2 for an option, and
    # the help says so
    code, out, err = run(capsys, "eval", "t*z(2)", "--t", "-1/2")
    assert code == 2 and not out
    assert "argument --t: expected one argument" in err
    code, out, _ = run(capsys, "eval", "--help")
    assert code == 0
    assert "--t=-1/2" in " ".join(out.split())


@pytest.mark.parametrize("t, value", [
    ("0", "0.00000000"), ("1/2", "0.82246703"), ("-0.5", "-0.82246703"),
])
def test_eval_reads_ascii_values_of_t(capsys, t, value):
    code, out, _ = run(capsys, "eval", "t*z(2)", "--t", t)
    assert code == 0
    assert out == "%s ± 1.000e-09\n" % value


def test_product_at_the_letter_limit_and_one_letter_over(capsys, monkeypatch):
    long = "x" * 499
    code, out, _ = run(capsys, "product", long, "x")
    assert code == 0
    assert out == str(tshuffle_words(long, "x")) + "\n" == "500*" + long + "x\n"

    def no_table(*args):
        raise AssertionError("a table was built")

    # the package binds the name tshuffle to the bilinear product
    engines = importlib.import_module("imzv.tshuffle")
    monkeypatch.setattr(engines, "_tails", no_table)
    monkeypatch.setattr(engines, "_prefixes", no_table)
    with pytest.raises(AssertionError, match="a table was built"):
        main(["product", "xy", "y"])
    code, out, err = run(capsys, "product", long + "x", "x")
    assert code == 2
    assert not out
    assert "over the limit of 500" in err


def test_product_refuses_a_word_bound_over_the_limit_before_any_table(capsys, monkeypatch):
    # (xy)^6 sh (xy)^6: 24 letters, 12 x's, so at most C(25, 13) words
    code, out, _ = run(capsys, "product", "xy" * 6, "xy" * 6, "--format", "json")
    assert code == 0
    assert 0 < len(json.loads(out)) <= math.comb(25, 13) == 5200300 < cli.MAX_TERMS

    def no_table(*args):
        raise AssertionError("a table was built")

    engines = importlib.import_module("imzv.tshuffle")
    monkeypatch.setattr(engines, "_tails", no_table)
    monkeypatch.setattr(engines, "_prefixes", no_table)
    # 500 letters, inside the letter limit; 56 letters, far beyond memory
    for u, v in (("x" * 250, "y" * 250), ("x" * 14 + "y" * 14,) * 2):
        code, out, err = run(capsys, "product", u, v)
        assert code == 2
        assert not out
        assert "words, over the limit of %d" % cli.MAX_TERMS in err


def test_product_word_bound_is_refused_only_above_the_limit(capsys, monkeypatch):
    # 18 letters with 9 x's: C(19, 10) = 92378 words at most, the largest
    # bound of the benchmark's pooled products
    u, v = "xyxyxyxyx", "yxyxyxyxy"
    monkeypatch.setattr(cli, "MAX_TERMS", math.comb(19, 10))
    code, out, _ = run(capsys, "product", u, v)
    assert code == 0
    assert out == str(tshuffle_words(u, v)) + "\n"
    monkeypatch.setattr(cli, "MAX_TERMS", math.comb(19, 10) - 1)
    code, out, err = run(capsys, "product", u, v)
    assert code == 2
    assert not out
    assert "may have up to 9.24e+04 words, over the limit of 92377" in err


@pytest.mark.parametrize("t", ["3", "1/3"])
def test_eval_refuses_a_power_of_t_over_the_bit_limit(capsys, t):
    # t^d at t = num/den is counted as d * log2 max(|num|, den) bits
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "t^100000000*z(2)", "--t=" + t)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert not out
    assert "t-degree 100000000, whose power at this t is over the limit of %d bits" \
        % mzvnum.MAX_POWER_BITS in err
    # the highest degree under the limit is evaluated: t^d - t0 t^(d-1) is
    # zero at t0, through the int branch at 3 and the Fraction one at 1/3
    top = int(mzvnum.MAX_POWER_BITS / math.log2(3))
    for d, code_want in ((top, 0), (top + 1, 2)):
        combo = "z(3) + t^%d*z(2) - %s*t^%d*z(2)" % (d, t, d - 1)
        code, out, err = run(capsys, "eval", combo, "--t=" + t)
        assert code == code_want, err
        assert out == ("1.20205690 ± 1.000e-09\n" if code == 0 else "")


@pytest.mark.parametrize("command, arg", [("index", "(%d)"), ("dual", "(%d)"), ("eval", "z(%d)")])
def test_an_index_over_the_letter_limit_is_a_usage_error(capsys, command, arg):
    assert run(capsys, command, arg % 500)[0] == 0
    code, out, err = run(capsys, command, arg % 501)
    assert code == 2
    assert not out
    assert "over the limit of 500 letters" in err


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "z(3)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["tol_ok"] is True
    assert obj["cutoff_used"] == mzvnum.SERIES_TERMS
    assert abs(obj["value"] - 1.2020569031595943) < 1e-9


def test_verify_yy_suite(capsys):
    code, out, _ = run(capsys, "verify", "lemma31", "--max", "7")
    assert code == 0
    assert "49/49" in out


def test_verify_prints_each_failing_case(capsys, monkeypatch):
    # a closed form one term off at (2, 3): the text report names that
    # case and prints both sides and their difference
    yy_product_formula = verify.yy_product_formula

    def off_by_one_term(m, n):
        value = yy_product_formula(m, n)
        if (m, n) == (2, 3):
            value = value + HElement.from_word("y")
        return value

    monkeypatch.setattr(verify, "yy_product_formula", off_by_one_term)
    code, out, _ = run(capsys, "verify", "lemma31", "--max", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("suite lemma31: 8/9 cases passed in ")
    assert lines[1:] == [
        '  FAIL {"m": 2, "n": 3}',
        "    lhs:  %s" % off_by_one_term(2, 3),
        "    rhs:  %s" % tshuffle_words("yy", "yyy"),
        "    diff: y",
    ]


def test_verify_alternating_single_case(capsys):
    code, out, _ = run(capsys, "verify", "prop41", "--k", "3", "--p", "2")
    assert code == 0
    assert "1/1" in out
    # the least of both bounds
    code, out, _ = run(capsys, "verify", "prop41", "--k", "1", "--p", "1")
    assert code == 0
    assert "1/1" in out


@pytest.mark.parametrize("flag", ["--k", "--p"])
def test_verify_prop41_refuses_a_zero_bound_before_any_case(capsys, monkeypatch, flag):
    def refuse(*args):
        raise AssertionError("ran a case of a grid under its least")

    monkeypatch.setattr(verify.closedforms, "alternating_product_sum", refuse)
    code, out, err = run(capsys, "verify", "prop41", flag, "0")
    assert code == 2
    assert not out
    assert "%s must be at least 1 for suite prop41, got 0" % flag in err


def test_verify_pattern_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem22", "--r", "2", "--s", "2", "--max-exp", "2"
    )
    assert code == 0
    assert "cases passed" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "lemma31", "--max", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["suite"] == "lemma31"
    assert obj["cases_total"] == obj["cases_passed"] == 9
    assert obj["failures"] == []
    assert isinstance(obj["wall_time_s"], float)


def test_verify_empty_grid_is_usage_error(capsys):
    assert not run_yy_products(max_run=-3).passed
    code, out, err = run(capsys, "verify", "lemma31", "--max", "-3")
    assert code == 2
    assert "empty" in err
    assert not out


def test_verify_homomorphism_weight_too_small_names_flag(capsys):
    code, _, err = run(
        capsys, "verify", "homomorphism-numeric", "--max-weight", "3"
    )
    assert code == 2
    assert "--max-weight" in err
    assert "randrange" not in err


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2


def test_dual_word(capsys):
    code, out, _ = run(capsys, "dual", "xxy")
    assert code == 0
    assert out.strip() == "xyy"


def test_dual_index(capsys):
    code, out, _ = run(capsys, "dual", "(3)")
    assert code == 0
    assert out.strip() == "(2,1)"


def test_dual_rejects_non_admissible(capsys):
    code, _, err = run(capsys, "dual", "yx")
    assert code == 2
    assert "error:" in err


def test_index_report(capsys):
    code, out, _ = run(capsys, "index", "xxyy")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["index"] == "(3,1)"
    assert lines["weight"] == "4"
    assert lines["depth"] == "2"
    assert lines["admissible"] == "True"
    assert lines["dual"] == "(3,1)"


def test_a_bare_number_is_an_index(capsys):
    # all-digit text is read as an index before a word, so 1 is the index
    # (1), the word y, and not the empty word
    code, out, _ = run(capsys, "index", "1")
    assert code == 0
    assert out == run(capsys, "index", "(1)")[1]
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["word"] == "y"
    assert lines["index"] == "(1)"
    assert lines["admissible"] == "False"
    assert run(capsys, "dual", "3")[:2] == (0, "(2,1)\n")


@pytest.mark.parametrize("argv", [
    ("index", "(2,,1)"), ("dual", "(2,1,)"), ("eval", "z(2,,1)"), ("expand", "(3,)"),
])
def test_an_index_with_an_empty_part_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert "cannot parse index" in err


@pytest.mark.parametrize("argv", [
    ("index", "(1_0)"), ("dual", "(+2)"), ("eval", "z(2, -1)"), ("expand", "(2,1_0)"),
])
def test_an_index_part_other_than_ascii_digits_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert "cannot parse index" in err


def test_product_and_expand_json_replies_are_what_json_dumps_writes(capsys):
    words = ["1"] + ["".join(w) for n in (1, 2, 3) for w in itertools.product("xy", repeat=n)]
    requests = [("product", u, v) for u in words for v in words]
    requests += [("expand", str(idx)) for idx in admissible_indices(7)]
    for argv in requests:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert out == json.dumps(json.loads(out)) + "\n", argv


def test_python_dash_m_runs_the_cli_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def imzv(*argv):
        return subprocess.run(
            [sys.executable, "-m", "imzv", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = imzv("product", "xy", "xy")
    assert done.returncode == 0
    assert done.stdout == "2*xyxy + 4*xxyy + (-6*t)*xxxy\n"
    bad = imzv("product", "xz", "xy")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")
    # main() with no argv reads sys.argv, through the command's own parser
    done = imzv("eval", "z(2)", "--format", "json")
    assert done.returncode == 0
    assert json.loads(done.stdout)["tol_ok"] is True
    bad = imzv("product", "xy", "xy", "--bogus")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.endswith("imzv: error: unrecognized arguments: --bogus\n")


def test_product_of_300_letters_runs_in_a_256_mb_address_space():
    # the split keeps one row of tables at a time; a memo of every suffix
    # pair's table peaks at about 314 MB on this product
    limit = 256 * 2 ** 20
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (%d, %d))\n"
        "from imzv.cli import main\n"
        "sys.exit(main(['product', 'y' * 150, 'y' * 150, '--format', 'json']))\n"
    ) % (limit, limit)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert len(rows) == 151
    assert rows[0] == {"word": "y" * 300, "coeff": str(math.comb(300, 150))}


def test_index_json_for_non_admissible_word(capsys):
    code, out, _ = run(capsys, "index", "yx", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["admissible"] is False
    assert obj["index"] is None
    assert "dual" not in obj


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_verify_seed_flag_accepted(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "homomorphism-numeric",
        "--pairs",
        "2",
        "--max-weight",
        "6",
        "--seed",
        "7",
    )
    assert code == 0
    assert "6/6" in out


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["lemma31", "--max-weight", "3"], ["--max-weight"]),
        (["duality-numeric", "--tol", "1e-30", "--pairs", "3"], ["--pairs", "--tol"]),
        (["euler", "--seed", "3"], ["--seed"]),
    ],
)
def test_verify_flag_the_suite_ignores_is_usage_error(capsys, argv, flags):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert not out
    for flag in flags:
        assert flag in err


def test_verify_disagreeing_alternative_flags_are_usage_error(capsys):
    code, out, err = run(capsys, "verify", "prop32", "--r", "2", "--s", "3")
    assert code == 2
    assert "--r" in err and "--s" in err


# small values that keep every suite's grid to a fraction of a second
_FLAG_VALUES = {
    "max": "2", "max_exp": "1", "r": "1", "s": "1", "k": "2", "p": "2",
    "max_weight": "4", "seed": "3", "tol": "1e-5", "pairs": "1",
}


@pytest.mark.parametrize(
    "suite, flag",
    [
        (suite, flag)
        for suite, runner in sorted(SUITES.items())
        for flags in runner.suite.flags.values()
        for flag in flags
    ],
)
def test_verify_accepts_every_flag_its_suite_reads(capsys, suite, flag):
    argv = ["verify", suite, "--" + flag.replace("_", "-"), _FLAG_VALUES[flag]]
    if suite == "homomorphism-numeric" and flag != "pairs":
        argv += ["--pairs", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "cases passed" in out


@pytest.mark.parametrize(
    "suite, flag, most",
    [
        (suite, flag, runner.suite.most[key])
        for suite, runner in sorted(SUITES.items())
        for key, flags in runner.suite.flags.items()
        if key in runner.suite.most
        for flag in flags
    ],
)
def test_verify_refuses_a_flag_over_its_most_before_any_work(capsys, monkeypatch, suite,
                                                             flag, most):
    def refuse(**kwargs):
        raise AssertionError("ran a grid over the bound of %s" % flag)

    refuse.suite = SUITES[suite].suite
    monkeypatch.setitem(SUITES, suite, refuse)
    code, out, err = run(capsys, "verify", suite, "--" + flag.replace("_", "-"), str(most + 1))
    assert code == 2
    assert not out
    assert "--" + flag.replace("_", "-") in err and "at most %d" % most in err


def test_a_reused_parser_keeps_no_state_between_calls(capsys):
    parser = cli.build_parser()
    # a --tol given once does not become the default of the next call
    assert run(capsys, "eval", "1000000*z(2)", "--tol", "1e-2")[0] == 0
    code, _, err = run(capsys, "eval", "1000000*z(2)")
    assert code == 1
    assert "exceeds tolerance 1.000e-06" in err
    # a usage error leaves the parser able to read the next request
    code, out, err = run(capsys, "product", "xy")
    assert code == 2 and not out and "required" in err
    assert run(capsys, "product", "xy", "xy")[:2] == (0, "2*xyxy + 4*xxyy + (-6*t)*xxxy\n")
    # a grid bound given once does not shrink the next default grid
    assert "9/9 cases" in run(capsys, "verify", "lemma31", "--max", "3")[1]
    assert "49/49 cases" in run(capsys, "verify", "lemma31")[1]
    # --format json given once does not stick
    code, out, _ = run(capsys, "product", "xy", "xy", "--format", "json")
    assert code == 0 and json.loads(out)
    assert run(capsys, "product", "xy", "xy")[:2] == (0, "2*xyxy + 4*xxyy + (-6*t)*xxxy\n")
    assert cli.build_parser() is parser


# every flag of every command, in long, = and repeated forms
_ARGV_SHAPES = [
    ["product", "xy", "xy"],
    ["product", "1", "y", "--format", "json"],
    ["product", "--format=text", "xy", "--", "y"],
    ["expand", "(2,1)"],
    ["expand", "(3,1,2)", "--format", "json"],
    ["eval", "z(2)"],
    ["eval", "t*z(2,1)", "--t", "1/2", "--tol", "1e-3", "--format", "json"],
    ["eval", "t*z(2)", "--t=-1/2", "--tol=0"],
    ["eval", "z(3)", "--t", "1", "--t", "2"],
    ["eval", "z(3)", "--to", "1e-4", "--form", "json"],
    ["verify", "lemma31"],
    ["verify", "lemma31", "--max", "3", "--format", "json"],
    ["verify", "eq42", "--max-exp", "2"],
    ["verify", "theorem22", "--r", "2", "--s", "2", "--max", "2", "--max-exp", "2"],
    ["verify", "prop41", "--k", "4", "--p", "2"],
    ["verify", "homomorphism-numeric", "--pairs", "3", "--max-weight", "5", "--seed", "7",
     "--tol", "1e-8"],
    ["verify", "duality-numeric", "--max-weight", "4"],
    ["dual", "(2,1)"],
    ["dual", "xyy", "--format", "json"],
    ["index", "yx"],
    ["index", "(2,1)", "--format", "json"],
]


@pytest.mark.parametrize("argv", _ARGV_SHAPES, ids=" ".join)
def test_a_command_parser_reads_what_the_whole_parser_reads(argv):
    args = cli._parse(list(argv))
    assert vars(args) == vars(cli.build_parser().parse_args(argv))
    assert args.command == argv[0]


@pytest.mark.parametrize("argv", [
    [],
    ["bogus", "xy"],
    ["-h"],
    ["--help"],
    ["eval", "--help"],
    ["product", "-h"],
    ["product", "xy", "xy", "--bogus"],
    ["product", "xy", "xy", "extra", "-"],
    ["eval", "z(2)", "-t", "1"],
    ["product", "xy"],
    ["eval"],
    ["product", "xy", "xy", "--format", "xml"],
    ["eval", "z(2)", "--t", "-1/2"],
    ["eval", "z(2)", "--tol", "nan"],
    ["verify", "bogus"],
    ["verify", "lemma31", "--max", "3.5"],
    ["--", "product", "xy", "xy"],
    ["-x", "product"],
], ids=lambda argv: " ".join(argv) or "no-argv")
def test_a_usage_error_reads_as_from_the_whole_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = exc.value.code, *capsys.readouterr()
    assert run(capsys, *argv) == want
    assert want[0] in (0, 2)
