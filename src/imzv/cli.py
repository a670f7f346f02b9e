"""Command-line interface.

Commands: product, expand, eval, verify, dual, index.  Exit codes form a
stable contract: 0 on success, 1 when an identity or a tolerance check
fails, 2 on usage or parse errors.

The parser and its command parsers are built once per process.  A
request that begins with a command name is parsed by that command's own
parser, with the namespace, messages and exit codes the whole parser
gives; any other request is parsed by the whole parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .coeffs import SPACES
from .halg import signed_str, table_json, table_str
from .mzvnum import eval_combo
# tshuffle_words stays bound here although product prints the split's table:
# the benchmark's tracer wraps it in every module that binds it, and its
# self-test reads this binding
from .tshuffle import tshuffle_table, tshuffle_words  # noqa: F401
from .verify import DEFAULT_SEED, SUITES
from .words import (
    MAX_LETTERS,
    dual,
    index_from_word,
    parse_index,
    parse_word,
    word_from_index,
)
from .zeta import parse_zeta_combo, write_expansion


def _integer(text: str) -> int:
    """argparse type for the integer flags: ASCII digits only, since int()
    also reads other scripts' digits and spaces."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError("must be an integer in ASCII digits, got %r" % text)


def _tolerance(text: str) -> float:
    """argparse type for --tol: a nonnegative number in ASCII, NaN refused."""
    try:
        value = float(text) if text.isascii() else math.nan
    except ValueError:
        value = math.nan
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(
            "must be a nonnegative number, got %r" % text
        )
    return value


@functools.cache
def _parsers() -> tuple:
    """The one parser of this process and its command parsers by name,
    built on first use.  Parsing leaves a parser unchanged and returns a
    fresh Namespace each call, so every main() call can share them."""
    parser = argparse.ArgumentParser(
        prog="imzv",
        description="Deformed shuffle products on words and zeta value identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, help):
        p = commands[name] = sub.add_parser(name, help=help)
        return p

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )

    p = add_command("product", "deformed product of two words")
    p.add_argument("w1", help="first word over {x,y}, or 1 for the empty word")
    p.add_argument("w2", help="second word")
    add_format(p)

    p = add_command("expand", "expand an interpolated symbol into plain ones")
    p.add_argument("index", help="admissible index, e.g. \"(2,1)\"")
    add_format(p)

    p = add_command("eval", "evaluate a zeta combo numerically")
    p.add_argument("combo", help="combo such as \"2*z(2,2)+4*z(3,1)\" or \"zs(5,1)\"")
    p.add_argument(
        "--t", default="0",
        help="rational value for t (default 0); write a negative fraction "
        "as --t=-1/2, since argparse reads -1/2 alone as an option",
    )
    p.add_argument(
        "--tol", type=_tolerance, default=1e-6,
        help="absolute error target (default 1e-6, floor 1e-9)",
    )
    add_format(p)

    p = add_command("verify", "run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES), help="suite name")
    p.add_argument("--max", type=_integer, default=None, help="generic grid bound")
    p.add_argument("--max-exp", type=_integer, default=None, help="exponent bound")
    p.add_argument("--r", type=_integer, default=None, help="first run-length bound")
    p.add_argument("--s", type=_integer, default=None, help="second run-length bound")
    p.add_argument("--k", type=_integer, default=None, help="single k value")
    p.add_argument("--p", type=_integer, default=None, help="single p value")
    p.add_argument("--max-weight", type=_integer, default=None, help="weight bound")
    p.add_argument(
        "--seed", type=_integer, default=None,
        help="sampling seed (default %d)" % DEFAULT_SEED,
    )
    p.add_argument("--tol", type=_tolerance, default=None, help="numeric tolerance")
    p.add_argument("--pairs", type=_integer, default=None, help="number of sampled pairs")
    add_format(p)

    p = add_command("dual", "dual of an admissible index or word")
    p.add_argument("arg", help="index like \"(2,1)\" or word like xyy")
    add_format(p)

    p = add_command("index", "describe an index or word")
    p.add_argument("arg", help="index like \"(2,1)\" or word like xyy")
    add_format(p)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The whole parser, the same object on every call."""
    return _parsers()[0]


# the most words a printed product may have: every word of u sh v has the
# L letters of both and X or X + 1 x's, X counting the x's of both, so it
# has at most C(L, X) + C(L, X + 1) = C(L + 1, X + 1) words
MAX_TERMS = 10**8


def _cmd_product(args) -> int:
    u, v = parse_word(args.w1), parse_word(args.w2)
    letters, xs = len(u) + len(v), u.count("x") + v.count("x")
    # over MAX_LETTERS the engine's own refusal speaks first
    bound = math.comb(letters + 1, xs + 1) if letters <= MAX_LETTERS else 0
    if bound > MAX_TERMS:
        raise ValueError("a product of %d letters with %d x's may have up to %.3g "
                         "words, over the limit of %d" % (letters, xs, bound, MAX_TERMS))
    table = tshuffle_table(u, v)
    write = table_json if args.format == "json" else table_str
    print(write(table, signed_str))
    return 0


def _cmd_expand(args) -> int:
    print(write_expansion(parse_index(args.index), args.format == "json"))
    return 0


def _cmd_eval(args) -> int:
    combo = parse_zeta_combo(args.combo)
    t0 = None
    # Fraction also reads other scripts' digits and 1_0; --t does not
    if args.t.isascii() and "_" not in args.t:
        try:
            t0 = Fraction(args.t)
        except (ValueError, ZeroDivisionError):
            pass
    if t0 is None:
        raise ValueError(
            "--t must be a number in ASCII digits, without underscores or a zero "
            "denominator, got %r" % args.t
        )
    result = eval_combo(combo, t0, target_abs_err=args.tol)
    if args.format == "json":
        print(json.dumps({
            "value": result.value,
            "error_estimate": result.error_estimate,
            "cutoff_used": result.cutoff_used,
            "tol_ok": result.tol_ok,
        }))
    else:
        # eight decimals of a value near the double limit are 300-odd digits
        fmt = "%.8e" if abs(result.value) >= 1e15 else "%.8f"
        print((fmt + " ± %.3e") % (result.value, result.error_estimate))
        if not result.tol_ok:
            print(
                "error: estimate %.3e exceeds tolerance %.3e"
                % (result.error_estimate, args.tol),
                file=sys.stderr,
            )
    return 0 if result.tol_ok else 1


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _suite_kwargs(args) -> dict:
    """Runner keywords from the verify flags, as the suite record maps them;
    refuses a flag the suite does not read, alternatives that disagree and
    a value below the suite's least."""
    suite = SUITES[args.suite].suite
    read = {flag for flags in suite.flags.values() for flag in flags}
    known = {
        flag
        for runner in SUITES.values()
        for flags in runner.suite.flags.values()
        for flag in flags
    }
    unused = [_flag(f) for f in sorted(known - read) if getattr(args, f) is not None]
    if unused:
        raise ValueError("suite %s does not use %s" % (args.suite, ", ".join(unused)))
    kwargs = {}
    for key, flags in suite.flags.items():
        given = [(f, getattr(args, f)) for f in flags if getattr(args, f) is not None]
        if len({value for _, value in given}) > 1:
            raise ValueError(
                "%s disagree for suite %s"
                % (" and ".join(_flag(f) for f, _ in given), args.suite)
            )
        if given:
            value = given[0][1]
            kwargs[key] = [value] if key.endswith("_values") else value
    suite.check(kwargs, lambda key: "/".join(map(_flag, suite.flags[key])))
    return kwargs


def _cmd_verify(args) -> int:
    report = SUITES[args.suite](**_suite_kwargs(args))
    if report.cases_total == 0:
        raise ValueError("the parameter grid of suite %s is empty" % args.suite)
    if args.format == "json":
        print(json.dumps(report.to_json_obj()))
    else:
        print(
            "suite %s: %d/%d cases passed in %.2fs"
            % (report.suite, report.cases_passed, report.cases_total, report.wall_time_s)
        )
        for f in report.failures:
            print("  FAIL %s" % json.dumps(f.parameters))
            print("    lhs:  %s" % f.lhs)
            print("    rhs:  %s" % f.rhs)
            print("    diff: %s" % f.diff)
    return 0 if report.passed else 1


def _parse_index_or_word(text: str):
    """(index or None, word, whether the text was an index)."""
    s = text.strip(SPACES)
    if s.startswith("(") or "," in s or s.isdigit():
        idx = parse_index(s)
        return idx, word_from_index(idx), True
    w = parse_word(s)
    return (index_from_word(w) if s and s[-1] == "y" else None), w, False


def _cmd_dual(args) -> int:
    _, w, as_index = _parse_index_or_word(args.arg)
    dw = dual(w)
    didx = index_from_word(dw)
    if args.format == "json":
        print(json.dumps({"index": str(didx), "word": str(dw)}))
    elif as_index:
        print(didx)
    else:
        print(dw)
    return 0


def _cmd_index(args) -> int:
    idx, w, _ = _parse_index_or_word(args.arg)
    info = {
        "word": str(w),
        "index": None if idx is None else str(idx),
        "weight": len(w),
        "depth": w.count("y"),
        "height": None if idx is None else idx.height,
        "admissible": idx is not None and idx.admissible,
    }
    if info["admissible"]:
        info["dual"] = str(index_from_word(dual(w)))
    if args.format == "json":
        print(json.dumps(info))
    else:
        for key, val in info.items():
            print("%s: %s" % (key, val))
    return 0


_COMMANDS = {
    "product": _cmd_product,
    "expand": _cmd_expand,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "dual": _cmd_dual,
    "index": _cmd_index,
}


def _parse(argv: list) -> argparse.Namespace:
    """The namespace build_parser().parse_args(argv) gives, read by the
    named command's own parser when argv begins with a command name; the
    whole parser reads any other argv, and refuses what a command parser
    leaves over, so every message and exit code is the whole parser's."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
