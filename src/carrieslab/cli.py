"""Command line harness ``carries-lab``.

Subcommands expose the exact computations (matrix, eigen, moments,
simulate, shuffle, digits) and the verification suites (verify).  Each
returns its data, and one renderer writes it as JSON by default or CSV
with ``--format csv``; rationals are rendered as ``num/den`` strings, or
as fixed-point decimals under ``--float --digits k``.  Global flags
(``--format``, ``--out``, ``--float``, ``--digits``) go before the
subcommand, ``--seed`` after it.  Exit codes: 0 success, 1 internal or
verification failure, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from itertools import chain, count, islice, repeat, takewhile
from json.encoder import encode_basestring_ascii

from .colored import ColoredPermutation
from .moments import (
    covariance_conditional,
    has_quadratic_eigenfunction,
    mean_conditional,
    moments_oracle,
    stationary_moments,
    variance_conditional,
)
from .process import (
    DEFAULT_SEED,
    STATE_LIMIT,
    STEP_LIMIT,
    check_limit,
    check_steps,
    digit_expansion,
    digit_value,
    make_process,
    parameter_ratio,
    simulate_trace,
)
from .shuffle import sample_sequence
from .spectral import eigen_system, transition_matrix
from .verify import SCHEMA_VERSION, SUITES, run_suite

#: Rows of a JSON document's top-level int rows joined into one of the pieces ``main`` writes.
JOIN_BLOCK = 4096


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected NUM or NUM/DEN, got {text!r}") from exc


def _sign_flag(text: str) -> str:
    aliases = {"+": "+", "plus": "+", "-": "-", "minus": "-"}
    if text not in aliases:
        raise argparse.ArgumentTypeError(f"expected + or -, got {text!r}")
    return aliases[text]


def _seed_flag(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _digits_flag(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError("digits must lie in 1..60")
    return value


def _decimal_string(value: Fraction, digits: int) -> str:
    """Fixed-point rendering with exact decimal rounding (no binary floats)."""
    rounded = round(value, digits)
    scaled = int(rounded * 10**digits)
    sign = "-" if scaled < 0 else ""
    whole, part = divmod(abs(scaled), 10**digits)
    return f"{sign}{whole}.{part:0{digits}d}"


def _add_chain_flags(parser: argparse.ArgumentParser, with_d: bool = False) -> None:
    parser.add_argument("--sign", type=_sign_flag, required=True, help="+ or - (or plus/minus)")
    parser.add_argument("--b", type=int, required=True, help="base magnitude, >= 2")
    parser.add_argument("--n", type=int, required=True, help="number of summands / cards")
    parser.add_argument("--p", type=_fraction_flag, required=True, help="parameter, NUM[/DEN]")
    if with_d:
        parser.add_argument("--d", type=int, default=None, help="digit set offset, 1-b <= d <= 0")


@cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carries-lab",
        description="Exact carries chains, their spectra, and shuffle bijections.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--float", action="store_true", dest="as_float",
                        help="render rationals as fixed-point decimals")
    parser.add_argument("--digits", type=_digits_flag, default=12,
                        help="decimal places used with --float (default 12)")
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="exact transition matrix")
    _add_chain_flags(matrix, with_d=True)

    eigen = sub.add_parser("eigen", help="eigenvalues and both eigenvector matrices")
    _add_chain_flags(eigen)
    eigen.add_argument("--check", action="store_true", help="verify R L = I and P = R D L")

    moments = sub.add_parser("moments", help="moments of the chain (closed form or oracle)")
    _add_chain_flags(moments)
    moments.add_argument("--r", type=int, default=1, help="step count (lag in stationary mode)")
    moments.add_argument("--s", type=int, default=None, help="first time for the covariance")
    group = moments.add_mutually_exclusive_group()
    group.add_argument("--i", type=int, default=0, help="start state")
    group.add_argument("--stationary", action="store_true", help="stationary moments instead")

    simulate = sub.add_parser("simulate", help="run the chain on random digit columns")
    _add_chain_flags(simulate)
    simulate.add_argument("--N", type=int, required=True, help="number of steps")
    simulate.add_argument("--seed", type=_seed_flag, default=DEFAULT_SEED)

    shuffle = sub.add_parser("shuffle", help="compose random shuffles and record descents")
    shuffle.add_argument("--sign", type=_sign_flag, default="+",
                         help="+ plain composition, - color-negated even factors")
    shuffle.add_argument("--b", type=int, required=True)
    shuffle.add_argument("--n", type=int, required=True)
    shuffle.add_argument("--p", type=int, required=True, help="number of colors (integer)")
    shuffle.add_argument("--N", type=int, required=True, help="number of shuffles")
    shuffle.add_argument("--seed", type=_seed_flag, default=DEFAULT_SEED)

    digits = sub.add_parser("digits", help="digit expansion over {d..d+b-1}")
    digits.add_argument("--x", type=int, required=True, help="nonnegative integer to expand")
    digits.add_argument("--sign", type=_sign_flag, required=True)
    digits.add_argument("--b", type=int, required=True)
    digits.add_argument("--d", type=int, default=0)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--samples", type=int, default=None,
                        help="sample count for the sampled tiers (bijection suites)")
    verify.add_argument("--seed", type=_seed_flag, default=None)
    verify.add_argument("--b", type=int, default=None, help="base bound, or case base")
    verify.add_argument("--n", type=int, default=None, help="summand bound, or case size")
    verify.add_argument("--p", type=int, default=None, help="parameter bound, or case p")
    verify.add_argument("--N", type=int, default=None, help="case step count (bijection suites)")
    verify.add_argument("--r", type=int, default=None, help="power bound (moments)")
    verify.add_argument("--s", type=int, default=None, help="lag bound (moments)")
    verify.add_argument("--cutoff", type=int, default=None, help="index cutoff (gessel)")

    return parser


def _params_obj(params) -> dict:
    return {"sign": params.sign, "b": params.b, "n": params.n, "p": str(params.p)}


def _bounded_process(args, d=None):
    """The chain the flags name, refused when it has more than STATE_LIMIT states."""
    params = make_process(args.sign, args.b, args.n, args.p, d)
    check_limit(args.command, params.state_count, STATE_LIMIT, "states")
    return params


def cmd_matrix(args):
    params = _bounded_process(args, args.d)
    rows = transition_matrix(params).rows
    return rows, [("dim", len(rows)), *rows]


def cmd_eigen(args):
    params = _bounded_process(args)
    system = eigen_system(params)  # raises RuntimeError on inconsistency
    if args.check:
        return "R·L=I: ok, P=RDL: ok"
    obj = {
        "schema": SCHEMA_VERSION,
        "params": _params_obj(params),
        "eigenvalues": system.eigenvalues,
        "left": {"dim": system.left.dim, "rows": system.left.rows},
        "right": {"dim": system.right.dim, "rows": system.right.rows},
    }
    rows = [("eigenvalues", *system.eigenvalues)]
    rows += [("left",), ("dim", system.left.dim), *obj["left"]["rows"]]
    rows += [("right",), ("dim", system.right.dim), *obj["right"]["rows"]]
    return obj, rows


def cmd_moments(args):
    if args.stationary and args.s is not None:
        raise ValueError("moments --stationary does not use --s")
    params = _bounded_process(args)
    s = args.s or 0
    check_steps(args.r, s)
    check_limit("moments", max(args.r, s), STEP_LIMIT, "steps (--r and --s)")
    start, lag = ("stationary", {}) if args.stationary else (args.i, {"s": s})
    if not has_quadratic_eigenfunction(params):
        # n = 1: no closed second moments; fall back to the integer-walk oracle
        oracle = moments_oracle(params, args.r, s, start)
        mean, var, cov = oracle.mean, oracle.variance, oracle.covariance
    elif args.stationary:
        mean, cov = stationary_moments(params, args.r)
        _, var = stationary_moments(params, 0)
    else:
        mean = mean_conditional(params, args.r, args.i)
        var = variance_conditional(params, args.r, args.i)
        cov = covariance_conditional(params, s, args.r, args.i)
    obj = {
        "schema": SCHEMA_VERSION,
        "params": _params_obj(params),
        "start": start,
        "r": args.r,
        **lag,
        "mean": mean,
        "variance": var,
        "cov": cov,
    }
    return obj, [item for item in obj.items() if item[0] != "params"]


def cmd_simulate(args):
    params = make_process(args.sign, args.b, args.n, args.p)
    trace = simulate_trace(params, args.N, seed=args.seed)
    obj = {
        "schema": SCHEMA_VERSION,
        "params": _params_obj(params),
        "seed": args.seed,
        "kappas": trace.kappas,
        "remainders": trace.remainders,
        "summand_digits": trace.summand_digits,
    }
    digits = map(" ".join, map(map, repeat(str), trace.summand_digits))
    return obj, chain([("step", "kappa", "remainder", "digits")],
                      zip(count(1), islice(trace.kappas, 1, None), trace.remainders, digits))


def cmd_shuffle(args):
    parameter_ratio(args.sign, args.b, args.p)
    trace = sample_sequence(args.b, args.n, args.p, args.N, seed=args.seed, sign=args.sign)
    obj = {
        "schema": SCHEMA_VERSION,
        "b": args.b,
        "n": args.n,
        "p": args.p,
        "sign": args.sign,
        "seed": args.seed,
        "words": trace.words,
        "elements": [e.pairs for e in trace.elements],
        "descents": trace.descents,
    }
    words = map(" ".join, map(map, repeat(str), trace.words))
    return obj, chain([("step", "descent", "word", "element")],
                      zip(count(1), trace.descents, words,
                          map(ColoredPermutation.to_text, trace.elements)))


def cmd_digits(args):
    digits = digit_expansion(args.x, args.sign, args.b, args.d)
    check = digit_value(digits, args.sign, args.b)
    obj = {
        "schema": SCHEMA_VERSION,
        "x": args.x,
        "sign": args.sign,
        "b": args.b,
        "d": args.d,
        "digits": digits,
        "value": check,
    }
    rows = [item for item in obj.items() if item[0] != "digits"]
    rows.append(("digits", " ".join(map(str, digits))))
    return obj, rows


# Verify flags and the suite keyword each sets.  The case flags (--b --n --p,
# and --N in the bijection suites) instead replace the suite's case list.
_VERIFY_KEYWORDS = {"b": "b_max", "n": "n_max", "p": "p_max", "r": "r_max", "s": "s_max",
                    "cutoff": "cutoff", "samples": "samples", "seed": "seed"}
_CASE_FLAGS = ("b", "n", "p", "N")
# Bounds below which a grid checks every value; a negative one would skip them all.
_BOUND_FLAGS = ("r", "s", "cutoff")


def _verify_options(args) -> dict:
    """Map verify flags onto the chosen suite's keyword arguments.  A sampled tier that runs
    gets its samples and seed, the flags' or else the suite's defaults, among them."""
    signature = inspect.signature(SUITES[args.suite]).parameters
    allowed = set(signature)
    provided = {flag: getattr(args, flag) for flag in ("N", *_VERIFY_KEYWORDS)}
    for flag in _BOUND_FLAGS:
        if provided[flag] is not None:
            check_steps(provided[flag], what="--" + flag)
    options: dict = {}
    if "cases" in allowed:
        names = _CASE_FLAGS if "mc_case" in allowed else _CASE_FLAGS[:3]
        given = {name: provided.pop(name) for name in names}
        if any(value is not None for value in given.values()):
            if any(value is None for value in given.values()):
                flags = " ".join("--" + name for name in names)
                raise ValueError(f"overriding the {args.suite} case list needs all of {flags}")
            options["cases"] = (tuple(given.values()),)
            if "mc_case" in allowed:
                # A single explicit case has no sampled tier to take --samples or --seed.
                options["mc_case"] = None
                allowed -= {"samples", "seed"}
    for key in allowed & {"samples", "seed"}:
        if provided[key] is None:
            provided[key] = signature[key].default
    unused = []
    for flag, value in provided.items():
        if value is None:
            continue
        key = _VERIFY_KEYWORDS.get(flag)
        if key in allowed:
            options[key] = value
        else:
            unused.append("--" + flag)
    if unused:
        case = " with a single case" if "mc_case" in options else ""
        raise ValueError(f"suite {args.suite} does not use {', '.join(sorted(unused))}{case}")
    return options


def _reproduce_command(suite: str, options: dict) -> str:
    """The exact invocation that reruns a failing suite: ``options`` printed back as flags."""
    bits = [f"carries-lab verify {suite}"]
    if "cases" in options:
        bits += [f"--{flag} {value}" for flag, value in zip(_CASE_FLAGS, options["cases"][0])]
    bits += [f"--{flag} {options[key]}" for flag, key in _VERIFY_KEYWORDS.items() if key in options]
    return " ".join(bits)


def cmd_verify(args):
    options = _verify_options(args)
    report = run_suite(args.suite, **options)
    if not report.passed:
        print(f"reproduce: {_reproduce_command(args.suite, options)}", file=sys.stderr)
    obj = report.to_json_obj()
    rows = [("case", "ok", "detail")]
    rows += [(case["key"], int(case["ok"]), case.get("detail", "").replace(",", ";"))
             for case in obj["cases"]]
    rows.append(("passed", int(report.passed), ""))
    return obj, rows


def _json_pieces(out: list, value, default, pad: str = "\n") -> None:
    """Append to ``out`` the pieces of ``value`` as ``json.dumps(value, indent=2,
    default=default)`` lays it out; ``pad`` is the newline and indent that the closing
    bracket of ``value`` follows.  ``main`` writes the pieces, never their join.

    Plain ints, or nonempty rows (of nonempty rows ...) of them, are laid out level by level
    at C speed: each int through a table of its text, each row by one join of the rows or
    ints below it; ``json`` itself drops to a Python frame per value whenever it indents.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, (bool, float)):
        out.append(json.dumps(value))  # null, true, false and floats as json spells them
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, (list, tuple, dict)):
        _json_pieces(out, default(value), default, pad)
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        start, inner = len(out), pad + "  "
        for key, item in value.items():
            out += (",", inner, encode_basestring_ascii(key), ": ")
            _json_pieces(out, item, default, inner)
        out[start] = "{"  # the first item's separator opens the object
        out += (pad, "}")
    else:
        _json_array(out, value, default, pad)


def _json_array(out: list, value, default, pad: str) -> None:
    """``_json_pieces`` of a nonempty list or tuple."""
    levels, rows = [[value]], value  # levels[depth]: every row at that depth, in document order
    kinds = set(map(type, value))
    while kinds <= {list, tuple} and all(rows):
        levels.append(rows)
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds <= {list, tuple}:
            rows = list(chain.from_iterable(rows))
    if kinds <= {int}:  # exact ints: the table is keyed by value, and True == 1 == 1.0
        # A row's text leaves out its own brackets; they go into the separator its parent
        # joins it with.  Every row is nonempty, so it opens and closes as its first and
        # last child do, and each level's brackets are the same strings for every row.
        below = pad + "  " * len(levels)  # the indent of the ints
        opener, closer, sep = "[" + below, below[:-2] + "]", "," + below
        ints = set(chain.from_iterable(levels[-1]))
        children = map(map, repeat(dict(zip(ints, map(int.__repr__, ints))).__getitem__),
                       levels[-1])  # streamed: lists of row texts would raise the peak RSS
        for rows in reversed(levels[:-1]):  # each row of a level takes its children's texts
            texts = map(sep.join, children)
            below = below[:-2]
            sep = closer + "," + below + opener
            opener, closer = "[" + below + opener, closer + below[:-2] + "]"
            children = map(islice, repeat(texts), map(len, rows))
        out.append(opener)  # the top-level rows, ``JOIN_BLOCK`` at a time: no text is all of them
        for block in takewhile(len, map(sep.join, map(islice, repeat(next(children)),
                                                      repeat(JOIN_BLOCK)))):
            out += (block, sep)
        out[-1] = closer
    else:
        start, inner = len(out), pad + "  "
        for item in value:
            out += (",", inner)
            _json_pieces(out, item, default, inner)
        out[start] = "["
        out += (pad, "]")


def _render(result, args) -> list[str]:
    """The text of a command's result, as pieces: its one line, its JSON document or its CSV rows.

    Rationals print as ``num/den``, or as fixed-point decimals under ``--float``,
    in JSON values and CSV cells alike.
    """
    if isinstance(result, str):
        return [result + "\n"]
    obj, rows = result

    def rational(value):
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot render {value!r}")
        if args.as_float:
            return _decimal_string(value, args.digits)
        try:
            return str(value)
        except ValueError:  # past the interpreter's int-to-str digit limit
            fields = obj.items() if isinstance(obj, dict) else ()
            name = next((key for key, field in fields if field is value), "value")
            raise ValueError(f"the {args.command} {name} has more than "
                             f"{sys.get_int_max_str_digits()} digits as num/den; "
                             "print it with --float") from None

    def cell(value):
        return rational(value) if type(value) is Fraction else str(value)

    if args.format == "csv":
        return ["".join(map("%s\n".__mod__, map(",".join, map(map, repeat(cell), rows))))]
    out = []
    _json_pieces(out, obj, rational)
    out.append("\n")
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "matrix": cmd_matrix,
        "eigen": cmd_eigen,
        "moments": cmd_moments,
        "simulate": cmd_simulate,
        "shuffle": cmd_shuffle,
        "digits": cmd_digits,
        "verify": cmd_verify,
    }
    try:
        result = handlers[args.command](args)
        pieces = _render(result, args)
        target = "<stdout>" if args.out is None else args.out
        try:  # one guarded write, flush included, for --out and stdout alike
            with (nullcontext(sys.stdout) if args.out is None
                  else open(args.out, "w", encoding="utf-8")) as handle:
                handle.writelines(pieces)
                handle.flush()
        except OSError as exc:
            if args.out is None:  # the interpreter's flush at exit must find nothing to fail on
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from exc
        return 0 if args.command != "verify" or result[0]["passed"] else 1
    except ValueError as exc:
        print(f"carries-lab: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"carries-lab: internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
