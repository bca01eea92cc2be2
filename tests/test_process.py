"""Chain parameters, digit sets, trace mechanics, and where the work caps live."""

import ast
import re
from fractions import Fraction
from itertools import islice
from pathlib import Path
from random import Random

import pytest

import carrieslab
from carrieslab import (
    MultiDigitWord,
    ProcessParams,
    derive_carry_set,
    derive_p,
    digit_expansion,
    digit_value,
    duality_check_left,
    gessel_coefficients,
    gsr_to_permutation,
    left_eigen_matrix,
    make_process,
    mean_conditional,
    original_step,
    process_from_digit_set,
    realized_carry_set,
    right_eigen_matrix,
    simulate_trace,
    step_carry,
    trace_from_words,
    variance_conditional,
)
from carrieslab.process import draw_words, enumerate_words


def test_carry_set_normalization_round_trip():
    cs = derive_carry_set("-", 3, -1, 4)
    assert len(cs) in (4, 5) and cs.step == 1
    assert cs[0] - 1 not in cs and cs[-1] + 1 not in cs


def test_carry_set_size_tracks_p():
    for sign in ("+", "-"):
        for b in (2, 3, 4, 5):
            for d in range(1 - b, 1):
                for n in (1, 2, 3, 4):
                    cs = derive_carry_set(sign, b, d, n)
                    p = derive_p(sign, b, d, n)
                    assert len(cs) == (n if p == 1 else n + 1)


def test_classical_digit_set_gives_p_one():
    assert derive_p("+", 10, 0, 5) == 1
    cs = derive_carry_set("+", 10, 0, 5)
    assert (cs[0], cs[-1]) == (0, 4)


def test_params_validation():
    with pytest.raises(ValueError):
        make_process("+", 3, 2, Fraction(5, 2))  # (b-1)/p = 4/5
    with pytest.raises(ValueError):
        make_process("-", 3, 2, 3)  # (b+1)/p = 4/3
    with pytest.raises(ValueError):
        make_process("+", 1, 2, 1)
    with pytest.raises(ValueError):
        make_process("x", 3, 2, 1)
    with pytest.raises(ValueError):
        make_process("+", 3, 0, 1)
    params = make_process("+", 3, 2, Fraction(2))
    assert params.p == 2 and isinstance(params.p, Fraction)


def test_state_count_and_shift():
    plus = make_process("+", 5, 3, 2)
    assert plus.state_count == 4
    assert plus.column_shift == 2  # (b-1)(1 - 1/p)
    minus = make_process("-", 5, 3, 2)
    assert minus.state_count == 4
    assert minus.column_shift == 2  # (b+1)/p - 1
    one = make_process("+", 5, 3, 1)
    assert one.state_count == 3 and one.column_shift == 0


def test_digit_set_pins_down_params():
    params = process_from_digit_set("-", 2, -1, 2)
    assert params.sign == "-" and params.p == 3 and params.d == -1
    # Passing a p that disagrees with d is rejected.
    with pytest.raises(ValueError):
        make_process("-", 2, 2, 1, d=-1)


def test_step_carry_agrees_with_original_coordinates():
    for sign in ("+", "-"):
        for b, d in ((3, 0), (3, -1), (4, -2), (5, -4)):
            for n in (1, 2, 3):
                params = process_from_digit_set(sign, b, d, n)
                cs = derive_carry_set(sign, b, d, n)
                for carry in cs:
                    for digits in [(0,) * n, (b - 1,) * n, tuple(range(n))]:
                        offset = tuple(x + d for x in digits)
                        nxt_orig, rem_orig = original_step(sign, b, d, carry, offset)
                        nxt, rem = step_carry(params, carry - cs[0], digits)
                        assert nxt_orig in cs and nxt == nxt_orig - cs[0]
                        assert rem == rem_orig - d


def test_realized_carries_fill_the_interval():
    for sign in ("+", "-"):
        for b in (2, 3, 4):
            for d in range(1 - b, 1):
                for n in (1, 2, 3):
                    cs = derive_carry_set(sign, b, d, n)
                    assert realized_carry_set(sign, b, d, n) == frozenset(cs)


def test_simulate_trace_reproducible_and_valid():
    params = make_process("-", 4, 3, 5)
    a = simulate_trace(params, 20, seed=11)
    b = simulate_trace(params, 20, seed=11)
    c = simulate_trace(params, 20, seed=12)
    assert a == b and a != c
    assert a.kappas[0] == 0 and len(a.kappas) == 21 and len(a.remainders) == 20
    for step in range(20):
        nxt, rem = step_carry(params, a.kappas[step], a.summand_digits[step])
        assert (nxt, rem) == (a.kappas[step + 1], a.remainders[step])
        assert all(0 <= x < params.b for x in a.summand_digits[step])


def test_simulate_trace_with_given_columns():
    params = make_process("+", 3, 2, 1)
    trace = simulate_trace(params, 2, columns=[(2, 2), (1, 2)])
    assert trace.kappas == (0, 1, 1)
    assert trace.remainders == (1, 1)
    with pytest.raises(ValueError):
        simulate_trace(params, 2, columns=[(2, 2)])
    with pytest.raises(ValueError):
        simulate_trace(params, 1, columns=[(3, 0)])


def test_digit_expansion_round_trip():
    for sign, b, d in (("+", 2, 0), ("+", 5, -2), ("-", 2, 0), ("-", 3, -1), ("-", 10, -9)):
        for x in (0, 1, 7, 25, 1000):
            digits = digit_expansion(x, sign, b, d)
            assert digit_value(digits, sign, b) == x
            assert all(d <= a < d + b for a in digits)


def test_expansion_domain_errors():
    with pytest.raises(ValueError):
        digit_expansion(-9, "-", 3, 0)  # only nonnegative inputs
    with pytest.raises(ValueError):
        digit_expansion(7, "+", 4, -3)  # all-nonpositive digit set



def test_work_caps_are_defined_only_in_process():
    # process holds the one cap table behind check_limit; a cap defined elsewhere bypasses it.
    cap = re.compile(r"\w*_LIMIT|MAX_\w*")
    found = []
    for path in sorted(Path(carrieslab.__file__).parent.glob("*.py")):
        if path.name == "process.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                found += [f"{path.name}: {name.id}" for name in ast.walk(node)
                          if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                          and cap.fullmatch(name.id)]
    assert found == []


# Bases on both sides of each digit-width step, and of the switch to per-digit draws at 256.
CROSSING = (2, 3, 4, 5, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300)


def _randrange_words(seed, b, length, count):
    rng = Random(seed)
    return [tuple(rng.randrange(b) for _ in range(length)) for _ in range(count)]


def test_draw_words_is_the_randrange_stream():
    # The bulk path (b < 256) must give the per-digit randrange stream digit for digit,
    # also across refills of 4096 generator outputs (3 words of 5000 digits).
    for b in (*range(2, 301), 1000, 2**32 + 5):
        shapes = ((1, 40), (3, 20), (10, 6)) + (((5000, 3),) if b in CROSSING else ())
        for seed in (0, 1, 20240601):
            for length, count in shapes:
                drawn = list(islice(draw_words(seed, b, length), count))
                assert drawn == _randrange_words(seed, b, length, count), (b, seed, length)
        assert next(draw_words(0, b, 0)) == ()
    for b in (-3, 0, 1):  # refused, where the bulk path would redraw every byte forever
        with pytest.raises(ValueError, match="base magnitude"):
            next(draw_words(0, b, 3))


def test_digit_words_come_only_from_process():
    # process.enumerate_words and process.draw_words are the only word sources;
    # colored enumerates group elements, not words, with itertools.product.
    # verify names ENUMERATION_LIMIT only as the cap of a check_grid price.
    found = []
    for path in sorted(Path(carrieslab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        gated = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "check_grid" for arg in node.args}
        for node in ast.walk(tree):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if path.name != "process.py":
                found += [f"{path.name}: {name}" for name in ("randrange", "getrandbits", "Random")
                          if name in names]
            imported = isinstance(node, ast.ImportFrom) and node.module == "itertools" and any(
                alias.name == "product" for alias in node.names)
            dotted = isinstance(node, ast.Attribute) and node.attr == "product" and getattr(
                node.value, "id", None) == "itertools"
            if path.name not in ("process.py", "colored.py") and (imported or dotted):
                found.append(f"{path.name}: itertools.product")
            if (path.name in ("spectral.py", "verify.py") and "ENUMERATION_LIMIT" in names
                    and not (path.name == "verify.py" and id(node) in gated)):
                found.append(f"{path.name}: ENUMERATION_LIMIT")
    assert found == []


# Calls that once returned nonsense or crashed, each with its rule's one message.
RULE_CALLS = {
    "sign": (lambda: trace_from_words(3, 2, 1, [(0, 1)], "*"), "sign must be '+' or '-'"),
    "base": (lambda: MultiDigitWord(2.5, ((1,),)), "base magnitude must be an integer >= 2"),
    "colors": (lambda: gsr_to_permutation((0, 1), 0), "number of colors p >= 1, got 0"),
    "cards": (lambda: gessel_coefficients(0, 1, 0), "number of cards n >= 1, got 0"),
    "digit words": (lambda: trace_from_words(3, 2, 1, [(0, 3)]),
                    "bad word (0, 3) for b=3: need 2 digits in 0..2"),
    "word length": (lambda: enumerate_words("words", 2, -1, "words"),
                    "a word length must be nonnegative"),
    "steps": (lambda: simulate_trace(make_process("+", 2, 2, 1), -1),
              "step count must be nonnegative"),
    "shape left": (lambda: left_eigen_matrix(3, Fraction(1, 2)), "a chain needs p >= 1"),
    "shape right": (lambda: right_eigen_matrix(3, 0), "a chain needs p >= 1"),
    "shape duality": (lambda: duality_check_left(2, Fraction(1, 2)), "a chain needs p >= 1"),
    "start mean": (lambda: mean_conditional(make_process("+", 4, 3, 3), 1, 99),
                   "start state must lie in 0..3, got 99"),
    "start variance": (lambda: variance_conditional(make_process("+", 4, 3, 3), 1, 4),
                       "start state must lie in 0..3, got 4"),
}


@pytest.mark.parametrize("call, message", RULE_CALLS.values(), ids=RULE_CALLS.keys())
def test_each_input_rule_refuses_with_its_one_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# What each input rule's message says; only process.py may raise such a message.
RULE_WORDS = {
    "sign": r"'\+' or '-'",
    "base": r"\bbase\b.*>= ?2",
    "count": r">= ?1\b|positive integer",
    "digit words": r"\bbad word\b|digit column|digits must",
    "steps": r"nonnegative",
    "shape": r"\bp >= ?1\b",
    "start state": r"\bstart\b",
}
RULE_CHECKS = ("check_sign", "check_base", "check_count", "check_words", "check_steps",
               "check_shape", "check_state")


def _raised_messages(tree):
    """(line, text) of every ValueError raised with a literal message; fields read as {}."""
    for node in ast.walk(tree):
        call = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ValueError"
                and call.args and isinstance(call.args[0], (ast.Constant, ast.JoinedStr))):
            message = call.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            yield node.lineno, "".join(
                part.value if isinstance(part, ast.Constant) else "{}" for part in parts)


def test_input_rules_are_raised_only_in_process():
    found = []
    for path in sorted(Path(carrieslab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "process.py":
            checks = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
            for name in RULE_CHECKS:
                raises = [node for node in ast.walk(checks[name]) if isinstance(node, ast.Raise)]
                assert len(raises) == 1, name
            continue
        found += [f"{path.name}:{line} {rule}: {text}" for line, text in _raised_messages(tree)
                  for rule, words in RULE_WORDS.items() if re.search(words, text)]
    assert found == []
