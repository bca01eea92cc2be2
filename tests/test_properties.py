"""Property tests: the shuffle engine against the carries chain and the group law."""

from hypothesis import given, settings
from hypothesis import strategies as st

from carrieslab import (
    MultiDigitWord,
    bijection_minus,
    bijection_plus,
    compose,
    descent_count,
    gsr_to_permutation,
    make_process,
    reverse_map,
    simulate_trace,
    trace_from_words,
)

BOUNDED = settings(derandomize=True, deadline=None)


@st.composite
def chains(draw):
    """A sign, a base b <= 9 and an integer p dividing b - 1 (sign '+') or b + 1 ('-')."""
    sign = draw(st.sampled_from("+-"))
    b = draw(st.integers(2, 9))
    top = b - 1 if sign == "+" else b + 1
    p = draw(st.sampled_from([k for k in range(1, top + 1) if top % k == 0]))
    return sign, b, p


def digit_rows(b, count, length):
    return st.lists(
        st.lists(st.integers(0, b - 1), min_size=length, max_size=length),
        min_size=count,
        max_size=count,
    )


@st.composite
def summand_arrays(draw):
    """A chain with at most 4 summands of at most 4 digit places."""
    sign, b, p = draw(chains())
    n, places = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return sign, p, MultiDigitWord(b, draw(digit_rows(b, n, places)))


@st.composite
def word_stacks(draw):
    """A chain with at most 4 digit words of at most 4 cards each."""
    sign, b, p = draw(chains())
    n, steps = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return sign, b, n, p, draw(digit_rows(b, steps, n))


@BOUNDED
@given(summand_arrays())
def test_bijection_descents_are_the_carries(case):
    sign, p, summands = case
    b, n = summands.b, summands.count
    params = make_process(sign, b, n, p)
    carries = simulate_trace(params, summands.places, columns=summands.columns()).kappas[1:]
    if sign == "+":
        trace = trace_from_words(b, n, p, bijection_plus(summands, p), "+")
    else:
        trace = bijection_minus(summands, p)
    assert trace.descents == carries


@BOUNDED
@given(word_stacks())
def test_trace_folds_the_group_law(case):
    sign, b, n, p, words = case
    expected, current = [], None
    for r, word in enumerate(words, start=1):
        factor = gsr_to_permutation(word, p)
        if sign == "-" and r % 2 == 0:
            factor = reverse_map(factor, "prime")
        current = factor if current is None else compose(factor, current)
        expected.append(current)
    trace = trace_from_words(b, n, p, words, sign)
    assert trace.elements == tuple(expected)
    if sign == "+":
        assert trace.descents == tuple(descent_count(e) for e in expected)
