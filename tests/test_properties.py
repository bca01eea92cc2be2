"""Property tests: the shuffle engine against the carries chain and the group law,
and integer-row matrix products against schoolbook ``Fraction`` sums."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from carrieslab import (
    MultiDigitWord,
    RationalMatrix,
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


# Zero-heavy entries over a few denominators, so that whole rows or columns vanish.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 35])),
)


@st.composite
def matrix_pairs(draw):
    """A square pair of dimension 1..5 and a column vector, possibly with zero lines."""
    dim = draw(st.integers(1, 5))
    square = st.lists(st.lists(rationals, min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim)
    left, right = draw(square), draw(square)
    if draw(st.booleans()):
        left[draw(st.integers(0, dim - 1))] = [Fraction(0)] * dim
    if draw(st.booleans()):
        col = draw(st.integers(0, dim - 1))
        for row in right:
            row[col] = Fraction(0)
    vector = draw(st.lists(rationals, min_size=dim, max_size=dim))
    return left, right, vector


def schoolbook(row, col):
    return sum((a * b for a, b in zip(row, col)), Fraction(0))


@BOUNDED
@given(matrix_pairs())
def test_integer_row_products_equal_schoolbook_sums(case):
    left, right, vector = case
    product = RationalMatrix(left) @ RationalMatrix(right)
    columns = list(zip(*right))
    assert product.rows == tuple(
        tuple(schoolbook(row, col) for col in columns) for row in left
    )
    assert RationalMatrix(left).col_mul(vector) == tuple(schoolbook(row, vector) for row in left)
