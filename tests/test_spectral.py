"""Transition matrices, eigen structure, and counting statistics."""

import ast
import inspect
from fractions import Fraction
from math import comb, factorial

import pytest

from carrieslab import (
    RationalMatrix,
    descent_statistics,
    duality_check_left,
    duality_check_right,
    eigen_system,
    eigen_values,
    enumerate_group,
    dash_descent_count,
    descent_count,
    left_eigen_matrix,
    make_process,
    right_eigen_matrix,
    right_eigen_oracle,
    stationary_fixed_point,
    stirling_first,
    stirling_frobenius,
    symmetry_check,
    transition_matrix,
    transition_oracle,
)
from carrieslab import moments, ratmat, spectral, verify
from carrieslab.process import enumerate_words, step_carry
from carrieslab.verify import _chain_grid, run_suite

PARAMS = [
    ("+", 2, 2, 1),
    ("+", 3, 2, 2),
    ("+", 4, 3, Fraction(3, 2)),
    ("-", 2, 2, 3),
    ("-", 3, 3, 2),
    ("-", 5, 2, Fraction(3, 2)),
]


@pytest.mark.parametrize("sign,b,n,p", PARAMS)
def test_transition_matches_oracle_and_is_stochastic(sign, b, n, p):
    params = make_process(sign, b, n, p)
    matrix = transition_matrix(params)
    assert matrix == transition_oracle(params)
    assert matrix.is_stochastic()


def _per_column_oracle(params):
    """The enumeration oracle as one ``step_carry`` per (digit column, state), kept as the
    reference the tallied oracle must equal."""
    b, n = params.b, params.n
    dim = params.state_count
    counts = [[0] * dim for _ in range(dim)]
    for digits in enumerate_words(f"the reference oracle at b={b} n={n}", b, n, "digit tuples"):
        for i in range(dim):
            j, _ = step_carry(params, i, digits)
            counts[i][j] += 1
    return RationalMatrix([[Fraction(c, b**n) for c in row] for row in counts])


def test_transition_oracle_equals_the_per_column_loop():
    # A tally that dropped its weights would count each column sum once, not b^n columns.
    for chain in _chain_grid(6, 3):
        params = make_process(*chain)
        assert transition_oracle(params) == _per_column_oracle(params), params


def test_transition_oracle_steps_each_state_once_per_column_sum(monkeypatch):
    stepped = []

    def counted(params, kappa, digits):
        stepped.append(tuple(digits))
        return step_carry(params, kappa, digits)

    monkeypatch.setattr(spectral, "step_carry", counted)
    for sign, b, n, p in [*PARAMS, ("+", 7, 4, 3), ("-", 8, 3, 3), ("+", 9, 1, 4)]:
        params = make_process(sign, b, n, p)
        stepped.clear()
        assert transition_oracle(params) == transition_matrix(params)
        # n (b - 1) + 1 column sums, each a real column of n digits in 0..b-1.
        assert len(stepped) <= params.state_count * (n * (b - 1) + 1)
        assert all(len(col) == n and all(0 <= x < b for x in col) for col in stepped)


def test_transition_oracle_uses_no_closed_form():
    # The oracle counts enumerated columns; a formula for the counts would check P with itself.
    names = set()
    for function in (spectral.transition_oracle, spectral._digit_sum_tally):
        tree = ast.parse(inspect.getsource(function))
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "step_carry" in names and "enumerate_words" in names
    assert not names & {"comb", "_signed_binomial_convolution", "transition_matrix"}


def test_the_default_transition_grid_tallies_each_base_and_length_once(monkeypatch):
    # 280 chains share 28 (b, n) pairs: the tally depends on the pair, not the chain, and its
    # cache is bounded.
    calls = []
    enumerate_words = spectral.enumerate_words
    monkeypatch.setattr(spectral, "enumerate_words", lambda *args: calls.append(args[1:3]) or
                        enumerate_words(*args))
    spectral._digit_sum_tally.cache_clear()
    report = run_suite("transition")
    spectral._digit_sum_tally.cache_clear()  # no tally read through the patch stays cached
    assert report.passed and len(report.cases) == 280
    assert sorted(calls) == [(b, n) for b in range(2, 9) for n in range(1, 5)]
    assert spectral._digit_sum_tally.cache_parameters()["maxsize"] is not None  # bounded


def test_classical_two_summand_matrix():
    params = make_process("+", 2, 2, 1)
    expected = RationalMatrix([[Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 4)]])
    assert transition_matrix(params) == expected


@pytest.mark.parametrize("sign,b,n,p", PARAMS)
def test_eigen_system_verifies(sign, b, n, p):
    params = make_process(sign, b, n, p)
    system = eigen_system(params)
    dim = params.state_count
    assert system.right @ system.left == RationalMatrix.identity(dim)
    assert system.eigenvalues == eigen_values(params)
    assert system.eigenvalues[0] == 1
    base = Fraction(1, params.signed_base)
    assert all(system.eigenvalues[k] == base**k for k in range(dim))


def test_right_polynomial_form_agrees():
    for p in (1, 2, 3, 4, Fraction(3, 2), Fraction(4, 3)):
        for n in range(1, 9):
            assert right_eigen_matrix(n, p) == right_eigen_oracle(n, p), (n, p)


def _fraction_right_oracle(n, p):
    """The double sum of R term by term in ``Fraction``s, kept as the reference the integer
    oracle must equal."""
    p = Fraction(p)
    dim = n if p == 1 else n + 1
    term = [[Fraction(stirling_first(k, l), factorial(k)) / p**l for l in range(k + 1)]
            for k in range(n + 1)]
    return RationalMatrix(
        [sum(term[k][l] * ((-1) ** ((n - j - l) % 2) * comb(l, n - j) * comb(n - i, n - k))
             for k in range(i, n + 1) for l in range(n - j, k + 1)) for j in range(dim)]
        for i in range(dim)
    )


def test_right_oracle_equals_its_fraction_double_sum():
    for p in (1, 2, 3, 4, Fraction(3, 2), Fraction(4, 3)):
        for n in range(1, 9):
            assert right_eigen_oracle(n, p) == _fraction_right_oracle(n, p), (n, p)


def test_eigen_system_multiplies_twice(monkeypatch):
    # R L = I and R D L = P, with D folded into the columns of R.
    calls = []
    matmul = RationalMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counted)
    eigen_system(make_process("-", 5, 4, Fraction(3, 2)))
    assert len(calls) == 2


def test_transition_matrix_takes_one_binomial_table_per_row(monkeypatch):
    # One table of n + 1 binomials per row plus the n + 1 signed ones, not a
    # batch of binomials for every entry.
    calls = []
    comb = spectral.comb

    def counted(*args):
        calls.append(1)
        return comb(*args)

    monkeypatch.setattr(spectral, "comb", counted)
    n = 40
    transition_matrix(make_process("+", 3, n, 1))
    assert len(calls) <= (n + 1) ** 2 + n + 1


@pytest.mark.parametrize("p", [3, Fraction(3, 2)])
def test_right_matrix_inverts_left_at_forty_summands(p):
    # p = 3/2 puts c = 2 into the shared denominator a^n n!.
    product = right_eigen_matrix(40, p) @ left_eigen_matrix(40, p)
    assert product == RationalMatrix.identity(41)


def test_stirling_first_classical_row():
    # x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
    assert [stirling_first(4, l) for l in range(5)] == [0, -6, 11, -6, 1]


@pytest.mark.parametrize("sign,b,n,p", PARAMS)
def test_stationary_is_the_fixed_point(sign, b, n, p):
    params = make_process(sign, b, n, p)
    pi = stationary_fixed_point(params)
    assert sum(pi) == 1 and all(x > 0 for x in pi)
    row = left_eigen_matrix(n, p)[0]
    assert pi == tuple(x / sum(row) for x in row)  # row 0 of L, normalized
    matrix = transition_matrix(params)
    assert matrix.row_mul(pi) == pi


def test_the_stationary_proof_refuses_a_fixed_law_that_is_not_the_only_one():
    # (1/2, 1/2) is the stationary law of + b=3 n=1 p=2.  The identity (reducible) and the
    # 2-cycle (periodic) fix it too, but neither is primitive, so neither pins it.
    params = make_process("+", 3, 1, 2)
    half = (Fraction(1, 2),) * 2
    assert spectral.proved_stationary_row(transition_matrix(params), params) == ((1, 1), 2)
    for matrix in (RationalMatrix.identity(2), RationalMatrix([[0, 1], [1, 0]])):
        assert matrix.is_stochastic() and matrix.row_mul(half) == half
        with pytest.raises(RuntimeError, match="stationary law"):
            spectral.proved_stationary_row(matrix, params)


def test_no_stationary_law_needs_a_linear_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("a linear solve ran")

    for module in (ratmat, spectral, moments, verify):
        monkeypatch.setattr(module, "solve_linear", refuse, raising=False)
    for suite in ("moments", "examples-golden"):
        assert run_suite(suite).passed
    params = make_process("-", 8, 30, 3)  # the largest chain of the large-chain benchmark
    row = left_eigen_matrix(30, 3)[0]
    assert stationary_fixed_point(params) == tuple(x / sum(row) for x in row)


def _fraction_reflection(n, p, build, reflect):
    """The duality check entry by entry in ``Fraction``s, kept as the reference the
    cross-multiplied integer check must equal: build(n, p*) against reflect(build(n, p))."""
    p = Fraction(p)
    conj = p / (p - 1)
    at_p, at_conj = build(n, p).rows, build(n, conj).rows
    return all(at_conj[i][j] == reflect(at_p, i, j, conj / p)
               for i in range(n + 1) for j in range(n + 1))


def _moved(build):
    """``build`` with entry (n, 0) one higher: the reflection that reads it fails."""
    return lambda n, p: RationalMatrix([[x + ((i, j) == (n, 0)) for j, x in enumerate(row)]
                                        for i, row in enumerate(build(n, p).rows)])


def test_duality_checks_equal_their_fraction_reflections(monkeypatch):
    for check, name, reflect in (
            (duality_check_left, "left_eigen_matrix",
             lambda n: lambda left, i, j, ratio: (-1) ** i * ratio ** (n - i) * left[i][n - j]),
            (duality_check_right, "right_eigen_matrix",
             lambda n: lambda right, i, j, ratio: (-1) ** j * ratio ** (j - n) * right[n - i][j])):
        build = getattr(spectral, name)
        for matrix, holds in ((build, True), (_moved(build), False)):
            monkeypatch.setattr(spectral, name, matrix)
            for p in (2, 3, 4, Fraction(3, 2), Fraction(4, 3)):
                for n in range(1, 9):
                    assert check(n, p) == _fraction_reflection(n, p, matrix, reflect(n)) == holds


def test_dualities_and_their_domain():
    for n, p in ((2, 2), (3, 3), (3, Fraction(3, 2)), (4, 4)):
        assert duality_check_left(n, p)
        assert duality_check_right(n, p)
    with pytest.raises(ValueError):
        duality_check_left(3, 1)
    with pytest.raises(ValueError):
        duality_check_right(3, 1)


def test_symmetry_clauses():
    assert symmetry_check(make_process("+", 3, 3, 1)) == {
        "centro": True,
        "sign-flip-p1": True,
    }
    both = symmetry_check(make_process("-", 3, 2, 2))
    assert both["sign-flip-p2"] and both["conjugate"]
    conj_only = symmetry_check(make_process("+", 4, 2, 3))
    assert conj_only == {"conjugate": True}


def test_stirling_frobenius_reference_rows():
    assert stirling_frobenius(3, 2) == (15, 23, 9, 1)
    assert stirling_frobenius(3, 3) == (80, 66, 15, 1)
    assert stirling_frobenius(3, 1) == (0, 2, 3, 1)
    assert stirling_frobenius(0, 2) == (1,)



def test_integral_table_entries_are_plain_ints():
    # Rows at integer p hold ints, so a verify detail prints (1, 4, 1), not Fraction(1, 1).
    rows = [stirling_frobenius(n, p) for n in range(5) for p in (1, 2, 3)]
    rows += [descent_statistics(n, p, variant)
             for n in range(1, 5) for p in (1, 2, 3) for variant in ("standard", "dash")]
    assert all(type(x) is int for row in rows for x in row)
    assert str(descent_statistics(3, 1)) == "(1, 4, 1)"


def test_fractional_p_rows_keep_their_fractions():
    # At p = 3/2 the rows 1/2 1; 1 5/2 1; 7/2 39/4 6 1 follow w_j(m) = (p m - 1) w_j(m-1)
    # + w_{j-1}(m-1); the integral entries are ints and the rest stay Fractions.
    p = Fraction(3, 2)
    rows = [stirling_frobenius(m, p) for m in range(4)]
    assert rows[3] == (Fraction(7, 2), Fraction(39, 4), 6, 1)
    for m in range(1, 4):
        above = (*rows[m - 1], 0)
        assert rows[m] == tuple((p * m - 1) * above[j] + (above[j - 1] if j else 0)
                                for j in range(m + 1))
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in rows[m])
    assert [type(x) for x in rows[3]] == [Fraction, Fraction, int, int]

def test_stirling_frobenius_reverses_scaled_right_row():
    import math

    for n, p in ((2, 2), (3, 2), (3, 3), (4, 2)):
        row = stirling_frobenius(n, p)
        scale = math.factorial(n) * Fraction(p) ** n
        top = right_eigen_matrix(n, p)[0]
        assert tuple(scale * top[n - j] for j in range(n + 1)) == row


def test_descent_statistics_match_enumeration():
    for n, p in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 1)):
        standard = descent_statistics(n, p, "standard")
        counts = [0] * len(standard)
        for sigma in enumerate_group(n, p):
            counts[descent_count(sigma)] += 1
        assert tuple(counts) == standard
        dash = descent_statistics(n, p, "dash")
        dash_counts = [0] * len(dash)
        for sigma in enumerate_group(n, p):
            dash_counts[dash_descent_count(sigma)] += 1
        assert tuple(dash_counts) == dash
        # The dash row reverses the standard one, or shifts it by one at p = 1.
        assert dash == (tuple(reversed(standard)) if p > 1 else (0, *standard))


def test_descent_statistics_reject_fractional_p():
    with pytest.raises(ValueError):
        descent_statistics(3, Fraction(3, 2))


def test_eulerian_row_for_plain_permutations():
    assert descent_statistics(4, 1) == (1, 11, 11, 1)
