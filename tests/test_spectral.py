"""Transition matrices, eigen structure, and counting statistics."""

from fractions import Fraction

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
    left_eigen_oracle,
    make_process,
    right_eigen_matrix,
    right_eigen_oracle,
    stationary_distribution,
    stationary_fixed_point,
    stirling_first,
    stirling_frobenius,
    symmetry_check,
    transition_matrix,
    transition_oracle,
)
from carrieslab import spectral
from carrieslab.verify import run_suite

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


def test_left_integer_form_agrees():
    for p in (1, 2, 3, 4, Fraction(3, 2), Fraction(4, 3)):
        for n in range(1, 9):
            assert left_eigen_matrix(n, p) == left_eigen_oracle(n, p), (n, p)


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


def test_eigen_suite_fails_on_a_wrong_spectrum(monkeypatch):
    # The suite proves the spectrum only through R D L = P; a wrong eigenvalue must fail it.
    keep = spectral.eigen_values

    def doubled_last(params):
        values = keep(params)
        return values[:-1] + (2 * values[-1],)

    monkeypatch.setattr(spectral, "eigen_values", doubled_last)
    report = run_suite("eigen", n_max=2)
    failed = [case.key for case in report.cases if not case.ok]
    assert len(failed) == 40 and not any(key.startswith("poly-form") for key in failed)


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
    pi = stationary_distribution(params)
    assert sum(pi) == 1 and all(x > 0 for x in pi)
    assert pi == stationary_fixed_point(params)
    matrix = transition_matrix(params)
    assert matrix.row_mul(pi) == pi


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
    assert stirling_frobenius(3, 2).ints() == (15, 23, 9, 1)
    assert stirling_frobenius(3, 3).ints() == (80, 66, 15, 1)
    assert stirling_frobenius(3, 1).ints() == (0, 2, 3, 1)
    assert stirling_frobenius(0, 2).ints() == (1,)


def test_stirling_frobenius_reverses_scaled_right_row():
    import math

    for n, p in ((2, 2), (3, 2), (3, 3), (4, 2)):
        row = stirling_frobenius(n, p).values
        scale = math.factorial(n) * Fraction(p) ** n
        top = right_eigen_matrix(n, p)[0]
        assert tuple(scale * top[n - j] for j in range(n + 1)) == row


def test_descent_statistics_match_enumeration():
    for n, p in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 1)):
        standard = descent_statistics(n, p, "standard").ints()
        counts = [0] * len(standard)
        for sigma in enumerate_group(n, p):
            counts[descent_count(sigma)] += 1
        assert tuple(counts) == standard
        dash = descent_statistics(n, p, "dash").ints()
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
    assert descent_statistics(4, 1).ints() == (1, 11, 11, 1)
