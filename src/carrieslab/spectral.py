"""Transition matrices of carries chains and their exact eigenstructure.

The chain with parameters (sign, b, n, p) has transition matrix
P = R D L where D = diag((+-1/b)^k), and L, R depend only on (n, p).
Everything here is exact rational arithmetic; the closed forms are
cross-checked elsewhere against brute-force enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterator

from .process import (ProcessParams, check_count, check_shape, enumerate_words, make_process,
                      step_carry)
from .ratmat import RationalMatrix


def _signed_binomial_convolution(n: int, tables) -> Iterator[list[int]]:
    """Each table t convolved with (-1)^r C(n+1, r): entry m is sum_r (-1)^r C(n+1, r) t[m-r].

    The inclusion-exclusion over n + 1 parts that P and L share.
    """
    signed = [(-1) ** r * comb(n + 1, r) for r in range(n + 1)]
    for table in tables:
        yield [sum(map(mul, signed, table[m::-1])) for m in range(len(table))]


def transition_matrix(params: ProcessParams) -> RationalMatrix:
    """Exact transition matrix from the inclusion-exclusion closed form.

    From state i, the columns with quotient m are the (n+1)-tuples over
    {0..b-1} summing to m b + t_i, t_i = b - 1 - i - ``column_shift`` (the
    n digits plus b - 1 minus the remainder).  With ways[m] = C(m b + t_i + n, n),
    or 0 when m b + t_i < 0, row i counts sum_r (-1)^r C(n+1, r) ways[m-r]
    tuples for quotient m over b^n, which is state m for sign + and n - m
    for sign -, as in ``step_carry``.
    """
    b, n = params.b, params.n
    targets = ([m * b + b - 1 - i - params.column_shift for m in range(n + 1)]
               for i in params.states)
    tables = ([comb(t + n, n) if t >= 0 else 0 for t in row] for row in targets)
    order = -1 if params.sign == "-" else 1  # quotient m is state n - m for sign -
    return RationalMatrix.from_integer_rows(
        (counts[::order][: params.state_count], b**n)
        for counts in _signed_binomial_convolution(n, tables))


def transition_oracle(params: ProcessParams) -> RationalMatrix:
    """Transition matrix by exhaustive enumeration of all digit columns.

    A column's carry depends on it only through its sum (Holte 1997), so
    ``_digit_sum_tally`` counts the columns by sum, once per (b, n).  ``step_carry`` then
    steps each state once per sum, weighted by its tally, on one real column with that
    sum: digits b-1 while they fit, the rest, then 0s.
    """
    b, n = params.b, params.n
    counts = [[0] * params.state_count for _ in params.states]
    for total, ways in _digit_sum_tally(b, n):
        digits = ((b - 1,) * (total // (b - 1)) + (total % (b - 1),) + (0,) * n)[:n]
        for i in params.states:
            j, _ = step_carry(params, i, digits)
            counts[i][j] += ways
    return RationalMatrix.from_integer_rows((row, b**n) for row in counts)


@lru_cache(maxsize=64)  # the default transition grid: 28 (b, n) pairs, each read by 2b chains
def _digit_sum_tally(b: int, n: int) -> tuple[tuple[int, int], ...]:
    """Every tuple in {0..b-1}^n (``enumerate_words`` bounds b^n) tallied by its sum in one
    C-level pass, as (sum, count) pairs."""
    columns = enumerate_words(f"the transition oracle at b={b} n={n}", b, n, "digit tuples")
    return tuple(Counter(map(sum, columns)).items())


def right_eigen_oracle(n: int, p) -> RationalMatrix:
    """Right eigenvector matrix R by its O(n^4) double-sum closed form.

    Entry (i, j) is
    sum_{k=i}^{n} sum_{l=n-j}^{k} s(k,l) (-1)^(n-j-l) / (k! p^l)
    C(l, n-j) C(n-i, n-k) with s the signed Stirling numbers; for p = a/c, s(k,l)/(k! p^l)
    is the integer s(k,l) (n!/k!) c^l a^(n-l) over n! a^n, computed once per call.
    Independent of the generating polynomial ``right_eigen_matrix`` expands; used to check it.
    """
    p = Fraction(p)
    a, c = p.numerator, p.denominator
    dim = check_shape(n, p)
    denom = factorial(n) * a**n
    term = [[stirling_first(k, l) * (factorial(n) // factorial(k)) * c**l * a ** (n - l)
             for l in range(k + 1)] for k in range(n + 1)]
    return RationalMatrix.from_integer_rows(
        ([sum(term[k][l] * ((-1) ** ((n - j - l) % 2) * comb(l, n - j) * comb(n - i, n - k))
              for k in range(i, n + 1) for l in range(n - j, k + 1)) for j in range(dim)], denom)
        for i in range(dim)
    )


@lru_cache(maxsize=None)
def stirling_first(k: int, l: int) -> int:
    """Signed Stirling number of the first kind: x(x-1)...(x-k+1) = sum s(k,l) x^l."""
    if k < 0 or l < 0 or l > k:
        return 0
    if k == 0:
        return 1 if l == 0 else 0
    return stirling_first(k - 1, l - 1) - (k - 1) * stirling_first(k - 1, l)


def left_eigen_matrix(n: int, p) -> RationalMatrix:
    """Left eigenvector matrix L; depends only on (n, p), not on sign or b.

    Entry (i, j) is sum_{r=0}^{j} (-1)^r C(n+1, r) (p(j-r)+1)^(n-i).  Row i
    is a left eigenvector of every valid chain for eigenvalue (+-1/b)^i.
    For p = a/c in lowest terms, p m + 1 = (a m + c)/c, so row i is the
    integers sum_r (-1)^r C(n+1, r) (a(j-r) + c)^(n-i) over c^(n-i): one
    power table per row, and one integer row each.
    """
    return RationalMatrix.from_integer_rows(_left_integer_rows(n, p))


def _left_integer_rows(n: int, p) -> Iterator[tuple[list[int], int]]:
    """Row i of ``left_eigen_matrix(n, p)`` as its integers over c^(n-i), built when read."""
    p = Fraction(p)
    a, c = p.numerator, p.denominator
    dim = check_shape(n, p)
    powers = ([(a * m + c) ** (n - i) for m in range(dim)] for i in range(dim))
    for i, row in enumerate(_signed_binomial_convolution(n, powers)):
        yield row, c ** (n - i)


def right_eigen_matrix(n: int, p) -> RationalMatrix:
    """Right eigenvector matrix R = L^(-1), from its generating polynomial.

    Entry (i, j) is the coefficient of x^(n-j) in the falling factorial
    prod_{m=0}^{n-1} (y - m) / n! = sum_l s(n,l) y^l / n!, with
    y = n - i + (x-1)/p and s the signed Stirling numbers.  For p = a/c in
    lowest terms, y = (u + c x)/a with u = a(n-i) - c, and expanding each
    (u + c x)^l binomially makes every coefficient an integer over the one
    shared denominator a^n n!.  A row costs O(n^2) integer operations and
    is one integer row.  ``right_eigen_oracle`` is the double-sum
    form it is checked against.
    """
    p = Fraction(p)
    a, c = p.numerator, p.denominator
    dim = check_shape(n, p)
    denom = a**n * factorial(n)
    stirling = [stirling_first(n, l) for l in range(n + 1)]
    # shared[t][k] = s(n, l) a^(n-l) C(l, t) for l = t + k: the row-independent
    # factor of u^k in the coefficient of x^t.
    shared = [
        [stirling[l] * a ** (n - l) * comb(l, t) for l in range(t, n + 1)]
        for t in range(n + 1)
    ]
    u_powers = ([(a * (n - i) - c) ** k for k in range(n + 1)] for i in range(dim))
    return RationalMatrix.from_integer_rows(
        ([c ** (n - j) * sum(map(mul, shared[n - j], powers)) for j in range(dim)], denom)
        for powers in u_powers)


def eigen_values(params: ProcessParams) -> tuple[Fraction, ...]:
    """Spectrum (+-1/b)^k for k = 0..dim-1, in decreasing absolute value."""
    base = Fraction(1, params.signed_base)
    return tuple(base**k for k in range(params.state_count))


@dataclass(frozen=True)
class EigenSystem:
    """Verified factorization P = R D L with L R = R L = I."""

    left: RationalMatrix
    right: RationalMatrix
    eigenvalues: tuple[Fraction, ...]


def eigen_system(params: ProcessParams) -> EigenSystem:
    """Assemble L, R, D for the chain and verify the factorization exactly.

    An inconsistency here means a broken closed form, so it raises
    RuntimeError instead of returning a report.
    """
    left = left_eigen_matrix(params.n, params.p)
    right = right_eigen_matrix(params.n, params.p)
    if right @ left != RationalMatrix.identity(params.state_count):
        raise RuntimeError(f"R L != I for {params}")
    values = eigen_values(params)
    # Given R L = I, L P = D L is P = R D L (P = R L P), and D only scales the rows of L.
    left_d = RationalMatrix.from_integer_rows(
        ([x * v.numerator for x in nums], d * v.denominator)
        for v, (nums, d) in zip(values, left.integer_rows))
    if left @ transition_matrix(params) != left_d:
        raise RuntimeError(f"R D L != P for {params}")
    return EigenSystem(left, right, values)


def _stationary_row(params: ProcessParams) -> tuple[tuple[int, ...], int]:
    """The chain's stationary law as one reduced integer row (law, d): row 0 of L over its sum."""
    row, _ = next(_left_integer_rows(params.n, params.p))
    g = gcd(*row) if sum(row) > 0 else -gcd(*row)
    return tuple(x // g for x in row), sum(row) // g


def stationary_fixed_point(params: ProcessParams) -> tuple[Fraction, ...]:
    """Row 0 of L over its sum, proved P's one stationary law by ``proved_stationary_row``."""
    law, d = proved_stationary_row(transition_matrix(params), params)
    return tuple(Fraction(x, d) for x in law)


def proved_stationary_row(matrix: RationalMatrix,
                          params: ProcessParams) -> tuple[tuple[int, ...], int]:
    """``_stationary_row(params)``, one integer row (law, d) with d > 0, once proved P =
    ``matrix``'s one stationary law: law / d sums to 1, is fixed by P (with P's rows (nums_i, e_i)
    and den the lcm of the e_i, the weights law_i den / e_i times column j of the nums give
    law_j den, in integers), and P is stochastic and primitive, so 1 is a simple eigenvalue
    (Kemeny-Snell, *Finite Markov Chains*, 1960).  A failed proof (a broken closed form) raises
    RuntimeError."""
    law, d = _stationary_row(params)
    rows = matrix.integer_rows
    den = lcm(*(e for _, e in rows))
    weights = [x * (den // e) for x, (_, e) in zip(law, rows)]
    if not (len(law) == matrix.dim and sum(law) == d > 0 and matrix.is_stochastic()
            and matrix.is_primitive()
            and all(sum(map(mul, weights, column)) == x * den
                    for column, x in zip(zip(*(nums for nums, _ in rows)), law))):
        raise RuntimeError("stationary law: row 0 of L is not proved P's one fixed law")
    return law, d


def _conjugate_reflection(n: int, p, build, mirror) -> bool:
    """Whether build(n, p*) is the reflection of build(n, p): for (k, l, s, e) = mirror(i, j),
    entry (i, j) at p* is (-1)^s (p*/p)^e times entry (k, l) at p.

    ``build`` is ``left_eigen_matrix`` or ``right_eigen_matrix``; p must exceed 1 so that the
    conjugate p* = p/(p-1) exists.  With p*/p = 1/(p-1) = c/a, the integer rows (x, d) at p*
    and (y, f) at p compare cross-multiplied: x_j a^e f = (-1)^s c^e y_l d, the two powers
    swapped for e < 0.
    """
    p = Fraction(p)
    if p == 1:
        raise ValueError("p = 1 is self-conjugate in the degenerate sense; no dual matrix")
    a, c = (p - 1).as_integer_ratio()
    at_p = build(n, p).integer_rows
    at_conj = build(n, p / (p - 1)).integer_rows

    def holds(i: int, j: int) -> bool:
        k, l, s, e = mirror(i, j)
        (x, d), (y, f) = at_conj[i], at_p[k]
        up, down = (c**e, a**e) if e >= 0 else (a**-e, c**-e)
        return x[j] * down * f == (-1) ** s * up * y[l] * d

    return all(holds(i, j) for i in range(n + 1) for j in range(n + 1))


def duality_check_left(n: int, p) -> bool:
    """Check L(p*) against the reflection identity in L(p); p must exceed 1.

    The identity: v[i, j] at p* equals (-1)^i (p*/p)^(n-i) v[i, n-j] at p.
    """
    return _conjugate_reflection(n, p, left_eigen_matrix, lambda i, j: (i, n - j, i, n - i))


def duality_check_right(n: int, p) -> bool:
    """Check R(p*) against the reflection identity in R(p); p must exceed 1.

    The identity: u[i, j] at p* equals (-1)^j (p/p*)^(n-j) u[n-i, j] at p.
    """
    return _conjugate_reflection(n, p, right_eigen_matrix, lambda i, j: (n - i, j, j, j - n))


def symmetry_check(params: ProcessParams) -> dict[str, bool]:
    """Reflection symmetries tying the two signs and conjugate parameters.

    Returns a dict of clause name -> bool for every clause applicable to
    the given parameters:

    - ``"centro"`` (p = 1): P+(i, j) = P+(n-1-i, n-1-j).
    - ``"sign-flip-p1"`` (p = 1): P-(i, j) = P+(i, n-1-j).
    - ``"sign-flip-p2"`` (p = 2): P-(i, j) = P+(i, n-j).
    - ``"conjugate"`` (p > 1): P_p(i, j) = P_p*(n-i, n-j), same sign.
    """
    b, n, p = params.b, params.n, params.p
    results: dict[str, bool] = {}
    matrix = transition_matrix(params)
    if p in (1, 2):
        plus, minus = (
            matrix if params.sign == sign else transition_matrix(make_process(sign, b, n, p))
            for sign in ("+", "-")
        )
        if p == 1:
            results["centro"] = plus.integer_rows == _mirrored(plus)[::-1]
        results[f"sign-flip-p{p}"] = minus.integer_rows == _mirrored(plus)
    if p > 1:
        conj = make_process(params.sign, b, n, p / (p - 1))
        results["conjugate"] = matrix.integer_rows == _mirrored(transition_matrix(conj))[::-1]
    return results


def _mirrored(matrix: RationalMatrix) -> tuple:
    """The integer rows of ``matrix`` with each row reversed: entry (i, j) at (i, last - j)."""
    return tuple((nums[::-1], d) for nums, d in matrix.integer_rows)


def _table(row) -> tuple:
    """A statistics row as ints where integral and ``Fraction``s elsewhere: a broken recursion
    keeps its ``Fraction``s, so it fails its case rather than the run."""
    return tuple(int(v) if v.denominator == 1 else v for v in row)


def _triangle_row(n: int, stay, step) -> list[Fraction]:
    """Row n of w_k(m) = stay(m, k) w_k(m-1) + step(m, k) w_{k-1}(m-1), w_0(0) = 1."""
    row = [Fraction(1)]
    for m in range(1, n + 1):
        row = [(stay(m, k) * row[k] if k < m else 0) + (step(m, k) * row[k - 1] if k else 0)
               for k in range(m + 1)]
    return row


def stirling_frobenius(n: int, p) -> tuple:
    """Row (w_0, ..., w_n) of the p-deformed first-kind triangle, as ``_table`` gives it.

    Recursion w_j(n) = (p n - 1) w_j(n-1) + w_{j-1}(n-1) with w_0(0) = 1.
    For p in N and p > 1 these equal n! p^n times the reversed top row of R.
    """
    p = Fraction(p)
    return _table(_triangle_row(n, lambda m, j: p * m - 1, lambda m, j: 1))


def descent_statistics(n: int, p, variant: str = "standard") -> tuple:
    """Counts of group elements by descent statistic, from the recursions.

    ``standard``: row 0 of L; entry k counts elements with k descents.
    ``dash``: the companion recursion
    F(n, k) = (p k + p - 1) F(n-1, k) + (p(n-k) + 1) F(n-1, k-1),
    whose row reverses the standard one for p > 1.  Requires integer p.  Rows are as
    ``_table`` gives them.
    """
    p = Fraction(p)
    check_count("colors p", p.numerator if p.denominator == 1 else p)
    if variant == "standard":
        row, den = next(_left_integer_rows(n, p))
        return _table(Fraction(x, den) for x in row)
    if variant != "dash":
        raise ValueError(f"unknown variant {variant!r}")
    return _table(_triangle_row(n, lambda m, k: p * k + p - 1, lambda m, k: p * (m - k) + 1))
