"""Closed-form moments of carries chains, with an integer-walk oracle.

All formulas are exact rationals.  The conditional variance and the
covariance do not depend on the start state or on p; the mean does.  The
oracle, ``MomentOracle``, recomputes every quantity as an expectation
(P^k f)(i) of integer vectors walked through P, so the closed forms can
be checked without circularity.

The mean formula holds for every valid parameter set.  The second-moment
formulas rest on the centred square being a right eigenfunction with
eigenvalue b^-2, which requires n >= 2: a chain on fewer than three
states has no such eigenvalue, and the centred square only vanishes
identically in the two-state chain with n = 2.  For n = 1 the closed
forms are simply wrong (a one-summand chain can even be a single state
with zero variance), so those functions refuse to answer there; the
oracle still works.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .process import STATE_LIMIT, STEP_LIMIT, ProcessParams, check_limit, check_state, check_steps
from .spectral import proved_stationary_row, transition_matrix


def has_quadratic_eigenfunction(params: ProcessParams) -> bool:
    """Whether center(i)^2 - (n+1)/12 is a right eigenfunction (eigenvalue b^-2).

    This is the hypothesis behind every second-moment closed form.  It
    holds structurally once the chain has at least three states, and
    degenerately when the function is zero at every state (which pins
    n = 2 on two states).  Altogether the condition is exactly n >= 2.
    """
    return params.n >= 2


def _require_quadratic(params: ProcessParams, what: str) -> None:
    if not has_quadratic_eigenfunction(params):
        raise ValueError(
            f"the {what} closed form needs n >= 2; with n = {params.n} the chain "
            "has no quadratic eigenfunction (use moments_oracle instead)"
        )


def mean_conditional(params: ProcessParams, r: int, i: int) -> Fraction:
    """E[state after r steps | start i] = center(i)/(+-b)^r + (n+1)/2 - 1/p, center(i) being the
    decaying i + 1/p - (n+1)/2: (2a i - k + B^r k)/(2a B^r), p = a/c, B = +-b, k = a(n+1) - 2c."""
    check_steps(r)
    check_state(params, i)
    a, c, shrink = params.p.numerator, params.p.denominator, params.signed_base**r
    return Fraction(2 * a * i + (shrink - 1) * (a * (params.n + 1) - 2 * c), 2 * a * shrink)


def variance_conditional(params: ProcessParams, r: int, i: int | None = None) -> Fraction:
    """Var[state after r steps | start i] = (n+1)/12 (1 - b^(-2r)) = (n+1)(b^2r - 1) / (12 b^2r).

    Independent of the start state, of p, and of the sign.  Needs n >= 2.
    """
    check_steps(r)
    if i is not None:
        check_state(params, i)
    _require_quadratic(params, "variance")
    grow = params.b ** (2 * r)
    return Fraction((params.n + 1) * (grow - 1), 12 * grow)


def covariance_conditional(
    params: ProcessParams, s: int, r: int, i: int | None = None
) -> Fraction:
    """Cov(state at s, state at s+r | start i) = (n+1)/12 (1 - b^(-2s)) / (+-b)^r.

    Needs n >= 2, like every second-moment closed form.
    """
    check_steps(r, s)
    if i is not None:
        check_state(params, i)
    _require_quadratic(params, "covariance")
    grow = params.b ** (2 * s)
    return Fraction((params.n + 1) * (grow - 1), 12 * grow * params.signed_base**r)


def stationary_moments(params: ProcessParams, r: int = 0) -> tuple[Fraction, Fraction]:
    """Stationary mean (n+1)/2 - 1/p and autocovariance (n+1)/12 / (+-b)^r.

    At r = 0 the second value is the stationary variance.  Needs n >= 2
    (the mean alone is valid everywhere, but the pair is refused as one).
    """
    check_steps(r)
    _require_quadratic(params, "stationary autocovariance")
    a, c = params.p.numerator, params.p.denominator
    return (Fraction(a * (params.n + 1) - 2 * c, 2 * a),
            Fraction(params.n + 1, 12 * params.signed_base**r))


@dataclass(frozen=True)
class MomentReport:
    """Moments computed from exact integer walks and the proved stationary law."""

    start: int | str
    r: int
    s: int
    mean: Fraction
    variance: Fraction
    covariance: Fraction

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ValueError("an exact variance cannot be negative")


class MomentOracle:
    """Moments of one chain from integer vectors walked through P = N / den.

    No moment formula is involved.  den is the lcm of P's row denominators, so N is an integer
    matrix and E[f(state after k) | start i] = (N^k f)[i] / den^k (Kemeny-Snell, 1960, ch. 4):
    ``walk`` forms N^k f one matrix-vector product a step; no matrix power is formed.  A start is
    a state or ``"stationary"``, the law proved as one integer row by
    ``spectral.proved_stationary_row`` and dotted with the same vectors.  Every moment is one
    ``Fraction`` of integer sums over a positive denominator.
    """

    def __init__(self, params: ProcessParams) -> None:
        self.params = params
        self.matrix = transition_matrix(params)
        self.dim = self.matrix.dim
        self.den = lcm(*(d for _, d in self.matrix.integer_rows))
        self._rows = [[x * (self.den // d) for x in nums] for nums, d in self.matrix.integer_rows]
        self._walks: dict[int | str, dict[int, list[int]]] = {"state": {0: list(range(self.dim))}}

    def walk(self, f: int | str, k: int) -> list[int]:
        """N^k f for f = "state", the states j, or a lag f = r, j (N^r j) entrywise (r = 0 is
        j^2).  Cached; a new level is walked from the deepest cached level below it."""
        levels = self._walks.get(f)
        if levels is None:
            levels = self._walks[f] = {0: list(map(mul, range(self.dim), self.walk("state", f)))}
        vector = levels.get(k)
        if vector is None:
            top = k - 1 if k - 1 in levels else max(filter(k.__gt__, levels))
            vector = levels[top]
            for _ in range(k - top):
                vector = [sum(map(mul, row, vector)) for row in self._rows]
            levels[k] = vector
        return vector

    @cached_property
    def _stationary(self) -> tuple[tuple[int, ...], int]:
        return proved_stationary_row(self.matrix, self.params)

    def _start(self, start: int | str, k: int):
        """(read, d): E[(N^m f)(state after k steps from ``start``)] = read(f, m) / (d den^m)."""
        if start == "stationary":
            law, d = self._stationary
            return (lambda f, m: sum(map(mul, law, self.walk(f, m)))), d
        check_state(self.params, start)
        return (lambda f, m: self.walk(f, k + m)[start]), self.den**k

    def law_moments(self, start: int | str, k: int) -> tuple[Fraction, Fraction]:
        """Mean m1/d and variance m2/d - (m1/d)^2 of the state after k steps from ``start``."""
        read, d = self._start(start, k)
        m1, m2 = read("state", 0), read(0, 0)
        return Fraction(m1, d), Fraction(m2 * d - m1 * m1, d * d)

    def covariance(self, start: int | str, s: int, r: int) -> Fraction:
        """Cov(state at s, state at s+r | start); the lag-r autocovariance if stationary.  It is
        (cross d - m1 m_sr) / (d^2 den^r): at the law after s steps, m1/d is the mean of j,
        m_sr/(d den^r) that of N^r j and cross/(d den^r) that of j (N^r j)."""
        read, d = self._start(start, s)
        return Fraction(read(r, 0) * d - read("state", 0) * read("state", r), d * d * self.den**r)


def moments_oracle(
    params: ProcessParams, r: int, s: int = 0, start: int | str = 0
) -> MomentReport:
    """Mean and variance after r steps, and Cov(state at s, state at s+r).

    ``start`` is a state or ``"stationary"``.  In the stationary case the
    mean and variance are those of the stationary law and the covariance
    is the lag-r autocovariance.  Everything comes from exact integer walks.
    A chain past ``STATE_LIMIT`` states is refused before P is built.
    """
    check_steps(r, s)
    check_limit("the moments oracle", max(r, s), STEP_LIMIT, "steps")
    check_limit("the moments oracle", params.state_count, STATE_LIMIT, "states")
    oracle = MomentOracle(params)
    return MomentReport(start, r, s, *oracle.law_moments(start, r),
                        oracle.covariance(start, s, r))
