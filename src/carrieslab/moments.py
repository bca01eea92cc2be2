"""Closed-form moments of carries chains, with a matrix-power oracle.

All formulas are exact rationals.  The conditional variance and the
covariance do not depend on the start state or on p; the mean does.  The
oracle, ``MomentOracle``, recomputes every quantity from exact powers of
the transition matrix so the closed forms can be checked without
circularity.

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
from math import lcm
from operator import mul

from .process import STEP_LIMIT, ProcessParams, check_limit, check_state, check_steps
from .ratmat import RationalMatrix, integer_row
from .spectral import proved_stationary_law, transition_matrix


def _center(params: ProcessParams, i: int) -> Fraction:
    """i + 1/p - (n+1)/2, the start-state coordinate that decays geometrically."""
    return i + Fraction(1) / params.p - Fraction(params.n + 1, 2)


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
    """E[state after r steps | start i] = center(i)/(+-b)^r + (n+1)/2 - 1/p."""
    check_steps(r)
    check_state(params, i)
    shrink = Fraction(1, params.signed_base**r)
    return _center(params, i) * shrink - Fraction(1) / params.p + Fraction(params.n + 1, 2)


def variance_conditional(params: ProcessParams, r: int, i: int | None = None) -> Fraction:
    """Var[state after r steps | start i] = (n+1)/12 (1 - b^(-2r)).

    Independent of the start state, of p, and of the sign.  Needs n >= 2.
    """
    check_steps(r)
    if i is not None:
        check_state(params, i)
    _require_quadratic(params, "variance")
    return Fraction(params.n + 1, 12) * (1 - Fraction(1, params.b ** (2 * r)))


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
    return variance_conditional(params, s) * Fraction(1, params.signed_base**r)


def stationary_moments(params: ProcessParams, r: int = 0) -> tuple[Fraction, Fraction]:
    """Stationary mean (n+1)/2 - 1/p and autocovariance (n+1)/12 / (+-b)^r.

    At r = 0 the second value is the stationary variance.  Needs n >= 2
    (the mean alone is valid everywhere, but the pair is refused as one).
    """
    check_steps(r)
    _require_quadratic(params, "stationary autocovariance")
    mean = Fraction(params.n + 1, 2) - Fraction(1) / params.p
    cov = Fraction(params.n + 1, 12) * Fraction(1, params.signed_base**r)
    return mean, cov


@dataclass(frozen=True)
class MomentReport:
    """Moments computed from exact matrix powers and the proved stationary law."""

    params: ProcessParams
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
    """Moments of one chain from exact powers of its transition matrix.

    No moment formula is involved.  P^k is one ``RationalMatrix`` product on
    P^(k-1) when that is known.  A law row P^k[i] is that matrix's own integer
    row; the stationary law is put in that form once (``ratmat.integer_row``);
    and E[state after r | start j] is P^r's rows times the states.  All are cached,
    so every moment is an integer dot product and one ``Fraction``, and many
    (start, r, s) queries on one chain cost only their distinct powers.  A start
    is a state or ``"stationary"``: row 0 of L once proved P's one fixed law.
    """

    def __init__(self, params: ProcessParams) -> None:
        self.params = params
        self.matrix = transition_matrix(params)
        self.dim = self.matrix.dim
        self._powers = {0: RationalMatrix.identity(self.dim), 1: self.matrix}
        self._laws: dict[tuple[int | str, int], tuple[tuple[int, ...], int]] = {}
        self._mean_after: dict[int, tuple[tuple[int, ...], int]] = {}

    def _law(self, start: int | str, k: int) -> tuple[tuple[int, ...], int]:
        """Law of the state after k steps from ``start``, as integers over one denominator."""
        key = (start, 0 if start == "stationary" else k)
        if key not in self._laws:
            if start == "stationary":
                self._laws[key] = integer_row(proved_stationary_law(self.matrix, self.params))
            else:
                check_state(self.params, start)
                if k not in self._powers:
                    below = self._powers.get(k - 1)
                    self._powers[k] = self.matrix.power(k) if below is None else below @ self.matrix
                self._laws[key] = self._powers[k].integer_rows[start]
        return self._laws[key]

    def law_moments(self, start: int | str, k: int) -> tuple[Fraction, Fraction]:
        """Mean and variance of the state after k steps from ``start``."""
        law, d = self._law(start, k)
        m1 = sum(map(mul, law, range(self.dim)))
        m2 = sum(x * j * j for j, x in enumerate(law))
        return Fraction(m1, d), Fraction(m2 * d - m1 * m1, d * d)

    def covariance(self, start: int | str, s: int, r: int) -> Fraction:
        """Cov(state at s, state at s+r | start); the lag-r autocovariance if stationary."""
        law, d_s = self._law(start, s)
        if r not in self._mean_after:
            # E[state after r steps | start j] = P^r[j] . (0, 1, ..., dim-1), for each state j.
            rows = [self._law(j, r) for j in range(self.dim)]
            den = lcm(*(d for _, d in rows))
            self._mean_after[r] = (tuple(sum(map(mul, nums, range(self.dim))) * (den // d)
                                         for nums, d in rows), den)
        after, d_r = self._mean_after[r]
        m1 = sum(map(mul, law, range(self.dim)))
        m_sr = sum(map(mul, law, after))
        cross = sum(x * j * y for j, (x, y) in enumerate(zip(law, after)))
        return Fraction(cross * d_s - m1 * m_sr, d_s * d_s * d_r)


def moments_oracle(
    params: ProcessParams, r: int, s: int = 0, start: int | str = 0
) -> MomentReport:
    """Mean and variance after r steps, and Cov(state at s, state at s+r).

    ``start`` is a state or ``"stationary"``.  In the stationary case the
    mean and variance are those of the stationary law and the covariance
    is the lag-r autocovariance.  Everything comes from exact powers of P.
    """
    check_steps(r, s)
    check_limit("the moments oracle", max(r, s), STEP_LIMIT, "steps")
    oracle = MomentOracle(params)
    mean, variance = oracle.law_moments(start, r)
    covariance = oracle.covariance(start, s, r)
    return MomentReport(params, start, r, s, mean, variance, covariance)
