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
from .ratmat import RationalMatrix
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

    No moment formula is involved.  P^k is one ``RationalMatrix`` product on P^(k-1) when that
    is known.  A law row P^k[i] is that matrix's own integer row; the stationary law is proved
    in that form (``spectral.proved_stationary_row``); and E[state after r | start j] is P^r's
    rows times the states.  All are cached, so every moment is integer sums over a positive
    denominator (``law_sums``, ``covariance_sums``), or one ``Fraction`` of them, and many
    (start, r, s) queries on one chain cost only their distinct powers.  A start is a state or
    ``"stationary"``: row 0 of L once proved P's one fixed law.
    """

    def __init__(self, params: ProcessParams) -> None:
        self.params = params
        self.matrix = transition_matrix(params)
        self.dim = self.matrix.dim
        self._powers = {0: RationalMatrix.identity(self.dim), 1: self.matrix}
        self._laws: dict[tuple[int | str, int], tuple[tuple[int, ...], int, int]] = {}
        self._mean_after: dict[int, tuple[list[int], list[int], int]] = {}

    def _law(self, start: int | str, k: int) -> tuple[tuple[int, ...], int, int]:
        """(law, d, m1): the state after k steps from ``start`` has law law/d and mean m1/d."""
        key = (start, 0 if start == "stationary" else k)
        if key not in self._laws:
            if start == "stationary":
                law, d = proved_stationary_row(self.matrix, self.params)
            else:
                check_state(self.params, start)
                if k not in self._powers:
                    below = self._powers.get(k - 1)
                    self._powers[k] = self.matrix.power(k) if below is None else below @ self.matrix
                law, d = self._powers[k].integer_rows[start]
            self._laws[key] = law, d, sum(map(mul, law, range(self.dim)))
        return self._laws[key]

    def law_sums(self, start: int | str, k: int) -> tuple[int, int, int]:
        """(m1, m2, d): the state after k steps from ``start`` has moments m1/d and m2/d, d > 0."""
        law, d, m1 = self._law(start, k)
        return m1, sum(x * j * j for j, x in enumerate(law)), d

    def covariance_sums(self, start: int | str, s: int, r: int) -> tuple[int, int]:
        """(cross d_s - m1 m_sr, d_s^2 d_r): ``covariance`` unreduced, its denominator positive.
        With E_r[j] = P^r[j] . (0, 1, ..., dim-1), m_sr = law . E_r and cross = law . (j E_r[j])."""
        law, d_s, m1 = self._law(start, s)
        if r not in self._mean_after:
            rows = [self._law(j, r) for j in range(self.dim)]
            den = lcm(*(d for _, d, _ in rows))
            after = [m1_j * (den // d) for _, d, m1_j in rows]
            self._mean_after[r] = after, list(map(mul, after, range(self.dim))), den
        after, state_after, d_r = self._mean_after[r]
        cross, m_sr = sum(map(mul, law, state_after)), sum(map(mul, law, after))
        return cross * d_s - m1 * m_sr, d_s * d_s * d_r

    def law_moments(self, start: int | str, k: int) -> tuple[Fraction, Fraction]:
        """Mean and variance of the state after k steps from ``start``."""
        m1, m2, d = self.law_sums(start, k)
        return Fraction(m1, d), Fraction(m2 * d - m1 * m1, d * d)

    def covariance(self, start: int | str, s: int, r: int) -> Fraction:
        """Cov(state at s, state at s+r | start); the lag-r autocovariance if stationary."""
        return Fraction(*self.covariance_sums(start, s, r))


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
    return MomentReport(params, start, r, s, *oracle.law_moments(start, r),
                        oracle.covariance(start, s, r))
