"""One table of planted faults: each closed form, oracle and engine stage that the verify
suites read, broken on purpose, must fail the cases that read it (mutation testing: DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer, 1978)."""

import ast
import functools
import json
import re
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate, islice
from math import comb
from pathlib import Path

import pytest

from carrieslab import cli, colored, reference, shuffle, spectral, verify
from carrieslab.moments import MomentOracle
from carrieslab.ratmat import RationalMatrix

#: A row: the suite, its failed cases (their keys, their count, or a {key: detail} map; none
#: when the suite does not read the fault and passes), the ``(module, name, fault)`` patches
#: (a dict for a module sets a reference entry), the verify flags, and a pattern that each
#: failed case's detail must match in full.
Fault = namedtuple("Fault", "suite failed patches flags detail", defaults=("", None))

_SHIFT = Fraction(1, 10**6)
_RAISED = "a planted refusal"
_UNPROVED = "stationary law: row 0 of L is not proved P's one fixed law"
_MISMATCH = r"mismatch at rows=\(\(.*|word map not injective"
_PIPELINES = ["negative-base pipeline", "positive-base pipeline"]
_GSR_CASES = ["gsr b=3 n=6 p=2", "gsr b=7 n=8 p=3", *_PIPELINES, "window inversion example"]
_STATIONARY_KEYS = [f"stationary sign={sign} b={b} n=3 p=2" for sign in "+-" for b in (3, 5)]
_ONESTEP_CASES = ((3, 2, 1), (3, 3, 1), (4, 2, 3), (4, 3, 3), (5, 2, 2))
_PROB_CASES = ((3, 2, 1), (3, 3, 2), (4, 2, 3))
_SYMMETRY_KEYS = [*(f"{clause} b={b} n={n}" for clause in ("centro", "sign-flip-p1")
                    for b in range(2, 6) for n in range(2, 5)),  # n = 1 is its own mirror
                  *(f"sign-flip-p2 b={b} n={n}" for b in (3, 5, 7) for n in range(1, 5)),
                  *(f"conjugate sign={sign} b={verify.smallest_valid_bases(sign, p, 1)[0]} "
                    f"n={n} p={p}" for p in map(Fraction, (2, 3, "3/2", 4)) for sign in "+-"
                    for n in range(1, 5))]
_PLUS_CASE, _MINUS_CASE = "--b 2 --n 3 --p 1 --N 3", "--b 2 --n 3 --p 3 --N 3"


def _raises(*args, **options):
    raise ValueError(_RAISED)


def _short(closed_form):
    """``closed_form`` with each row one entry short: not square, so RationalMatrix refuses it."""
    return lambda *args: RationalMatrix.from_integer_rows(
        (nums[:-1], d) for nums, d in closed_form(*args).integer_rows)


def _shifted(closed_form, at):
    """``closed_form`` up by 10^-6 (a tuple entry by entry) where ``at(*args)`` holds."""
    def shifted(*args):
        value, up = closed_form(*args), _SHIFT * at(*args)
        return tuple(x + up for x in value) if isinstance(value, tuple) else value + up
    return shifted


def _shifted_stationary_row(keeps_sum, row=spectral._stationary_row):
    """Row 0 of L as the integer row (law, d), its first entry up by 10^-6 and, when it keeps
    the sum at 1, its last down by as much."""
    def shifted(params):
        law, d = row(params)
        nums = [x * _SHIFT.denominator for x in law]
        return (nums[0] + d, *nums[1:-1], nums[-1] - d * keeps_sum), d * _SHIFT.denominator
    return shifted


class _StationaryMeanShifted(MomentOracle):
    def law_moments(self, start, k):
        mean, variance = super().law_moments(start, k)
        return mean + _SHIFT * (start == "stationary"), variance


class _OneStepVarianceClaimed(MomentOracle):
    """At n = 1 the one-step variance reads what the n >= 2 closed form would claim."""

    def law_moments(self, start, k):
        mean, variance = super().law_moments(start, k)
        if (self.params.n, k) == (1, 1):
            variance = Fraction(2, 12) * (1 - Fraction(1, self.params.b**2))
        return mean, variance


@functools.lru_cache(maxsize=None)
def _unsigned_stirling(k, l):
    """|s(k, l)| by its own recursion: abs() of the real one would fill its cache from this one."""
    if k < 0 or l < 0 or l > k:
        return 0
    if k == 0:
        return int(l == 0)
    return _unsigned_stirling(k - 1, l - 1) + (k - 1) * _unsigned_stirling(k - 1, l)


def _non_integer_left(n, p, rows=spectral._left_integer_rows):
    """Every entry of L(2, 2) up by 10^-6, as integer rows."""
    for nums, den in rows(n, p):
        if (n, p) == (2, 2):
            nums, den = [x * _SHIFT.denominator + den for x in nums], den * _SHIFT.denominator
        yield nums, den


def _without_end_rule(order_is_dash):
    """The engine's descent rule with the end predicate of one order dropped."""
    def mutated(pairs, p, dash=False):
        end = pairs[-1][1]
        fired = dash == order_is_dash and (end == p - 1 if dash else end != 0)
        return colored._descents(pairs, p, dash) - fired
    return mutated


def _compose_pairs_without_mod(tau_pairs, sigma_pairs, p):
    return tuple((tau_pairs[k - 1][0], tau_pairs[k - 1][1] + c) for k, c in sigma_pairs)


def _iterated_law_off_by_one(sigma, b, r=1, law=verify.shuffle_probability):
    """m = (b^r - 1)/p + 1 at r = 2: only the r = 2 enumeration sees it, not the r = 1 law."""
    if r != 2:
        return law(sigma, b, r)
    n, m = sigma.n, (b**r - 1) // sigma.p + 1
    return Fraction(comb(n + m - colored.descent_count(colored.inverse(sigma)), n), b ** (r * n))


def _shifted_gessel_table(n, p, d, closed_form=verify.gessel_coefficients):
    table = closed_form(n, p, d)
    table[0][0] += 1
    return table


def _flip_even(rows, b, flip_odd=False, values=shuffle._row_values):
    """The digits at even indices flipped, in place of those at odd ones."""
    if flip_odd:
        rows = [tuple(b - 1 - x if k % 2 == 0 else x for k, x in enumerate(row)) for row in rows]
    return values(rows, b)


def duality_check_left(n, p, closed_form=verify.duality_check_left):  # its case key is its name
    return True if p == 1 else closed_form(n, p)


_ELEMENTS = reference.MINUS_PIPELINE["elements"]
_BAR_KEPT_SHORT = (shuffle, "_running_totals", lambda values, modulus,
                   totals=shuffle._running_totals: totals(values, modulus // 2))
FAULTS = {
    # transition: the closed form against its enumeration oracle.
    "transition-short-rows": Fault("transition", 280, [
        (verify, "transition_matrix", _short(verify.transition_matrix))]),
    "transition-oracle-short-rows": Fault("transition", 280, [
        (verify, "transition_oracle", _short(verify.transition_oracle))],
        detail="matrix must be square.*"),
    # eigen: R D L = P for every chain, and R against its double-sum oracle.
    "eigen-short-rows": Fault("eigen", [f"poly-form n={n} p={p}" for p in (1, 2, 3, "3/2", 4)
                                        for n in range(1, 7)], [
        (verify, "right_eigen_matrix", _short(verify.right_eigen_matrix))]),
    "eigen-oracle-short-rows": Fault("eigen", 30, [
        (verify, "right_eigen_oracle", _short(verify.right_eigen_oracle))],
        detail="matrix must be square.*"),
    # R L != I fails all 120 chain cases and no poly-form case.
    "eigen-right-entry-shifted": Fault("eigen", 120, [
        (spectral, "right_eigen_matrix", lambda n, p, right=spectral.right_eigen_matrix:
         RationalMatrix([[x + _SHIFT * (i == j == 0) for j, x in enumerate(row)]
                         for i, row in enumerate(right(n, p).rows)]))],
        detail="R L != I for .*"),
    # The spectrum is proved only through R D L = P.
    "eigen-wrong-spectrum": Fault("eigen", 40, [
        (spectral, "eigen_values", lambda params, values=spectral.eigen_values: (
            *values(params)[:-1], 2 * values(params)[-1]))],
        "--n 2", "R D L != P for .*"),
    "eigen-system-raises": Fault("eigen", 120, [(verify, "eigen_system", _raises)],
                                 detail=_RAISED),
    "eigen-unsigned-stirling": Fault("eigen", 124, [
        (spectral, "stirling_first", _unsigned_stirling)]),
    # duality: a check that raises fails its 25 cases, but does refuse p = 1.
    "duality-left-raises": Fault("duality", 25, [(verify, "duality_check_left", _raises)]),
    "duality-right-raises": Fault("duality", 25, [(verify, "duality_check_right", _raises)]),
    "duality-left-accepts-p1": Fault("duality", ["duality_check_left rejects p=1"], [
        (verify, "duality_check_left", duality_check_left)]),
    # symmetry: both clauses of a p = 1 chain read one symmetry_check.
    "symmetry-check-raises": Fault("symmetry", 76, [(verify, "symmetry_check", _raises)]),
    "symmetry-mirror-keeps-rows": Fault("symmetry", _SYMMETRY_KEYS, [
        (spectral, "_mirrored", lambda matrix: matrix.integer_rows)]),
    # sf-numbers: the deformed rows against R's top row and the reference rows.
    "sf-row-raises": Fault("sf-numbers", 26, [(verify, "stirling_frobenius", _raises)]),
    "sf-row-short": Fault("sf-numbers", 26, [(verify, "stirling_frobenius", lambda n, p: ())]),
    "sf-non-integer-row": Fault("sf-numbers", ["reference row n=3 p=2", "row n=3 p=2"], [
        (verify, "stirling_frobenius",
         _shifted(verify.stirling_frobenius, lambda n, p: (n, p) == (3, 2)))]),
    "sf-unsigned-stirling": Fault("sf-numbers", [f"row n={n} p={p}" for n in range(2, 7)
                                                 for p in (1, 2, 3)], [
        (spectral, "stirling_first", _unsigned_stirling)]),
    # descent-stats: the recursion tables against one histogram pass per (n, p).
    "descent-table-raises": Fault("descent-stats", 30, [
        (verify, "descent_statistics", _raises)]),
    "descent-table-short": Fault("descent-stats", 30, [
        (verify, "descent_statistics", lambda n, p, variant: ())]),
    "descent-non-integer-left": Fault("descent-stats", ["dash n=2 p=2", "standard n=2 p=2"], [
        (spectral, "_left_integer_rows", _non_integer_left)]),
    "descent-dash-entry-raised": Fault("descent-stats", ["dash n=3 p=2"], [
        (verify, "descent_statistics", lambda n, p, variant, table=verify.descent_statistics: (
            table(n, p, variant)[0] + ((n, p, variant) == (3, 2, "dash")),
            *table(n, p, variant)[1:]))]),
    # A count past the table leaves every compared entry equal: only the total catches it.
    "descent-count-past-the-table": Fault("descent-stats", [
        f"standard n={n} p={p}" for p in (1, 2) for n in (1, 2)], [
        (verify, "descent_histograms", lambda n, p, counts=verify.descent_histograms: (
            counts(n, p)[0] + Counter({n + 2: 1}), counts(n, p)[1]))], "--n 2 --p 2"),
    "descent-group-order-off-by-one": Fault("descent-stats", [
        f"standard n={n} p={p}" for n in range(1, 6) for p in (1, 2, 3)], [
        (verify, "group_order", lambda n, p: colored.group_order(n, p) + 1)]),
    # The shuffle engine counts the dash end at p = 1: dropping it, or a dash count that
    # falls back to the standard one there, fails those cases.
    "descent-no-dash-end": Fault("descent-stats", [
        f"dash==standard counting n={n} p=1" for n in (1, 2, 3)], [
        (colored, "_end_descent", lambda color, p, dash=False, end=colored._end_descent:
         not dash and end(color, p, dash))], "--n 3 --p 1"),
    "descent-dash-count-forks": Fault("descent-stats", [
        f"dash==standard counting n={n} p=1" for n in range(1, 6)], [
        (verify, "descent_histograms", lambda n, p, counts=verify.descent_histograms: (
            counts(n, p)[0], counts(n, p)[p > 1]))]),
    # moments: a closed form, or the oracle, off by 10^-6 at one point fails every chain that
    # reaches it, at the first (start, s, r) compared there; so does a closed form that
    # answers, or an oracle that agrees with it, at n = 1.  The spot points read lag 1,
    # n >= 2 and their own oracle, so they hold.
    "moments-mean-shifted": Fault("moments", 266, [  # every chain with a state 1
        (verify, "mean_conditional",
         _shifted(verify.mean_conditional, lambda params, r, i: (r, i) == (2, 1)))],
        detail="mean i=1 r=2"),
    "moments-variance-shifted": Fault("moments", 210, [  # every chain with n >= 2
        (verify, "variance_conditional",
         _shifted(verify.variance_conditional, lambda params, r, *i: r == 3))],
        detail="variance i=0 r=3"),
    "moments-covariance-shifted": Fault("moments", 210, [
        (verify, "covariance_conditional",
         _shifted(verify.covariance_conditional, lambda params, s, r, *i: (s, r) == (2, 4)))],
        detail="covariance i=0 s=2 r=4"),
    "moments-oracle-stationary-mean-shifted": Fault("moments", 280, [
        (verify, "MomentOracle", _StationaryMeanShifted)], detail="stationary mean"),
    "moments-stationary-variance-shifted": Fault("moments", 210, [
        (verify, "stationary_moments",
         _shifted(verify.stationary_moments, lambda params, r: r == 0))],
        detail="stationary variance"),
    "moments-stationary-covariance-shifted": Fault("moments", 210, [
        (verify, "stationary_moments",
         _shifted(verify.stationary_moments, lambda params, r: r == 3))],
        detail="stationary covariance r=3"),
    "moments-variance-answers-at-n1": Fault("moments", 70, [  # every chain with n = 1
        (verify, "variance_conditional", lambda params, r, *i: Fraction(params.n + 1, 12) * (
            1 - Fraction(1, params.b ** (2 * r))))], detail="closed form answered off its domain"),
    "moments-oracle-claims-variance-at-n1": Fault("moments", 70, [
        (verify, "MomentOracle", _OneStepVarianceClaimed)],
        detail="variance formula held beyond its domain"),
    "moments-variance-refuses": Fault("moments", 210 + 3, [  # n >= 2, and the spot points
        (verify, "variance_conditional", _raises)]),
    "moments-quadratic-at-n1": Fault("moments", 70, [
        (verify, "has_quadratic_eigenfunction", lambda params: True)]),
    "moments-oracle-object-raises": Fault("moments", [
        f"oracle-object sign={sign} b={b} n={n} p={p}"
        for sign, b, n, p in (("+", 2, 2, 1), ("+", 7, 4, 3), ("-", 8, 3, 3))], [
        (verify, "moments_oracle", _raises)], "--b 2 --n 1"),  # a small grid, then the spots
    # A shifted row 0 of L fails the proof that it is P's one fixed law, whether or not the
    # shift keeps the sum at 1: every moments case, and each stationary golden row, reads it.
    "moments-stationary-law-shifted": Fault("moments", 283, [
        (spectral, "_stationary_row", _shifted_stationary_row(True))], detail=_UNPROVED),
    "moments-stationary-law-unnormalized": Fault("moments", 283, [
        (spectral, "_stationary_row", _shifted_stationary_row(False))], detail=_UNPROVED),
    # shuffle-onestep: the three cases of a chain read its one matrix.
    "onestep-matrix-raises": Fault("shuffle-onestep", 15, [
        (verify, "transition_matrix", _raises)]),
    "onestep-engine-raises": Fault("shuffle-onestep", [
        f"enumerated b={b} n={n} p={p}" for b, n, p in _ONESTEP_CASES], [
        (verify, "_composer", _raises)], detail=_RAISED),
    # The enumerated tier reads its law from the trace engine it runs on.
    "onestep-engine-drops-end-descent": Fault("shuffle-onestep", [
        f"enumerated b={b} n={n} p={p}" for b, n, p in ((4, 2, 3), (4, 3, 3), (5, 2, 2))], [
        (shuffle, "_descents", _without_end_rule(False))]),
    "onestep-gessel-table-shifted": Fault("shuffle-onestep", [
        f"factorization-route b={b} n={n} p={p} r={r}" for b, n, p in _ONESTEP_CASES
        for r in (1, 2)], [(verify, "gessel_coefficients", _shifted_gessel_table)]),
    # shuffle-prob: the law against every word stack run through the engine.
    "shuffle-law-raises": Fault("shuffle-prob", 9, [(verify, "shuffle_probability", _raises)]),
    "prob-window-pairs-raise": Fault("shuffle-prob", [
        f"{key} b={b} n={n} p={p}" for key in ("iterated r=2", "matches-enumeration")
        for b, n, p in _PROB_CASES], [(verify, "_window_pairs", _raises)], detail=_RAISED),
    "prob-iterated-law-off-by-one": Fault("shuffle-prob", [
        f"iterated r=2 b={b} n={n} p={p}" for b, n, p in _PROB_CASES], [
        (verify, "shuffle_probability", _iterated_law_off_by_one)]),
    "prob-engine-without-colour-sum": Fault("shuffle-prob", [
        "iterated r=2 b=3 n=3 p=2", "iterated r=2 b=4 n=2 p=3"], [
        (shuffle, "_compose_pairs", lambda tau_pairs, sigma_pairs, p: tuple(
            tau_pairs[k - 1] for k, _ in sigma_pairs))]),
    # The group is priced before the grid text and enumerated in the cases that read it.
    "prob-group-raises": Fault("shuffle-prob", 9, [(verify, "enumerate_group", _raises)],
                               detail=_RAISED),
    "prob-group-missing-an-element": Fault("shuffle-prob", {
        "sums-to-one b=3 n=2 p=1": "total 1/3", "sums-to-one b=3 n=3 p=2": "total 23/27",
        "sums-to-one b=4 n=2 p=3": "total 13/16"}, [
        (verify, "enumerate_group", lambda n, p: islice(colored.enumerate_group(n, p), 1, None))]),
    # gessel: the oracle counts sigma = tau mu in the group.
    "gessel-table-raises": Fault("gessel", 15, [(verify, "gessel_coefficients", _raises)]),
    "gessel-descent-count-raises": Fault("gessel", 15, [(verify, "descent_count", _raises)],
                                         detail=_RAISED),
    "gessel-table-shifted": Fault("gessel", 15, [
        (verify, "gessel_coefficients", _shifted_gessel_table)],
        detail=".* differ from the closed form"),
    # A law that answers sigma for every product breaks the generating identity.
    "gessel-group-law-answers-sigma": Fault("gessel", 14, [
        (verify, "_compose_pairs", lambda sigma_pairs, mu_inverse_pairs, p: sigma_pairs)],
        detail="generating identity fails at .*"),
    # Factors mu in place of mu^-1 read tau = sigma mu: they meet the identity at the first
    # representative of d = 1 and differ from the closed form at a later one.
    "gessel-factors-not-inverted": Fault("gessel", {
        "n=3 p=2 d=0": "generating identity fails at (s^1, t^1) for n=3 p=2 d=0",
        "n=3 p=2 d=1": "the counts at (1,0)(2,1)(3,1) differ from the closed form",
        "n=3 p=2 d=2": "generating identity fails at (s^1, t^1) for n=3 p=2 d=2",
        "n=3 p=2 d=3": "generating identity fails at (s^1, t^1) for n=3 p=2 d=3"}, [
        (verify, "inverse", lambda mu: mu)]),
    # Bijection suites, on explicit cases so that no sampled tier runs.  The bar's running
    # totals kept mod b^(N-1) fail both signs; the flip moved to the even places fails '-'
    # only, as do '-' phase factors that keep their colors (p = 3, where negation moves
    # colors).  The bar without any mod would be no fault: the products are taken mod b^N.
    "bijection-plus-bar-mod-short": Fault("bijection-plus", 1, [_BAR_KEPT_SHORT], _PLUS_CASE,
                                          _MISMATCH),
    "bijection-minus-bar-mod-short": Fault("bijection-minus", 1, [_BAR_KEPT_SHORT],
                                           _MINUS_CASE, _MISMATCH),
    "bijection-plus-flip-on-even-places": Fault("bijection-plus", [], [
        (shuffle, "_row_values", _flip_even)], _PLUS_CASE),
    "bijection-minus-flip-on-even-places": Fault("bijection-minus", 1, [
        (shuffle, "_row_values", _flip_even)], _MINUS_CASE, _MISMATCH),
    "bijection-plus-negation-keeps-colours": Fault("bijection-plus", [], [
        (shuffle, "_negate_pairs", lambda pairs, p: pairs)], _PLUS_CASE),
    "bijection-minus-negation-keeps-colours": Fault("bijection-minus", 1, [
        (shuffle, "_negate_pairs", lambda pairs, p: pairs)], _MINUS_CASE, _MISMATCH),
    "bijection-plus-identity-unstar": Fault("bijection-plus", ["exhaustive b=3 n=2 p=1 N=2"], [
        (shuffle, "unstar_map", lambda levels: levels)], "--b 3 --n 2 --p 1 --N 2"),
    "bijection-minus-identity-unstar": Fault("bijection-minus", ["exhaustive b=3 n=2 p=2 N=3"], [
        (shuffle, "unstar_map", lambda levels: levels)], "--b 3 --n 2 --p 2 --N 3"),
    # The dash end (color p-1) drives the odd steps of every negative-base trace.
    "bijection-minus-engine-drops-dash-end": Fault("bijection-minus", {
        "exhaustive b=3 n=2 p=2 N=3": "mismatch at rows=((0, 0, 0), (0, 0, 1))"}, [
        (shuffle, "_descents", _without_end_rule(True))], "--b 3 --n 2 --p 2 --N 3"),
    # examples-golden: a stage off fails each reference row and pipeline that runs it.
    "golden-totals-without-mod": Fault("examples-golden", _PIPELINES, [
        (shuffle, "_running_totals", lambda values, modulus: list(accumulate(values)))]),
    "golden-gsr-without-mod": Fault("examples-golden", _GSR_CASES, [
        (shuffle, "_gsr_pairs", lambda labels, p, pairs=shuffle._gsr_pairs: tuple(
            (position, labels[card]) for card, (position, _) in enumerate(pairs(labels, p))))]),
    "golden-compose-without-mod": Fault("examples-golden", _PIPELINES, [
        (colored, "_compose_pairs", _compose_pairs_without_mod),
        (shuffle, "_compose_pairs", _compose_pairs_without_mod)]),
    "golden-unstar-off-by-one": Fault("examples-golden", _PIPELINES, [
        (shuffle, "unstar_map", lambda levels, unstar=shuffle.unstar_map: [
            tuple(x + 1 for x in word) for word in unstar(levels)])]),
    "golden-digits-in-base-b+1": Fault("examples-golden", _PIPELINES, [
        (shuffle, "_digit_rows", lambda values, b, places, rows=shuffle._digit_rows: rows(
            values, b + 1, places))]),
    "golden-bijections-raise": Fault("examples-golden", _PIPELINES, [
        (verify, "bijection_plus", _raises), (verify, "bijection_minus", _raises)],
        detail=_RAISED),
    "golden-gsr-raises": Fault("examples-golden", _GSR_CASES, [
        (verify, "gsr_to_permutation", _raises)], detail=_RAISED),
    "golden-star-raises": Fault("examples-golden", {"star example": _RAISED}, [
        (verify, "star_map", _raises)]),
    "golden-dash-count-is-standard": Fault("examples-golden", {
        "negative-base pipeline": "raw_descents: got (2, 1, 3, 4)"}, [
        (verify, "dash_descent_count", colored.descent_count)]),
    "golden-primes-keep-colours": Fault("examples-golden", ["negative-base pipeline"], [
        (verify, "negate_colors", lambda sigma: sigma)], detail="primed_factors: got .*"),
    "golden-left-rows-raise": Fault("examples-golden", [
        "left row0 n=3 p=1", "left row0 n=3 p=2"], [(verify, "left_eigen_matrix", _raises)],
        detail=_RAISED),
    "golden-stationary-law-shifted": Fault("examples-golden", _STATIONARY_KEYS, [
        (spectral, "_stationary_row", _shifted_stationary_row(True))], detail=_UNPROVED),
    "golden-stationary-law-unnormalized": Fault("examples-golden", _STATIONARY_KEYS, [
        (spectral, "_stationary_row", _shifted_stationary_row(False))], detail=_UNPROVED),
    "golden-stationary-law-raises": Fault("examples-golden", _STATIONARY_KEYS, [
        (verify, "stationary_fixed_point", _raises)], detail=_RAISED),
    # A pipeline names its first wrong stage, and refuses a reference stage it does not compute.
    "golden-wrong-reference-stage": Fault("examples-golden", ["negative-base pipeline"], [
        (reference.MINUS_PIPELINE, "elements", (*_ELEMENTS[:-1], _ELEMENTS[0]))],
        detail="elements: got .*"),
    "golden-uncomputed-reference-stage": Fault("examples-golden", {
        "negative-base pipeline": "sorted_rows: no computed stage"}, [
        (reference.MINUS_PIPELINE, "sorted_rows", reference.MINUS_PIPELINE["rows"])]),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_a_planted_fault_fails_the_cases_that_read_it(capsys, monkeypatch, tmp_path, fault):
    for module, name, plant in fault.patches:
        if isinstance(module, dict):
            monkeypatch.setitem(module, name, plant)
        else:
            monkeypatch.setattr(module, name, plant)
    out = tmp_path / "report.json"
    code = cli.main(["--out", str(out), "verify", fault.suite, *fault.flags.split()])
    stdout, stderr = capsys.readouterr()
    reproduce = " ".join(("reproduce: carries-lab verify", fault.suite, *fault.flags.split()))
    # A caught fault exits 1 with its one reproduce line, never exit 2 or an internal failure.
    assert (code, stdout, stderr) == ((1, "", reproduce + "\n") if fault.failed else (0, "", ""))
    failed = {case["key"]: case.get("detail", "")
              for case in json.loads(out.read_text())["cases"] if not case["ok"]}
    if isinstance(fault.failed, int):
        assert len(failed) == fault.failed
    elif isinstance(fault.failed, dict):
        assert failed == fault.failed
    else:
        assert list(failed) == sorted(fault.failed)
    assert fault.detail is None or all(re.fullmatch(fault.detail, detail)
                                       for detail in failed.values()), failed


#: Public callables that verify imports and no row breaks, each with its reason.
EXEMPT = {
    "ColoredPermutation": "a data type: the cases compare the pairs it holds as given",
    "MultiDigitWord": "a data type: the golden pipeline compares the digit rows it holds",
}


def test_every_callable_verify_imports_has_a_planted_fault():
    # A closed form, oracle or engine that verify reads from these modules cannot land
    # without a row that breaks it, or a named exemption.
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module in ("colored", "moments", "shuffle", "spectral")
                for alias in node.names if not alias.name.startswith("_")}
    assert all(callable(getattr(verify, name)) for name in imported)
    targets = [getattr(module, name) for fault in FAULTS.values()
               for module, name, _ in fault.patches if not isinstance(module, dict)]
    missing = {name for name in imported
               if not any(getattr(verify, name) is target for target in targets)}
    assert missing == set(EXEMPT)
