"""Colored permutations: algebra, orders, and descent statistics."""

from collections import Counter
from math import factorial

import pytest

from carrieslab import (
    ColoredPermutation,
    compose,
    dash_descent_count,
    descent_count,
    descent_histograms,
    enumerate_group,
    inverse,
    negate_colors,
    verify,
)
from carrieslab.colored import _letter_key, group_order
from carrieslab.process import ENUMERATION_LIMIT


def test_validation():
    with pytest.raises(ValueError):
        ColoredPermutation(2, 2, ((1, 0),))  # wrong length
    with pytest.raises(ValueError):
        ColoredPermutation(2, 2, ((1, 0), (1, 1)))  # repeated position
    with pytest.raises(ValueError):
        ColoredPermutation(2, 2, ((1, 2), (2, 0)))  # color out of range
    with pytest.raises(ValueError):
        ColoredPermutation(2, 0, ((1, 0), (2, 0)))  # bad p


def test_group_enumeration_above_the_limit_is_refused():
    # 11! = 39,916,800 elements exceeds process.ENUMERATION_LIMIT.
    elements = enumerate_group(11, 1)
    with pytest.raises(ValueError, match=f"limited to {ENUMERATION_LIMIT} elements"):
        next(elements)
    # 10^6! is never formed: the order stops at the first partial product past
    # 2^64, and the refusal names the count as it always has.
    assert group_order(5, 3) == factorial(5) * 3**5
    assert 2**64 < group_order(10**6, 1) <= 2**64 * 30
    with pytest.raises(ValueError, match=r"limited to 10000000 elements, got over 2\^64"):
        next(enumerate_group(10**6, 1))


def test_group_axioms_on_small_groups():
    for n, p in ((2, 2), (3, 2), (2, 3)):
        elements = list(enumerate_group(n, p))
        assert len(elements) == p**n * (1 if n == 0 else __import__("math").factorial(n))
        identity = ColoredPermutation.identity(n, p)
        for sigma in elements:
            assert compose(sigma, identity) == sigma == compose(identity, sigma)
            assert compose(inverse(sigma), sigma) == identity
            assert compose(sigma, inverse(sigma)) == identity
        # Spot-check associativity on a few triples.
        for a, b, c in zip(elements, elements[1:], elements[2:]):
            assert compose(a, compose(b, c)) == compose(compose(a, b), c)


def test_composition_acts_on_windows():
    # tau o sigma: apply sigma first, then tau; colors add along the way.
    sigma = ColoredPermutation(2, 3, ((2, 1), (1, 0)))
    tau = ColoredPermutation(2, 3, ((1, 2), (2, 1)))
    prod = compose(tau, sigma)
    # Letter 1: sigma sends it to 2 with color 1, tau sends 2 to 2 adding 1.
    assert prod.pairs == ((2, 2), (1, 2))


def test_keys_order_colors_differently():
    p = 3
    # Standard order: color 0 first, then colors p-1 down to 1.
    assert _letter_key((5, 0), p) < _letter_key((5, 2), p) < _letter_key((5, 1), p)
    # Dash order: colors 0, 1, ..., p-1.
    assert _letter_key((5, 0), p, True) < _letter_key((5, 1), p, True) < _letter_key((5, 2), p, True)
    # Within one color, positions increase.
    assert _letter_key((1, 1), p) < _letter_key((2, 1), p)
    assert _letter_key((1, 1), p, dash=True) < _letter_key((2, 1), p, dash=True)


def test_descent_counts_small_cases():
    identity = ColoredPermutation.identity(3, 2)
    assert descent_count(identity) == 0
    # A nonzero color at the last letter always counts for the standard
    # statistic, and a color p-1 there counts for the dash statistic.
    sigma = ColoredPermutation(3, 2, ((1, 0), (2, 0), (3, 1)))
    assert descent_count(sigma) == 1
    assert dash_descent_count(sigma) == 1
    drop = ColoredPermutation(3, 2, ((2, 0), (1, 0), (3, 0)))
    assert descent_count(drop) == 1  # the internal drop 2 > 1
    assert dash_descent_count(drop) == 1


def test_dash_is_standard_plus_one_for_one_color():
    # At p = 1 every letter has color 0 = p - 1, so the dash end always counts.
    for sigma in enumerate_group(3, 1):
        assert dash_descent_count(sigma) == descent_count(sigma) + 1


def test_negate_colors_is_an_involutive_bijection():
    images = set()
    for sigma in enumerate_group(2, 3):
        image = negate_colors(sigma)
        assert negate_colors(image) == sigma
        images.add(image.pairs)
    assert len(images) == group_order(2, 3)


def test_prime_negates_colors():
    sigma = ColoredPermutation(2, 3, ((2, 1), (1, 2)))
    assert negate_colors(sigma).pairs == ((2, 2), (1, 1))


def test_text_and_pairs_round_trip():
    sigma = ColoredPermutation(3, 2, ((2, 1), (3, 0), (1, 1)))
    assert sigma.to_text() == "(2,1)(3,0)(1,1)"


def test_descent_histograms_match_the_per_element_rule():
    # The kernel's two counts are those of descent_count and dash_descent_count, element
    # by element, on every group with n <= 4 and p <= 3 and on one with p > n.
    for n, p in [(n, p) for n in range(1, 5) for p in range(1, 4)] + [(2, 5)]:
        standard, dash = descent_histograms(n, p)
        assert standard == Counter(map(descent_count, enumerate_group(n, p))), (n, p)
        assert dash == Counter(map(dash_descent_count, enumerate_group(n, p))), (n, p)
    with pytest.raises(ValueError, match=f"limited to {ENUMERATION_LIMIT} elements"):
        descent_histograms(11, 1)


def test_descent_stats_suite_enumerates_each_group_once(monkeypatch):
    # One pass per (n, p) must serve both the standard and the dash counts.
    calls = []

    def counted(n, p):
        calls.append((n, p))
        return descent_histograms(n, p)

    monkeypatch.setattr(verify, "descent_histograms", counted)
    report = verify.run_suite("descent-stats", n_max=3, p_max=2)
    assert report.passed
    assert calls == [(n, p) for p in (1, 2) for n in (1, 2, 3)]


def test_group_suites_refuse_an_over_cap_grid_before_any_case(monkeypatch):
    # gessel works sum |G|^2 compositions and (n+1)^3 (cutoff+1)^2 identity terms over its
    # grid, descent-stats sum |G| elements, transition sum b^n x states digit tuples.
    calls = []
    monkeypatch.setattr(verify, "descent_histograms",
                        lambda n, p: calls.append((n, p)) or (Counter(), Counter()))
    monkeypatch.setattr(verify, "enumerate_group", lambda n, p: calls.append((n, p)) or [])
    monkeypatch.setattr(verify, "gessel_coefficients", lambda *args: calls.append(args))
    monkeypatch.setattr(verify, "transition_oracle", lambda params: calls.append(params))
    for suite, options in (("gessel", {"n_max": 7}),
                           ("gessel", {"n_max": 5}),
                           ("gessel", {"cutoff": 100000}),
                           ("descent-stats", {"n_max": 7, "p_max": 3}),
                           ("transition", {"b_max": 100000, "n_max": 1}),
                           ("transition", {"b_max": 2, "n_max": 40})):
        with pytest.raises(ValueError, match=f"limited to {ENUMERATION_LIMIT} "):
            verify.run_suite(suite, **options)
    assert calls == []
