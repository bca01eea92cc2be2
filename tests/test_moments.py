"""Closed-form moments, their validity domain, and the integer-walk oracle."""

import ast
import inspect
from fractions import Fraction

import pytest

from carrieslab import (
    MomentReport,
    covariance_conditional,
    has_quadratic_eigenfunction,
    make_process,
    mean_conditional,
    moments_oracle,
    stationary_fixed_point,
    stationary_moments,
    transition_matrix,
    variance_conditional,
)
from carrieslab import moments, spectral
from carrieslab.moments import MomentOracle
from carrieslab.process import STATE_LIMIT, STEP_LIMIT
from carrieslab.verify import _chain_grid

VALID = [("+", 3, 2, 2), ("-", 8, 3, 3), ("+", 2, 4, 1), ("-", 3, 2, Fraction(4, 3))]


@pytest.mark.parametrize("sign,b,n,p", VALID)
def test_closed_forms_match_oracle(sign, b, n, p):
    params = make_process(sign, b, n, p)
    for i in range(params.state_count):
        for r in (0, 1, 3):
            oracle = moments_oracle(params, r, s=2, start=i)
            assert oracle.mean == mean_conditional(params, r, i)
            assert oracle.variance == variance_conditional(params, r, i)
            assert oracle.covariance == covariance_conditional(params, 2, r, i)


@pytest.mark.parametrize("sign,b,n,p", VALID)
def test_stationary_pair_matches_oracle(sign, b, n, p):
    params = make_process(sign, b, n, p)
    for r in (0, 1, 2):
        mean, cov = stationary_moments(params, r)
        oracle = moments_oracle(params, r, start="stationary")
        assert oracle.mean == mean and oracle.covariance == cov
        assert oracle.variance == stationary_moments(params, 0)[1]


def test_oracle_proves_the_stationary_law_on_the_matrix_it_holds(monkeypatch):
    params = make_process("-", 8, 3, 3)
    oracle = MomentOracle(params)
    monkeypatch.setattr(spectral, "transition_matrix", lambda params: pytest.fail("P rebuilt"))
    mean, _ = oracle.law_moments("stationary", 0)
    assert mean == stationary_moments(params)[0]


def test_moment_oracle_uses_no_closed_form():
    # The oracle walks integer vectors through P; a moment formula would check them with itself.
    tree = ast.parse(inspect.getsource(MomentOracle))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "transition_matrix" in names and "proved_stationary_row" in names
    assert not names & {"mean_conditional", "variance_conditional", "covariance_conditional",
                        "stationary_moments", "signed_base"}


def _plain_moments(params, start, s, r):
    """Mean and variance at s and Cov(state at s, state at s+r), in plain Fractions."""
    matrix = transition_matrix(params)
    states = range(params.state_count)
    law = stationary_fixed_point(params) if start == "stationary" else matrix.power(s)[start]
    after = [sum(matrix.power(r)[j][k] * k for k in states) for j in states]
    mean = sum(law[j] * j for j in states)
    variance = sum(law[j] * j * j for j in states) - mean * mean
    cross = sum(law[j] * j * after[j] for j in states)
    return mean, variance, cross - mean * sum(law[j] * after[j] for j in states)


@pytest.mark.parametrize("sign,b,n,p", [*VALID, ("+", 3, 1, 2), ("-", 2, 1, 3)])
def test_oracle_matches_a_plain_fraction_recomputation(sign, b, n, p):
    params = make_process(sign, b, n, p)
    oracle = MomentOracle(params)
    # The first query walks cold to level 63 (s + r > 60); later ones walk on from the deepest
    # cached level below them.
    for s, r in ((33, 30), (37, 1), (0, 37), (2, 5), (5, 2), (0, 0), (3, 3)):
        for start in [*range(params.state_count), "stationary"]:
            got = (*oracle.law_moments(start, s), oracle.covariance(start, s, r))
            assert got == _plain_moments(params, start, s, r)
            assert all(type(x) is Fraction for x in got)


def test_mean_formula_valid_even_for_one_summand():
    params = make_process("+", 3, 1, 2)
    for i in (0, 1):
        for r in (0, 1, 2, 5):
            assert moments_oracle(params, r, start=i).mean == mean_conditional(params, r, i)


def test_quadratic_eigenfunction_domain():
    # The second-moment closed forms are available exactly when n >= 2.
    assert not has_quadratic_eigenfunction(make_process("+", 2, 1, 1))
    assert not has_quadratic_eigenfunction(make_process("+", 3, 1, 2))
    assert not has_quadratic_eigenfunction(make_process("-", 2, 1, 3))
    assert has_quadratic_eigenfunction(make_process("+", 2, 2, 1))  # zero function
    assert has_quadratic_eigenfunction(make_process("+", 3, 2, 2))
    assert has_quadratic_eigenfunction(make_process("-", 2, 3, 1))


def test_second_moment_forms_refuse_one_summand():
    params = make_process("+", 3, 1, 2)
    with pytest.raises(ValueError):
        variance_conditional(params, 1)
    with pytest.raises(ValueError):
        covariance_conditional(params, 1, 1)
    with pytest.raises(ValueError):
        stationary_moments(params, 1)
    # The refusal is forced: the one-step variance is 2/9, while the
    # would-be formula value is (n+1)/12 (1 - b^-2) = 4/27.
    assert moments_oracle(params, 1, start=0).variance == Fraction(2, 9)
    assert Fraction(params.n + 1, 12) * (1 - Fraction(1, 9)) == Fraction(4, 27)


def test_single_state_chain_has_no_spread():
    params = make_process("+", 2, 1, 1)
    assert params.state_count == 1
    oracle = moments_oracle(params, 5, start=0)
    assert oracle.mean == 0 and oracle.variance == 0 and oracle.covariance == 0


def test_variance_does_not_depend_on_start_p_or_sign():
    value = variance_conditional(make_process("+", 5, 3, 2), 2)
    assert value == variance_conditional(make_process("+", 5, 3, 4), 2)
    assert value == variance_conditional(make_process("-", 5, 3, 2), 2)
    assert value == variance_conditional(make_process("-", 5, 3, 2), 2, i=3)


def test_negative_base_alternates_covariance_sign():
    params = make_process("-", 3, 2, 2)
    assert covariance_conditional(params, 2, 1) < 0 < covariance_conditional(params, 2, 2)


def test_oracle_guards():
    params = make_process("+", 3, 2, 2)
    with pytest.raises(ValueError):
        moments_oracle(params, STEP_LIMIT + 1)
    with pytest.raises(ValueError):
        moments_oracle(params, 1, start=7)
    with pytest.raises(ValueError):
        moments_oracle(params, 1, start="elsewhere")
    with pytest.raises(ValueError):
        mean_conditional(params, -1, 0)



def test_the_oracle_refuses_a_chain_past_the_state_limit_before_forming_p(monkeypatch):
    class Formed(Exception):
        pass

    def form(params):
        raise Formed

    monkeypatch.setattr(moments, "transition_matrix", form)
    over = make_process("+", 3, STATE_LIMIT, 2)  # n + 1 states
    with pytest.raises(ValueError, match=f"^the moments oracle is limited to {STATE_LIMIT} "
                                         f"states, got {STATE_LIMIT + 1}$"):
        moments_oracle(over, 1)
    with pytest.raises(Formed):  # at the limit the oracle goes on to form P
        moments_oracle(make_process("+", 3, STATE_LIMIT - 1, 2), 1)

def test_reports_reject_negative_variance():
    with pytest.raises(ValueError):
        MomentReport(0, 1, 0, Fraction(0), Fraction(-1), Fraction(0))


def test_closed_forms_equal_their_docstring_expressions():
    # Each closed form is built from integers; it must equal the Fraction expression its
    # docstring states on every chain of the default moments grid: both signs, p = 3/2 among
    # the non-integer p, and the mean at n = 1, where the second moments are refused.
    chains = [make_process(*chain) for chain in _chain_grid(8, 4)]
    keys = {(c.sign, c.b, c.n, c.p) for c in chains}
    assert {("+", 4, 2, Fraction(3, 2)), ("-", 2, 1, 3)} <= keys
    for params in chains:
        half, twelfth = Fraction(params.n + 1, 2), Fraction(params.n + 1, 12)
        inverse_p = 1 / params.p
        decay = [Fraction(1, params.signed_base**r) for r in range(6)]
        variances = [twelfth * (1 - Fraction(1, params.b ** (2 * r))) for r in range(6)]
        for r in range(6):
            for i in params.states:
                center = i + inverse_p - half
                assert mean_conditional(params, r, i) == center * decay[r] + half - inverse_p
            if params.n == 1:
                continue
            assert variance_conditional(params, r) == variances[r]
            assert stationary_moments(params, r) == (half - inverse_p, twelfth * decay[r])
            for s in range(6):
                assert covariance_conditional(params, s, r) == variances[s] * decay[r]


def test_closed_forms_refuse_with_their_messages():
    one, two = make_process("+", 3, 1, 2), make_process("-", 3, 2, 2)
    steps, state = "step count must be nonnegative", "start state must lie in 0..2, got {}"
    for call, message in (
        (lambda: mean_conditional(two, -1, 0), steps),
        (lambda: mean_conditional(two, 1, 3), state.format(3)),
        (lambda: variance_conditional(one, -1), steps),  # the step count is checked first
        (lambda: variance_conditional(two, 1, -1), state.format(-1)),
        (lambda: covariance_conditional(two, -1, 1), steps),
        (lambda: covariance_conditional(two, 1, -1), steps),
        # Then the start state, and only then the n >= 2 domain.
        (lambda: covariance_conditional(one, 1, 1, 5), "start state must lie in 0..1, got 5"),
        (lambda: stationary_moments(two, -1), steps),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    for call, what in ((lambda: variance_conditional(one, 1, 0), "variance"),
                       (lambda: covariance_conditional(one, 1, 1), "covariance"),
                       (lambda: stationary_moments(one, 1), "stationary autocovariance")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == (f"the {what} closed form needs n >= 2; with n = 1 the chain "
                                   "has no quadratic eigenfunction (use moments_oracle instead)")
