"""Self-contained verification suites over small parameter grids.

Each suite checks one family of identities by brute force (enumeration,
exact linear algebra, or seeded sampling) against the closed forms.  A suite
is a generator: it checks and prices its options, yields its grid text, then
yields one ``(key, ok[, detail])`` per case as it computes it.  ``run_suite``
alone builds the report listing every case: it names, times and collects
them.  The command line exposes these under ``carries-lab verify``; the test
suite drives the same functions.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, islice, starmap
from math import ceil, comb, factorial, log
from operator import mul
from typing import Iterator

from . import reference
from .colored import (
    ColoredPermutation,
    _check_group,
    _compose_pairs,
    dash_descent_count,
    descent_count,
    descent_histograms,
    enumerate_group,
    group_order,
    inverse,
    negate_colors,
)
from .moments import (
    MomentOracle,
    covariance_conditional,
    has_quadratic_eigenfunction,
    mean_conditional,
    moments_oracle,
    stationary_moments,
    variance_conditional,
)
from .process import (
    ENUMERATION_LIMIT,
    GRID_N_LIMIT,
    MOMENT_GRID_LIMIT,
    SAMPLE_LIMIT,
    ProcessParams,
    check_count,
    check_grid,
    check_limit,
    check_steps,
    draw_words,
    enumerate_words,
    make_process,
    parameter_ratio,
    simulate_trace,
    state_count,
)
from .ratmat import RationalMatrix
from .shuffle import (
    MultiDigitWord,
    _bijection_stages,
    _composer,
    _window_pairs,
    bijection_minus,
    bijection_plus,
    gessel_coefficients,
    gsr_to_permutation,
    shuffle_probability,
    star_map,
)
from .spectral import (
    descent_statistics,
    duality_check_left,
    duality_check_right,
    eigen_system,
    eigen_values,
    left_eigen_matrix,
    right_eigen_matrix,
    right_eigen_oracle,
    stationary_fixed_point,
    stirling_first,
    stirling_frobenius,
    symmetry_check,
    transition_matrix,
    transition_oracle,
)

#: Version of every JSON and CSV report layout.
SCHEMA_VERSION = 1
#: Word stacks the trace engine's column driver runs at once: the sampled tiers at 4096 held
#: about 2.3 MiB more than at 256 and ran no faster.
STACK_BATCH = 256
#: The total-variation distance a sampled tier's empirical law must stay under.
TV_BOUND = Fraction(1, 50)
_Chain = namedtuple("_Chain", "sign b n p")  # an unbuilt chain: make_process(*chain) builds it


@dataclass
class SuiteCase:
    key: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    grid: str
    cases: list[SuiteCase] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True when at least one case ran and every case held."""
        return bool(self.cases) and all(case.ok for case in self.cases)

    def to_json_obj(self) -> dict:
        # Cases are emitted sorted by key so the report does not depend on
        # the order the suite happened to visit the grid.
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "grid": self.grid,
            "passed": self.passed,
            "cases": [
                {"key": c.key, "ok": c.ok, **({"detail": c.detail} if c.detail else {})}
                for c in sorted(self.cases, key=lambda c: c.key)
            ],
            "wall_time_s": round(self.wall_time_s, 3),
        }


def valid_parameters(sign: str, b: int) -> list[Fraction]:
    """All valid p for (sign, b): (b-+1)/k for k = 1..b-+1, largest first."""
    top = parameter_ratio(sign, b, 1)
    return [Fraction(top, k) for k in range(1, top + 1)]


def smallest_valid_bases(sign: str, p, count: int = 2) -> list[int]:
    """The ``count`` smallest bases b >= 2 for which (sign, b, p) is valid: with p = a/c in
    lowest terms, b = a k + 1 for k >= 1 (sign +) and b = a k - 1 for k >= ceil(3/a) (sign -)."""
    a, shift = Fraction(p).numerator, 1 if sign == "+" else -1
    first = (1 - shift) // a + 1  # the least k with a k + shift >= 2
    parameter_ratio(sign, a * first + shift, p)  # refuses a bad sign, or p < 1, by the rule
    return [a * k + shift for k in range(first, first + count)]


def _param_key(params: ProcessParams | _Chain) -> str:
    return f"sign={params.sign} b={params.b} n={params.n} p={params.p}"


def _case(key: str, check) -> tuple:
    """The case ``(key, ok[, detail])`` of ``check()``, which returns ok, an (ok, detail) pair
    or a failure text ("" when the case held).  A refused check, or a closed form that raises
    (a short row among them), is a failed case carrying the error's text, not bad input."""
    try:
        result = check()
    except (RuntimeError, ValueError, ArithmeticError, LookupError, TypeError) as error:
        return key, False, str(error) or repr(error)
    if isinstance(result, str):
        return key, not result, result
    return (key, *result) if isinstance(result, tuple) else (key, result)


def _refuses(closed_form, *args) -> bool:
    """True when ``closed_form(*args)`` refuses its arguments with ValueError."""
    try:
        closed_form(*args)
    except ValueError:
        return True
    return False


def _chain_grid(b_max: int, n_max: int) -> Iterator[_Chain]:
    """Every valid chain of both signs, 2 <= b <= b_max and 1 <= n <= n_max, sign-major, then b,
    n and p largest first, unbuilt, so that a grid is priced before any chain is built."""
    return (_Chain(sign, b, n, p) for sign in ("+", "-") for b in range(2, b_max + 1)
            for n in range(1, n_max + 1) for p in valid_parameters(sign, b))


# --- transition ----------------------------------------------------------

def suite_transition(b_max: int = 8, n_max: int = 4) -> Iterator:
    """Closed-form transition matrices against exhaustive enumeration."""
    cells = ((_param_key(c), c.b**c.n * state_count(c.n, c.p), c)
             for c in _chain_grid(b_max, n_max))
    chains = check_grid("the transition grid", cells, ENUMERATION_LIMIT, "digit tuples x states")
    yield f"both signs, 2<=b<={b_max}, 1<=n<={n_max}, all valid p"
    for params in starmap(make_process, chains):
        yield _case(_param_key(params), lambda: _transition_failure(params))


def _transition_failure(params: ProcessParams) -> str:
    """How one chain's closed-form matrix fails its enumeration, or "" if it holds."""
    formula, oracle = transition_matrix(params), transition_oracle(params)
    primitive = formula.is_primitive()
    if formula == oracle and formula.is_stochastic() and primitive:
        return ""
    return f"formula==oracle: {formula == oracle}, primitive: {primitive}"


# --- eigen ---------------------------------------------------------------

def suite_eigen(n_max: int = 6) -> Iterator:
    """Factorization P = R D L with R L = I, plus R against its double-sum oracle.  R L = I and
    L P = D L pin L once R and P are right (L = R^-1), so L needs no case against its oracle."""
    check_limit("the eigen grid", n_max, GRID_N_LIMIT, "summands (n_max)")
    ps = [Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(3, 2)]
    yield f"p in {{1,2,3,4,3/2}}, two smallest valid b per sign, n<={n_max}"
    for p in ps:
        for sign in ("+", "-"):
            for b in smallest_valid_bases(sign, p):
                for n in range(1, n_max + 1):
                    params = make_process(sign, b, n, p)
                    # eigen_system raises unless R L = I and R D L = P.
                    yield _case(_param_key(params), lambda: eigen_system(params) and "")
        for n in range(1, n_max + 1):
            yield _case(f"poly-form n={n} p={p}",
                        lambda: right_eigen_matrix(n, p) == right_eigen_oracle(n, p))


# --- duality -------------------------------------------------------------

def suite_duality(n_max: int = 5) -> Iterator:
    """Conjugate-parameter reflections of L and R, and rejection of p = 1."""
    check_limit("the duality grid", n_max, GRID_N_LIMIT, "summands (n_max)")
    ps = [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(4), Fraction(4, 3)]
    yield f"p in {{2,3,3/2,4,4/3}}, n<={n_max}"
    for p in ps:
        for n in range(1, n_max + 1):
            yield _case(f"left n={n} p={p}", lambda: duality_check_left(n, p))
            yield _case(f"right n={n} p={p}", lambda: duality_check_right(n, p))
    if n_max < 1:  # an empty grid: the rejects-p=1 cases below must not pass alone
        return
    for check in (duality_check_left, duality_check_right):
        yield _case(f"{check.__name__} rejects p=1", lambda: _refuses(check, 2, 1))


# --- symmetry ------------------------------------------------------------

def suite_symmetry() -> Iterator:
    """Reflection identities between the two signs and conjugate parameters."""
    yield "p=1: b<=5; p=2: odd b<=7; p>1: smallest valid b"
    for b in range(2, 6):
        for n in range(1, 5):
            results = cache(lambda: symmetry_check(make_process("+", b, n, 1)))  # both clauses
            for clause in ("centro", "sign-flip-p1"):
                yield _case(f"{clause} b={b} n={n}", lambda: results().get(clause, False))
    for b in (3, 5, 7):
        for n in range(1, 5):
            yield _case(f"sign-flip-p2 b={b} n={n}", lambda: symmetry_check(
                make_process("+", b, n, 2)).get("sign-flip-p2", False))
    for p in (Fraction(2), Fraction(3), Fraction(3, 2), Fraction(4)):
        for sign in ("+", "-"):
            b = smallest_valid_bases(sign, p, count=1)[0]
            for n in range(1, 5):
                yield _case(f"conjugate sign={sign} b={b} n={n} p={p}", lambda: symmetry_check(
                    make_process(sign, b, n, p)).get("conjugate", False))


# --- stirling-frobenius --------------------------------------------------

def suite_sf_numbers(n_max: int = 6) -> Iterator:
    """Deformed first-kind rows against the scaled top row of R and references."""
    check_limit("the sf-numbers grid", n_max, GRID_N_LIMIT, "summands (n_max)")
    yield f"p in {{1,2,3}}, n<={n_max}"
    for p in (Fraction(1), Fraction(2), Fraction(3)):
        for n in range(0, n_max + 1):
            if n == 0:
                yield _case(f"w(0) p={p}", lambda: stirling_frobenius(n, p) == (1,))
                continue

            def row_holds():
                row, scale = stirling_frobenius(n, p), factorial(n) * p**n
                top = right_eigen_matrix(n, p)[0]
                # At p = 1, w_0 = 0 and the matrix has only n columns: compare w_1..w_n with
                # it, and the row with the unsigned Stirling numbers of the first kind.
                first = 1 if p == 1 else 0
                return all(row[j] == scale * top[n - j] for j in range(first, n + 1)) and (
                    p != 1 or row[0] == 0 and all(
                        row[j] == abs(stirling_first(n, j)) for j in range(n + 1)))

            yield _case(f"row n={n} p={p}", row_holds)
    if n_max < 0:  # an empty grid: the reference rows below must not pass alone
        return
    for (n, p), expected in reference.STIRLING_FROBENIUS_ROWS.items():
        yield _case(f"reference row n={n} p={p}", lambda: (
            (got := stirling_frobenius(n, p)) == tuple(expected), f"got {got}"))


# --- descent statistics --------------------------------------------------

def suite_descent_stats(n_max: int = 5, p_max: int = 3) -> Iterator:
    """Recursion tables against exhaustive descent counting in the group."""
    # A letter of the kernel's rank tables takes about two elements' time (2 us vs 1.5 us).
    cells = ((f"n={n} p={p}", group_order(n, p) + 2 * n * p, (n, p))
             for p in range(1, p_max + 1) for n in range(1, n_max + 1))
    grid = check_grid("the descent-stats grid", cells, ENUMERATION_LIMIT,
                      "group elements + 2 x letters")
    yield f"p<={p_max}, n<={n_max}"
    for n, p in grid:
        # The standard table and one histogram pass, read by both cases.
        shared = cache(lambda: (descent_statistics(n, p, "standard"), *descent_histograms(n, p)))

        def standard_case():
            standard, counts, _ = shared()
            observed = tuple(counts.get(k, 0) for k in range(len(standard)))
            return (standard == observed and sum(standard) == counts.total() == group_order(n, p),
                    f"table {standard} vs counts {observed}")

        def dash_case():
            standard, _, dash_counts = shared()
            dash = descent_statistics(n, p, "dash")
            observed_dash = tuple(dash_counts.get(k, 0) for k in range(n + 1))
            if p == 1:
                # At p = 1 the dash end always counts: the dash table is the standard one shifted.
                return dash == observed_dash and dash == (0, *standard)
            reversal = all(
                dash[k] == standard[n - k] if n - k < len(standard) else dash[k] == 0
                for k in range(n + 1)
            )
            return dash == observed_dash and reversal, f"table {dash} vs counts {observed_dash}"

        yield _case(f"standard n={n} p={p}", standard_case)
        yield _case(f"dash n={n} p={p}" if p > 1 else f"dash==standard counting n={n} p=1",
                    dash_case)


# --- moments -------------------------------------------------------------

def suite_moments(b_max: int = 8, n_max: int = 4, r_max: int = 5, s_max: int = 5) -> Iterator:
    """Closed-form moments against exact integer walks through P on the full valid grid."""
    check_steps(r_max, s_max)
    cells = ((_param_key(c), state_count(c.n, c.p) ** 2 * (r_max + 1) * (s_max + 1), c)
             for c in _chain_grid(b_max, n_max))
    chains = check_grid("the moments grid", cells, MOMENT_GRID_LIMIT,
                        "units of states^2 x (r+1) x (s+1)")
    yield f"both signs, b<={b_max}, n<={n_max}, all valid p, r<={r_max}, s<={s_max}"
    for params in starmap(make_process, chains):
        yield _case(_param_key(params), lambda: _moments_failure(params, r_max, s_max))
    if not chains:  # an empty grid: the oracle-object spot points must not pass alone
        return
    # Exercise the public oracle object on a few spot points.
    for params in starmap(make_process, (("+", 2, 2, 1), ("-", 8, 3, 3), ("+", 7, 4, 3))):
        def oracle_object_holds():
            rep = moments_oracle(params, r=1, s=1, start=0)
            rep_pi = moments_oracle(params, r=1, start="stationary")
            return (rep.mean == mean_conditional(params, 1, 0)
                    and rep.variance == variance_conditional(params, 1, 0)
                    and rep.covariance == covariance_conditional(params, 1, 1, 0)
                    and (rep_pi.mean, rep_pi.covariance) == stationary_moments(params, 1))
        yield _case(f"oracle-object {_param_key(params)}", oracle_object_holds)


def _moments_failure(params: ProcessParams, r_max: int, s_max: int) -> str:
    """The first closed form one chain's oracle refutes, or "" if none."""
    oracle = MomentOracle(params)
    dim, n = oracle.dim, params.n
    quad = has_quadratic_eigenfunction(params)
    if quad:
        # No second-moment form depends on the start: one value per r and (s, r), with its vector.
        variances = [(oracle.walk(0, r), variance_conditional(params, r)) for r in range(r_max + 1)]
        covariances = [[(oracle.walk(r, s), covariance_conditional(params, s, r))
                        for s in range(s_max + 1)] for r in range(r_max + 1)]
    # The state after k steps from i has mean means[k][i] / den^k: each check cross-multiplies.
    means = [oracle.walk("state", k) for k in range(r_max + s_max + 1)]
    dens = [oracle.den**k for k in range(r_max + 2 * s_max + 1)]
    for i in range(dim):
        for r in range(r_max + 1):
            m1, d, q = means[r][i], dens[r], mean_conditional(params, r, i)
            if m1 * q.denominator != q.numerator * d:
                return f"mean i={i} r={r}"
            if not quad:
                continue
            square, q = variances[r]
            if (square[i] * d - m1 * m1) * q.denominator != q.numerator * d * d:
                return f"variance i={i} r={r}"
            for s, (cross, q) in enumerate(covariances[r]):
                cov = cross[i] * dens[s] - means[s][i] * means[s + r][i]
                if cov * q.denominator != q.numerator * dens[2 * s + r]:
                    return f"covariance i={i} s={s} r={r}"
    # Stationary law (a failed proof raises, and fails the case) and pair: the law and
    # mean hold for every chain, second moments only with the quadratic eigenfunction.
    st_mean = Fraction(n + 1, 2) - Fraction(1) / params.p
    mean, variance = oracle.law_moments("stationary", 0)
    if mean != st_mean:
        return "stationary mean"
    if quad:
        pair_mean, st_var = stationary_moments(params, 0)
        if pair_mean != st_mean or variance != st_var:
            return "stationary variance"
        for r in range(1, r_max + 1):
            if oracle.covariance("stationary", 0, r) != stationary_moments(params, r)[1]:
                return f"stationary covariance r={r}"
    # Decaying eigenvector checks: the centred coordinate j + 1/p - (n+1)/2 = u_j / 2a always,
    # its centred square (3 u_j^2 - a^2 (n+1)) / 12 a^2 exactly where the closed forms claim it.
    a, c = params.p.numerator, params.p.denominator
    center = [2 * a * j + 2 * c - a * (n + 1) for j in range(dim)]
    square = [3 * u * u - a * a * (n + 1) for u in center]
    for name, vector, scale, claimed in (("first", center, params.signed_base, True),
                                         ("second", square, params.b**2, quad)):
        if claimed != all(scale * sum(map(mul, nums, vector)) == x * d  # P u == u / scale
                          for (nums, d), x in zip(oracle.matrix.integer_rows, vector)):
            return f"{name} decaying eigenvector"
    if quad:
        return ""
    # Where the closed forms are refused, show they deserve it: each must
    # refuse, and the exact one-step variance must leave the claimed value.
    if not (_refuses(variance_conditional, params, 1, 0)
            and _refuses(covariance_conditional, params, 1, 1, 0)
            and _refuses(stationary_moments, params, 1)):
        return "closed form answered off its domain"
    claimed = Fraction(n + 1, 12) * (1 - Fraction(1, params.b**2))
    if all(oracle.law_moments(i, 1)[1] == claimed for i in range(dim)):
        return "variance formula held beyond its domain"
    return ""


# --- shuffles ------------------------------------------------------------

def _exact_kappa_joint(params: ProcessParams, steps: int) -> dict[tuple[int, ...], Fraction]:
    """Exact joint law of the first ``steps`` states, starting from 0."""
    rows = transition_matrix(params).rows
    joint: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for _ in range(steps):
        joint = {path + (j,): prob * q for path, prob in joint.items()
                 for j, q in enumerate(rows[path[-1] if path else 0]) if q}
    return joint


def _total_variation(
    exact: dict[tuple[int, ...], Fraction], counts: Counter, samples: int
) -> Fraction:
    keys = set(exact) | set(counts)
    return sum((abs(Fraction(counts.get(key, 0), samples) - exact.get(key, 0)) for key in keys),
               Fraction(0)) / 2


def _stack_batches(run, words: Iterator[tuple[int, ...]], steps: int,
                   stacks: int) -> Iterator[tuple[list, Iterator[tuple[int, ...]]]]:
    """``stacks`` stacks, each the next ``steps`` words of ``words``, run through the trace
    engine ``run`` ``STACK_BATCH`` stacks at a time; yields each batch's last windows and its
    stacks' value tuples, stack by stack."""
    for start in range(0, stacks, STACK_BATCH):
        block = list(islice(words, steps * min(STACK_BATCH, stacks - start)))
        windows, values = run.columns([block[r::steps] for r in range(steps)])
        yield windows, zip(*values)


def _word_stacks(b: int, n: int, steps: int) -> Iterator[tuple[int, ...]]:
    """The words of every stack of ``steps`` words in {0..b-1}^n, stack after stack."""
    digits = chain.from_iterable(enumerate_words(
        f"enumerating {steps}-word stacks at b={b} n={n}", b, n * steps, "word stacks"))
    return zip(*[digits] * n)


def suite_bijection_plus(
    cases=((3, 2, 1, 2), (3, 2, 2, 2), (4, 2, 3, 2), (3, 2, 1, 3)),
    mc_case: tuple[int, int, int, int] | None = (7, 4, 3, 3),
    samples: int = 10**6,
    seed: int = 20240601,
) -> Iterator:
    """Positive-base construction: carries equal descents, word by word.

    Exhaustive tiers check the per-instance equality, injectivity, and the
    equality of the joint laws; the sampled tier bounds the total-variation
    distance between the exact carries law and the empirical descent law.
    """
    yield from _suite_bijection("+", cases, mc_case, samples, seed)


def suite_bijection_minus(
    cases=((2, 2, 1, 2), (3, 2, 2, 2), (2, 2, 3, 2), (3, 2, 2, 3), (2, 2, 1, 1)),
    mc_case: tuple[int, int, int, int] | None = (8, 3, 3, 2),
    samples: int = 10**6,
    seed: int = 20240602,
) -> Iterator:
    """Negative-base construction with color-negated even factors."""
    yield from _suite_bijection("-", cases, mc_case, samples, seed)


def _suite_bijection(sign: str, cases, mc_case, samples: int, seed: int) -> Iterator:
    """Both bijection suites; ``sign`` picks the construction and the chain."""
    if mc_case is not None:
        check_count("samples", samples)
        check_limit("the sampled tier", samples, SAMPLE_LIMIT, "samples")
        b, n, p, places = mc_case
        check_count("sampled shuffles N", places)
        exact = _exact_kappa_joint(make_process(sign, b, n, p), places)
        floor = _sample_floor(len(exact))
        if samples < floor:
            raise ValueError(f"the sampled tier at b={b} n={n} p={p} N={places} needs samples "
                             f">= {floor} to meet its total-variation bound {TV_BOUND} at "
                             f"false-alarm rate 10^-6, got {samples}")
    yield f"exhaustive {list(cases)}, sampled {mc_case}"
    for b, n, p, places in cases:
        yield _case(*_bijection_case(sign, b, n, p, places))
    if mc_case is not None:
        b, n, p, places = mc_case

        def sampled_case():
            batches = _stack_batches(_composer(n, p, sign), draw_words(seed, b, n), places,
                                     samples)
            counts = Counter(chain.from_iterable(values for _, values in batches))
            tv = _total_variation(exact, counts, samples)
            return tv < TV_BOUND, f"total variation {float(tv):.5f}"

        yield _case(f"sampled b={b} n={n} p={p} N={places} samples={samples}", sampled_case)


def _sample_floor(support: int) -> int:
    """The fewest samples at which a correct engine fails the sampled tier with probability
    at most 10^-6.

    An empirical law of m samples over ``support`` = K outcomes is at L1 distance >= e from
    its law with probability <= 2^K exp(-m e^2 / 2) (Weissman et al., "Inequalities for the
    L1 deviation of the empirical distribution", 2003).  The bound TV < 1/50 is L1 < 1/25,
    so m >= 2 (K ln 2 + ln 10^6) / (1/25)^2.
    """
    return ceil(2 * (support * log(2) + log(10**6)) / float(2 * TV_BOUND) ** 2)


def _bijection_case(sign: str, b: int, n: int, p: int, places: int) -> tuple:
    """One exhaustive case, checked and priced at once: its key and its check, which returns
    the first way the construction fails over every summand array, or "" if none.

    Each array's words must run through its carries, and no two arrays may
    share words; as each word permutes a column of digits in {0..b-1}, the
    map is then a bijection onto ({0..b-1}^n)^N, so the joint laws agree.
    """
    check_steps(places)  # a negative N is refused as a step count, N = 0 as no digit places
    check_count("digit places", places)
    params, key = make_process(sign, b, n, p), f"exhaustive b={b} n={n} p={p} N={places}"
    arrays = enumerate_words(key, b, n * places, "summand arrays")

    def failure() -> str:
        trace = _composer(n, p, sign).trace
        seen = set()
        for flat in arrays:
            rows = tuple(zip(*[iter(flat)] * places))
            kappas = simulate_trace(params, places, columns=list(zip(*rows))).kappas[1:]
            words = tuple(_bijection_stages(b, rows, p, sign)[3])
            if trace(words)[1] != kappas:
                return f"mismatch at rows={rows}"
            seen.add(words)
        return "" if len(seen) == b ** (n * places) else "word map not injective"

    return key, failure


def suite_shuffle_onestep(cases=((3, 2, 1), (5, 2, 2), (4, 2, 3), (3, 3, 1), (4, 3, 3))) -> Iterator:
    """Descent law of r uniform shuffles against row 0 of the matrix power.

    Checked both by running every word through the trace engine (r = 1) and
    through the factorization-count route (r = 1 and 2).
    """
    yield f"cases {list(cases)}"
    for b, n, p in cases:
        params, stacks = make_process("+", b, n, p), _word_stacks(b, n, 1)  # checked and priced
        counts = cache(lambda: Counter(chain.from_iterable(  # every word run through the engine
            values for _, values in _stack_batches(_composer(n, p, "+"), stacks, 1, b**n))))
        matrix = cache(lambda: transition_matrix(params))  # read by all three cases
        table = cache(lambda: gessel_coefficients(n, p, 0))
        yield _case(f"enumerated b={b} n={n} p={p}", lambda: (
            (law := tuple(Fraction(counts().get((j,), 0), b**n) for j in range(matrix().dim)))
            == matrix()[0], f"{law} vs {matrix()[0]}"))
        for r in (1, 2):
            m = (b**r - 1) // p
            yield _case(f"factorization-route b={b} n={n} p={p} r={r}", lambda: tuple(
                Fraction(
                    sum(table()[i][j] * comb(n + m - i, n) for i in range(n + 1)),
                    b ** (r * n),
                )
                for j in range(matrix().dim)
            ) == matrix().power(r)[0])


def suite_shuffle_prob(cases=((3, 2, 1), (4, 2, 3), (3, 3, 2))) -> Iterator:
    """Single-element law: sums to one and matches every word stack run through the engine."""
    for b, n, p in cases:
        parameter_ratio("+", b, p)  # a bad (b, p) is input: refused here, not by the closed form
        _check_group(n, p)  # prices |G| before any case enumerates it
        _word_stacks(b, n, 2)  # prices the r = 2 stacks, the most words
    yield f"cases {list(cases)}"
    for b, n, p in cases:
        elements = cache(lambda: list(enumerate_group(n, p)))  # read by all three cases
        laws = cache(lambda: {r: Counter(_window_pairs(w, p) for windows, _ in _stack_batches(
            _composer(n, p, "+"), _word_stacks(b, n, r), r, b ** (n * r)) for w in windows)
            for r in (1, 2)})  # the windows' law after r shuffles, read by two cases
        yield _case(f"sums-to-one b={b} n={n} p={p}", lambda: (
            (total := sum(shuffle_probability(e, b) for e in elements())) == 1, f"total {total}"))
        for r, key in ((1, "matches-enumeration"), (2, "iterated r=2")):
            yield _case(f"{key} b={b} n={n} p={p}", lambda: all(
                shuffle_probability(e, b, r) == Fraction(laws()[r].get(e.pairs, 0), b ** (r * n))
                for e in elements()
            ))


def suite_gessel(n_max: int = 3, p_max: int = 2, cutoff: int = 3) -> Iterator:
    """Closed-form factorization counts against the oracle that counts them in the group.

    Per (n, p) the work is |G|^2 compositions, every representative meeting every
    element, and n + 1 tables at most of (cutoff + 1)^2 sums of (n + 1)^2 terms.
    """
    check_steps(cutoff, what="cutoff")
    cells = ((f"n={n} p={p}", group_order(n, p) ** 2 + (n + 1) ** 3 * (cutoff + 1) ** 2, (n, p))
             for p in range(1, p_max + 1) for n in range(1, n_max + 1))
    grid = check_grid("the gessel grid", cells, ENUMERATION_LIMIT,
                      "compositions and identity terms")
    yield f"n<={n_max}, p<={p_max}, all d, cutoff ({cutoff}, {cutoff})"
    for n, p in grid:
        descents = cache(lambda: {e: descent_count(e) for e in enumerate_group(n, p)})
        for d in range(state_count(n, p)):  # the descent counts of Z_p wr S_n
            yield _case(f"n={n} p={p} d={d}", lambda: _gessel_case(n, p, d, cutoff, descents()))


def _gessel_case(n: int, p: int, d: int, cutoff: int, descents: dict) -> tuple[bool, str]:
    """The oracle's case at d: (False, the first way its counts fail) or (their total is |G|,
    "total T").  Each representative sigma's c[i][j] = #{mu : d(sigma mu^-1) = i, d(mu) = j}
    takes one composition of windows per (mu^-1, d(mu)) of the group: the first's must meet
    the generating identity, and every one's must equal ``gessel_coefficients``."""
    closed = gessel_coefficients(n, p, d)
    by_window = {e.pairs: j for e, j in descents.items()}
    factors = [(inverse(mu).pairs, j) for mu, j in descents.items()]
    for k, sigma in enumerate(e for e, descent in descents.items() if descent == d):
        counts = [[0] * (n + 1) for _ in range(n + 1)]
        for mu_inverse, j in factors:
            counts[by_window[_compose_pairs(sigma.pairs, mu_inverse, p)]][j] += 1
        # At the first representative, through degree ``cutoff`` in each variable: sum c[i][j]
        # s^i t^j / ((1-s)(1-t))^(n+1) has coefficient C(n + p a b + a + b - d, n) at s^a t^b.
        for a in range(cutoff + 1 if k == 0 else 0):
            for c in range(cutoff + 1):
                lhs = sum(
                    counts[i][j] * comb(a - i + n, n) * comb(c - j + n, n)
                    for i in range(min(a, n) + 1)
                    for j in range(min(c, n) + 1)
                )
                if lhs != comb(n + p * a * c + a + c - d, n):
                    return False, (f"generating identity fails at (s^{a}, t^{c}) "
                                   f"for n={n} p={p} d={d}")
        if counts != closed:
            return False, f"the counts at {sigma.to_text()} differ from the closed form"
    total = sum(map(sum, closed))
    return total == group_order(n, p), f"total {total}"


# --- golden examples -----------------------------------------------------

def suite_examples_golden() -> Iterator:
    """Every frozen reference value, recomputed end to end.

    Each value is one (case, computed, expected) row and one comparison; a
    worked pipeline is one case whose stages are compared in turn.
    """
    yield "reference tables"
    quarter, third, pi_48 = Fraction(1, 4), Fraction(1, 3), Fraction(1, 48)
    chains = [make_process(sign, b, 3, 2)
              for sign in ("+", "-") for b in smallest_valid_bases(sign, 2)]
    ex = reference.INVERSE_EXAMPLE
    sigma = ColoredPermutation(ex["n"], ex["p"], ex["pairs"])
    rows = [  # (case, computing it, expected); a thunk binds its loop variable, read later
        *((f"scaled-right n=3 p={p}", lambda p=p: right_eigen_matrix(3, p).scale(6 * p**3),
           RationalMatrix(scaled)) for p, scaled in reference.SCALED_RIGHT_N3.items()),
        ("matrix + b=2 n=2 p=1", lambda: transition_matrix(make_process("+", 2, 2, 1)),
         RationalMatrix([[3 * quarter, quarter], [quarter, 3 * quarter]])),
        ("matrix + b=3 n=1 p=2", lambda: transition_matrix(make_process("+", 3, 1, 2)),
         RationalMatrix([[2 * third, third], [third, 2 * third]])),
        ("eigenvalues - b=8 n=3 p=3", lambda: eigen_values(make_process("-", 8, 3, 3)),
         (1, Fraction(-1, 8), Fraction(1, 64), Fraction(-1, 512))),
        # The closed-form stationary law, proved P's one fixed law, agrees with the reference.
        *((f"stationary sign={c.sign} b={c.b} n=3 p=2", lambda c=c: stationary_fixed_point(c),
           (pi_48, 23 * pi_48, 23 * pi_48, pi_48)) for c in chains),
        ("left row0 n=3 p=1", lambda: left_eigen_matrix(3, 1)[0], (1, 4, 1)),
        ("left row0 n=3 p=2", lambda: left_eigen_matrix(3, 2)[0], (1, 23, 23, 1)),
        ("window inversion example",
         lambda: (inverse(sigma).pairs, descent_count(inverse(sigma)),
                  gsr_to_permutation(ex["unique_word"], ex["p"]).pairs,
                  shuffle_probability(sigma, 7)),
         (ex["inverse_pairs"], ex["inverse_descents"], ex["pairs"], Fraction(1, 7**7))),
    ]
    for key, compute, expected in rows:
        yield _case(key, lambda: "" if (got := compute()) == expected else f"got {got}")
    for b, n, p, labels, pairs in reference.GSR_EXAMPLES:
        yield _case(f"gsr b={b} n={n} p={p}", lambda: (
            (got := gsr_to_permutation(labels, p)).pairs == pairs, got.to_text()))
    star = reference.STAR_EXAMPLE
    yield _case("star example", lambda: (
        (got := star_map([star["word1"], star["word2"]])[1]) == star["starred2"], str(got)))
    for key, sign, ex in (("positive-base pipeline", "+", reference.PLUS_PIPELINE),
                          ("negative-base pipeline", "-", reference.MINUS_PIPELINE)):
        yield _case(key, lambda: _pipeline_mismatch(sign, ex))


def _pipeline_mismatch(sign: str, ex: dict) -> str:
    """The first stage of a worked pipeline that differs from the reference ``ex``, or "".

    Each stage is computed once from the rows and compared in the reference's
    key order, a mismatch reading "<stage>: got <computed>"; a reference key
    with no computed stage is refused, not skipped.  Last, the step values
    must be the carries of the rows.
    """
    b, p, n = ex["b"], ex["p"], ex["n"]
    summands = MultiDigitWord(b, ex["rows"])
    trace = simulate_trace(make_process(sign, b, n, p), summands.places, columns=summands.columns())
    flipped, barred, mixed = (MultiDigitWord.from_values(b, summands.places, values) for values
                              in _bijection_stages(b, summands.rows, p, sign)[:3])
    shuffles = (bijection_plus if sign == "+" else bijection_minus)(summands, p)
    factors = [gsr_to_permutation(word, p) for word in shuffles.words]
    computed = {
        "values": summands.row_values(),
        "kappas": trace.kappas,
        "remainders": trace.remainders,
        "flipped_rows": flipped.rows,
        "bar_rows": barred.rows,
        "bar_values": barred.row_values(),
        "f_rows": mixed.rows,
        "words": shuffles.words,
        "factors": tuple(factor.pairs for factor in factors),
        "primed_factors": {r: negate_colors(factors[r - 1]).pairs
                           for r in range(2, len(factors) + 1, 2)},
        "elements": tuple(e.pairs for e in shuffles.elements),
        # Before matching: the dash statistic at the odd steps of a '-' trace.
        "raw_descents": tuple(dash_descent_count(e) if sign == "-" and r % 2 else descent_count(e)
                              for r, e in enumerate(shuffles.elements, start=1)),
        "descents": shuffles.descents,
        "matched_values": shuffles.descents,
    }
    for stage, expected in ex.items():
        if stage in ("b", "p", "n", "rows"):  # the inputs
            continue
        if stage not in computed:
            return f"{stage}: no computed stage"
        if computed[stage] != expected:
            return f"{stage}: got {computed[stage]}"
    if shuffles.descents != trace.kappas[1:]:
        return f"step values: got {shuffles.descents}, carries {trace.kappas[1:]}"
    return ""


SUITES = {
    "transition": suite_transition,
    "eigen": suite_eigen,
    "duality": suite_duality,
    "symmetry": suite_symmetry,
    "sf-numbers": suite_sf_numbers,
    "descent-stats": suite_descent_stats,
    "moments": suite_moments,
    "shuffle-onestep": suite_shuffle_onestep,
    "bijection-plus": suite_bijection_plus,
    "bijection-minus": suite_bijection_minus,
    "shuffle-prob": suite_shuffle_prob,
    "gessel": suite_gessel,
    "examples-golden": suite_examples_golden,
}


def run_suite(name: str, **options) -> SuiteReport:
    """Run a named suite: the one place a report is built, named, timed and collected.

    The suite's first item is its grid text, each later one a case.  Unknown
    names, and options that leave the suite no case to check, raise ValueError.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    start = time.monotonic()
    items = SUITES[name](**options)
    report = SuiteReport(name, next(items), [SuiteCase(*case) for case in items])
    report.wall_time_s = time.monotonic() - start
    if not report.cases:
        raise ValueError(f"suite {name} has no cases to check with these options: {report.grid}")
    return report
