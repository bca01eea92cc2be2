"""Acceptance gate: one test, and one printed pass/fail line, per guarantee.

Most criteria delegate to the verification suites, which compare every
closed form against an independent brute-force oracle; the rest assert
hand-checked values directly.  Each test records a ``criterion NN`` line
that the terminal-summary hook echoes at the end of the run.
"""

import ast
import hashlib
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

import carrieslab
from carrieslab import (
    MultiDigitWord,
    bijection_minus,
    bijection_plus,
    cli,
    dash_descent_count,
    derive_carry_set,
    derive_p,
    descent_count,
    make_process,
    realized_carry_set,
    reference,
    right_eigen_matrix,
    stirling_frobenius,
    transition_matrix,
)
from carrieslab.verify import SUITES, run_suite

RESULTS: list[tuple[int, str, bool, str]] = []


def _record(number: int, title: str, ok: bool, detail: str = "") -> None:
    RESULTS.append((number, title, bool(ok), detail))
    line = f"criterion {number:2d} ({title}): {'PASS' if ok else 'FAIL'}"
    print(line + (f" - {detail}" if detail and not ok else ""))
    assert ok, f"criterion {number} ({title}) failed: {detail}"


@pytest.fixture(scope="module")
def suites():
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run_suite(name)
        return cache[name]

    return get


def _suite_detail(*reports) -> str:
    bad = [case for report in reports for case in report.cases if not case.ok]
    if not bad:
        return ""
    return f"{len(bad)} failing cases, first: {bad[0].key} {bad[0].detail}".strip()


# The exact suites whose default reports the benchmark pins, digest by digest.
EXACT_SUITES = ("transition", "eigen", "duality", "symmetry", "sf-numbers", "descent-stats",
                "moments", "shuffle-onestep", "shuffle-prob", "gessel", "examples-golden")
PINS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _report_digest(report) -> str:
    stable = {key: value for key, value in report.to_json_obj().items() if key != "wall_time_s"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def test_exact_suite_reports_match_the_benchmark_pins(suites):
    # Default reports must stay byte for byte; the pins are read, never written.
    pinned = json.loads(PINS.read_text())["workloads"]["verify-exact"]
    for name in EXACT_SUITES:
        assert _report_digest(suites(name)) == pinned[f"cli verify {name}"], name


def test_every_suite_yields_the_grid_of_its_report_first(suites):
    # A suite is a generator: it checks and prices its options, then yields its grid text
    # before any case, and run_suite puts that text in the report.
    for name, suite in SUITES.items():
        assert inspect.isgeneratorfunction(suite), name
        assert next(suite()) == suites(name).grid, name


def _report_builds(tree) -> int:
    return sum(isinstance(node, ast.Call) and "SuiteReport" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)) for node in ast.walk(tree))


def test_only_run_suite_builds_a_report():
    # One runner names, times and collects every report: no suite or other module builds one.
    package = Path(carrieslab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    [runner] = [node for node in trees["verify.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "run_suite"]
    assert sum(map(_report_builds, trees.values())) == _report_builds(runner) == 1


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def test_every_case_is_yielded_through_one_case_form():
    # After its grid text, a suite yields each case as `_case(key, check)`, which runs the
    # check in the suite's frame and turns a closed form that raises into a failed case; a
    # `yield from` may only delegate to the shared bijection suite.
    tree = ast.parse((Path(carrieslab.__file__).parent / "verify.py").read_text())
    suites = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and (node.name.startswith("suite_") or node.name == "_suite_bijection")]
    assert len(suites) == len(SUITES) + 1
    for suite in suites:
        yields = sorted((node for node in ast.walk(suite)
                         if isinstance(node, (ast.Yield, ast.YieldFrom))),
                        key=lambda node: (node.lineno, node.col_offset))
        delegated = [node for node in yields if isinstance(node, ast.YieldFrom)]
        assert all(_calls(node.value, "_suite_bijection") for node in delegated), suite.name
        if delegated:
            assert yields == delegated, suite.name
            continue
        grid, *cases = yields
        assert isinstance(grid.value, (ast.Constant, ast.JoinedStr)), suite.name
        assert cases and all(_calls(node.value, "_case") for node in cases), suite.name


def test_seeded_streams_match_the_benchmark_pins(tmp_path):
    # The benchmark's seeded operations at its seed 0: both sampled tiers and one simulate run.
    pinned = json.loads(PINS.read_text())["workloads"]
    for suite, seed in (("bijection-plus", 20240601), ("bijection-minus", 20240602)):
        report = run_suite(suite, cases=(), samples=200_000, seed=seed)
        assert _report_digest(report) == pinned["verify-sampled"][f"{suite} sampled"], suite
    out = tmp_path / "simulate.json"
    assert cli.main(["--out", str(out), "simulate", "--sign", "+", "--b", "7", "--n", "10",
                     "--p", "3", "--N", "100000", "--seed", "1729"]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == pinned["large-chain"]["cli simulate"]


def test_criterion_01_scaled_right_matrices():
    ok = True
    for p, expected in sorted(reference.SCALED_RIGHT_N3.items()):
        scaled = right_eigen_matrix(3, p).scale(6 * p**3)
        ok = ok and all(
            scaled[i][j] == expected[i][j]
            for i in range(scaled.dim)
            for j in range(scaled.dim)
        )
    _record(1, "four scaled right-eigenvector matrices at n=3, entry for entry", ok)


def test_criterion_02_spectral_identities(suites):
    report = suites("eigen")
    _record(2, "R·L=I, P=RDL, and eigenvalues (±1/b)^k across the spectral grid",
            report.passed, _suite_detail(report))


def test_criterion_03_transition_oracle(suites):
    report = suites("transition")
    classical = transition_matrix(make_process("+", 2, 2, 1))
    quarter = Fraction(1, 4)
    direct = (
        classical[0][0] == 3 * quarter
        and classical[0][1] == quarter
        and classical[1][0] == quarter
        and classical[1][1] == 3 * quarter
    )
    _record(3, "counting formula matches exhaustive transition enumeration",
            report.passed and direct,
            _suite_detail(report) or ("" if direct else "classical base-2 matrix wrong"))


def test_criterion_04_carry_sets_and_p():
    ok = True
    for sign in "+-":
        for b in range(2, 7):
            for d in range(1 - b, 1):
                for n in range(1, 5):
                    interval = derive_carry_set(sign, b, d, n)
                    ok = ok and set(interval) == set(
                        realized_carry_set(sign, b, d, n)
                    )
                    p = derive_p(sign, b, d, n)
                    ok = ok and len(interval) == (n if p == 1 else n + 1)
    _record(4, "carry-set interval and derived p match brute-force carries", ok)


def test_criterion_05_stirling_frobenius(suites):
    report = suites("sf-numbers")
    rows = {p: stirling_frobenius(3, p) for p in (1, 2, 3)}
    direct = (
        rows[1] == (0, 2, 3, 1)
        and rows[2] == (15, 23, 9, 1)
        and rows[3] == (80, 66, 15, 1)
    )
    _record(5, "deformed first-kind recursion matches n! p^n R; reference rows at n=3",
            report.passed and direct, _suite_detail(report))


def test_criterion_06_descent_statistics(suites):
    report = suites("descent-stats")
    _record(6, "descent recursions match exhaustive counts on colored permutations",
            report.passed, _suite_detail(report))


def test_criterion_07_moments(suites):
    report = suites("moments")
    _record(7, "moment formulas match the integer-walk oracle on its whole domain",
            report.passed, _suite_detail(report))


def test_criterion_08_worked_pipelines(suites):
    report = suites("examples-golden")
    ex = reference.PLUS_PIPELINE
    plus = bijection_plus(MultiDigitWord(ex["b"], ex["rows"]), ex["p"])
    ex = reference.MINUS_PIPELINE
    minus = bijection_minus(MultiDigitWord(ex["b"], ex["rows"]), ex["p"])
    raw = tuple(
        dash_descent_count(e) if r % 2 == 1 else descent_count(e)
        for r, e in enumerate(minus.elements, start=1)
    )
    direct = (
        plus.descents == (3, 3, 2)
        and raw == (1, 1, 2, 4)
        and minus.descents == (3, 1, 2, 4)
    )
    _record(8, "both worked bijection pipelines reproduced end to end",
            report.passed and direct, _suite_detail(report))


def test_criterion_09_joint_law_of_carries_and_descents(suites):
    plus = suites("bijection-plus")
    minus = suites("bijection-minus")
    _record(9, "carries and shuffle descents share one joint law, both signs",
            plus.passed and minus.passed, _suite_detail(plus, minus))


def test_criterion_10_shuffle_law_and_series(suites):
    law = suites("shuffle-prob")
    series = suites("gessel")
    _record(10, "single-shuffle law normalizes and matches enumeration; series identity",
            law.passed and series.passed, _suite_detail(law, series))


def test_criterion_11_symmetries(suites):
    report = suites("symmetry")
    _record(11, "reversal, reflection, and conjugacy symmetries of the matrix",
            report.passed, _suite_detail(report))
