"""The three benchmark workloads, each a list of operations built from a seed.

An operation is one call into carrieslab plus an untimed check of what it
returned.  The check yields a digest of the output (verify JSON without its
``wall_time_s``, CLI output bytes, matrices as ``num/den`` rows, moment
reports), so a change to any rational or to a seeded random stream shows up
as a digest mismatch.  Module attributes are looked up at call time, so the
tracer's wrappers are the ones that run in a traced pass.

This module does not import carrieslab; the worker passes the package in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

NAMES = ("verify-exact", "verify-sampled", "large-chain")

# The benchmark seed that reproduces the program's own default seeds; the
# pinned digests of seeded operations are for this seed.
DEFAULT_SEED = 0
PLUS_SEED, MINUS_SEED, SIMULATE_SEED = 20240601, 20240602, 1729

# Every verify suite without a Monte-Carlo tier, at its default grid.
EXACT_SUITES = (
    "transition", "eigen", "duality", "symmetry", "sf-numbers", "descent-stats",
    "moments", "shuffle-onestep", "shuffle-prob", "gessel", "examples-golden",
)
SAMPLED_SUITES = ("bijection-plus", "bijection-minus")
# Monte-Carlo samples per bijection suite (the suites' default is 10**6).
SAMPLES = 200_000

# large-chain: chains (sign, b, p = 3) at these state counts, moments up to
# MOMENT_N_MAX, R at R_N, and one simulate call of SIMULATE_STEPS steps.
CHAINS = (("+", 7), ("-", 8))
N_GRID = (10, 20, 30)
MOMENT_N_MAX = 20
MOMENT_POWER = 16
R_N = 40
SIMULATE = {"sign": "+", "b": 7, "n": 10, "p": 3}
SIMULATE_STEPS = 100_000


@dataclass(frozen=True)
class Outcome:
    ok: bool
    digest: str
    cases: int = 0
    cases_failed: int = 0
    out_bytes: int = 0


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    seeded: bool = False
    samples: int = 0


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _rows(matrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in matrix.rows)


def _verify_outcome(obj: dict, out_bytes: int = 0) -> Outcome:
    cases = obj["cases"]
    failed = sum(1 for case in cases if not case["ok"])
    stable = {key: value for key, value in obj.items() if key != "wall_time_s"}
    return Outcome(
        ok=bool(obj["passed"]) and failed == 0 and len(cases) > 0,
        digest=sha256(json.dumps(stable, sort_keys=True)),
        cases=len(cases),
        cases_failed=failed,
        out_bytes=out_bytes,
    )


def cli_verify_op(lab, suite: str, workdir: Path) -> Op:
    out = workdir / f"verify-{suite}.json"

    def check(code) -> Outcome:
        data = out.read_bytes()
        outcome = _verify_outcome(json.loads(data), len(data))
        return replace(outcome, ok=outcome.ok and code == 0)

    return Op(f"cli verify {suite}", lambda: lab.cli.main(["--out", str(out), "verify", suite]),
              check)


def suite_op(lab, suite: str, name: str, seeded: bool = False, **options) -> Op:
    return Op(name, lambda: lab.verify.run_suite(suite, **options),
              lambda report: _verify_outcome(report.to_json_obj()), seeded,
              options.get("samples", 0))


def matrix_op(name: str, call: Callable[[], object]) -> Op:
    return Op(name, call, lambda matrix: Outcome(True, sha256(_rows(matrix))))


def eigen_op(lab, params) -> Op:
    def check(system) -> Outcome:
        text = "\n".join([" ".join(map(str, system.eigenvalues)), _rows(system.left),
                          _rows(system.right)])
        return Outcome(True, sha256(text))

    return Op(f"eigen_system {_label(params)}", lambda: lab.spectral.eigen_system(params), check)


def fixed_point_op(lab, params) -> Op:
    return Op(f"stationary_fixed_point {_label(params)}",
              lambda: lab.spectral.stationary_fixed_point(params),
              lambda law: Outcome(sum(law) == 1, sha256(" ".join(map(str, law)))))


def moments_op(lab, params, r: int, s: int) -> Op:
    def check(report) -> Outcome:
        fields = (report.start, report.r, report.s, report.mean, report.variance,
                  report.covariance)
        return Outcome(True, sha256(" ".join(map(str, fields))))

    return Op(f"moments_oracle {_label(params)} r={r} s={s}",
              lambda: lab.moments.moments_oracle(params, r, s), check)


def simulate_op(lab, seed: int, steps: int, workdir: Path) -> Op:
    """``carries-lab simulate``; the output is also checked step by step."""
    out = workdir / "simulate.json"
    argv = ["--out", str(out), "simulate", "--sign", SIMULATE["sign"],
            "--b", str(SIMULATE["b"]), "--n", str(SIMULATE["n"]), "--p", str(SIMULATE["p"]),
            "--N", str(steps), "--seed", str(seed)]

    def check(code) -> Outcome:
        data = out.read_bytes()
        obj = json.loads(data)
        ok = code == 0 and obj["seed"] == seed and _chain_path_ok(obj, steps)
        return Outcome(ok, sha256(data), out_bytes=len(data))

    return Op("cli simulate", lambda: lab.cli.main(argv), check, seeded=True)


def _chain_path_ok(obj: dict, steps: int) -> bool:
    """Replay the + chain: kappa + column sum + (b-1)(1-1/p) = kappa' b + remainder."""
    b, n = SIMULATE["b"], SIMULATE["n"]
    shift = (b - 1) * (1 - Fraction(1, SIMULATE["p"]))
    kappas, remainders, columns = obj["kappas"], obj["remainders"], obj["summand_digits"]
    if len(kappas) != steps + 1 or kappas[0] != 0 or len(columns) != steps:
        return False
    for kappa, nxt, rem, column in zip(kappas, kappas[1:], remainders, columns):
        if len(column) != n or any(not 0 <= digit < b for digit in column):
            return False
        if divmod(kappa + sum(column) + shift, b) != (nxt, rem):
            return False
    return True


def _label(params) -> str:
    return f"sign={params.sign} b={params.b} n={params.n} p={params.p}"


def build(lab, name: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of workload ``name``; only seeded inputs depend on ``seed``."""
    if name == "verify-exact":
        return [cli_verify_op(lab, suite, workdir) for suite in EXACT_SUITES]
    if name == "verify-sampled":
        ops = []
        for suite, suite_seed in zip(SAMPLED_SUITES, (PLUS_SEED + seed, MINUS_SEED + seed)):
            ops.append(suite_op(lab, suite, f"{suite} exhaustive", mc_case=None))
            ops.append(suite_op(lab, suite, f"{suite} sampled", seeded=True, cases=(),
                                samples=SAMPLES, seed=suite_seed))
        return ops
    if name == "large-chain":
        ops = []
        for sign, b in CHAINS:
            for n in N_GRID:
                params = lab.process.make_process(sign, b, n, 3)
                ops += [eigen_op(lab, params), fixed_point_op(lab, params)]
                if n <= MOMENT_N_MAX:
                    ops.append(moments_op(lab, params, MOMENT_POWER, MOMENT_POWER))
        ops.append(matrix_op(f"right_eigen_matrix n={R_N} p=3",
                             lambda: lab.spectral.right_eigen_matrix(R_N, 3)))
        ops.append(simulate_op(lab, SIMULATE_SEED + seed, SIMULATE_STEPS, workdir))
        return ops
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
