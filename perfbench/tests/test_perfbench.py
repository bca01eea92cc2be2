"""Tests of the benchmark harness: the digest gate, tracing and the per-layer report.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import carrieslab  # noqa: E402
import carrieslab.cli  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402

SUITES = tuple(carrieslab.verify.SUITES)
# The per-layer metrics the benchmark is specified to report.
SPECIFIED_PER_LAYER = (
    [f"{layer}.self_s" for layer in
     ("process", "ratmat", "spectral", "moments", "colored", "shuffle", "verify", "cli")]
    + ["process.step_carry.calls", "process.step_carry.self_s", "process.simulate_trace.self_s",
       "ratmat.matmul.calls", "ratmat.matmul.self_s", "ratmat.power.calls",
       "ratmat.power.self_s", "ratmat.inverse.self_s", "ratmat.solve_linear.self_s",
       "ratmat.construct.calls"]
    + [f"spectral.{name}.self_s" for name in
       ("transition_matrix", "transition_oracle", "left_eigen_matrix", "right_eigen_matrix",
        "eigen_system", "stationary_fixed_point")]
    + ["spectral.stirling_first.hit_ratio"]
    + [f"spectral.right_eigen_matrix.n{n}_s" for n in (10, 20, 30, 40)]
    + ["moments.moments_oracle.calls", "moments.moments_oracle.self_s"]
    + ["colored.compose.calls", "colored.compose.self_s", "colored.descent_count.calls",
       "colored.descent_count.self_s", "colored.dash_descent_count.calls",
       "colored.enumerate_group.elements"]
    + [f"shuffle.{name}.{field}" for name in ("gsr_to_permutation", "trace_from_words")
       for field in ("calls", "self_s")]
    + [f"shuffle.{name}.self_s" for name in ("bijection_plus", "bijection_minus", "unstar_map")]
    + [f"verify.{suite}.wall_s" for suite in SUITES]
    + ["verify.cases", "verify.cases_failed", "cli.output_bytes", "trace.overhead_s"]
)


def tiny_ops(workdir: Path) -> list:
    """A second-long workload that reaches every layer."""
    workdir.mkdir(parents=True, exist_ok=True)
    params = carrieslab.process.make_process("-", 8, 4, 3)
    return [
        workloads.cli_verify_op(carrieslab, "shuffle-onestep", workdir),
        workloads.cli_verify_op(carrieslab, "gessel", workdir),
        workloads.suite_op(carrieslab, "bijection-minus", "bijection-minus tiny", seeded=True,
                           cases=((2, 2, 1, 2),), mc_case=(8, 3, 3, 2), samples=30000, seed=5),
        workloads.eigen_op(carrieslab, params),
        workloads.fixed_point_op(carrieslab, params),
        workloads.moments_op(carrieslab, params, 3, 2),
        workloads.matrix_op("right_eigen_matrix n=5 p=3",
                            lambda: carrieslab.spectral.right_eigen_matrix(5, 3)),
        workloads.simulate_op(carrieslab, 7, 300, workdir),
    ]


def traced_pass(workdir: Path) -> tuple[list, tracer.Tracer]:
    calls = tracer.Tracer()
    calls.install(carrieslab)
    try:
        return run_ops(tiny_ops(workdir)), calls
    finally:
        calls.uninstall()


def test_corrupted_digest_counts_as_failed_operation(tmp_path):
    ops = run_ops(tiny_ops(tmp_path))
    pinned = {op["name"]: op["digest"] for op in ops}
    attempted, failed, _ = run.evaluate([ops], pinned, check_seeded=True)
    assert failed == 0 and attempted == sum(max(1, op.get("cases", 0)) for op in ops)

    victim = ops[0]
    corrupted = dict(pinned, **{victim["name"]: "0" * 64})
    attempted2, failed2, problems = run.evaluate([ops], corrupted, check_seeded=True)
    assert attempted2 == attempted
    assert failed2 == victim["cases"] > 0
    assert problems and problems[0].startswith(victim["name"])

    # At an unpinned seed a seeded operation is held to the run's first pass.
    drifted = [dict(op, digest="f" * 64) if op["seeded"] else op for op in ops]
    _, failed3, _ = run.evaluate([ops, drifted], pinned, check_seeded=False)
    assert failed3 == sum(max(1, op.get("cases", 0)) for op in ops if op["seeded"]) > 0


def test_traced_and_untraced_outputs_have_identical_digests(tmp_path):
    main, suite = carrieslab.cli.main, carrieslab.verify.SUITES["moments"]
    plain = run_ops(tiny_ops(tmp_path / "plain"))
    traced, calls = traced_pass(tmp_path / "traced")
    assert all(op["ok"] for op in plain), [op for op in plain if not op["ok"]]
    assert [(op["name"], op["digest"]) for op in traced] == \
        [(op["name"], op["digest"]) for op in plain]
    # The wrappers reached calls made through from-imports and the class.
    assert calls.stats["process.step_carry"][0] > 0
    assert calls.stats["ratmat.matmul"][0] > 0
    assert carrieslab.cli.main is main and carrieslab.verify.SUITES["moments"] is suite


def test_per_layer_report_names_every_specified_metric(tmp_path):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(declared) == sorted(SPECIFIED_PER_LAYER)

    plain = {"ops": run_ops(tiny_ops(tmp_path / "plain"))}
    ops, calls = traced_pass(tmp_path / "traced")
    values = run.per_layer(plain, {"ops": ops, "trace": calls.raw()}, declared)
    assert list(values) == declared
    assert values["colored.enumerate_group.elements"] > 0
    assert values["verify.cases"] == sum(op["cases"] for op in ops) > 0
    assert values["cli.output_bytes"] > 0
    assert 0 < values["spectral.stirling_first.hit_ratio"] < 1
    with pytest.raises(KeyError):
        run.per_layer(plain, {"ops": ops, "trace": calls.raw()}, ["spectral.no_such.calls"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_rescaled_by_the_probe():
    ref = probe.REFERENCE_S
    ops = [{"seconds": 2.0, "probe_s": ref, "samples": 0},
           {"seconds": 3.0, "probe_s": 1.5 * ref, "samples": 0}]
    samples = run.end_to_end("large-chain", [(0.1, 2 * ref)], [{"ops": ops, "peak_rss_mib": 1.0}])
    assert samples["wall_s"] == [5.0]
    assert samples["setup_s"] == [pytest.approx(0.05)]
    assert samples["wall_ref_s"] == [pytest.approx(2.0 + 3.0 / 1.5)]
    measured = run_ops([workloads.matrix_op(
        "right_eigen_matrix n=3 p=3", lambda: carrieslab.spectral.right_eigen_matrix(3, 3))])
    assert measured[0]["ok"] and measured[0]["probe_s"] > 0
