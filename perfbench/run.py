"""carrieslab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: batch, closed loop, one client.  Each pass runs every operation
of the workload once, one call after another, in a fresh single-threaded
worker process, so import state and the ``stirling_first`` cache never carry
over between passes (CLI users pay those costs on every invocation).

``--trace 0`` runs MIN_PASSES passes, then more while the next one, judged
by the longest so far, would end within ``--seconds``.  SETUP_SPAWNS workers
that only set up run before the passes and as many after them, so set-up is
sampled across the run.  Each end-to-end metric is the median over passes
(set-up: over every worker).  ``wall_ref_s`` rescales each call's time by the
host speed the worker's ``probe.Gauge`` measured around and during it, and
``setup_s`` rescales each set-up by the speed probed just after it.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of the traced pass; the
difference in wall time is the tracing overhead.

Every operation's output digest is compared with the digest pinned in
``perfbench/digests.json`` (seeded operations only at the pinned seed) and
with the same operation in the run's other passes.  A mismatch, a failed
check, an exception or a nonzero exit counts as a failed operation.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table.  Full
results go to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads
from tracer import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SPAWNS = 8
# A median needs two passes even when one pass outlasts --seconds.
MIN_PASSES = 2
# A run must end within 180 s; no pass starts that could run past this.
RUN_LIMIT_S = 165.0


def spawn(workload: str, seed: int, deadline: float, setup_only: bool = False,
          spans: Path | None = None) -> tuple[float, float, dict | None]:
    """Run one worker; return its set-up time, the mean time of the speed
    probes it ran just after set-up, and its result (None if set-up only).

    With ``spans`` the pass is traced and its spans are written there.
    """
    workdir = WORK / f"work-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    cmd += ["--setup-only"] * setup_only + ["--trace", str(spans)] * (spans is not None)
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
            except BaseException:
                proc.kill()
                raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    last = json.loads(out.splitlines()[-1])
    return setup_s, last["setup_probe_s"], None if setup_only else last


def evaluate(passes: list[list[dict]], pinned: dict, check_seeded: bool) -> tuple[int, int, list]:
    """Count attempted and failed operations over every pass of a run.

    An operation weighs as many as the verify cases it ran (at least 1).  It
    fails on a failed check or exception, on a digest that differs from the
    pinned one (seeded operations only when ``check_seeded``), or on a digest
    that differs from the same operation's digest in the run's first pass.
    """
    attempted = failed = 0
    problems = []
    first: dict[str, str] = {}
    for ops in passes:
        for op in ops:
            name, digest = op["name"], op["digest"]
            weight = max(1, op.get("cases", 0))
            attempted += weight
            reason = None
            if not op["ok"]:
                reason = op.get("error", "output check failed")
            elif not op["seeded"] or check_seeded:
                if name not in pinned:
                    reason = "no pinned digest"
                elif digest != pinned[name]:
                    reason = f"digest {digest[:12]} != pinned {pinned[name][:12]}"
            if reason is None and first.setdefault(name, digest) != digest:
                reason = "digest differs between passes of one run"
            if reason is not None:
                failed += weight
                problems.append(f"{name}: {reason}")
    return attempted, failed, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload: str, setups: list[tuple[float, float]],
               results: list[dict]) -> dict[str, list]:
    """Per-pass samples of each end-to-end metric.

    ``setups`` holds each worker's set-up time and the mean time of the
    speed probes the worker ran just after set-up.
    """
    walls = [sum(op["seconds"] for op in r["ops"]) for r in results]
    samples = {
        "wall_ref_s": [sum(op["seconds"] * probe.REFERENCE_S / op["probe_s"] for op in r["ops"])
                       for r in results],
        "wall_s": walls,
        "setup_s": [setup * probe.REFERENCE_S / probe_s for setup, probe_s in setups],
        "setup_wall_s": [setup for setup, _ in setups],
        "peak_rss_mib": [r["peak_rss_mib"] for r in results],
    }
    if workload == "verify-exact":
        samples["cases_per_s"] = [sum(op.get("cases", 0) for op in r["ops"]) / wall
                                  for r, wall in zip(results, walls)]
    if workload == "verify-sampled":
        samples["samples_per_s"] = [
            sum(op["samples"] for op in r["ops"])
            / sum(op["seconds"] for op in r["ops"] if op["samples"])
            for r in results]
    return samples


def per_layer(plain: dict, traced: dict, names) -> dict[str, float]:
    """Per-layer metrics of a traced pass; ``plain`` is the untraced pass."""
    traced_ops = traced["ops"]
    extras = {
        "trace.overhead_s": sum(op["seconds"] for op in traced_ops)
        - sum(op["seconds"] for op in plain["ops"]),
        "verify.cases": sum(op.get("cases", 0) for op in traced_ops),
        "verify.cases_failed": sum(op.get("cases_failed", 0) for op in traced_ops),
        "cli.output_bytes": sum(op.get("out_bytes", 0) for op in traced_ops),
    }
    return per_layer_metrics(traced["trace"], names, extras)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "carrieslab" / "__init__.py").is_file():
        print(f"run.py: no carrieslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "digests.json").read_text())
    WORK.mkdir(exist_ok=True)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            *_, plain = spawn(args.workload, args.seed, deadline)
            *_, traced = spawn(args.workload, args.seed, deadline, spans=spans)
            results, setups = [plain, traced], []
        else:
            setups = [spawn(args.workload, args.seed, deadline, setup_only=True)[:2]
                      for _ in range(SETUP_SPAWNS)]
            results = []
            begin = time.perf_counter()
            longest = 0.0
            while True:
                pass_start = time.perf_counter()
                *setup, result = spawn(args.workload, args.seed, deadline)
                setups.append(setup)
                results.append(result)
                now = time.perf_counter()
                longest = max(longest, now - pass_start)
                if now + longest > deadline or (len(results) >= MIN_PASSES
                                                and now - begin + longest > args.seconds):
                    break
            setups += [spawn(args.workload, args.seed, deadline, setup_only=True)[:2]
                       for _ in range(SETUP_SPAWNS)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = evaluate(
        [r["ops"] for r in results], pins["workloads"].get(args.workload, {}),
        check_seeded=args.seed == pins["seed"])
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(plain, traced, [m["name"] for m in declared])
        summary = {name: [value] for name, value in values.items()}
    else:
        declared = spec["end_to_end"]
        summary = end_to_end(args.workload, setups, results)
    summary["fail_ratio"] = [failed / attempted]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(wall_s="s", setup_wall_s="s", fail_ratio="1", cases_per_s="1/s", samples_per_s="1/s")
    sha = git_sha()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(results)}  samples {workloads.SAMPLES}  "
          f"python {platform.python_version()}  git {sha[:12]}")
    for name, values in summary.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:48s} {median:14.6g} {units[name]:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")

    metrics = {m["name"]: {"value": statistics.median(summary[m["name"]]), "unit": m["unit"]}
               for m in declared}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": workloads.SAMPLES, "n_grid": list(workloads.N_GRID),
        "python": platform.python_version(), "git_sha": sha,
        "elapsed_s": time.perf_counter() - started, "summary": summary,
        "problems": problems, "passes": results, "result": line,
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
