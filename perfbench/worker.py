"""One benchmark pass in a fresh process.

Set-up (interpreter start, ``import carrieslab``, building the workload's
inputs, and installing the tracer for a traced pass) ends with a ``READY``
line on stdout, from which the parent times set-up.  The worker then runs
the speed probe (``setup_probe_s``), runs every operation once, one after
another, and prints its result as one JSON line.  With ``--setup-only`` it
prints only ``setup_probe_s``, as a JSON line, and exits.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--trace SPANS] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402  (perfbench/ is the script directory)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_ops(ops, gauged: bool = True) -> list[dict]:
    """Call each operation in turn; time the call, then check its output untimed.

    With ``gauged`` a ``probe.Gauge`` probes the host's speed around and
    during each call: its mean probe time is the call's ``probe_s``, and the
    probes' own time is taken off the call's ``seconds``.
    """
    results = []
    for op in ops:
        entry = {"name": op.name, "seeded": op.seeded, "samples": op.samples}
        gauge = probe.Gauge() if gauged else None
        if gauge is not None:
            gauge.start()
        error = None
        start = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # a raising call is a failed operation, not a crash
            error = exc
        seconds = time.perf_counter() - start
        if gauge is not None:
            seconds -= gauge.stop()
        entry["seconds"] = seconds
        if error is not None:
            entry.update(ok=False, digest="", error=repr(error))
        else:
            try:
                entry.update(vars(op.check(value)))
            except Exception as exc:  # missing or malformed output
                entry.update(ok=False, digest="", error=repr(exc))
        if gauge is not None:
            entry["probe_s"] = gauge.close()
        results.append(entry)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None, metavar="SPANS",
                        help="trace the pass and write its spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import carrieslab
    import carrieslab.cli  # noqa: F401  (also imports carrieslab.verify)

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(carrieslab, args.workload, args.seed, args.workdir)
    tracer = Tracer() if args.trace is not None else None
    if tracer is not None:
        tracer.install(carrieslab)
    print("READY", flush=True)
    setup_probe_s = statistics.mean(probe.sample())
    if args.setup_only:
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return 0

    results = run_ops(ops, gauged=tracer is None)
    result = {
        "setup_probe_s": setup_probe_s,
        "ops": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.raw()
        args.trace.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
