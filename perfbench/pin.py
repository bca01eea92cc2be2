"""Pin the output digest of every benchmark operation at the default seed.

    python3 perfbench/pin.py

Runs one untraced pass of each workload and writes perfbench/digests.json.
Refuses to pin if any operation fails its own check.  Re-pin only for a
change that is meant to alter outputs, and say so where the change is
described; a change that claims a speed-up must leave the digests as they are.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from run import HERE, RUN_LIMIT_S, WORK, spawn


def main() -> int:
    WORK.mkdir(exist_ok=True)
    pinned = {}
    for name in workloads.NAMES:
        *_, result = spawn(name, workloads.DEFAULT_SEED, time.perf_counter() + RUN_LIMIT_S)
        bad = [op["name"] for op in result["ops"] if not op["ok"]]
        if bad:
            print(f"pin.py: {name}: failing operations {bad}", file=sys.stderr)
            return 1
        pinned[name] = {op["name"]: op["digest"] for op in result["ops"]}
    text = json.dumps({"seed": workloads.DEFAULT_SEED, "workloads": pinned}, indent=1)
    (HERE / "digests.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
