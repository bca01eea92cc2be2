"""Every demo script runs to completion against the package in src/ and prints what it did."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: sha256 of each demo's stdout: a changed table, value or line fails here, not only a crash.
STDOUT_SHA256 = {
    "amazing_matrix_tour.py": "63f0928af459441522aee3bfe3721b8d514f6a9a3975a21fc252f24664961f05",
    "descent_tables_tour.py": "d7f63b3d17964210f085605f03fdffc42a1d63cc38176c77019a958647ba7efd",
    "moments_walkthrough.py": "cf5f3f3298716ec9022126dc0ffce652098b624318abb30d821c4cd36cdc1a75",
    "shuffles_make_carries.py": "22428d240dd2f7a2cf0c4fe3331775f68632a664462a90fd1be43f0f0fe73e17",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
