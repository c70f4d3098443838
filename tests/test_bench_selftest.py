"""The benchmark's own gate self-test, run in a child so that a change to a
signature the benchmark relies on fails this suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # cwd is the repository root: the cli-mix gate reads fixtures/ relative to it
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, (done.stdout + done.stderr).decode()
