"""The benchmark's own gate self-test, run in a child so that a change to a
signature the benchmark relies on fails this suite, and the benchmark's
tracing spans installed in process, so that a renamed function it wraps does."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # cwd is the repository root: the cli-mix gate reads fixtures/ relative to it
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, (done.stdout + done.stderr).decode()


def test_bench_spans_install():
    # every name the --trace 1 pass wraps must still exist in the package
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    tracer = bench.Tracer()
    try:
        bench.install_spans(bench.import_package(), tracer)
    finally:
        tracer.uninstall()
