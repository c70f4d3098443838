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


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_spans_install():
    # every name the --trace 1 pass wraps must still exist in the package
    bench = load_bench()
    tracer = bench.Tracer()
    try:
        bench.install_spans(bench.import_package(), tracer)
    finally:
        tracer.uninstall()


def test_bench_spans_see_the_law_checks():
    # the law checks call the library through the names the spans wrap, with
    # the run's proven budget and tables, so no call routes around a span
    bench = load_bench()
    pkg = bench.import_package()
    tracer = bench.Tracer()
    try:
        bench.install_spans(pkg, tracer)
        pkg.harness.run_enumeration(5, 3, "matroids", pkg.harness.ALL_CHECKS)
    finally:
        tracer.uninstall()
    spans = ("hypercore.find_summable_quadruple", "hypercore.is_r_monotone", "hypercore.is_exchangeable",
             "matroid.is_binary", "matroid.lines", "matroid.delete")
    assert {name: tracer.calls[name] > 0 for name in spans} == dict.fromkeys(spans, True)
