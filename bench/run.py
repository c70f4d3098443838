#!/usr/bin/env python3
"""sephyp benchmark: run one workload, check every output, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it holds the
environment, the sample counts, the error rate and the workload's own
figures. With --trace 0 the metrics are the end-to-end ones, measured
untraced for --seconds seconds, counted on the scaled clock of the speed
probe so that a run does the same work whatever the load on the machine. With --trace 1 a fixed amount of the
workload runs once traced and once untraced; the metrics are the per-layer
ones from the traced pass, and the spans are written to .bench_trace/.

Load is one process, one client and a closed loop: each operation starts
after the previous one returned, and cli-mix runs one child process at a
time.

Workloads (see BENCHMARK.json for why each was chosen):
  decide-random       feasibility.decide on seeded random k-hypergraphs,
                      9 <= n <= 11, k in {3, 4}, half threshold instances
                      and half the same with a few k-sets flipped; each
                      certificate is re-verified and serialised.
  enumerate-matroids  harness.run_enumeration(6, 3, "matroids", ...) with
                      the law checks of acceptance criterion 3.
  cli-mix             ``python -m sephyp.cli ... --output json`` children over
                      fixtures/, one fixed mix in a seeded order per cycle.

End-to-end metrics and what they mean per workload:
  setup_s          process start to the first timed operation (import,
                   input generation, loading expected outputs); the median
                   of several fresh set-ups in child processes.
  peak_rss_mb      peak resident memory of the workload process, or of its
                   largest child for cli-mix.
  work_per_s       decides per second of decide time (decide_per_s), masks
                   scanned per second (masks_per_s), or CLI invocations per
                   second of invocation time.
  latency_ms_p50,  per decide call (decide_ms_p*), per corpus run, or per
  latency_ms_p90   CLI invocation from spawn to exit (cli_ms_p*).
Every timing is scaled to an uncontended core by a speed probe (see
speed.py) timed next to the workload; the raw wall-clock figures and the
scale factor are in the info line. Failures are counted in "failed"
out of "attempted" (error_rate in the info line); a metric must never be 0,
so the error rate is not one.

Maintenance: ``python3 bench/run.py --record-golden`` rewrites
bench/cli_golden.json, the exit codes and stdout cli-mix compares against.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "cli_golden.json"
TRACE_DIR = ROOT / ".bench_trace"

sys.path.insert(0, str(BENCH))
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 5
SPAWN_PROBES = 5
CHILD_TIMEOUT_S = 60

# decide-random
STRATA = [(n, k) for n in (9, 10, 11) for k in (3, 4)]
LABEL_RANGE = 9
FLIPS = 3
POOL_BLOCKS = 40
MIN_BLOCKS = 10  # 120 decides: at least 10 samples above p90, and a fixed digest set

# enumerate-matroids
ENUM_ARGS = (6, 3, "matroids")
ENUM_CHECKS = ("dichotomy", "quadruple", "theorems", "monotone", "loops", "lines", "circuit_elimination")
ENUM_EXPECTED = {
    "total": 2053,
    "separable": 883,
    "equatable": 1170,
    "exchangeable": 1170,
    "matroids": 2053,
    "paving": 352,
    "binary": 1395,
}

# cli-mix: 15 invocations, an odd count so that p50 and p90 fall inside one
# command's samples rather than on the boundary between two commands.
CLI_MIX = [
    ["decide", "fixtures/counterexample_nine.json"],
    ["decide", "fixtures/separable_six.json"],
    ["decide", "fixtures/equatable_six.json", "--method", "fm"],
    ["verify", "fixtures/separable_six.json", "fixtures/separable_six_x.json"],
    ["verify", "fixtures/counterexample_nine.json", "fixtures/counterexample_nine_y.json"],
    ["verify", "fixtures/paving_five.json", "fixtures/paving_five_y.json"],
    ["analyze", "fixtures/paving_five.json", "--exchangeable", "--summable", "--monotone", "2"],
    ["matroid", "binary", "fixtures/paving_five.json"],
    ["matroid", "paving", "fixtures/paving_five.json"],
    ["matroid", "lines", "fixtures/gf2_two_lines.json"],
    ["oracle-decide", "fixtures/gf2_two_lines.json"],
    ["oracle-decide", "fixtures/k4_graph.json"],
    ["adversary", "--k", "3"],
    ["search-cert", "fixtures/counterexample_nine.json"],
    ["enumerate", "--n", "4", "--k", "2", "--check", "theorems"],
]
CLI_SUBCOMMANDS = ["decide", "verify", "analyze", "matroid", "oracle-decide", "adversary", "search-cert", "enumerate"]
MIN_CYCLES = 8  # 120 invocations
TRACE_CYCLES = 2

MODULES = ("feasibility", "harness", "matroid", "hypercore", "oracle_algorithms", "jsonio", "cli")


def import_package() -> SimpleNamespace:
    if not (SRC / "sephyp" / "__init__.py").is_file():
        sys.stderr.write(f"sephyp sources not found under {SRC}; run from a source checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import importlib

    return SimpleNamespace(**{m: importlib.import_module(f"sephyp.{m}") for m in MODULES})


def timing_metrics(work: float, samples: list[float], factor: float) -> dict:
    """work_per_s and latency percentiles from per-operation seconds, each
    multiplied by factor. p90 needs ten samples above it, so with fewer than
    100 samples the maximum stands in for it."""
    scaled = sorted(s * factor for s in samples)
    if len(scaled) >= 100:
        p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
    else:
        p90 = scaled[-1]
    return {
        "work_per_s": (work / sum(scaled), "1/s"),
        "latency_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "latency_ms_p90": (p90 * 1e3, "ms"),
    }


def scaled_timing(work: float, samples: list[float], probe: SpeedProbe) -> tuple[dict, dict]:
    """Timing metrics scaled to an uncontended core, plus the raw figures."""
    factor = probe.factor()
    raw = {name: value for name, (value, _) in timing_metrics(work, samples, 1.0).items()}
    info = {"speed_factor": factor, "probe_samples": len(probe.samples), "raw": raw}
    return timing_metrics(work, samples, factor), info


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def report_exception(context: str) -> None:
    sys.stderr.write(f"{context}:\n{traceback.format_exc()}")


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, context: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"FAILED: {context}\n")


# ---------------------------------------------------------------------------
# decide-random
# ---------------------------------------------------------------------------


def threshold_edges(rng: random.Random, ksets: list, n: int, k: int) -> set:
    """k-sets of nonnegative sum under a random integer labeling, shifted so
    that about half the k-sets are edges: k*x - median sum instead of x. Near
    all-edge or no-edge instances are trivial, and mixing them in widens the
    spread of decide times between seeds."""
    x = [rng.randint(-LABEL_RANGE, LABEL_RANGE) for _ in range(n)]
    sums = sorted(sum(x[v - 1] for v in g) for g in ksets)
    median = sums[len(sums) // 2]
    y = [k * xv - median for xv in x]
    return {g for g in ksets if sum(y[v - 1] for v in g) >= 0}


def decide_random_setup(pkg, seed: int) -> list:
    """POOL_BLOCKS blocks; each holds, for every (n, k) stratum, a threshold
    instance and the same instance with FLIPS k-sets flipped, so any whole
    number of blocks has the same composition."""
    rng = random.Random(seed)
    Hypergraph = pkg.hypercore.Hypergraph
    blocks = []
    for _ in range(POOL_BLOCKS):
        block = []
        for n, k in STRATA:
            ksets = list(combinations(range(1, n + 1), k))
            edges = threshold_edges(rng, ksets, n, k)
            flipped = edges.symmetric_difference(rng.sample(ksets, FLIPS))
            block.append((Hypergraph(n, k, frozenset(edges)), True))
            block.append((Hypergraph(n, k, frozenset(flipped)), False))
        blocks.append(block)
    return blocks


def check_certificate(pkg, h, cert, threshold: bool) -> bool:
    """The public verifier accepts cert, and a threshold instance is separable."""
    if cert.kind == "separable":
        valid = pkg.feasibility.verify_separating(h, cert.x)
    else:
        valid = pkg.feasibility.verify_equatable(h, cert.as_dict())
    return valid and (cert.kind == "separable" or not threshold)


def decide_random_pass(pkg, blocks: list, seconds: float, min_blocks: int, tally: Tally,
                       probe: SpeedProbe | None = None) -> dict:
    decide_s: list[float] = []
    verify_s = 0.0
    digest = hashlib.sha256()
    done = 0
    begun = perf_counter()
    while done < min_blocks or (probe is not None and probe.elapsed_s() < seconds):
        for i, (h, threshold) in enumerate(blocks[done % len(blocks)]):
            try:
                t0 = perf_counter()
                cert = pkg.feasibility.decide(h)
                t1 = perf_counter()
                ok = check_certificate(pkg, h, cert, threshold)
                t2 = perf_counter()
                text = pkg.jsonio.dumps(pkg.jsonio.certificate_obj(cert))
            except Exception:
                report_exception(f"decide-random block {done} item {i}")
                tally.record(False, f"decide-random block {done} item {i}: exception")
                continue
            decide_s.append(t1 - t0)
            verify_s += t2 - t1
            if done < min_blocks:
                digest.update(text.encode())
            tally.record(ok, f"decide-random block {done} item {i}: certificate rejected or threshold not separable")
            if probe is not None:
                probe.sample()
        done += 1
    return {
        "elapsed_s": perf_counter() - begun,
        "blocks": done,
        "decide_s": decide_s,
        "verify_s": verify_s,
        "digest": digest.hexdigest(),
    }


def decide_random_measure(pkg, blocks, seconds, tally):
    probe = SpeedProbe()
    run = decide_random_pass(pkg, blocks, seconds, MIN_BLOCKS, tally, probe)
    samples = run["decide_s"]
    metrics, info = scaled_timing(len(samples), samples, probe)
    info.update({
        "samples": len(samples),
        "blocks": run["blocks"],
        "decide_per_s": metrics["work_per_s"][0],
        "decide_ms_p50": metrics["latency_ms_p50"][0],
        "decide_ms_p90": metrics["latency_ms_p90"][0],
        "verify_per_s": len(samples) / (run["verify_s"] * probe.factor()),
        "cert_digest": run["digest"],
        "cert_digest_instances": MIN_BLOCKS * len(STRATA) * 2,
    })
    return metrics, info


def decide_random_traced(pkg, blocks, tracer, tally):
    def run_block(block, traced):
        return decide_random_pass(pkg, [block], 0, 1, tally)["elapsed_s"]

    traced, plain = traced_and_plain(pkg, tracer, blocks[:MIN_BLOCKS], run_block)
    return traced, plain, {"samples": MIN_BLOCKS * len(blocks[0])}


# ---------------------------------------------------------------------------
# enumerate-matroids
# ---------------------------------------------------------------------------


def check_enumeration(report) -> bool:
    return report.counts == ENUM_EXPECTED and not report.violations


def enumerate_once(pkg, tally: Tally, probe: SpeedProbe | None = None) -> float:
    """Seconds for one corpus run, less any reference loops run inside it."""
    probed = probe.spent_s if probe is not None else 0.0
    t0 = perf_counter()
    try:
        report = pkg.harness.run_enumeration(*ENUM_ARGS, ENUM_CHECKS)
    except Exception:
        report = None
    elapsed = perf_counter() - t0 - ((probe.spent_s - probed) if probe is not None else 0.0)
    if report is None:
        report_exception("enumerate-matroids")
        tally.record(False, "enumerate-matroids: exception")
        return elapsed
    tally.record(check_enumeration(report),
                 f"enumerate-matroids: counts {report.counts}, {len(report.violations)} violations")
    return elapsed


def enumerate_measure(pkg, state, seconds, tally):
    masks = 1 << comb(ENUM_ARGS[0], ENUM_ARGS[1])
    times: list[float] = []
    probe = SpeedProbe()
    with probe.periodic():
        # Start another corpus run only if it should end within the time given.
        while not times or probe.elapsed_s() + statistics.mean(times) * probe.factor() <= seconds:
            times.append(enumerate_once(pkg, tally, probe))
    metrics, info = scaled_timing(masks * len(times), times, probe)
    info.update({"samples": len(times), "masks_per_s": metrics["work_per_s"][0], "corpus_s": times})
    return metrics, info


def enumerate_traced(pkg, state, tracer, tally):
    traced, plain = traced_and_plain(pkg, tracer, [None], lambda unit, traced: enumerate_once(pkg, tally))
    return traced, plain, {"samples": 1}


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def run_cli_child(argv: list[str]) -> tuple[float, int, str]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sephyp.cli", *argv, "--output", "json"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return perf_counter() - t0, proc.returncode, proc.stdout


def check_cli(golden: dict, argv: list[str], code: int, stdout: str) -> bool:
    expected = golden[cli_key(argv)]
    return code == expected["exit"] and stdout == expected["stdout"]


def shuffled_mix(rng: random.Random) -> list[list[str]]:
    cycle = list(CLI_MIX)
    rng.shuffle(cycle)
    return cycle


def cli_measure(golden, seed, seconds, tally):
    times: list[float] = []
    cycles = 0
    rng = random.Random(seed)
    probe = SpeedProbe()
    while cycles < MIN_CYCLES or probe.elapsed_s() < seconds:
        for argv in shuffled_mix(rng):
            try:
                elapsed, code, out = run_cli_child(argv)
            except subprocess.SubprocessError:
                report_exception(f"cli-mix {cli_key(argv)}")
                tally.record(False, f"cli-mix {cli_key(argv)}: child did not finish")
                continue
            times.append(elapsed)
            tally.record(check_cli(golden, argv, code, out), f"cli-mix {cli_key(argv)}: exit {code} or stdout differs")
            # Between children, not during them: the reference loop would
            # share the cores with the child and measure that instead.
            probe.sample()
        cycles += 1
    metrics, info = scaled_timing(len(times), times, probe)
    info.update({
        "samples": len(times),
        "cycles": cycles,
        "cli_ms_p50": metrics["latency_ms_p50"][0],
        "cli_ms_p90": metrics["latency_ms_p90"][0],
    })
    return metrics, info


def cli_in_process(pkg, golden, order, tally, main_s: dict) -> float:
    """Run the mix through cli.main in this process; returns the wall time."""
    begun = perf_counter()
    for cycle in order:
        for argv in cycle:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = pkg.cli.main([*argv, "--output", "json"])
            except Exception:
                report_exception(f"cli-mix in-process {cli_key(argv)}")
                tally.record(False, f"cli-mix in-process {cli_key(argv)}: exception")
                continue
            main_s.setdefault(argv[0], []).append(perf_counter() - t0)
            tally.record(check_cli(golden, argv, code, out.getvalue()),
                         f"cli-mix in-process {cli_key(argv)}: exit {code} or stdout differs")
    return perf_counter() - begun


def cli_traced(pkg, golden, seed, tracer, tally):
    rng = random.Random(seed)
    main_s: dict[str, list[float]] = {}

    def run_cycle(cycle, traced):
        return cli_in_process(pkg, golden, [cycle], tally, {} if traced else main_s)

    cycles = [shuffled_mix(rng) for _ in range(TRACE_CYCLES)]
    traced, plain = traced_and_plain(pkg, tracer, cycles, run_cycle)
    info = {"samples": sum(len(v) for v in main_s.values()),
            "main_ms": {sub: 1e3 * sum(v) / len(v) for sub, v in main_s.items()}}
    return traced, plain, info


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

SPAN_NAMES = [
    "feasibility.decide",
    "feasibility.build_system",
    "feasibility.self_verify",
    "feasibility.verify",
    "feasibility.decide_fm",
    "feasibility.find_binary_certificate",
    "harness.run_enumeration",
    "harness.filter",
    "harness.materialize",
    "matroid.basis_matroid",
    "matroid.is_binary",
    "matroid.circuits",
    "matroid.lines",
    "matroid.delete",
    "matroid.from_gf2_matrix",
    "hypercore.is_exchangeable",
    "hypercore.find_summable_quadruple",
    "hypercore.is_r_monotone",
    "oracle_algorithms.decide_binary_via_oracle",
    "oracle_algorithms.build_adversary",
    "jsonio.parse_instance",
    "jsonio.certificate_obj",
    "jsonio.dumps",
    "cli.main",
]


def verifier_span(parent: str | None) -> str:
    """Verifier calls made by a decider are its self-verification."""
    if parent in ("feasibility.decide", "feasibility.decide_fm"):
        return "feasibility.self_verify"
    return "feasibility.verify"


def cert_bits(tracer: Tracer, cert) -> None:
    values = cert.x if cert.kind == "separable" else [v for _, v in cert.y]
    bits = max((abs(v.numerator).bit_length() for v in values), default=0)
    tracer.maxima["feasibility.cert_bits_max"] = max(tracer.maxima["feasibility.cert_bits_max"], bits)


def after_decide(tracer: Tracer, args, cert) -> None:
    h = args[0]
    tracer.counts["feasibility.rows"] += comb(h.n, h.k)
    cert_bits(tracer, cert)


def install_spans(pkg, tracer: Tracer) -> None:
    f, hz, m, hc, o, j, c = (pkg.feasibility, pkg.harness, pkg.matroid, pkg.hypercore,
                             pkg.oracle_algorithms, pkg.jsonio, pkg.cli)
    functions = [
        (f.decide, "feasibility.decide", {"after": after_decide}),
        (f.build_system, "feasibility.build_system", {}),
        (f.separating_violation, verifier_span, {}),
        (f.equatable_violation, verifier_span, {}),
        (f.decide_fm, "feasibility.decide_fm", {"after": lambda t, a, r: cert_bits(t, r)}),
        (f.find_binary_certificate, "feasibility.find_binary_certificate", {}),
        (hz.run_enumeration, "harness.run_enumeration", {}),
        (m.is_binary, "matroid.is_binary", {}),
        (m.circuits, "matroid.circuits", {}),
        (m.lines, "matroid.lines", {}),
        (m.delete, "matroid.delete", {}),
        (m.from_gf2_matrix, "matroid.from_gf2_matrix", {}),
        (hc.is_exchangeable, "hypercore.is_exchangeable", {}),
        (hc.find_summable_quadruple, "hypercore.find_summable_quadruple", {}),
        (hc.is_r_monotone, "hypercore.is_r_monotone", {}),
        (o.decide_binary_via_oracle, "oracle_algorithms.decide_binary_via_oracle", {}),
        (o.build_adversary, "oracle_algorithms.build_adversary", {}),
        (j.parse_instance, "jsonio.parse_instance", {}),
        (j.certificate_obj, "jsonio.certificate_obj", {}),
        (j.dumps, "jsonio.dumps", {}),
        (c.main, "cli.main", {}),
    ]
    for fn, name, options in functions:
        tracer.patch_function(fn, tracer.wrap(name, fn, **options), "sephyp")
    tables = hz.MaskTables
    methods = [
        (tables, "is_matroid_mask", "harness.filter", {"hot": True, "count": "harness.masks"}),
        (tables, "is_paving_mask", "harness.filter", {"hot": True}),
        (tables, "hypergraph", "harness.materialize", {"hot": True, "count": "harness.survivors"}),
        (m.BasisMatroid, "__post_init__", "matroid.basis_matroid", {}),
    ]
    for cls, attr, name, options in methods:
        tracer.patch_method(cls, attr, tracer.wrap(name, getattr(cls, attr), **options))

    query = m.IndependenceOracle.query

    def counted_query(oracle, subset):
        before = oracle.queries_used
        answer = query(oracle, subset)
        tracer.counts["oracle_algorithms.queries"] += oracle.queries_used - before
        return answer

    tracer.patch_method(m.IndependenceOracle, "query", counted_query)


def traced_and_plain(pkg, tracer: Tracer, units: list, run_unit) -> tuple[float, float]:
    """Run each unit traced and then untraced, alternating so that both see
    the same machine load; run_unit(unit, traced) returns its seconds.
    Returns the total seconds of each side."""
    traced = plain = 0.0
    for unit in units:
        install_spans(pkg, tracer)
        try:
            traced += run_unit(unit, True)
        finally:
            tracer.uninstall()
        plain += run_unit(unit, False)
    return traced, plain


def spawn_ms(code: str) -> float:
    """Median wall time of `python -c code` with the package importable."""
    times = []
    for _ in range(SPAWN_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                       timeout=CHILD_TIMEOUT_S, capture_output=True)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def layer_metrics(tracer: Tracer, traced_s: float, plain_s: float, main_ms: dict) -> dict:
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    masks = tracer.counts.get("harness.masks", 0)
    survivors = tracer.counts.get("harness.survivors", 0)
    metrics.update({
        "feasibility.rows": (tracer.counts.get("feasibility.rows", 0), "count"),
        "feasibility.cert_bits_max": (tracer.maxima.get("feasibility.cert_bits_max", 0), "bits"),
        "harness.masks": (masks, "count"),
        "harness.survivors": (survivors, "count"),
        "harness.filter_pass_ratio": (survivors / masks if masks else 0.0, "ratio"),
        "harness.decide.calls": (tracer.children_calls("feasibility.decide", "harness.run_enumeration"), "count"),
        "oracle_algorithms.queries": (tracer.counts.get("oracle_algorithms.queries", 0), "count"),
    })
    interp = spawn_ms("pass")
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (spawn_ms("import sephyp.cli") - interp, "ms")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.main_ms.{sub}"] = (main_ms.get(sub, 0.0), "ms")
    metrics["trace.e2e_s"] = (traced_s, "s")
    metrics["trace.self_sum_s"] = (tracer.self_sum_s(), "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

WORKLOADS = ("decide-random", "enumerate-matroids", "cli-mix")


def setup(pkg, workload: str, seed: int):
    if workload == "decide-random":
        return decide_random_setup(pkg, seed)
    if workload == "cli-mix":
        return load_golden()
    return None


def measure_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Median time from spawning a fresh benchmark process to its being
    ready for the first timed operation, scaled by a speed probe sampled
    between the spawns; returns (scaled, raw)."""
    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
        probe.sample()
    raw = statistics.median(times)
    return raw * probe.factor(), raw


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "loadavg_at_start": loadavg,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(pkg, args, state, tally: Tally) -> tuple[dict, dict]:
    """Returns (metrics as name -> (value, unit), info)."""
    w = args.workload
    if not args.trace:
        if w == "decide-random":
            metrics, info = decide_random_measure(pkg, state, args.seconds, tally)
        elif w == "enumerate-matroids":
            metrics, info = enumerate_measure(pkg, state, args.seconds, tally)
        else:
            metrics, info = cli_measure(state, args.seed, args.seconds, tally)
        usage = resource.RUSAGE_CHILDREN if w == "cli-mix" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024, "MB")
        scaled, raw = measure_setup_s(w, args.seed)
        metrics["setup_s"] = (scaled, "s")
        info["raw_setup_s"] = raw
        return metrics, info

    tracer = Tracer()
    main_ms: dict = {}
    if w == "decide-random":
        traced, plain, info = decide_random_traced(pkg, state, tracer, tally)
    elif w == "enumerate-matroids":
        traced, plain, info = enumerate_traced(pkg, state, tracer, tally)
    else:
        traced, plain, info = cli_traced(pkg, state, args.seed, tracer, tally)
        main_ms = info["main_ms"]
    metrics = layer_metrics(tracer, traced, plain, main_ms)
    gap = metrics["trace.e2e_s"][0] - metrics["trace.self_sum_s"][0]
    info.update({
        "traced_s": traced,
        "untraced_s": plain,
        "unattributed_s": gap,
        # The overhead is a difference of two noisy timings and can come out
        # negative when tracing costs less than the noise.
        "self_sum_within_overhead": abs(gap) <= abs(metrics["trace.overhead_s"][0]),
    })
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{w}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    info["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, info


def record_golden(pkg) -> None:
    golden = {}
    for argv in CLI_MIX:
        _, code, out = run_cli_child(argv)
        golden[cli_key(argv)] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-golden", action="store_true", help="rewrite bench/cli_golden.json")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_golden:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    pkg = import_package()
    if args.record_golden:
        record_golden(pkg)
        return 0
    if hasattr(os, "sched_setaffinity"):
        # One core for the benchmark, its children and the speed probe, so
        # that the probe measures the core the work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    state = setup(pkg, args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    env = environment(args, loadavg)
    tally = Tally()
    metrics, info = run_workload(pkg, args, state, tally)
    info.update({
        "environment": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0,
    })
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
