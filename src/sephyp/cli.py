"""Command-line surface.

Subcommands: decide, verify, analyze, matroid, oracle-decide, adversary,
enumerate, search-cert. Exit codes are a stable contract:

    0   success
    2   certificate invalid (verify)
    64  parse error or unusable instance file
    65  budget exceeded
    66  flag or operation inapplicable to the instance
    67  matroid-requiring subcommand on a non-matroid
    70  internal verification failure (a bug, not user error)

SEPHYP_BUDGET (an integer of absolute value at most 10**100) replaces the
default cap of each budget below except the last two; each but the last is
checked before its loop starts, on the work that loop will do, and the last
on each Fourier-Motzkin stage once it is built:

    operation                               counts                default
    any building the C(n,k) k-set universe  k-sets                200000
    enumerate                               instances, 2^C(n,k)   2^24
    analyze --monotone, --summable          pairs and lookups     4000000
    matroid circuits, matroid binary        ground subsets, 2^n   2^22
    search-cert                             support combinations  5000000
    decide --method fm                      vertices              6
    decide --method fm                      rows of one stage     200000
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb
from typing import Optional

from . import __version__
from .errors import (
    BudgetExceeded,
    FormatError,
    Inapplicable,
    InternalVerificationError,
    NotAMatroid,
    RankCollapse,
    RankZero,
    SephypError,
)
from .feasibility import (
    EquatableCertificate,
    SeparableCertificate,
    decide,
    decide_fm,
    equatable_violation,
    find_binary_certificate,
    separating_violation,
)
from .harness import ALL_CHECKS, CLASSES, run_enumeration
from .hypercore import (
    Hypergraph,
    find_summable_quadruple,
    graph_orderable,
    is_exchangeable,
    is_multipartite,
    is_r_monotone,
)
from .jsonio import (
    certificate_obj,
    dumps,
    parse_certificate,
    parse_instance,
    parse_partition,
)
from .matroid import (
    BasisMatroid,
    circuits,
    exchange_violation,
    from_gf2_matrix,
    from_graph,
    gf2_rank,
    is_binary,
    is_paving,
    lines,
    loops,
    oracle_from_matroid,
)
from .oracle_algorithms import (
    build_adversary,
    decide_binary_via_oracle,
    run_indistinguishability_check,
    strategy_binary_algorithm,
    strategy_no_queries,
)

EXIT_OK = 0
EXIT_INVALID_CERT = 2
EXIT_PARSE = 64
EXIT_BUDGET = 65
EXIT_INAPPLICABLE = 66
EXIT_NOT_MATROID = 67
EXIT_INTERNAL = 70

# The exit code and stderr label of each library error that main reports as a
# refusal; any other error propagates.
REFUSALS: tuple[tuple[type[SephypError], int, str], ...] = (
    (FormatError, EXIT_PARSE, "parse error"),
    (BudgetExceeded, EXIT_BUDGET, "budget exceeded"),
    (Inapplicable, EXIT_INAPPLICABLE, "inapplicable"),
    (NotAMatroid, EXIT_NOT_MATROID, "not a matroid"),
    (InternalVerificationError, EXIT_INTERNAL, "internal verification failure"),
)


def _env_budget() -> Optional[int]:
    raw = os.environ.get("SEPHYP_BUDGET")
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise FormatError(f"SEPHYP_BUDGET must be an integer, got {raw!r}")
    # past this a cap is unlimited in practice, and cap + 1 may not print
    if abs(budget) > 10 ** 100:
        raise FormatError("SEPHYP_BUDGET must be at most 10**100 in absolute value")
    return budget


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8: {exc}")


def _load_matroid(path: str, kind: str, instance, budget: Optional[int]):
    """A gf2 or graph instance's matroid (None for a free GF(2) matroid) and oracle."""
    try:
        if kind == "gf2":
            return from_gf2_matrix(instance, budget)
        matroid = from_graph(instance, budget)
        return matroid, oracle_from_matroid(matroid)
    except (RankZero, RankCollapse) as exc:
        raise FormatError(f"{path}: {exc}")


def _load_hypergraph(path: str, budget: Optional[int]) -> Hypergraph:
    """Parse an instance file and materialize it to a hypergraph."""
    kind, instance = parse_instance(_read(path))
    if kind == "hypergraph":
        return instance
    matroid, _ = _load_matroid(path, kind, instance, budget)
    if matroid is None:
        raise FormatError(f"{path}: GF(2) rank equals column count; no 1 <= k < n hypergraph exists")
    return matroid.carrier


def _emit(args: argparse.Namespace, text_lines: list[str], json_obj: dict) -> None:
    if args.output == "json":
        sys.stdout.write(dumps(json_obj))
    else:
        for line in text_lines:
            print(line)


def _cmd_decide(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.path, args.budget)
    if args.method == "fm":
        cert = decide_fm(h)
    else:
        cert = decide(h, args.budget)
    if args.certificate_out:
        with open(args.certificate_out, "w", encoding="utf-8") as fh:
            fh.write(dumps(certificate_obj(cert)))
    _emit(args, [cert.kind], {"kind": cert.kind, "certificate": certificate_obj(cert)})
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.instance, args.budget)
    cert = parse_certificate(_read(args.certificate))
    if isinstance(cert, SeparableCertificate):
        if len(cert.x) != h.n:
            _emit(args, [f"invalid: labeling has {len(cert.x)} entries, expected {h.n}"],
                  {"valid": False, "violation": "length mismatch"})
            return EXIT_INVALID_CERT
        bad = separating_violation(h, cert.x)
        if bad is not None:
            side = "edge" if bad in h.edges else "non-edge"
            detail = f"{side} {''.join(map(str, bad)) if h.n < 10 else bad} violates the sign condition"
            _emit(args, [f"invalid: {detail}"], {"valid": False, "violation": {"set": list(bad)}})
            return EXIT_INVALID_CERT
    else:
        problem = equatable_violation(h, cert.as_dict())
        if problem is not None:
            _emit(args, [f"invalid: {problem}"], {"valid": False, "violation": problem})
            return EXIT_INVALID_CERT
    _emit(args, ["valid"], {"valid": True})
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.path, args.budget)
    lines_out: list[str] = []
    obj: dict = {}
    if args.exchangeable:
        w = is_exchangeable(h)
        lines_out.append(f"exchangeable: {'yes' if w else 'no'}"
                         + (f" (e1={w.e1} e2={w.e2} v1={w.v1} v2={w.v2})" if w else ""))
        obj["exchangeable"] = (
            {"e1": list(w.e1), "e2": list(w.e2), "v1": w.v1, "v2": w.v2} if w else None
        )
    if args.summable:
        q = find_summable_quadruple(h, args.budget)
        lines_out.append(f"summable quadruple: {'yes' if q else 'no'}"
                         + (f" (e1={q.e1} e2={q.e2} f1={q.f1} f2={q.f2})" if q else ""))
        obj["summable"] = (
            {"e1": list(q.e1), "e2": list(q.e2), "f1": list(q.f1), "f2": list(q.f2)} if q else None
        )
    if args.monotone is not None:
        result = is_r_monotone(h, args.monotone, args.budget)
        lines_out.append(f"{args.monotone}-monotone: {'yes' if result else 'no'}")
        obj["monotone"] = {"r": args.monotone, "value": result}
    if args.orderable:
        ordering = graph_orderable(h)  # NotAGraph -> exit 66
        lines_out.append(f"orderable: {'yes' if ordering else 'no'}"
                         + (f" (order={list(ordering.order)} tags={list(ordering.tags)})" if ordering else ""))
        obj["orderable"] = (
            {"order": list(ordering.order), "tags": list(ordering.tags)} if ordering else None
        )
    if args.multipartite:
        partition = parse_partition(_read(args.multipartite))
        result = is_multipartite(h, partition)  # InvalidPartition -> exit 66
        lines_out.append(f"multipartite: {'yes' if result else 'no'}")
        obj["multipartite"] = result
    _emit(args, lines_out, obj)
    return EXIT_OK


def _cmd_matroid(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.path, args.budget)
    if args.subcommand == "verify":
        if not h.edges:
            _emit(args, ["matroid: no (empty edge set)"], {"matroid": False, "violation": "empty"})
            return EXIT_OK
        bad = exchange_violation(h)
        if bad is not None:
            _emit(
                args,
                [f"matroid: no (E1={bad[0]} E2={bad[1]} v1={bad[2]} has no exchange)"],
                {"matroid": False, "violation": {"e1": list(bad[0]), "e2": list(bad[1]), "v1": bad[2]}},
            )
            return EXIT_OK
        _emit(args, ["matroid: yes"], {"matroid": True})
        return EXIT_OK

    m = BasisMatroid(h)  # NotAMatroid -> exit 67
    if args.subcommand == "paving":
        result = is_paving(m)
        _emit(args, [f"paving: {'yes' if result else 'no'}"], {"paving": result})
    elif args.subcommand == "binary":
        result = is_binary(m, args.budget)
        _emit(args, [f"binary: {'yes' if result else 'no'}"], {"binary": result})
    elif args.subcommand == "lines":
        decomposition = lines(m)  # HasLoops -> exit 66
        _emit(
            args,
            [f"lines: {' '.join(str(list(p)) for p in decomposition.lines)}",
             f"nontrivial: {decomposition.nontrivial_count}"],
            {"lines": [list(p) for p in decomposition.lines],
             "nontrivial_count": decomposition.nontrivial_count},
        )
    elif args.subcommand == "circuits":
        circ = circuits(m, args.budget)
        _emit(args, [f"circuits: {' '.join(str(list(c)) for c in circ)}"],
              {"circuits": [list(c) for c in circ]})
    elif args.subcommand == "loops":
        loop_set = sorted(loops(m))
        _emit(args, [f"loops: {loop_set}"], {"loops": loop_set})
    return EXIT_OK


def _cmd_oracle_decide(args: argparse.Namespace) -> int:
    kind, instance = parse_instance(_read(args.path))
    if kind == "hypergraph":
        raise Inapplicable("oracle-decide requires a gf2 or graph instance")
    matroid, oracle = _load_matroid(args.path, kind, instance, args.budget)
    n, k = (matroid.n, matroid.k) if matroid is not None else (instance.cols, gf2_rank(instance.column_masks()))
    oracle.max_queries = args.max_queries
    decision = decide_binary_via_oracle(n, k, oracle)
    lines_out = [f"verdict: {decision.verdict}", f"queries: {decision.queries_used}"]
    obj = {
        "verdict": decision.verdict,
        "queries": decision.queries_used,
        "trace": [[list(q), a] for q, a in decision.trace],
    }
    if matroid is not None:
        lp_kind = decide(matroid.carrier, args.budget).kind
        agrees = lp_kind == decision.verdict
        lines_out.append(f"cross-check: {lp_kind} ({'agrees' if agrees else 'DISAGREES'})")
        obj["cross_check"] = lp_kind
        if not agrees:
            _emit(args, lines_out, obj)
            raise InternalVerificationError("oracle verdict disagrees with LP decision")
    _emit(args, lines_out, obj)
    return EXIT_OK


def _report_obj(report) -> dict:
    return {
        "verdict": report.verdict,
        "queries": report.queries,
        "trace": [[list(q), a] for q, a in report.trace],
        "unqueried_pair": [list(report.unqueried_pair[0]), list(report.unqueried_pair[1])]
        if report.unqueried_pair
        else None,
        "kset_queries": [list(q) for q in report.kset_queries],
        "consistent_with_h2": report.consistent_with_h2,
        "pairs_total": report.pairs_total,
        "pairs_touched": report.pairs_touched,
        "threshold_queries": report.query_threshold,
        "threshold_pairs": report.pair_threshold,
        "alternative_kind": report.alternative_kind,
        "budget_exhausted": report.budget_exhausted,
    }


def _cmd_adversary(args: argparse.Namespace) -> int:
    inst = build_adversary(args.k, args.budget)
    strategies = [("no-queries", strategy_no_queries), ("binary-algorithm", strategy_binary_algorithm)]
    query_budget = args.query_budget if args.query_budget is not None else 4 ** args.k + 100
    lines_out = [
        f"adversary k={inst.k}: h2 = complete minus {{{inst.f1}, {inst.f2}}}",
        f"thresholds: queries 2^k-1 = {2 ** inst.k - 1}, pairs C(2k,k)/2 = {comb(2 * inst.k, inst.k) // 2}",
    ]
    obj: dict = {
        "k": inst.k,
        "f1": list(inst.f1),
        "f2": list(inst.f2),
        "threshold_queries": 2 ** inst.k - 1,
        "threshold_pairs": comb(2 * inst.k, inst.k) // 2,
        "strategies": {},
    }
    for name, strat in strategies:
        report = run_indistinguishability_check(inst, strat, query_budget)
        obj["strategies"][name] = _report_obj(report)
        lines_out.append(
            f"[{name}] verdict={report.verdict} queries={report.queries} "
            f"k-set queries={len(report.kset_queries)} pairs touched={report.pairs_touched}/{report.pairs_total}"
        )
        if report.unqueried_pair:
            lines_out.append(
                f"[{name}] unqueried pair {report.unqueried_pair[0]} / {report.unqueried_pair[1]}"
                f" -> alternative instance is {report.alternative_kind}; any fixed verdict is wrong on one side"
            )
        else:
            lines_out.append(f"[{name}] no unqueried pair; indistinguishability not established")
    _emit(args, lines_out, obj)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    checks = ALL_CHECKS if args.check == "theorems" else frozenset()
    report = run_enumeration(args.n, args.k, args.klass, checks, args.budget)
    lines_out = [
        f"n={report.n} k={report.k} class={report.klass}",
        "counts: " + " ".join(f"{key}={val}" for key, val in report.counts.items()),
    ]
    if report.violations:
        first = report.violations[0]
        lines_out.append(f"VIOLATION [{first['check']}]: {first['detail']}")
        lines_out.append(f"instance edges: {first['edges']}")
        _emit(args, lines_out, report.as_obj())
        print("theorem violation found; this is a bug in the build", file=sys.stderr)
        return EXIT_INTERNAL
    lines_out.append("violations: none")
    _emit(args, lines_out, report.as_obj())
    return EXIT_OK


def _cmd_search_cert(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.path, args.budget)
    support = args.max_support if args.max_support is not None else 2 * h.k
    labeling = find_binary_certificate(h, support, args.budget)
    if labeling is None:
        _emit(
            args,
            [f"no 0/1 certificate with support <= {support} found (not a disproof of existence)"],
            {"found": False, "max_support": support},
        )
        return EXIT_OK
    cert = EquatableCertificate(tuple(sorted(labeling.items())))
    _emit(
        args,
        [f"found 0/1 certificate with {len(labeling)} ones: " + " ".join(str(list(g)) for g, _ in cert.y)],
        {"found": True, "max_support": support, "certificate": certificate_obj(cert)},
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sephyp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sephyp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("decide", help="classify an instance as separable or equatable")
    p.add_argument("path")
    p.add_argument("--certificate-out", dest="certificate_out")
    p.add_argument("--method", choices=("lp", "fm"), default="lp")
    add_output(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("instance")
    p.add_argument("certificate")
    add_output(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("analyze", help="combinatorial predicates and witnesses")
    p.add_argument("path")
    p.add_argument("--exchangeable", action="store_true")
    p.add_argument("--summable", action="store_true")
    p.add_argument("--monotone", type=int)
    p.add_argument("--orderable", action="store_true")
    p.add_argument("--multipartite", metavar="PARTITION_JSON")
    add_output(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("matroid", help="matroid predicates and structures")
    p.add_argument("subcommand", choices=("verify", "paving", "binary", "lines", "circuits", "loops"))
    p.add_argument("path")
    add_output(p)
    p.set_defaults(fn=_cmd_matroid)

    p = sub.add_parser("oracle-decide", help="query-only separability for binary matroids")
    p.add_argument("path")
    p.add_argument("--max-queries", dest="max_queries", type=int)
    add_output(p)
    p.set_defaults(fn=_cmd_oracle_decide)

    p = sub.add_parser("adversary", help="paving-matroid lower-bound demonstration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--query-budget", dest="query_budget", type=int)
    add_output(p)
    p.set_defaults(fn=_cmd_adversary)

    p = sub.add_parser("enumerate", help="exhaustive corpus counts and law checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--class", dest="klass", choices=CLASSES, default="all")
    p.add_argument("--check", choices=("theorems",))
    add_output(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("search-cert", help="search for a small 0/1 equatability certificate")
    p.add_argument("path")
    p.add_argument("--max-support", dest="max_support", type=int)
    add_output(p)
    p.set_defaults(fn=_cmd_search_cert)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.budget = _env_budget()
        return args.fn(args)
    except SephypError as exc:
        for cls, code, label in REFUSALS:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
