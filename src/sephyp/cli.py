"""Command-line surface.

Subcommands: decide, verify, analyze, matroid, oracle-decide, adversary,
enumerate, search-cert. Exit codes are a stable contract:

    0   success
    2   certificate invalid (verify)
    64  parse error, usage error or unusable instance file
    65  budget exceeded
    66  flag or operation inapplicable to the instance
    67  matroid-requiring subcommand on a non-matroid
    70  internal verification failure (a bug, not user error)

SEPHYP_BUDGET (an integer of absolute value at most 10**100) replaces the
default cap of each budget below except the last four; each but the last is
checked before its loop starts, on the work that loop will do, and the last
on each Fourier-Motzkin stage once it is built:

    operation                               counts                default
    any building the C(n,k) k-set universe  k-sets                200000
      or verifying a separable certificate
    enumerate                               instances, 2^C(n,k)   2^24
    analyze --monotone, --summable          pairs and lookups     4000000
    analyze --exchangeable                  edge pairs times k^2  4000000
    basis exchange: matroid, adversary,     basis pairs, |B|^2    4000000
      every gf2 or graph instance           (the kept unit; the
                                            scan makes at most
                                            |B|*k*(n-k) lookups)
    matroid lines                           pairs times bases     4000000
    matroid circuits, matroid binary        lookups, |B|*k*(n-k)  4000000
    a hypergraph's edge masks, built once   64-bit words, one per 4000000
      for analyze --exchangeable,           64 vertices up to
      --summable, --monotone and every      each edge's largest
      matroid subcommand
    search-cert                             support combinations  5000000
    matroid loops, matroid lines,           vertices, n           1000000
      analyze --orderable
    enumerate: orbit tables (not changed    permutations times    200000
      by SEPHYP_BUDGET; past it, each       k-sets, n!*C(n,k)
      instance is decided on its own)
    decide: its packed tableau and price    64-bit words          4000000
      rows (not changed by SEPHYP_BUDGET)
    decide --method fm                      vertices, n           6
    decide --method fm                      rows of one stage     200000
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NoReturn, Optional

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
from .hypercore import (
    CLASSES,
    KSET_BUDGET,
    Hypergraph,
    capped_comb,
    check_budget,
    find_summable_quadruple,
    graph_orderable,
    is_exchangeable,
    is_multipartite,
    is_r_monotone,
    is_valid_exchange_witness,
    is_valid_graph_ordering,
    is_valid_summable_quadruple,
)

# Every other sephyp module is imported in the body of the command that runs
# it, so that a CLI process compiles only what its subcommand uses.

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


def _load(path: str, budget: Optional[int], allow_free: bool = False):
    """(hypergraph, matroid, oracle) of an instance file, each built once; (h, None, None) for a hypergraph. A free
    GF(2) matroid has no 1 <= k < n hypergraph: it is refused, or with allow_free gives (matrix, None, oracle)."""
    from .jsonio import parse_instance

    kind, instance = parse_instance(_read(path))
    if kind == "hypergraph":
        return instance, None, None
    from .matroid import from_gf2_matrix, from_graph, oracle_from_matroid

    try:
        if kind == "gf2":
            matroid, oracle = from_gf2_matrix(instance, budget)
        else:
            matroid = from_graph(instance, budget)
            oracle = oracle_from_matroid(matroid)
    except (RankZero, RankCollapse) as exc:
        raise FormatError(f"{path}: {exc}")
    if matroid is None and not allow_free:
        raise FormatError(f"{path}: GF(2) rank equals column count; no 1 <= k < n hypergraph exists")
    return (instance if matroid is None else matroid.carrier), matroid, oracle


def _emit(args: argparse.Namespace, text_lines: list[str], json_obj: dict) -> None:
    """Write the report to stdout. A reader that closed the pipe ends the
    report, not the command: stdout is pointed at devnull, so later writes and
    the flush at exit stay quiet, and the command returns its own exit code."""
    try:
        if args.output == "json":
            from .jsonio import dumps

            sys.stdout.write(dumps(json_obj))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_decide(args: argparse.Namespace) -> int:
    from .feasibility import decide, decide_fm
    from .jsonio import certificate_obj, dumps

    h = _load(args.path, args.budget)[0]
    cert = decide_fm(h) if args.method == "fm" else decide(h, args.budget)
    if args.certificate_out:
        try:
            with open(args.certificate_out, "w", encoding="utf-8") as fh:
                fh.write(dumps(certificate_obj(cert)))
        except OSError as exc:
            raise FormatError(f"cannot write {args.certificate_out}: {exc}")
    _emit(args, [cert.kind], {"kind": cert.kind, "certificate": certificate_obj(cert)})
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .feasibility import SeparableCertificate, equatable_violation, separating_violation
    from .jsonio import parse_certificate

    h = _load(args.instance, args.budget)[0]
    cert = parse_certificate(_read(args.certificate))
    if isinstance(cert, SeparableCertificate):
        if len(cert.x) != h.n:
            _emit(args, [f"invalid: labeling has {len(cert.x)} entries, expected {h.n}"],
                  {"valid": False, "violation": "length mismatch"})
            return EXIT_INVALID_CERT
        # the walk may visit every k-set: gated as decide's universe is, so what decide returns verifies
        check_budget(args.budget, KSET_BUDGET, lambda cap: [capped_comb(h.n, h.k, cap)],
                     "verifying over C({},{}) >= {count} k-sets", h.n, h.k)
        bad = separating_violation(h, cert.x)
        if bad is not None:
            side = "edge" if bad in h.edges else "non-edge"
            detail = f"{side} {''.join(map(str, bad)) if h.n < 10 else bad} violates the sign condition"
            _emit(args, [f"invalid: {detail}"], {"valid": False, "violation": {"set": bad}})
            return EXIT_INVALID_CERT
    else:
        problem = equatable_violation(h, cert.as_dict())
        if problem is not None:
            _emit(args, [f"invalid: {problem}"], {"valid": False, "violation": problem})
            return EXIT_INVALID_CERT
    _emit(args, ["valid"], {"valid": True})
    return EXIT_OK


def _checked(h: Hypergraph, witness, valid: Callable[[Hypergraph, object], bool], what: str):
    """witness, or None, once valid(h, witness) accepts it; else InternalVerificationError."""
    if witness is not None and not valid(h, witness):
        raise InternalVerificationError(f"the {what} found fails its check")
    return witness


def _cmd_analyze(args: argparse.Namespace) -> int:
    h = _load(args.path, args.budget)[0]
    lines_out: list[str] = []
    obj: dict = {}
    if args.exchangeable:
        w = _checked(h, is_exchangeable(h, args.budget), is_valid_exchange_witness, "exchange witness")
        lines_out.append(f"exchangeable: {'yes' if w else 'no'}"
                         + (f" (e1={w.e1} e2={w.e2} v1={w.v1} v2={w.v2})" if w else ""))
        obj["exchangeable"] = vars(w) if w else None
    if args.summable:
        q = _checked(h, find_summable_quadruple(h, args.budget), is_valid_summable_quadruple, "summable quadruple")
        lines_out.append(f"summable quadruple: {'yes' if q else 'no'}"
                         + (f" (e1={q.e1} e2={q.e2} f1={q.f1} f2={q.f2})" if q else ""))
        obj["summable"] = vars(q) if q else None
    if args.monotone is not None:
        result = is_r_monotone(h, args.monotone, args.budget)
        lines_out.append(f"{args.monotone}-monotone: {'yes' if result else 'no'}")
        obj["monotone"] = {"r": args.monotone, "value": result}
    if args.orderable:
        ordering = _checked(h, graph_orderable(h, args.budget), is_valid_graph_ordering, "ordering")  # NotAGraph -> 66
        lines_out.append(f"orderable: {'yes' if ordering else 'no'}"
                         + (f" (order={list(ordering.order)} tags={list(ordering.tags)})" if ordering else ""))
        obj["orderable"] = vars(ordering) if ordering else None
    if args.multipartite:
        from .jsonio import parse_partition

        partition = parse_partition(_read(args.multipartite))
        result = is_multipartite(h, partition)  # InvalidPartition -> exit 66
        lines_out.append(f"multipartite: {'yes' if result else 'no'}")
        obj["multipartite"] = result
    _emit(args, lines_out, obj)
    return EXIT_OK


def _cmd_matroid(args: argparse.Namespace) -> int:
    from .matroid import BasisMatroid, circuits, exchange_violation, is_binary, is_paving, lines, loops

    h, m, _ = _load(args.path, args.budget)
    if args.subcommand == "verify":
        if not h.edges:
            _emit(args, ["matroid: no (empty edge set)"], {"matroid": False, "violation": "empty"})
            return EXIT_OK
        bad = exchange_violation(h, args.budget) if m is None else None  # a loaded matroid passed it when built
        if bad is not None:
            _emit(args, [f"matroid: no (E1={bad[0]} E2={bad[1]} v1={bad[2]} has no exchange)"],
                  {"matroid": False, "violation": dict(zip(("e1", "e2", "v1"), bad))})
            return EXIT_OK
        _emit(args, ["matroid: yes"], {"matroid": True})
        return EXIT_OK

    if m is None:
        m = BasisMatroid(h, args.budget)  # NotAMatroid -> exit 67
    if args.subcommand == "paving":
        result = is_paving(m)
        _emit(args, [f"paving: {'yes' if result else 'no'}"], {"paving": result})
    elif args.subcommand == "binary":
        result = is_binary(m, args.budget)
        _emit(args, [f"binary: {'yes' if result else 'no'}"], {"binary": result})
    elif args.subcommand == "lines":
        decomposition = lines(m, args.budget)  # HasLoops -> exit 66
        _emit(
            args,
            [f"lines: {' '.join(str(list(p)) for p in decomposition.lines)}",
             f"nontrivial: {decomposition.nontrivial_count}"],
            vars(decomposition),
        )
    elif args.subcommand == "circuits":
        circ = circuits(m, args.budget)
        _emit(args, [f"circuits: {' '.join(str(list(c)) for c in circ)}"], {"circuits": circ})
    elif args.subcommand == "loops":
        loop_set = sorted(loops(m, args.budget))
        _emit(args, [f"loops: {loop_set}"], {"loops": loop_set})
    return EXIT_OK


def _cmd_oracle_decide(args: argparse.Namespace) -> int:
    from .feasibility import decide
    from .oracle_algorithms import decide_binary_via_oracle

    instance, matroid, oracle = _load(args.path, args.budget, allow_free=True)
    if oracle is None:
        raise Inapplicable("oracle-decide requires a gf2 or graph instance")
    # a free GF(2) matroid has no BasisMatroid; its rank is its column count
    n, k = (matroid.n, matroid.k) if matroid is not None else (instance.cols, instance.cols)
    oracle.max_queries = args.max_queries
    decision = decide_binary_via_oracle(n, k, oracle)
    lines_out = [f"verdict: {decision.verdict}", f"queries: {decision.queries_used}"]
    obj = {"verdict": decision.verdict, "queries": decision.queries_used, "trace": decision.trace}
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


def _cmd_adversary(args: argparse.Namespace) -> int:
    from .oracle_algorithms import (build_adversary, run_indistinguishability_check, strategy_binary_algorithm,
                                    strategy_no_queries)

    inst = build_adversary(args.k, args.budget)
    strategies = [("no-queries", strategy_no_queries), ("binary-algorithm", strategy_binary_algorithm)]
    query_budget = args.query_budget if args.query_budget is not None else 4 ** args.k + 100
    reports = {name: run_indistinguishability_check(inst, strat, query_budget) for name, strat in strategies}
    first = reports["no-queries"]
    lines_out = [
        f"adversary k={inst.k}: h2 = complete minus {{{inst.f1}, {inst.f2}}}",
        f"thresholds: queries 2^k-1 = {first.threshold_queries}, pairs C(2k,k)/2 = {first.threshold_pairs}",
    ]
    obj = {"k": inst.k, "f1": inst.f1, "f2": inst.f2, "threshold_queries": first.threshold_queries,
           "threshold_pairs": first.threshold_pairs, "strategies": {name: vars(r) for name, r in reports.items()}}
    for name, report in reports.items():
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
    from .harness import ALL_CHECKS, run_enumeration

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
    from .feasibility import EquatableCertificate, find_binary_certificate
    from .jsonio import certificate_obj

    h = _load(args.path, args.budget)[0]
    support = args.max_support if args.max_support is not None else 2 * h.k
    labeling = find_binary_certificate(h, support, args.budget)
    if labeling is None:
        _emit(args, [f"no 0/1 certificate with support <= {support} found (not a disproof of existence)"],
              {"found": False, "max_support": support})
        return EXIT_OK
    cert = EquatableCertificate(tuple(sorted(labeling.items())))
    _emit(
        args,
        [f"found 0/1 certificate with {len(labeling)} ones: " + " ".join(str(list(g)) for g, _ in cert.y)],
        {"found": True, "max_support": support, "certificate": certificate_obj(cert)},
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error, not argparse's 2, which the contract gives to an invalid certificate; each
    subparser is one too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"parse error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sephyp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"sephyp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="classify an instance as separable or equatable")
    p.add_argument("path")
    p.add_argument("--certificate-out", dest="certificate_out")
    p.add_argument("--method", choices=("lp", "fm"), default="lp")

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("instance")
    p.add_argument("certificate")

    p = sub.add_parser("analyze", help="combinatorial predicates and witnesses")
    p.add_argument("path")
    p.add_argument("--exchangeable", action="store_true")
    p.add_argument("--summable", action="store_true")
    p.add_argument("--monotone", type=int)
    p.add_argument("--orderable", action="store_true")
    p.add_argument("--multipartite", metavar="PARTITION_JSON")

    p = sub.add_parser("matroid", help="matroid predicates and structures")
    p.add_argument("subcommand", choices=("verify", "paving", "binary", "lines", "circuits", "loops"))
    p.add_argument("path")

    p = sub.add_parser("oracle-decide", help="query-only separability for binary matroids")
    p.add_argument("path")
    p.add_argument("--max-queries", dest="max_queries", type=int)

    p = sub.add_parser("adversary", help="paving-matroid lower-bound demonstration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--query-budget", dest="query_budget", type=int)

    p = sub.add_parser("enumerate", help="exhaustive corpus counts and law checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--class", dest="klass", choices=CLASSES, default="all")
    p.add_argument("--check", choices=("theorems",))

    p = sub.add_parser("search-cert", help="search for a small 0/1 equatability certificate")
    p.add_argument("path")
    p.add_argument("--max-support", dest="max_support", type=int)

    for name, p in sub.choices.items():  # --output last, as every usage line shows it
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.set_defaults(fn=globals()["_cmd_" + name.replace("-", "_")])
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
