"""Command-line surface: solve, verify, bound, gen, reduce, xcheck.

Exit codes: 0 success, 1 infeasible or failed check, 2 format/usage error,
3 resource cap exceeded, 4 internal error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .bounds import DegreeProfile, bound_terms, effective_bound, lower_bound
from .certify import (
    Mode,
    _minimality,
    emit_certificate,
    parse_certificate,
    verify,
)
from .extremal import ExtremalSpec, build_extremal
from .graph import _MAX_COUNT, GraphFormatError, _factor_rounds, emit_graph, parse_graph
from .reductions import (
    MTDS,
    ONE_IN_THREE,
    emit_provenance,
    gadget_size,
    parse_cnf,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
)
from .solve import (
    CAP_EXCEEDED,
    DEFAULT_MAX_BRUTE_N,
    DEFAULT_NODE_BUDGET,
    INFEASIBLE,
    bnb_sigma,
    brute_force_sigma,
    brute_force_upper,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, the status of a writer killed by a closed pipe


def _record(**fields) -> dict:
    base = {
        "parameter": None,
        "k": None,
        "mode": None,
        "value": None,
        "status": None,
        "certificate": None,
        "nodes_explored": None,
        "bound_num": None,
        "bound_den": None,
    }
    base.update(fields)
    return base


class _FileError(Exception):
    """A file named on the command line could not be read or written."""


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc.strerror}") from None


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _FileError(f"cannot write {path}: {exc.strerror}") from None


def _emit(args, text_lines: Callable[[], list[str]], record: Callable[[], dict]) -> None:
    """Write the output in the chosen format: the JSON of record() for
    `--format structured`, else the lines of text_lines(). Only the format
    that is written is built."""
    if args.format == "structured":
        out = json.dumps(record(), indent=2, sort_keys=True) + "\n"
    else:
        out = "\n".join(text_lines()) + "\n"
    if getattr(args, "output", None):
        _write_text(args.output, out)
    else:
        sys.stdout.write(out)


def _cmd_solve(args) -> int:
    mode = Mode(args.mode)
    if args.param == "upper" and mode is not Mode.CLOSED:
        raise ValueError("upper signed k-domination is defined only in closed mode")
    g = parse_graph(_read_bytes(args.graph))
    name = "sigma_ks" if mode is Mode.CLOSED else "sigma_tks"
    if args.param == "upper":
        result = brute_force_upper(g, args.k, max_n=args.max_brute_n)
        name = "gamma_ks"
    elif args.algo == "bnb":
        result = bnb_sigma(g, args.k, mode, node_budget=args.node_budget)
    else:
        result = brute_force_sigma(g, args.k, mode, max_n=args.max_brute_n)

    def text_lines():
        lines = [f"status = {result.status}"]
        if result.value is not None:
            lines.insert(0, f"{name} = {result.value}")
        lines.append(f"nodes = {result.nodes_explored}")
        if result.certificate is not None:
            lines.append(emit_certificate(result.certificate, args.k, mode).rstrip("\n"))
        return lines

    def record():
        return _record(
            parameter=name,
            k=args.k,
            mode=mode.value,
            value=result.value,
            status=result.status,
            certificate=None if result.certificate is None else list(result.certificate.values),
            nodes_explored=result.nodes_explored,
        )

    _emit(args, text_lines, record)
    if result.status == CAP_EXCEEDED:
        return EXIT_CAP
    if result.status == INFEASIBLE:
        return EXIT_FAIL
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = parse_graph(_read_bytes(args.graph))
    cert_k, cert_mode, f = parse_certificate(_read_bytes(args.cert))
    k = args.k if args.k is not None else cert_k
    mode = Mode(args.mode) if args.mode else cert_mode
    if args.minimal and mode is not Mode.CLOSED:
        raise ValueError("minimality is only defined in closed mode")
    report = verify(g, k, mode, f)
    mreport = _minimality(g, k, f, report) if args.minimal and report.feasible else None
    minimal = None if mreport is None else mreport.minimal
    status = "feasible" if report.feasible else "infeasible"
    if minimal is False:
        status = "not_minimal"

    def text_lines():
        lines = [
            f"feasible = {'yes' if report.feasible else 'no'}",
            f"weight = {f.weight}",
            f"min_slack = {report.min_slack}",
        ]
        if not report.feasible:
            lines.append("violations = " + " ".join(str(v + 1) for v in sorted(report.violations)))
        if mreport is not None:
            lines.append(f"minimal = {'yes' if minimal else 'no'}")
            if not minimal:
                lines.append(f"offending = {mreport.offending + 1}")
        return lines

    def record():
        return _record(
            parameter="verify",
            k=k,
            mode=mode.value,
            value=f.weight,
            status=status,
            certificate=list(f.values),
        )

    _emit(args, text_lines, record)
    ok = report.feasible and minimal is not False
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_bound(args) -> int:
    if args.graph:
        g = parse_graph(_read_bytes(args.graph))
        profile = DegreeProfile.of_graph(g, args.k)
    else:
        if args.n is None or args.delta is None or args.Delta is None:
            raise ValueError("bound needs a graph file or --n/--delta/--Delta")
        profile = DegreeProfile(args.n, args.delta, args.Delta, args.k)
    mode = Mode(args.mode)
    num, den = bound_terms(profile, mode)
    value = lower_bound(profile, mode)
    eff = effective_bound(profile, mode)
    lines = [
        f"bound = {value} ({profile.n * num}/{den})",
        f"effective = {eff}",
    ]
    record = _record(
        parameter="lower_bound",
        k=args.k,
        mode=mode.value,
        value=eff,
        status="ok",
        bound_num=value.numerator,
        bound_den=value.denominator,
    )
    _emit(args, lambda: lines, lambda: record)
    return EXIT_OK


def _check_gen_size(vertices: int, edges: int) -> None:
    """Refuse, before anything is built, a generated graph that the readers
    would refuse: each count is capped like a header count."""
    if max(vertices, edges) > _MAX_COUNT:
        raise ValueError(
            f"output too large: {vertices} vertices, {edges} edges (limit {_MAX_COUNT} each)"
        )


def _cmd_gen_extremal(args) -> int:
    spec = ExtremalSpec(args.k, args.delta, args.Delta, args.t, Mode(args.mode))
    _check_gen_size(spec.order, spec.size)
    g, cert = build_extremal(spec)
    bound = lower_bound(DegreeProfile(g.n, spec.delta, spec.Delta, spec.k), spec.mode)
    report = [
        f"a = {spec.a}",
        f"b = {spec.b}",
        f"t = {spec.t}",
        f"|P| = {spec.t * spec.a}",
        f"|Q| = {spec.t * spec.b}",
        f"bound = {bound}",
        f"weight = {cert.weight}",
    ]
    if args.output:
        base = Path(args.output)
        _write_text(base.with_suffix(".graph"), emit_graph(g))
        _write_text(base.with_suffix(".cert"), emit_certificate(cert, spec.k, spec.mode))
        _write_text(base.with_suffix(".report"), "\n".join(report) + "\n")
        sys.stdout.write("\n".join(report) + "\n")
    else:
        sys.stdout.write(emit_graph(g))
        sys.stdout.write(emit_certificate(cert, spec.k, spec.mode))
        sys.stdout.write("".join(f"c {line}\n" for line in report))
    return EXIT_OK


def _cmd_gen_onefactor(args) -> int:
    n = args.n
    _check_gen_size(n, n * (n - 1) // 2 if n > 0 else 0)
    for i, pairs in enumerate(_factor_rounds(n), start=1):
        text = " ".join(f"({u + 1},{v + 1})" for u, v in pairs)
        sys.stdout.write(f"round {i}: {text}\n")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    text = _read_bytes(args.input)
    if args.source == ONE_IN_THREE:
        source, reduce = parse_cnf(text), reduce_1in3
        counts = source.num_vars, source.num_clauses
    else:
        source, reduce = parse_graph(text), (reduce_mtds if args.source == MTDS else reduce_mds)
        counts = source.n, source.m
    _check_gen_size(*gadget_size(args.source, args.k, *counts))
    art = reduce(source, args.k)
    if args.output:
        base = Path(args.output)
        _write_text(base.with_suffix(".graph"), emit_graph(art.graph))
        _write_text(base.with_suffix(".prov"), emit_provenance(art))
    else:
        sys.stdout.write(emit_graph(art.graph))
        sys.stdout.write(emit_provenance(art))
    if art.kind == ONE_IN_THREE:
        sys.stdout.write(f"threshold: {art.threshold_value}\n")
    else:
        off = art.threshold(0)
        sys.stdout.write(f"threshold: r -> 2r {'+' if off >= 0 else '-'} {abs(off)}\n")
    return EXIT_OK


def _cmd_xcheck(args) -> int:
    """Fast self-check: a subset of the acceptance properties."""
    import random

    from .certify import SignFunction
    from .graph import Graph, complete, cycle
    from .reductions import ThreeSatFormula

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        if not ok:
            failures += 1

    check("sigma_1S(C_5) == 3", brute_force_sigma(cycle(5), 1, Mode.CLOSED).value == 3)
    check("sigma_1S(K_4) == 2", brute_force_sigma(complete(4), 1, Mode.CLOSED).value == 2)
    check(
        "sigma_t2S(K_5) == 3", brute_force_sigma(complete(5), 2, Mode.TOTAL).value == 3
    )
    rng = random.Random(7)
    agree = True
    for _ in range(20):
        n = rng.randint(4, 9)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        for k in (1, 2):
            for mode in (Mode.CLOSED, Mode.TOTAL):
                bf = brute_force_sigma(g, k, mode)
                bb = bnb_sigma(g, k, mode)
                if bf.value != bb.value:
                    agree = False
    check("bnb == brute force on random graphs", agree)
    spec = ExtremalSpec(1, 2, 3, 4, Mode.CLOSED)
    g, cert = build_extremal(spec)
    ok = (
        verify(g, 1, Mode.CLOSED, cert).feasible
        and cert.weight == lower_bound(DegreeProfile(g.n, 2, 3, 1), Mode.CLOSED)
        and brute_force_sigma(g, 1, Mode.CLOSED).value == 4
    )
    check("extremal (k=1, delta=2, Delta=3, t=4) is sharp", ok)
    spec = ExtremalSpec(1, 3, 4, 6, Mode.TOTAL)
    g, cert = build_extremal(spec)
    ok = (
        verify(g, 1, Mode.TOTAL, cert).feasible
        and cert.weight == lower_bound(DegreeProfile(g.n, 3, 4, 1), Mode.TOTAL)
        and brute_force_sigma(g, 1, Mode.TOTAL).value == 6
    )
    check("extremal (k=1, delta=3, Delta=4, t=6, total) is sharp", ok)
    # What the writers emit reads back: a gadget of each reduction, k = 2.
    rng = random.Random(11)
    source = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                        if v == u + 1 or rng.random() < 0.3])
    formula = ThreeSatFormula(8, tuple(tuple(rng.sample(range(1, 9), 3)) for _ in range(6)))
    for art in (reduce_mds(source, 2), reduce_mtds(source, 2), reduce_1in3(formula, 2)):
        h = art.graph
        f = SignFunction(tuple(rng.choice((-1, 1)) for _ in range(h.n)))
        lines = emit_provenance(art).splitlines()
        ends = [
            f"{v + 1} {head}({','.join(map(str, rest))})"
            for v, (head, *rest) in [(0, art.provenance[0]), (h.n - 1, art.provenance[-1])]
        ]
        ok = (
            parse_graph(emit_graph(h)) == h
            and parse_certificate(emit_certificate(f, 2, art.mode)) == (2, art.mode, f)
            and len(lines) == h.n
            and [lines[0], lines[-1]] == ends
        )
        check(f"{art.kind} gadget (k=2) text reads back", ok)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _cap(text: str) -> int:
    """The argparse type of a resource cap: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every call of `main` can share it."""
    parser = argparse.ArgumentParser(
        prog="sgd",
        description="Exact signed (total) k-domination toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["text", "structured"], default="text")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("solve", help="compute sigma_kS / sigma_tkS / Gamma_kS")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["closed", "total"], default="closed")
    p.add_argument("--param", choices=["sigma", "upper"], default="sigma")
    p.add_argument("--algo", choices=["brute", "bnb"], default="bnb")
    p.add_argument("--max-brute-n", type=_cap, default=DEFAULT_MAX_BRUTE_N)
    p.add_argument("--node-budget", type=_cap, default=DEFAULT_NODE_BUDGET)
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("graph")
    p.add_argument("--cert", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mode", choices=["closed", "total"], default=None)
    p.add_argument("--minimal", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="evaluate the degree-based lower bound")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["closed", "total"], default="closed")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--Delta", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("gen", help="generate extremal graphs or 1-factorizations")
    gen_sub = p.add_subparsers(dest="gen_kind", required=True)
    pe = gen_sub.add_parser("extremal")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--delta", type=int, required=True)
    pe.add_argument("--Delta", type=int, required=True)
    pe.add_argument("--t", type=int, required=True)
    pe.add_argument("--mode", choices=["closed", "total"], default="closed")
    pe.add_argument("-o", "--output", default=None)
    pe.set_defaults(func=_cmd_gen_extremal)
    pf = gen_sub.add_parser("onefactor")
    pf.add_argument("--n", type=int, required=True)
    pf.set_defaults(func=_cmd_gen_onefactor)

    p = sub.add_parser("reduce", help="build an NP-hardness reduction instance")
    p.add_argument("input")
    p.add_argument("--from", dest="source", choices=["mtds", "mds", "1in3"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("xcheck", help="run a fast acceptance subset")
    p.set_defaults(func=_cmd_xcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GraphFormatError as exc:
        sys.stderr.write(f"format error: {exc}\n")
        return EXIT_USAGE
    except _FileError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:  # the reader closed stdout (`sgd gen ... | head`): stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # drop the unflushed rest
        return EXIT_PIPE
    except Exception as exc:
        # A bug, not an answer: exit 1 would read as "infeasible".
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
