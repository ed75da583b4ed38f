"""The three workloads: their inputs, their ops and the check of each answer.

Each workload function writes its inputs into a directory and returns the
ops of one pass. An op runs `sgdom.cli.main(argv)` in process (or, for lift
and project, the one library call the CLI does not expose) and its check
recomputes the answer with check.py; a wrong answer raises CheckError.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import corpus
from check import require

SIGMA_OPS = [("closed", 1), ("closed", 2), ("total", 1), ("total", 2)]
UPPER = ("upper", 1)


@dataclass
class Outcome:
    rc: int
    stdout: str = ""
    payload: object = None


@dataclass
class Op:
    name: str
    tier: str
    run: Callable[[], Outcome]
    # Returns facts for the per-layer metrics (e.g. {"capped": True}); raises
    # CheckError on a wrong answer.
    check: Callable[[Outcome], dict]
    files: tuple[Path, ...] = ()
    meta: dict = field(default_factory=dict)


def cli_op(cli, argv: list[str]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return Outcome(rc, out.getvalue())

    return run


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


# ---------------------------------------------------------------------------
# Solve ops (brute and bnb workloads)

def solve_op(cli, workdir: Path, key: str, tier: str, n: int, edges, op: tuple,
             algo: str, answer: dict, ref: dict) -> Op:
    """`sgd solve` on one pinned instance; `op` is (mode, k) or UPPER."""
    path = workdir / f"{key.replace('/', '_')}.graph"
    path.write_text(corpus.sgd_text(n, edges), encoding="utf-8")
    upper = op == UPPER
    mode, k = ("closed", 1) if upper else op
    argv = ["solve", str(path), "--k", str(k), "--mode", mode, "--algo", algo,
            "--max-brute-n", str(ref["max_brute_n"]), "--node-budget", str(ref["node_budget"]),
            "--format", "structured"]
    if upper:
        argv += ["--param", "upper"]
    adj = adjacency(n, edges)
    expected = answer["value"] if upper else answer["optimum"]

    def verify_answer(out: Outcome) -> dict:
        rec = json.loads(out.stdout)
        facts = {"algo": "upper" if upper else algo, "nodes": rec["nodes_explored"],
                 "status": rec["status"], "value": rec["value"]}
        values = rec["certificate"]
        if values is not None:
            require(len(values) == n, "certificate length differs from the order")
            require(check.feasible(adj, k, mode, values), "certificate rejected by the checker")
            require(sum(values) == rec["value"], "certificate weight differs from the value")
        if out.rc == 3:
            require(rec["status"] == "cap_exceeded", "exit 3 without cap_exceeded")
            require(upper or rec["value"] is None or rec["value"] >= expected,
                    "incumbent below the pinned optimum")
            return {**facts, "capped": True}
        require(out.rc == 0 and rec["status"] == "optimal",
                f"exit {out.rc} with status {rec['status']}")
        require(rec["value"] == expected, f"value {rec['value']} != pinned {expected}")
        require(values is not None, "optimum without a certificate")
        if upper:
            require(check.minimal(adj, k, values), "upper certificate is not minimal")
        if "digest" in answer:
            require(check.digest(values) == answer["digest"], "non-canonical brute certificate")
        return facts

    n_, delta, Delta = check.degree_profile(adj)
    return Op(key, tier, cli_op(cli, argv), verify_answer,
              meta={"algo": algo, "k": k, "mode": mode, "profile": (n_, delta, Delta)})


# brute: (pool, instances per pass, ops per instance). The mix is shaped for
# steady percentiles: n=18 sigma ops (two thirds of a pass) hold the median,
# and the n=22 and 22-vertex gadget ops (4 of 30) hold p90. A pass takes about
# 9 s, so a 36 s run pools 120 latencies.
BRUTE_SLOTS = [
    ("gnp18", 5, SIGMA_OPS),
    ("gnp20", 1, SIGMA_OPS),
    ("gnp22", 1, [("closed", 1), ("total", 2), UPPER]),
    ("sat18", 1, [UPPER]),
    ("sat19", 1, [UPPER]),
    ("sat22", 1, [UPPER]),
]


def build_brute(cli, seed: int, workdir: Path, ref: dict) -> list[Op]:
    rng = random.Random(f"brute:{seed}")
    ops = []
    for pool, count, op_list in BRUTE_SLOTS:
        for i in rng.sample(ref["pools"][pool], count):
            if pool in corpus.SAT_POOLS:
                n, edges = corpus.sat_gadget(*corpus.pool_formula(pool, i), 1)
            else:
                n, edges = corpus.pool_graph(pool, i)
            for op in op_list:
                name = "upper-1" if op == UPPER else f"brute-{op[0]}-{op[1]}"
                key = f"{pool}-{i}/{name}"
                ops.append(solve_op(cli, workdir, key, "brute", n, edges, op, "brute",
                                    ref["answers"][key], ref))
    return ops


# bnb: (pool, members per pass). B&B cost differs up to tenfold between
# random graphs of one size, so the easy tier is one fixed pinned member per
# pool: a seed-drawn set would measure the draw rather than the program. The
# hard tier is seven of the eight pinned members of hard34 and hard36 with one
# op each: the seed chooses which hard34 member sits out and which three run
# closed-1 rather than total-1. A capped op stops at the node budget, so the
# choice moves its cost little. Every easy op proves its optimum within the
# budget at the pinned commit and every hard op hits it, so the hard share of
# ops (7 of 45) is the capped share. A pass has an odd number of ops, so the
# pooled median lies on the samples of one op rather than between two ops of
# different cost, and the hard share is above a tenth, so p90 lies inside the
# cluster of hard ops near its middle rather than at its cheap end.
BNB_SLOTS = [
    ("easy26", 1), ("easy28", 1), ("easy30", 1), ("easy32", 1),
    ("src16", 1), ("src20", 1), ("src24", 1),
    ("extremal", 4), ("cycle", 2),
    ("hard34", 3), ("hard36", 4),
]


def bnb_instances(ref: dict, pool: str, i: int):
    """(key, tier, n, edges, (mode, k)) for each op on one pool member."""
    if pool == "extremal":
        member = ref["extremal"][i]
        k, _, _, _, mode = member["spec"]
        yield f"extremal-{i}/bnb-{mode}-{k}", "easy", member["n"], member["edges"], (mode, k)
    elif pool == "cycle":
        for mode, k in SIGMA_OPS:
            yield f"cycle-{i}/bnb-{mode}-{k}", "easy", i, corpus.cycle_edges(i), (mode, k)
    elif pool.startswith("src"):
        n0, edges0 = corpus.pool_graph(pool, i)
        for kind, mode in (("mds", "closed"), ("mtds", "total")):
            for k in (1, 2):
                n, edges, _ = corpus.set_gadget(n0, edges0, k, kind)
                yield f"{pool}-{i}/bnb-{kind}-{k}", "easy", n, edges, (mode, k)
    else:
        n, edges = corpus.pool_graph(pool, i)
        tier = "hard" if pool.startswith("hard") else "easy"
        prefix = f"{pool}-{i}/bnb-"
        for key in sorted(ref["answers"]):
            if key.startswith(prefix):
                _, mode, k = key[len(prefix) - 4:].split("-")
                yield key, tier, n, edges, (mode, int(k))


def build_bnb(cli, seed: int, workdir: Path, ref: dict) -> list[Op]:
    rng = random.Random(f"bnb:{seed}")
    members = [(pool, i) for pool, count in BNB_SLOTS
               for i in sorted(rng.sample(ref["pools"][pool], count))]
    hard = [member for member in members if member[0].startswith("hard")]
    closed = set(rng.sample(hard, len(hard) // 2))
    ops = []
    for pool, i in members:
        for key, tier, n, edges, op in bnb_instances(ref, pool, i):
            if tier == "hard" and (op[0] == "closed") != ((pool, i) in closed):
                continue
            ops.append(solve_op(cli, workdir, key, tier, n, edges, op, "bnb",
                                ref["answers"][key], ref))
    return ops


# ---------------------------------------------------------------------------
# certify-io: writes and reads of large sparse graphs; no search.

EXTREMAL_GEN = [(1, 2, 3, 200, "closed"), (2, 4, 6, 120, "closed"), (1, 3, 5, 100, "total")]
# (order, edge probability, reductions); mtds with k=2 on the 200-vertex
# source gives the largest gadget, about 16k vertices.
SOURCES = [
    (100, 0.08, [("mds", 1), ("mtds", 2)]),
    (150, 0.08, [("mds", 2), ("mtds", 1)]),
    (200, 0.10, [("mds", 2), ("mtds", 2)]),
]
# 1-in-3 SAT sources (variables, clauses, k) with a planted witness.
FORMULAS = [(60, 80, 1), (100, 100, 2)]


def bound_check(graph_path: Path, k: int, mode: str, files: dict) -> Callable[[Outcome], dict]:
    def verify_answer(out: Outcome) -> dict:
        require(out.rc == 0, f"bound exit {out.rc}")
        n, delta, Delta = files[graph_path]["profile"]
        bound = check.lower_bound(n, delta, Delta, k, mode)
        fields = check.text_fields(out.stdout)
        shown = str(bound) if bound.denominator > 1 else str(bound.numerator)
        require(fields["bound"].split()[0] == shown, f"bound {fields['bound']} != {shown}")
        require(int(fields["effective"]) == check.effective_bound(n, delta, Delta, k, mode),
                "effective bound differs")
        return {}

    return verify_answer


def verify_check(graph_path: Path, cert_path: Path, k: int, mode: str, minimal: bool,
                 files: dict) -> Callable[[Outcome], dict]:
    def verify_answer(out: Outcome) -> dict:
        adj = files[graph_path]["adj"]
        _, _, values = check.parse_cert(cert_path.read_text(encoding="utf-8"))
        s = check.sums(adj, mode, values)
        ok = min(s) >= k
        is_minimal = ok and check.minimal(adj, k, values) if minimal else None
        fields = check.text_fields(out.stdout)
        require(fields["feasible"] == ("yes" if ok else "no"), "verify feasibility is wrong")
        require(int(fields["weight"]) == sum(values), "verify weight is wrong")
        require(int(fields["min_slack"]) == min(s) - k, "verify min_slack is wrong")
        if minimal and ok:
            require(fields["minimal"] == ("yes" if is_minimal else "no"), "minimality is wrong")
        require(out.rc == (0 if ok and is_minimal is not False else 1), f"verify exit {out.rc}")
        return {}

    return verify_answer


def load_graph(files: dict, path: Path) -> dict:
    """Parse an output graph with the checker's parser, once per content."""
    text = path.read_text(encoding="utf-8")
    entry = files.get(path)
    if entry is None or entry["text"] != text:
        adj = check.parse_sgd(text)
        entry = {"text": text, "adj": adj, "profile": check.degree_profile(adj)}
        files[path] = entry
    return entry


def build_certify_io(cli, seed: int, workdir: Path, ref: dict) -> list[Op]:
    from sgdom import certify, reductions
    from sgdom import graph as sg_graph

    rng = random.Random(f"certify-io:{seed}")
    files: dict = {}
    ops: list[Op] = []

    def chain_tail(base: Path, graph_path: Path, cert_path: Path, k: int, mode: str,
                   minimal: bool):
        verify_argv = ["verify", str(graph_path), "--cert", str(cert_path)]
        if minimal:
            verify_argv.append("--minimal")
        ops.append(Op(f"{base.name}/verify", "io", cli_op(cli, verify_argv),
                      verify_check(graph_path, cert_path, k, mode, minimal, files),
                      files=(graph_path, cert_path)))
        ops.append(Op(f"{base.name}/bound", "io",
                      cli_op(cli, ["bound", "--k", str(k), "--mode", mode, str(graph_path)]),
                      bound_check(graph_path, k, mode, files), files=(graph_path,)))

    for k, delta, Delta, t, mode in EXTREMAL_GEN:
        base = workdir / f"extremal-{k}-{delta}-{Delta}-{t}-{mode}"
        graph_path, cert_path = base.with_suffix(".graph"), base.with_suffix(".cert")
        argv = ["gen", "extremal", "--k", str(k), "--delta", str(delta), "--Delta", str(Delta),
                "--t", str(t), "--mode", mode, "-o", str(base)]

        def gen_check(out, k=k, delta=delta, Delta=Delta, mode=mode,
                      graph_path=graph_path, cert_path=cert_path):
            require(out.rc == 0, f"gen exit {out.rc}")
            g = load_graph(files, graph_path)
            n, lo, hi = g["profile"]
            require((lo, hi) == (delta, Delta), "extremal degrees differ from the spec")
            cert_k, cert_mode, values = check.parse_cert(cert_path.read_text(encoding="utf-8"))
            require((cert_k, cert_mode) == (k, mode), "certificate header differs")
            require(check.feasible(g["adj"], k, mode, values), "extremal certificate infeasible")
            weight = check.effective_bound(n, delta, Delta, k, mode)
            require(sum(values) == weight, "extremal certificate misses the bound")
            require(check.text_fields(out.stdout)["weight"] == str(weight), "report weight")
            return {"vertices": n}

        ops.append(Op(f"{base.name}/gen", "io", cli_op(cli, argv), gen_check,
                      files=(graph_path, cert_path)))
        chain_tail(base, graph_path, cert_path, k, mode, minimal=mode == "closed")

    def reduction_chain(name: str, src_path: Path, source, kind: str, k: int,
                        expect_order: int, witness, src_edges=None):
        base = workdir / name
        graph_path, cert_path = base.with_suffix(".graph"), base.with_suffix(".cert")
        mode = "total" if kind == "mtds" else "closed"
        state: dict = {}

        def reduce_check(out):
            require(out.rc == 0, f"reduce exit {out.rc}")
            g = load_graph(files, graph_path)
            require(g["profile"][0] == expect_order, "gadget order differs from the paper's")
            prov = base.with_suffix(".prov").read_text(encoding="utf-8").splitlines()
            require(len(prov) == expect_order, "provenance misses vertices")
            if src_edges is not None:
                n0 = len(source.vertices())
                inside = {(u, v) for u in range(n0) for v in g["adj"][u] if u < v < n0}
                require(inside == set(src_edges), "gadget does not contain the source graph")
            return {}

        ops.append(Op(f"{name}/reduce", "io",
                      cli_op(cli, ["reduce", str(src_path), "--from", kind, "--k", str(k),
                                   "-o", str(base)]),
                      reduce_check, files=(graph_path, base.with_suffix(".prov"))))

        def lift() -> Outcome:
            fn = {"mds": reductions.reduce_mds, "mtds": reductions.reduce_mtds,
                  "1in3": reductions.reduce_1in3}[kind]
            state["art"] = art = fn(source, k)
            state["f"] = f = reductions.lift_solution(witness, art)
            cert_path.write_text(certify.emit_certificate(f, k, art.mode), encoding="utf-8")
            return Outcome(0)

        def lift_check(out):
            adj = load_graph(files, graph_path)["adj"]
            cert_k, cert_mode, values = check.parse_cert(cert_path.read_text(encoding="utf-8"))
            require((cert_k, cert_mode) == (k, mode), "lifted certificate header differs")
            require(check.feasible(adj, k, mode, values), "lifted certificate infeasible")
            if kind == "1in3":
                num_vars, m = len(witness), len(source.clauses)
                require(sum(values) == (k + 1) * num_vars + (k + 2) * m, "lifted weight")
                require(check.minimal(adj, k, values), "lifted 1-in-3 certificate not minimal")
            else:
                n0 = len(source.vertices())
                require(sum(values) == 2 * len(witness) - n0 + (expect_order - n0),
                        "lifted weight differs from 2|S| - n + T")
            return {}

        ops.append(Op(f"{name}/lift", "io", lift, lift_check, files=(cert_path,)))
        chain_tail(base, graph_path, cert_path, k, mode, minimal=kind == "1in3")

        def project() -> Outcome:
            return Outcome(0, payload=reductions.project_solution(state["f"], state["art"]))

        def project_check(out):
            want = tuple(witness) if kind == "1in3" else frozenset(witness)
            require(out.payload == want, "projected solution differs from the lifted one")
            return {}

        ops.append(Op(f"{name}/project", "io", project, project_check))

    for n0, p, reductions_of in SOURCES:
        edges = corpus.gnp(rng, n0, p, 1)
        src_adj = adjacency(n0, edges)
        src_path = workdir / f"source-{n0}.graph"
        src_path.write_text(corpus.sgd_text(n0, edges), encoding="utf-8")
        source = sg_graph.Graph(n0, edges)
        for kind, k in reductions_of:
            witness = corpus.greedy_dominating_set(n0, src_adj, total=kind == "mtds")
            size, extra = (k + 1, k - 1) if kind == "mds" else (k + 2, k - 2)
            order = n0 + size * sum(len(a) + extra for a in src_adj)
            reduction_chain(f"{kind}-{n0}-k{k}", src_path, source, kind, k, order, witness, edges)

    for num_vars, m, k in FORMULAS:
        clauses, truth = corpus.planted_clauses(rng, num_vars, m)
        src_path = workdir / f"formula-{num_vars}.cnf"
        src_path.write_text(corpus.cnf_text(num_vars, clauses), encoding="utf-8")
        formula = reductions.ThreeSatFormula(num_vars, tuple(clauses))
        order = (k + 3) * num_vars + (k + 2) * m
        reduction_chain(f"1in3-{num_vars}-k{k}", src_path, formula, "1in3", k, order, truth)
    return ops


WORKLOADS = {"brute": build_brute, "bnb": build_bnb, "certify-io": build_certify_io}
