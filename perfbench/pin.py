"""Pin the answers the benchmark checks against, into reference.json.

Run once at the commit whose answers are pinned, from the repository root:

    python3 perfbench/pin.py

It needs scipy, which serves only as an independent MILP oracle here; the
benchmark itself does not import it. Every answer is cross-checked before it
is written:

- every sigma value equals the MILP optimum, and brute force equals B&B for
  n <= 22;
- reduction gadget values equal 2*gamma(G) - n + T, with the benchmark's own
  gadget equal to sgdom's;
- 1-in-3 gadgets: Gamma >= threshold exactly when one_in_three_sat finds a
  witness;
- extremal values equal effective_bound;
- every pinned certificate passes the independent checker, and brute-force
  certificates are pinned by digest.

B&B pools are tiered by their outcome at the pinned commit: an "easy" G(n, p)
sample is kept only when all its ops prove the optimum within the node
budget, a "hard" one only when all its ops hit the budget. The rejected
indices are listed in the file. On G(32, 0.2) the k=1 ops exceed the budget
on most samples, so that pool runs k=2 only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import sgdom  # noqa: E402
from sgdom import Graph, Mode  # noqa: E402
from workloads import BRUTE_SLOTS, SIGMA_OPS, UPPER, adjacency  # noqa: E402

MAX_BRUTE_N = 24
NODE_BUDGET = 100_000
POOL_SIZE = {"gnp18": 8, "gnp20": 6, "gnp22": 6, "sat": 6, "easy": 1, "hard34": 4, "hard36": 4,
             "src": 1}
MAX_TRIES = 16


def milp_sigma(n: int, adj, k: int, mode: str) -> int:
    """Minimum weight of a signed (total) k-dominating function, by MILP over
    y in {0,1}^n with f = 2y - 1."""
    a = np.zeros((n, n))
    for v in range(n):
        a[v, adj[v]] = 1
        if mode == "closed":
            a[v, v] = 1
    res = milp(
        c=np.full(n, 2.0),
        constraints=LinearConstraint(2 * a, k + a.sum(axis=1), np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return int(round(res.fun)) - n


def record(res, n, adj, k, mode, upper=False) -> dict:
    entry = {"status": res.status, "value": res.value, "nodes": res.nodes_explored}
    if res.certificate is not None:
        values = list(res.certificate.values)
        assert check.feasible(adj, k, mode, values), "pinned certificate infeasible"
        assert sum(values) == res.value
        if upper:
            assert check.minimal(adj, k, values), "pinned certificate not minimal"
        entry["digest"] = check.digest(values)
    return entry


def pin_sigma(n, edges, k, mode, algo) -> dict:
    g = Graph(n, edges)
    adj = adjacency(n, edges)
    optimum = milp_sigma(n, adj, k, mode)
    if algo == "brute":
        res = sgdom.brute_force_sigma(g, k, Mode(mode), max_n=MAX_BRUTE_N)
        assert res.status == "optimal" and res.value == optimum
        assert sgdom.bnb_sigma(g, k, Mode(mode)).value == optimum, "brute != bnb"
    else:
        res = sgdom.bnb_sigma(g, k, Mode(mode), node_budget=NODE_BUDGET)
        assert res.status == "cap_exceeded" or res.value == optimum
    entry = record(res, n, adj, k, mode)
    entry["optimum"] = optimum
    if algo == "bnb":
        entry.pop("digest", None)
    return entry


def pin_upper(n, edges) -> dict:
    res = sgdom.brute_force_upper(Graph(n, edges), 1, max_n=MAX_BRUTE_N)
    assert res.status == "optimal"
    return record(res, n, adjacency(n, edges), 1, "closed", upper=True)


def dump(reference: dict) -> str:
    """JSON with one line per answer and per extremal graph."""
    lines = []
    for key in sorted(reference):
        value = reference[key]
        if key in ("answers", "extremal"):
            items = value.items() if key == "answers" else enumerate(value)
            body = ",\n".join(
                (f"  {json.dumps(k)}: " if key == "answers" else "  ")
                + json.dumps(v, sort_keys=True)
                for k, v in items
            )
            opener, closer = ("{", "}") if key == "answers" else ("[", "]")
            lines.append(f" {json.dumps(key)}: {opener}\n{body}\n {closer}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    answers: dict[str, dict] = {}
    pools: dict[str, list[int]] = {}
    rejected: dict[str, list[int]] = {}

    for pool, _, ops in BRUTE_SLOTS:
        if pool not in corpus.GNP_POOLS:
            continue
        pools[pool] = list(range(POOL_SIZE[pool]))
        for i in pools[pool]:
            n, edges = corpus.pool_graph(pool, i)
            for op in ops:
                if op == UPPER:
                    answers[f"{pool}-{i}/upper-1"] = pin_upper(n, edges)
                else:
                    mode, k = op
                    answers[f"{pool}-{i}/brute-{mode}-{k}"] = pin_sigma(n, edges, k, mode, "brute")
            print(pool, i, flush=True)

    for pool in corpus.SAT_POOLS:
        pools[pool] = list(range(POOL_SIZE["sat"]))
        for i in pools[pool]:
            num_vars, clauses = corpus.pool_formula(pool, i)
            n, edges = corpus.sat_gadget(num_vars, clauses, 1)
            formula = sgdom.ThreeSatFormula(num_vars, tuple(clauses))
            art = sgdom.reduce_1in3(formula, 1)
            assert art.graph == Graph(n, edges), "benchmark 1-in-3 gadget != sgdom's"
            entry = pin_upper(n, edges)
            satisfiable = sgdom.one_in_three_sat(formula) is not None
            assert (entry["value"] >= art.threshold_value) == satisfiable
            entry["satisfiable"] = satisfiable
            answers[f"{pool}-{i}/upper-1"] = entry
            print(pool, i, satisfiable, flush=True)

    for pool, ops, want in (
        ("easy26", SIGMA_OPS, "optimal"),
        ("easy28", SIGMA_OPS, "optimal"),
        ("easy30", SIGMA_OPS, "optimal"),
        ("easy32", SIGMA_OPS[1::2], "optimal"),
        ("hard34", [("closed", 1), ("total", 1)], "cap_exceeded"),
        ("hard36", [("closed", 1), ("total", 1)], "cap_exceeded"),
    ):
        size = POOL_SIZE.get(pool, POOL_SIZE["easy"])
        pools[pool], rejected[pool] = [], []
        for i in range(MAX_TRIES):
            if len(pools[pool]) == size:
                break
            n, edges = corpus.pool_graph(pool, i)
            entries = {
                f"{pool}-{i}/bnb-{mode}-{k}": pin_sigma(n, edges, k, mode, "bnb")
                for mode, k in ops
            }
            if all(e["status"] == want for e in entries.values()):
                pools[pool].append(i)
                answers.update(entries)
            else:
                rejected[pool].append(i)
            print(pool, i, [e["status"] for e in entries.values()], flush=True)
        assert len(pools[pool]) == size, f"pool {pool} short"

    for pool in ("src16", "src20", "src24"):
        pools[pool] = list(range(POOL_SIZE["src"]))
        for i in pools[pool]:
            n0, edges0 = corpus.pool_graph(pool, i)
            g0 = Graph(n0, edges0)
            for kind, mode, reduce, domination in (
                ("mds", "closed", sgdom.reduce_mds, sgdom.gamma),
                ("mtds", "total", sgdom.reduce_mtds, sgdom.gamma_t),
            ):
                for k in (1, 2):
                    n, edges, t = corpus.set_gadget(n0, edges0, k, kind)
                    art = reduce(g0, k)
                    assert art.graph == Graph(n, edges) and art.T == t
                    entry = pin_sigma(n, edges, k, mode, "bnb")
                    assert entry["status"] == "optimal"
                    assert entry["value"] == 2 * domination(g0, max_n=n0) - n0 + t
                    answers[f"{pool}-{i}/bnb-{kind}-{k}"] = entry
            print(pool, i, flush=True)

    extremal = []
    for i, (k, delta, Delta, t, mode) in enumerate(corpus.EXTREMAL_POOL):
        spec = sgdom.ExtremalSpec(k, delta, Delta, t, Mode(mode))
        g, cert = sgdom.build_extremal(spec)
        edges = list(g.edges())
        entry = pin_sigma(g.n, edges, k, mode, "bnb")
        bound = check.effective_bound(g.n, delta, Delta, k, mode)
        assert entry["status"] == "optimal" and entry["value"] == cert.weight == bound
        assert bound == sgdom.effective_bound(sgdom.DegreeProfile(g.n, delta, Delta, k), Mode(mode))
        answers[f"extremal-{i}/bnb-{mode}-{k}"] = entry
        extremal.append({"spec": [k, delta, Delta, t, mode], "n": g.n, "edges": edges})
    pools["extremal"] = list(range(len(extremal)))

    for n in corpus.CYCLE_POOL:
        for mode, k in SIGMA_OPS:
            entry = pin_sigma(n, corpus.cycle_edges(n), k, mode, "bnb")
            assert entry["status"] == "optimal"
            answers[f"cycle-{n}/bnb-{mode}-{k}"] = entry
    pools["cycle"] = list(corpus.CYCLE_POOL)

    reference = {
        "max_brute_n": MAX_BRUTE_N,
        "node_budget": NODE_BUDGET,
        "pools": pools,
        "rejected": rejected,
        "extremal": extremal,
        "answers": answers,
    }
    path = HERE / "reference.json"
    path.write_text(dump(reference), encoding="utf-8")
    print(f"wrote {len(answers)} answers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
