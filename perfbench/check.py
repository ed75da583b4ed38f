"""Independent answer checker.

Parses the program's files with its own code and recomputes every claim with
plain-Python neighbourhood sums and the paper's bound formula. It never calls
sgdom, so a bug in sgdom.certify or sgdom.bounds cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def parse_sgd(text: str) -> list[list[int]]:
    """Adjacency lists (0-based) of a `p sgd` file."""
    adj: list[list[int]] | None = None
    declared = count = 0
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            require(adj is None and fields[1] == "sgd", "bad graph header")
            adj = [[] for _ in range(int(fields[2]))]
            declared = int(fields[3])
        else:
            require(adj is not None and fields[0] == "e", f"bad graph line {line!r}")
            u, v = int(fields[1]) - 1, int(fields[2]) - 1
            require(u != v and v not in adj[u], f"bad edge {line!r}")
            adj[u].append(v)
            adj[v].append(u)
            count += 1
    require(adj is not None and count == declared, "edge count differs from header")
    return adj


def parse_cert(text: str) -> tuple[int, str, list[int]]:
    """(k, mode, values) of an `s sgd-cert` file."""
    header = None
    values: dict[int, int] = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "s":
            header = (int(fields[2]), int(fields[3]), fields[4])
        else:
            require(fields[0] == "v" and fields[2] in ("+1", "-1"), f"bad cert line {line!r}")
            values[int(fields[1]) - 1] = 1 if fields[2] == "+1" else -1
    require(header is not None, "certificate header missing")
    n, k, mode = header
    require(sorted(values) == list(range(n)), "certificate does not cover every vertex")
    return k, mode, [values[v] for v in range(n)]


def sums(adj: list[list[int]], mode: str, values) -> list[int]:
    closed = mode == "closed"
    return [
        sum(values[u] for u in nbrs) + (values[v] if closed else 0)
        for v, nbrs in enumerate(adj)
    ]


def feasible(adj, k: int, mode: str, values) -> bool:
    return all(s >= k for s in sums(adj, mode, values))


def minimal(adj, k: int, values) -> bool:
    """A feasible closed-mode function is minimal iff lowering any +1 vertex
    (which lowers each closed sum in N[v] by 2) breaks some constraint."""
    s = sums(adj, "closed", values)
    return all(
        values[v] == -1 or any(s[u] < k + 2 for u in adj[v] + [v])
        for v in range(len(adj))
    )


def digest(values) -> str:
    """Short digest of a certificate, as pinned in reference.json."""
    text = "".join("+" if x == 1 else "-" for x in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _same_parity(x: int, k: int) -> int:
    return 1 if (x - k) % 2 == 0 else 0


def lower_bound(n: int, delta: int, Delta: int, k: int, mode: str) -> Fraction:
    """The paper's degree bound on sigma_kS (closed) or sigma_tkS (total)."""
    i_d, i_D = _same_parity(delta, k), _same_parity(Delta, k)
    if mode == "closed":
        num = delta - Delta + 2 * k + i_d + i_D
        den = delta + Delta + 2 + i_d - i_D
    else:
        num = delta - Delta + 2 * k + 2 - i_d - i_D
        den = delta + Delta + i_D - i_d
    return Fraction(n * num, den)


def effective_bound(n: int, delta: int, Delta: int, k: int, mode: str) -> int:
    w = math.ceil(lower_bound(n, delta, Delta, k, mode))
    return w + 1 if (w - n) % 2 else w


def degree_profile(adj) -> tuple[int, int, int]:
    degrees = [len(a) for a in adj]
    return len(adj), min(degrees), max(degrees)


def text_fields(out: str) -> dict[str, str]:
    """`name = value` lines of the CLI's text output."""
    fields = {}
    for line in out.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            fields[name.strip()] = value.strip()
    return fields
