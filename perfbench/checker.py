"""Independent checks of dmagic's text outputs, plus the input generators.

Nothing here imports dmagic: graphs are generated, and certificates are
re-checked, from the text formats alone.  A certificate passes when its labels
are a bijection onto Z_N, its arcs orient every edge of the graph file exactly
once, and every vertex weight (in-neighbour labels minus out-neighbour labels,
mod N) equals the stated mu.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


class CheckError(Exception):
    """An output of the program is wrong."""


# ---------------------------------------------------------------- graphs

def complete_edges(n: int) -> List[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def multipartite_edges(sizes: Sequence[int]) -> Tuple[int, List[Edge]]:
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    block = [b for b, s in enumerate(sizes) for _ in range(s)]
    n = starts[-1]
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] != block[v]]


def kmokn_edges(m: int, n: int) -> Tuple[int, List[Edge]]:
    """m mutually joined independent blocks of n vertices each."""
    return multipartite_edges([n] * m)


def path_edges(n: int) -> List[Edge]:
    return [(i, i + 1) for i in range(n - 1)]


def prism_edges(n: int) -> List[Edge]:
    """Two n-cycles on 0..n-1 and n..2n-1 joined by the matching i -- i+n."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    return ring + [(u + n, v + n) for u, v in ring] + [(i, i + n) for i in range(n)]


def relabel(n: int, edges: Iterable[Edge], rng: random.Random) -> List[Edge]:
    """An isomorphic copy under a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def write_graph(path: Path, n: int, edges: Iterable[Edge]) -> None:
    """Canonical graph text: sorted pairs u < v."""
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    lines = [f"graph {n} {len(canon)}"] + [f"e {u} {v}" for u, v in canon]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------- certificates

def _records(path: Path):
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line.split()


def read_graph(path: Path) -> Tuple[int, array]:
    """(N, sorted edge keys u*N+v), checking the canonical text form.

    Arrays rather than lists keep the checker's memory well below the
    program's, so peak_rss_mb measures the program.
    """
    records = _records(path)
    head = next(records, None)
    if head is None or head[0] != "graph" or len(head) != 3:
        raise CheckError(f"{path.name}: missing graph header")
    n, count = int(head[1]), int(head[2])
    keys = array("q")
    last = -1
    for rec in records:
        if rec[0] != "e" or len(rec) != 3:
            raise CheckError(f"{path.name}: bad edge record {rec}")
        u, v = int(rec[1]), int(rec[2])
        key = u * n + v
        if not 0 <= u < v < n or key <= last:
            raise CheckError(f"{path.name}: edge ({u}, {v}) out of range or order")
        keys.append(key)
        last = key
    if len(keys) != count:
        raise CheckError(f"{path.name}: header says {count} edges, found {len(keys)}")
    return n, keys


def check_certificate(graph_path: Path, cert_path: Path) -> int:
    """Recompute every weight; return mu or raise CheckError."""
    n, keys = read_graph(graph_path)
    records = _records(cert_path)
    head = next(records, None)
    if head is None or head != ["certificate", str(n)]:
        raise CheckError(f"{cert_path.name}: header {head} does not match order {n}")
    mu: Optional[int] = None
    labels = [-1] * n
    tails, heads = array("q"), array("q")
    for rec in records:
        kind = rec[0]
        if kind == "mu" and len(rec) == 2 and mu is None:
            mu = int(rec[1])
        elif kind == "l" and len(rec) == 3:
            v, x = int(rec[1]), int(rec[2])
            if not (0 <= v < n and 0 <= x < n) or labels[v] != -1:
                raise CheckError(f"{cert_path.name}: bad label record {rec}")
            labels[v] = x
        elif kind == "a" and len(rec) == 3:
            tails.append(int(rec[1]))
            heads.append(int(rec[2]))
        else:
            raise CheckError(f"{cert_path.name}: unexpected record {rec}")
    if mu is None or sorted(labels) != list(range(n)):
        raise CheckError(f"{cert_path.name}: labels are not a bijection onto Z_{n}")
    arc_keys = array("q", (min(t, h) * n + max(t, h) for t, h in zip(tails, heads)))
    if arc_keys != keys and array("q", sorted(arc_keys)) != keys:
        raise CheckError(f"{cert_path.name}: arcs do not orient each edge exactly once")
    weights = [0] * n
    for t, h in zip(tails, heads):
        weights[h] += labels[t]
        weights[t] -= labels[h]
    bad = [v for v in range(n) if weights[v] % n != mu % n]
    if bad:
        raise CheckError(f"{cert_path.name}: vertex {bad[0]} has weight "
                         f"{weights[bad[0]] % n}, stated mu is {mu}")
    return mu % n


def tamper(cert_path: Path, out_path: Path, rng: random.Random) -> bool:
    """Write a copy with one arc reversed; False when no arc qualifies.

    Reversing t -> h moves w(t) by +2l(h) and w(h) by -2l(t), so both ends
    change when neither label is 0 or N/2: the copy is never magic.
    """
    lines = cert_path.read_text().splitlines()
    order = int(lines[0].split()[1])
    labels: Dict[int, int] = {}
    arc_rows = []
    for i, line in enumerate(lines):
        f = line.split()
        if f and f[0] == "l":
            labels[int(f[1])] = int(f[2])
        elif f and f[0] == "a":
            arc_rows.append((i, int(f[1]), int(f[2])))
    fixed = {0, order // 2} if order % 2 == 0 else {0}
    usable = [r for r in arc_rows if labels[r[1]] not in fixed and labels[r[2]] not in fixed]
    if not usable:
        return False
    i, t, h = rng.choice(usable)
    lines[i] = f"a {h} {t}"
    out_path.write_text("\n".join(lines) + "\n")
    return True


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class CertCache:
    """check_certificate, skipping files whose bytes were already checked."""

    def __init__(self) -> None:
        self._seen: Dict[str, int] = {}

    def mu(self, graph_path: Path, cert_path: Path) -> int:
        key = digest(graph_path, cert_path)
        if key not in self._seen:
            self._seen[key] = check_certificate(graph_path, cert_path)
        return self._seen[key]
