"""The four workloads.  Each prepares its input files from the workload seed,
then runs one round of fixed operations through ``dmagic.cli.main`` and checks
every output with ``checker``.

A round puts each timed operation in one of two groups, reported as
``primary_s`` and ``secondary_s``:

  certify          construct            | verify stored + tampered certificates
  table            table --cert-dir     | verify + tampered verify, obstruct
  search           exhaustive proofs    | witness searches under a node budget
  search-parallel  exhaustive, 2 procs  | witness searches, 2 procs

and returns ``decided``: answers in the round that were definite and checked.
Expected verdicts are the baseline's: those of dmagic 0.1.0, the version this
benchmark was defined on.  A cell or search left undecided there may become
decided, but a decided answer may not flip or go undecided.
"""

from __future__ import annotations

import csv
import random
import re
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checker
import tracing

# Blown-up cliques K_m[n] (m blocks of n) drawn by the seed.  Shapes in one
# list have edge counts within 1% of each other, so a run's total work does
# not depend on the draw.
CASE1 = [(23, 28), (24, 27), (28, 23), (32, 20), (40, 16)]  # ~200k edges, 4 | mn
CASE2 = [(5, 110), (9, 58), (15, 34)]                       # ~121k edges, m odd, n = 2 mod 4
COMPLETE = [597, 599, 601, 603, 605]                        # ~180k edges

TABLE_GRID = 16
# The table's magic cells re-checked by verify: hundreds of small calls, where
# per-call cost shows.  The larger cells are certify's job.
RECHECK_MAX_ORDER = 96

# Node budgets.  GUARD never binds at the baseline (the largest search
# here takes 3.4M nodes), not even if parallel budgets become one shared
# total.  WITNESS_BUDGET binds: three of the seven serial witness searches
# stop inconclusive at the baseline.
GUARD = 100_000_000
WITNESS_BUDGET = 100_000
WITNESS_LABEL_SEED = 1


def _name(m: Optional[int], n: int) -> str:
    return f"K{n}" if m is None else f"K{m}[{n}]"


def seed_status(m: int, n: int) -> str:
    """The baseline's verdict on table cell K_m[n]: magic, not-magic or open.

    not-magic cells are the odd-regular graphs on 2 mod 4 vertices (n odd,
    m = 2 mod 4) and the even complete graphs (n = 1); they are proved, not
    merely undecided.
    """
    if n == 1:
        return "magic" if m % 2 else "not-magic"
    if m == 1:
        return "magic"
    if n % 2 and m % 4 == 2:
        return "not-magic"
    if (m * n) % 4 == 0 or (m % 2 and n % 4 == 2):
        return "magic"
    return "open"


class Workload:
    name = ""
    aliases: Tuple[str, str, str] = ("", "", "")

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def round(self, h) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return ""


def _check_magic(h, key: str, result, graph: Path, cert: Path) -> Optional[int]:
    """The checked mu of a 'magic mu=X' answer, or None after reporting why."""
    if result.rc is None:
        return None
    if result.rc != 0:
        h.fail(key, f"exit {result.rc}: {result.text}")
        return None
    try:
        mu = h.certs.mu(graph, cert)
    except (checker.CheckError, OSError, ValueError) as exc:
        h.fail(key, f"certificate rejected: {exc}", wrong=True)
        return None
    if f"mu={mu}" not in result.text.split():
        h.fail(key, f"printed '{result.text}' but the certificate's mu is {mu}", wrong=True)
        return None
    return mu


def _verify_pair(h, label: str, graph: Path, cert: Path, mu: int, tampered: Optional[Path]) -> int:
    """verify a stored certificate, then its tampered copy; returns answers checked."""
    argv = ["verify", "--graph", str(graph), "--cert", str(cert)]
    r = h.op("secondary", f"verify {label}", argv,
             partial(tracing.verify, graph_path=graph, cert_path=cert))
    good = 0
    if r.rc is not None:
        if r.rc == 0 and r.text == f"magic mu={mu}":
            good += 1
        else:
            h.fail(f"verify {label}", f"exit {r.rc}: {r.text}", wrong=r.rc == 1)
    if tampered is None:
        return good
    argv = ["verify", "--graph", str(graph), "--cert", str(tampered)]
    r = h.op("secondary", f"verify-tampered {label}", argv,
             partial(tracing.verify, graph_path=graph, cert_path=tampered))
    if r.rc is not None:
        if r.rc == 1 and r.text.startswith("violation"):
            good += 1
        else:
            h.fail(f"verify-tampered {label}", f"exit {r.rc}: {r.text}", wrong=r.rc == 0)
    return good


class _Tamperer:
    """Tampered copies, remade only when the certificate's bytes change."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.made: Dict[Path, str] = {}

    def copy(self, cert: Path, index: int) -> Optional[Path]:
        out = cert.with_suffix(".tampered")
        key = checker.digest(cert)
        if self.made.get(out) != key:
            rng = random.Random(f"{self.seed}/{index}")
            if not checker.tamper(cert, out, rng):
                return None
            self.made[out] = key
        return out


class Certify(Workload):
    name = "certify"
    aliases = ("construct_s", "recheck_s", "certified")

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.dir = workdir
        self.items = [("kmokn", *rng.choice(CASE1)), ("kmokn", *rng.choice(CASE2)),
                      ("complete", None, rng.choice(COMPLETE))]
        self.tamperer = _Tamperer(seed)

    def describe(self) -> str:
        return ", ".join(_name(m, n) for _, m, n in self.items)

    def round(self, h) -> int:
        decided = 0
        for i, (family, m, n) in enumerate(self.items):
            label = _name(m, n)
            graph, cert = self.dir / f"{i}.graph", self.dir / f"{i}.cert"
            argv = ["construct", "--family", family, "--n", str(n),
                    "--graph-out", str(graph), "--cert-out", str(cert)]
            if m is not None:
                argv += ["--m", str(m)]
            r = h.op("primary", f"construct {label}", argv,
                     partial(tracing.construct, family=family, m=m, n=n))
            mu = _check_magic(h, f"construct {label}", r, graph, cert)
            if mu is None:
                continue
            decided += 1 + _verify_pair(h, label, graph, cert, mu, self.tamperer.copy(cert, i))
        return decided


class Table(Workload):
    name = "table"
    aliases = ("table_s", "recheck_s", "table_decided")

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.dir = workdir
        self.cells = [(m, n) for m in range(1, TABLE_GRID + 1) for n in range(1, TABLE_GRID + 1)]
        self.no_cells = [c for c in self.cells if seed_status(*c) == "not-magic"]
        for m, n in self.no_cells:
            order, edges = checker.kmokn_edges(m, n)
            checker.write_graph(self.dir / f"no-{m}-{n}.graph", order,
                                checker.relabel(order, edges, rng))
        self.tamperer = _Tamperer(seed)

    def describe(self) -> str:
        return f"{TABLE_GRID}x{TABLE_GRID} grid, {len(self.no_cells)} obstruction graphs"

    def round(self, h) -> int:
        certs, out = self.dir / "certs", self.dir / "table.csv"
        g = str(TABLE_GRID)
        r = h.op("primary", "table", ["table", "--max-m", g, "--max-n", g,
                                      "--cert-dir", str(certs), "-o", str(out)],
                 partial(tracing.table, max_m=TABLE_GRID, max_n=TABLE_GRID))
        decided, magic = (self._check_table(h, out, certs) if r.rc == 0 else (0, {}))
        if r.rc not in (0, None):
            h.fail("table", f"exit {r.rc}: {r.text}")
        for i, (m, n) in enumerate(self.cells):
            if m * n <= RECHECK_MAX_ORDER and seed_status(m, n) == "magic" and (m, n) in magic:
                stem = certs / f"kmokn-{m}-{n}"
                graph, cert = stem.with_suffix(".graph"), stem.with_suffix(".cert")
                _verify_pair(h, _name(m, n), graph, cert, magic[m, n], self.tamperer.copy(cert, i))
        for m, n in self.no_cells:
            key = f"obstruct {_name(m, n)}"
            graph = self.dir / f"no-{m}-{n}.graph"
            r = h.op("secondary", key, ["obstruct", "--graph", str(graph)],
                     partial(tracing.obstruct, graph_path=graph))
            if r.rc is not None and not (r.rc == 1 and r.text.startswith("not-magic")):
                h.fail(key, f"exit {r.rc}: {r.text}")
        return decided

    def _check_table(self, h, out: Path, certs: Path) -> Tuple[int, Dict[Tuple[int, int], int]]:
        """(cells decided, checked mu per magic cell); reports every wrong row."""
        with open(out, newline="") as handle:
            rows = {(int(r["m"]), int(r["n"])): r for r in csv.DictReader(handle)}
        if sorted(rows) != self.cells:
            h.fail("table", "rows do not cover the grid exactly")
            return 0, {}
        decided, magic = 0, {}
        for m, n in self.cells:
            status, expected = rows[m, n]["status"], seed_status(m, n)
            where = f"table cell {_name(m, n)}"
            if status == "magic" and expected != "not-magic":
                stem = certs / f"kmokn-{m}-{n}"
                try:
                    mu = h.certs.mu(stem.with_suffix(".graph"), stem.with_suffix(".cert"))
                except (checker.CheckError, OSError, ValueError) as exc:
                    h.fail(where, f"certificate rejected: {exc}", wrong=True)
                    continue
                if str(mu) != rows[m, n]["mu"]:
                    h.fail(where, f"mu {rows[m, n]['mu']} but certificate gives {mu}", wrong=True)
                    continue
                magic[m, n] = mu
                decided += 1
            elif status == "not-magic" and expected == "not-magic":
                decided += 1
            elif status == "unknown" and expected == "open":
                pass
            else:
                h.fail(where, f"status {status}, baseline says {expected}",
                       wrong=status in ("magic", "not-magic"))
        return decided, magic


def _search_graphs(rng: random.Random, names: List[str]) -> Dict[str, Tuple[int, List]]:
    """Graphs by name; exhaust instances are relabelled by rng."""
    out: Dict[str, Tuple[int, List]] = {}
    for name in names:
        if name.startswith("P"):
            n = int(name[1:])
            out[name] = (n, checker.path_edges(n))
        elif name == "prism4":
            out[name] = (8, checker.prism_edges(4))
        elif "[" in name:
            m, n = re.fullmatch(r"K(\d+)\[(\d+)\]", name).groups()
            out[name] = checker.kmokn_edges(int(m), int(n))
        elif name.startswith("K("):
            out[name] = checker.multipartite_edges([int(x) for x in name[2:-1].split(",")])
        else:
            n = int(name[1:])
            out[name] = (n, checker.complete_edges(n))
    return out


class Search(Workload):
    name = "search"
    aliases = ("exhaust_s", "witness_s", "solved")
    threads = 1
    # (name, parity pruning); none of these graphs has a solution, and the
    # root parity test does not end any of these searches.
    exhaust = [("K6", False), ("prism4", False), ("P11", True), ("P12", True), ("P13", True)]
    witness = ["K7", "K9", "K5[2]", "K3[3]", "K3[4]", "K2[6]", "K(1,2,2,2,2)"]
    seed_solves = {"K7", "K3[3]", "K3[4]", "K2[6]"}  # the rest stop at the budget
    probe: Optional[str] = "K11[5]"
    witness_seed = WITNESS_LABEL_SEED
    witness_budget = WITNESS_BUDGET
    # The serial witness set takes about 1 s, so a round runs it once after
    # each exhaustive search: more samples for its per-operation medians,
    # spread over the whole run.
    witness_passes = 5

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.dir = workdir
        self.paths: Dict[str, Path] = {}
        exhaust = [name for name, _ in self.exhaust]
        fixed = self.witness + ([self.probe] if self.probe else [])
        # Witness graphs stay as generated: time to a witness is heavy-tailed
        # in vertex numbering as well as label order, so a seeded relabelling
        # would make witness_s swing by more than any bound.
        for name, (n, edges) in _search_graphs(rng, exhaust + fixed).items():
            if name in exhaust:
                edges = checker.relabel(n, edges, rng)
            path = self.dir / (re.sub(r"\W", "_", name) + ".graph")
            checker.write_graph(path, n, edges)
            self.paths[name] = path
        self.nodes: Dict[str, str] = {}

    def describe(self) -> str:
        return f"exhaust {[n for n, _ in self.exhaust]}, witness {self.witness}"

    def _search(self, h, group: Optional[str], key: str, name: str, nodes: int,
                parity: bool, seed: int) -> tuple:
        graph = self.paths[name]
        cert = graph.with_suffix(".cert")
        cert.unlink(missing_ok=True)
        argv = ["search", "--graph", str(graph), "--nodes", str(nodes), "-o", str(cert)]
        if seed:
            argv += ["--seed", str(seed)]
        if not parity:
            argv.append("--no-parity-prune")
        if self.threads > 1:
            argv += ["--threads", str(self.threads)]
        r = h.op(group, key, argv, partial(tracing.search, graph_path=graph, nodes=nodes,
                                           seed=seed, parity_prune=parity, threads=self.threads))
        if r.rc is not None:
            self.nodes[key] = r.text
        return r, graph, cert

    def _witness_ok(self, h, key: str, r, graph: Path, cert: Path, solved_before: bool) -> int:
        """1 for a checked witness, 0 for inconclusive; a 'no' is wrong."""
        if r.rc == 2:
            if solved_before:
                h.fail(key, f"inconclusive where the baseline finds a witness: {r.text}")
            return 0
        if r.rc == 0:
            return int(_check_magic(h, key, r, graph, cert) is not None)
        if r.rc is not None:
            h.fail(key, f"exit {r.rc} on a graph with a solution: {r.text}", wrong=r.rc == 1)
        return 0

    def _witness_pass(self, h) -> int:
        found = 0
        for name in self.witness:
            key = f"witness {name}"
            r, graph, cert = self._search(h, "secondary", key, name, self.witness_budget,
                                          True, self.witness_seed)
            found += self._witness_ok(h, key, r, graph, cert, name in self.seed_solves)
        return found

    def round(self, h) -> int:
        decided = 0
        passes_after = range(len(self.exhaust))[-self.witness_passes:]
        for i, (name, parity) in enumerate(self.exhaust):
            key = f"exhaust {name}"
            r, _, _ = self._search(h, "primary", key, name, GUARD, parity, 0)
            if r.rc == 1 and r.text.startswith("exhausted-no-solution"):
                decided += 1
            elif r.rc is not None:
                h.fail(key, f"exit {r.rc} on a graph with no solution: {r.text}", wrong=r.rc == 0)
            if i in passes_after:
                found = self._witness_pass(h)
                if i == passes_after[0]:
                    decided += found
        if self.probe:
            # Counts toward attempted and failed, never toward a timing.
            key = f"probe {self.probe}"
            r, graph, cert = self._search(h, None, key, self.probe, WITNESS_BUDGET, True, 0)
            decided += self._witness_ok(h, key, r, graph, cert, False)
        return decided


class SearchParallel(Search):
    name = "search-parallel"
    threads = 2
    exhaust = [("K6", False), ("prism4", False)]
    witness = ["K9", "K(1,2,2,2,2)", "K5[2]", "K2[6]"]
    seed_solves = set(witness)
    probe = None
    witness_seed = 0
    witness_budget = GUARD
    witness_passes = 1


WORKLOADS = {w.name: w for w in (Certify, Table, Search, SearchParallel)}
