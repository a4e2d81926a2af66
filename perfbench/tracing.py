"""Spans around calls into dmagic's layers, and the per-layer metrics they give.

dmagic has no spans of its own yet, so a traced operation is measured twice:
an op span around ``cli.main`` exactly as the timed run calls it, then a
replay of the public functions that subcommand calls, one child span per
call.  Replay spans marked ``mirror`` redo the subcommand's own work, so the
op span minus them is the CLI's own time (argument parsing, file I/O,
printing).  Other replay spans re-time a piece that a mirrored call performs
inside itself (graph build, case-1 sets, verify, root parity, a serial
reference search); they are children of the span they explain, so that
span's self time is its duration minus theirs.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

PARITY_LIST_CAP = 4096  # dmagic's default --parity-list-cap


def on_fresh_thread(fn: Callable[[], Any]) -> Any:
    """fn() on a new thread, so that it starts at the same call depth every time.

    dmagic's search recurses once per step.  On CPython 3.11 the speed of its
    forked --threads workers depends on the call depth they inherit: K9 with
    --threads 2 took 3.1 s to 13 s (mostly system time) as the caller's depth
    varied.  A fresh thread fixes that depth whatever the harness's own.
    """
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the calling thread, re-raised there
            box["error"] = exc

    worker = threading.Thread(target=target, name="dmagic-op")
    worker.start()
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    mirror: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; written once, by ``dump``, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op_id = 0
        self.replay_errors = 0

    def _open(self, name: str, parent: Optional[int], mirror: bool = False) -> Span:
        span = Span(len(self.spans), name, self.op_id, parent, perf_counter(), mirror=mirror)
        self.spans.append(span)
        return span

    def time_op(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run one operation under a fresh op id; returns fn's result."""
        self.op_id += 1
        span = self._open(name, None)
        try:
            return fn()
        finally:
            span.end = perf_counter()

    def replay(self, fn: Callable[["Tracer", Span], None]) -> None:
        span = self._open("replay", None)
        try:
            on_fresh_thread(lambda: fn(self, span))
        except Exception as exc:  # a replay must not stop the run; count it
            self.replay_errors += 1
            print(f"trace: replay of op {self.op_id} failed: {exc!r}")
        finally:
            span.end = perf_counter()

    def call(self, name: str, parent: Span, fn: Callable, *args, mirror: bool = True,
             **kwargs) -> tuple:
        """Time fn(*args, **kwargs) as a child of parent; returns (result, span)."""
        span = self._open(name, parent.id, mirror)
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = perf_counter()

    def dump(self, path: Path) -> None:
        rows = [{"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.start, "end": s.end, "mirror": s.mirror, "attrs": s.attrs}
                for s in self.spans]
        path.write_text(json.dumps(rows))


# ------------------------------------------------------------------ replays
# Each replay repeats what one dmagic subcommand does, through public calls.

def construct(tr: Tracer, root: Span, family: str, m: Optional[int], n: int) -> None:
    from dmagic import constructors, graphs, verifier

    if family == "complete":
        cert, span = tr.call("constructors.construct", root, constructors.construct_complete, n)
        _explain_construct(tr, span, cert, graphs.complete, (n,))
    else:
        decision, span = tr.call("constructors.construct", root, constructors.decide_kmokn, m, n)
        cert = decision.certificate
        _explain_construct(tr, span, cert, constructors.kmokn_graph, (m, n),
                           case1=(m, n) if decision.method == "case1" else None)
    tr.call("graphs.to_text", root, graphs.graph_to_text, cert.graph)
    tr.call("verifier.cert_to_text", root, verifier.certificate_to_text, cert)


def _explain_construct(tr: Tracer, span: Span, cert, build: Callable, build_args: tuple,
                       case1: Optional[tuple] = None) -> None:
    """Re-time the graph build, case-1 sets and verify a constructor runs inside."""
    from dmagic import verifier, zero_sum

    graph, b = tr.call("graphs.build", span, build, *build_args, mirror=False)
    b.attrs["edges"] = len(graph.edges)
    if case1 is not None:
        tr.call("zero_sum.case1_sets", span, zero_sum.case1_sets, *case1, mirror=False)
    _, v = tr.call("verifier.verify", span, verifier.verify,
                   cert.graph, cert.orientation, cert.labeling, mirror=False)
    v.attrs["edges"] = len(cert.graph.edges)


def verify(tr: Tracer, root: Span, graph_path: Path, cert_path: Path) -> None:
    from dmagic import graphs, verifier

    graph_text, cert_text = graph_path.read_text(), cert_path.read_text()
    graph, _ = tr.call("graphs.parse", root, graphs.parse_graph, graph_text)
    parsed, _ = tr.call("verifier.cert_parse", root, verifier.parse_certificate, cert_text)
    (orientation, labeling, _), _ = tr.call("verifier.bind", root, verifier.bind_certificate,
                                            parsed, graph)
    _, v = tr.call("verifier.verify", root, verifier.verify, graph, orientation, labeling)
    v.attrs["edges"] = len(graph.edges)


def obstruct(tr: Tracer, root: Span, graph_path: Path) -> None:
    from dmagic import graphs, obstructions

    graph, _ = tr.call("graphs.parse", root, graphs.parse_graph, graph_path.read_text())
    found, _ = tr.call("obstructions.theorem1", root, obstructions.theorem1_check, graph)
    if found is None:
        tr.call("obstructions.parity", root, obstructions.parity_feasibility, graph)


def table(tr: Tracer, root: Span, max_m: int, max_n: int) -> None:
    from dmagic import constructors, graphs, obstructions, verifier

    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            decision, span = tr.call("constructors.construct", root, constructors.decide_kmokn, m, n)
            if decision.obstruction == "theorem2":
                k, _ = tr.call("graphs.build", root, graphs.complete, m)
                tr.call("obstructions.parity", root, obstructions.parity_feasibility, k)
            cert = decision.certificate
            if cert is None:
                continue
            _explain_construct(tr, span, cert, constructors.kmokn_graph, (m, n),
                               case1=(m, n) if decision.method == "case1" else None)
            tr.call("graphs.to_text", root, graphs.graph_to_text, cert.graph)
            tr.call("verifier.cert_to_text", root, verifier.certificate_to_text, cert)


def search(tr: Tracer, root: Span, graph_path: Path, nodes: int, seed: int,
           parity_prune: bool, threads: int) -> None:
    from dmagic import graphs, obstructions, search as dsearch, verifier

    graph, _ = tr.call("graphs.parse", root, graphs.parse_graph, graph_path.read_text())
    config = dsearch.SearchConfig(node_budget=nodes, workers=threads,
                                  parity_prune=parity_prune, seed=seed)
    outcome, span = tr.call("search.decide", root, dsearch.decide_existence, graph, config)
    span.attrs.update(_stats(outcome), threads=threads)
    if outcome.certificate is not None:
        tr.call("verifier.cert_to_text", root, verifier.certificate_to_text, outcome.certificate)
        cert = outcome.certificate
        _, v = tr.call("verifier.verify", span, verifier.verify, graph, cert.orientation,
                       cert.labeling, mirror=False)
        v.attrs["edges"] = len(graph.edges)
    if parity_prune and graph.vertex_count % 2 == 0:
        tr.call("obstructions.parity", span, obstructions.parity_solutions, graph,
                max_solutions=PARITY_LIST_CAP, mirror=False)
    if threads > 1:
        serial, s = tr.call("search.serial", span, dsearch.decide_existence, graph,
                            replace(config, workers=1), mirror=False)
        s.attrs.update(_stats(serial), threads=1)


def _stats(outcome) -> Dict[str, Any]:
    return {"verdict": outcome.verdict, "nodes": outcome.stats.nodes,
            "prunes": dict(outcome.stats.prunes)}


# ------------------------------------------------------------ layer metrics

PER_LAYER = [
    ("graphs.build_s", "s"), ("graphs.build_edges_per_s", "edges/s"), ("graphs.to_text_s", "s"),
    ("graphs.parse_s", "s"), ("verifier.cert_parse_s", "s"), ("verifier.bind_s", "s"),
    ("verifier.verify_s", "s"), ("verifier.verify_edges_per_s", "edges/s"),
    ("verifier.cert_to_text_s", "s"), ("zero_sum.case1_sets_s", "s"),
    ("constructors.construct_s", "s"), ("constructors.self_s", "s"),
    ("obstructions.theorem1_s", "s"), ("obstructions.parity_s", "s"),
    ("search.nodes", "count"), ("search.nodes_per_s", "nodes/s"), ("search.witness_nodes", "count"),
    ("search.prunes.weight", "count"), ("search.prunes.interval", "count"),
    ("search.prunes.parity", "count"), ("search.prune_share", "ratio"),
    ("search.parallel_efficiency", "ratio"), ("cli.overhead_s", "s"),
    ("trace.overhead_share", "ratio"), ("trace.replay_errors", "count"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer values over the given spans (one traced round)."""
    by_name: Dict[str, List[Span]] = {}
    children: Dict[int, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name.get(name, []))

    def edges(name: str) -> int:
        return sum(s.attrs.get("edges", 0) for s in by_name.get(name, []))

    out = {
        "graphs.build_s": total("graphs.build"),
        "graphs.build_edges_per_s": _ratio(edges("graphs.build"), total("graphs.build")),
        "graphs.to_text_s": total("graphs.to_text"),
        "graphs.parse_s": total("graphs.parse"),
        "verifier.cert_parse_s": total("verifier.cert_parse"),
        "verifier.bind_s": total("verifier.bind"),
        "verifier.verify_s": total("verifier.verify"),
        "verifier.verify_edges_per_s": _ratio(edges("verifier.verify"), total("verifier.verify")),
        "verifier.cert_to_text_s": total("verifier.cert_to_text"),
        "zero_sum.case1_sets_s": total("zero_sum.case1_sets"),
        "constructors.construct_s": total("constructors.construct"),
        "constructors.self_s": sum(
            s.seconds - sum(c.seconds for c in children.get(s.id, []))
            for s in by_name.get("constructors.construct", [])),
        "obstructions.theorem1_s": total("obstructions.theorem1"),
        "obstructions.parity_s": total("obstructions.parity"),
    }
    # Search counters come from serial searches only: a parallel run's node
    # count omits subtrees still running when it stops.
    serial = [s for s in by_name.get("search.decide", []) + by_name.get("search.serial", [])
              if s.attrs.get("threads") == 1]
    nodes = sum(s.attrs["nodes"] for s in serial)
    prunes = {k: sum(s.attrs["prunes"].get(k, 0) for s in serial)
              for k in ("weight", "interval", "parity")}
    parallel = [s for s in by_name.get("search.decide", []) if s.attrs.get("threads", 1) > 1]
    out.update({
        "search.nodes": nodes,
        "search.nodes_per_s": _ratio(nodes, sum(s.seconds for s in serial)),
        "search.witness_nodes": sum(s.attrs["nodes"] for s in serial
                                    if s.attrs["verdict"] == "witness"),
        "search.prunes.weight": prunes["weight"],
        "search.prunes.interval": prunes["interval"],
        "search.prunes.parity": prunes["parity"],
        "search.prune_share": _ratio(sum(prunes.values()), nodes),
        "search.parallel_efficiency": _ratio(total("search.serial"),
                                             2 * sum(s.seconds for s in parallel)),
    })
    ops = [s for s in spans if s.parent is None and s.name != "replay"]
    replays = {s.op: s for s in spans if s.name == "replay"}
    out["cli.overhead_s"] = sum(
        op.seconds - sum(c.seconds for c in children.get(replays[op.op].id, []) if c.mirror)
        for op in ops if op.op in replays)
    return out


def serial_search_counts(spans: List[Span]) -> Dict[str, str]:
    """Exact nodes and prunes of each serial search, by operation name."""
    ops = {s.op: s.name for s in spans if s.parent is None and s.name != "replay"}
    return {ops[s.op]: f"{s.attrs['verdict']} nodes={s.attrs['nodes']} prunes={s.attrs['prunes']}"
            for s in spans
            if s.name in ("search.decide", "search.serial") and s.attrs.get("threads") == 1}


def median_metrics(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: median(r[k] for r in rounds) for k in rounds[0]}
