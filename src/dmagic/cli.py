"""Command line interface.

Every subcommand answers the same underlying question about some graph: does
an orientation with a magic labeling exist?  Exit codes are uniform across
subcommands: 0 means yes (or the requested artifact was produced), 1 means a
proven no (or a certificate that fails verification), 2 means undecided, bad
input, or a usage error, and 3 means an internal error: a defect in dmagic,
never a verdict.  An answer line's exit code is read off its first word in
ANSWER_EXIT, the one place where answers are mapped to exit codes.

The parser is built once per process, at the first call of main, and reused
by every later call.  Its handlers are bound then, so a test should patch the
module-level names the handlers call (decide_existence, decide_kmokn, ...),
not the _cmd_* functions.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, TextIO

from . import __version__, fanout
from .constructors import STATUS_MAGIC, STATUS_NOT_MAGIC, decide_kmokn, kmokn_graph
from .graphs import (
    UndirectedGraph,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    graph_to_text,
    parse_graph,
    path,
    prism,
)
from .obstructions import parity_feasibility, theorem1_check
from .search import SearchConfig, decide_existence
from .verifier import (
    Violation,
    certificate_to_text,
    read_certificate,
    verify,
)
from .zero_sum import zero_sum_partition

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2
EXIT_INTERNAL = 3

ANSWER_EXIT = {
    "magic": EXIT_YES, "witness": EXIT_YES,
    "not-magic": EXIT_NO, "violation": EXIT_NO, "exhausted-no-solution": EXIT_NO,
    "inconclusive": EXIT_UNDECIDED,
}


def _answer(line: str, file: Optional[TextIO] = None) -> int:
    """Print an answer line (to stdout unless file is given); its exit code."""
    print(line, file=file)
    return ANSWER_EXIT[line.split()[0]]


def _write_text(target: Optional[str], text: str) -> None:
    """Write to stdout, or atomically to a file (temp file plus rename)."""
    if target is None or target == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(target)) or "."
    tmp = os.path.join(directory, f".dmagic.{os.urandom(8).hex()}")
    # mode 0666 less the umask, as open() gives; mkstemp would give 0600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_graph(path_str: str) -> UndirectedGraph:
    return parse_graph(Path(path_str).read_text())


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for --family {args.family}")


def _cmd_graph(args: argparse.Namespace) -> int:
    if args.family == "multipartite":
        _require(args, "sizes")
        graph = complete_multipartite(args.sizes)
    elif args.family == "kmokn":
        _require(args, "m", "n")
        graph = kmokn_graph(args.m, args.n)
    else:
        _require(args, "n")
        maker = {"complete": complete, "empty": empty_graph,
                 "path": path, "cycle": cycle, "prism": prism}[args.family]
        graph = maker(args.n)
    _write_text(args.output, graph_to_text(graph))
    return EXIT_YES


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    # K_n is the family cell (n, 1) and n isolated vertices the cell (1, n)
    if args.family == "complete":
        m, n, stem = args.n, 1, f"complete-{args.n}"
    elif args.family == "empty":
        m, n, stem = 1, args.n, f"empty-{args.n}"
    else:
        _require(args, "m")
        m, n, stem = args.m, args.n, f"kmokn-{args.m}-{args.n}"
    decision = decide_kmokn(m, n)
    if decision.status == STATUS_NOT_MAGIC:
        return _answer(f"not-magic {decision.obstruction}", sys.stderr)
    cert = decision.certificate
    _write_text(args.graph_out or f"{stem}.graph", graph_to_text(cert.graph))
    _write_text(args.cert_out or f"{stem}.cert", certificate_to_text(cert))
    return _answer(f"magic mu={cert.mu}")


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    orientation, labeling, claimed_mu = read_certificate(Path(args.certificate).read_text(), graph)
    result = verify(graph, orientation, labeling)
    if isinstance(result, Violation):
        return _answer(f"violation vertex={result.vertex} weight={result.weight} "
                       f"expected={result.expected}")
    if result.mu != claimed_mu:
        return _answer(f"violation claimed mu={claimed_mu} but weights are {result.mu}")
    return _answer(f"magic mu={result.mu}")


def _cmd_decide(args: argparse.Namespace) -> int:
    decision = decide_kmokn(args.m, args.n)
    if decision.status == STATUS_MAGIC:
        return _answer(f"magic {decision.method} mu={decision.certificate.mu}")
    return _answer(f"not-magic {decision.obstruction}")


def _cmd_search(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    config = SearchConfig(
        node_budget=args.nodes,
        time_budget=args.seconds,
        workers=args.threads,
        reduce=args.reduce,
        parity_prune=args.parity_prune,
        seed=args.seed,
    )
    outcome = decide_existence(graph, config)
    cert, stats = outcome.certificate, outcome.stats
    mu = "" if cert is None else f" mu={cert.mu}"
    code = _answer(f"{outcome.verdict}{mu} nodes={stats.nodes} time_ms={stats.elapsed * 1000:.1f}")
    if cert is not None:
        _write_text(args.output, certificate_to_text(cert))
    return code


def _cmd_obstruct(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    cert = theorem1_check(graph) or parity_feasibility(graph)
    if cert is None:
        return _answer("inconclusive")
    details = "".join(f" {k}={v}" for k, v in cert.details.items())
    return _answer(f"not-magic {cert.reason}{details}")


def _cmd_partition(args: argparse.Namespace) -> int:
    partition = zero_sum_partition(args.size, args.sizes)
    lines = [" ".join(str(x) for x in part) for part in partition.parts]
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_YES


# Helpers start only when the grid's cells hold at least this much work,
# counted as the sum of (mn)^2 over the cells, the edge count of K_m[n] up to
# a constant, as starting one costs some 5-10 ms.  Median table --cert-dir
# times on 2 cores, one process against two: 8x8 (41,616) 36 ms against 45,
# 10x10 (148,225) 73 against 70, 11x11 (256,036) 96 against 72.
_HELPER_WORK = 200_000


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _table_cells(run: List) -> List[List]:
    """The CSV row of each cell taken from the shared index until none is
    left or the run stops: decided, and with a cert dir, a magic cell's graph
    and certificate written.  An error stops the run."""
    stop, next_cell, cells, cert_dir = run
    rows = []
    try:
        while not stop.value:
            i = fanout.take(next_cell)
            if i >= len(cells):
                break
            m, n = cells[i]
            started = perf_counter()
            decision = decide_kmokn(m, n)
            cert = decision.certificate
            mu = "" if cert is None else cert.mu
            method = decision.method or decision.obstruction
            elapsed_ms = (perf_counter() - started) * 1000
            rows.append(["kmokn", m, n, m * n, decision.status, mu, method, f"{elapsed_ms:.1f}"])
            if cert is not None and cert_dir:
                stem = os.path.join(cert_dir, f"kmokn-{m}-{n}")
                _write_text(stem + ".graph", graph_to_text(cert.graph))
                _write_text(stem + ".cert", certificate_to_text(cert))
    except BaseException:
        stop.value = 1
        raise
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    for name, value in (("max-m", args.max_m), ("max-n", args.max_n)):
        if value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")
    cells = [(m, n) for m in range(1, args.max_m + 1) for n in range(1, args.max_n + 1)]
    cells.sort(key=lambda cell: -cell[0] * cell[1])  # largest first, ties in (m, n) order
    work = sum((m * n) ** 2 for m, n in cells)
    count = min(_cores(), len(cells)) - 1 if work >= _HELPER_WORK else 0
    if args.cert_dir:
        os.makedirs(args.cert_dir, exist_ok=True)
    # every process shares the stop signal and the next cell's index
    run = [*fanout.values(2, count > 0), cells, args.cert_dir]
    helpers: List = []
    rows: List[List] = []
    try:
        if count:
            fanout.start(helpers, _table_cells, run, count)
        rows = _table_cells(run)
    finally:  # wait for the helpers, which an error here has stopped
        results = fanout.collect(helpers, len(rows) == len(cells), "a table helper process died")
    for result in results:
        if isinstance(result, BaseException):
            raise result
        rows += result
    rows.sort(key=lambda row: row[1:3])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["family", "m", "n", "order", "status", "mu", "method", "time_ms"])
    writer.writerows(rows)
    _write_text(args.output, buffer.getvalue())
    return EXIT_YES


def _int_list(text: str) -> List[int]:
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_output_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write to FILE atomically instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmagic",
        description="Orientable distance magic labelings over Z_n: construct, verify, decide, search.",
    )
    parser.add_argument("--version", action="version", version=f"dmagic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="write a named graph in the text format")
    p_graph.add_argument("--family", required=True,
                         choices=["complete", "empty", "path", "cycle", "prism",
                                  "kmokn", "multipartite"])
    p_graph.add_argument("--n", type=int, default=None)
    p_graph.add_argument("--m", type=int, default=None,
                         help="outer count for --family kmokn")
    p_graph.add_argument("--sizes", type=_int_list, default=None, metavar="A,B,...",
                         help="block sizes for --family multipartite")
    _add_output_option(p_graph)
    p_graph.set_defaults(handler=_cmd_graph)

    p_construct = sub.add_parser("construct", help="build a verified certificate by formula")
    p_construct.add_argument("--family", required=True,
                             choices=["complete", "empty", "kmokn"])
    p_construct.add_argument("--n", type=int, required=True)
    p_construct.add_argument("--m", type=int, default=None,
                             help="outer count for --family kmokn")
    p_construct.add_argument("--graph-out", metavar="FILE", default=None,
                             help="graph file (default <family>-<params>.graph)")
    p_construct.add_argument("--cert-out", metavar="FILE", default=None,
                             help="certificate file (default <family>-<params>.cert)")
    p_construct.set_defaults(handler=_cmd_construct)

    p_verify = sub.add_parser("verify", help="check a certificate file against a graph file")
    p_verify.add_argument("--graph", required=True, metavar="FILE")
    p_verify.add_argument("--cert", dest="certificate", required=True, metavar="FILE")
    p_verify.set_defaults(handler=_cmd_verify)

    p_decide = sub.add_parser("decide", help="classify one cell of the blown-up clique family")
    p_decide.add_argument("--family", required=True, choices=["kmokn"])
    p_decide.add_argument("--m", type=int, required=True)
    p_decide.add_argument("--n", type=int, required=True)
    p_decide.set_defaults(handler=_cmd_decide)

    p_search = sub.add_parser("search", help="exhaustive search on an arbitrary graph file")
    p_search.add_argument("--graph", required=True, metavar="FILE")
    _add_output_option(p_search)
    p_search.add_argument("--nodes", type=int, default=None, metavar="B",
                          help="stop as inconclusive after B search nodes, counted over "
                               "all workers; with --threads each worker may run up to "
                               "1024 nodes past B")
    p_search.add_argument("--seconds", type=float, default=None, metavar="S",
                          help="stop as inconclusive after S seconds of the whole run; "
                               "with --threads each worker may run up to 1024 nodes past S")
    p_search.add_argument("--threads", type=int, default=1, metavar="T",
                          help="parallel workers over the kept pairs of first two "
                               "labels, which every search walks in order: this process "
                               "searches first, and the other T-1 start once the run has "
                               "searched 1024 nodes; an exhausted search visits the same "
                               "nodes as serially, and the first witness stops them all")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--no-reduce", dest="reduce", action="store_false",
                          help="disable the symmetry reductions: arc reversal, "
                               "the unit group of Z_N, and the graph's automorphisms "
                               "(orbit nogoods, which bar each exhausted label from "
                               "its vertex's orbit); the search still walks the pairs "
                               "of first two labels one at a time, all of them kept")
    p_search.add_argument("--no-parity-prune", dest="parity_prune", action="store_false",
                          help="disable the parity rule: both the root parity test and "
                               "the per-label parity masks")
    p_search.set_defaults(handler=_cmd_search)

    p_obstruct = sub.add_parser("obstruct", help="look for a nonexistence certificate")
    p_obstruct.add_argument("--graph", required=True, metavar="FILE")
    p_obstruct.set_defaults(handler=_cmd_obstruct)

    p_partition = sub.add_parser("partition", help="zero-sum partition of the symmetric set for even N")
    p_partition.add_argument("--N", dest="size", type=int, required=True,
                             help="even total size of the symmetric set")
    p_partition.add_argument("--sizes", type=_int_list, required=True, metavar="A,B,...")
    _add_output_option(p_partition)
    p_partition.set_defaults(handler=_cmd_partition)

    p_table = sub.add_parser(
        "table", help="CSV classification of the family grid",
        description="Decide every cell K_m[n] with m <= --max-m and n <= --max-n, and write "
                    "one CSV row per cell in (m, n) order.  On a grid large enough to pay "
                    "for starting processes, the cells are decided, largest first, on every "
                    "core available to this process; taskset limits them (taskset -c 0 "
                    "uses one).  The output bytes do not depend on how many cores that is, "
                    "apart from the time_ms column.")
    p_table.add_argument("--max-m", type=int, default=8)
    p_table.add_argument("--max-n", type=int, default=8)
    p_table.add_argument("--cert-dir", default=None,
                         help="write graph and certificate files for every magic cell")
    _add_output_option(p_table)
    p_table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # FormatError and NotALabelingError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
