"""dmagic benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ./src and driven
in-process through ``dmagic.cli.main``, the entry point users call; all files
live in a scratch directory under ./.perfbench that is removed at exit.

--trace 0 repeats the workload's round until --seconds have passed, and at
least twice, and prints
the end-to-end metrics: each timing is the sum, over the round's operations,
of each operation's median time across rounds.  --trace 1 runs one untimed
round, then traced rounds (see tracing.py), and prints the per-layer metrics.
Whatever the mode, the last line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional

import checker
import tracing
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_ROUNDS = 2  # a run is never a single sample, however long a round takes

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("primary_s", "s"),
              ("secondary_s", "s"), ("decided", "count")]


def _reference_loop() -> int:
    """Fixed pure-Python work (integer arithmetic, dict stores); no allocation
    that the cyclic collector tracks, so dmagic's heap cannot change its time."""
    s, d = 0, {}
    for i in range(30000):
        d[i & 255] = s
        s = (s * 31 + i) % 1000003
    return s


class Speed:
    """Machine speed, sampled between operations with a reference loop.

    On the shared 2-core box this benchmark was defined on, the serial exhaust set
    took 9.2 s to 15.2 s in runs minutes apart, and a reference loop drifted
    with it.  Timings are therefore reported in reference seconds: the raw
    time times NOMINAL_S over the loop's time measured next to the operation.
    Over 90 s of alternating samples this cut the spread of 8-sample window
    medians from 27% to 8%.  Raw seconds are printed alongside.
    """

    NOMINAL_S = 0.005  # the loop's usual time on that box
    GAP_S = 0.25       # at most one sample per quarter second of operations

    def __init__(self) -> None:
        self.samples: List[tuple] = []  # (perf_counter when taken, loop seconds)

    def sample(self) -> None:
        times = []
        for _ in range(3):
            start = perf_counter()
            _reference_loop()
            times.append(perf_counter() - start)
        self.samples.append((perf_counter(), median(times)))

    def sample_if_stale(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= self.GAP_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the loop time around [start, end]."""
        before = [d for t, d in self.samples if t <= start][-1:]
        after = [d for t, d in self.samples if t >= end][:1]
        near = before + after
        return self.NOMINAL_S / (sum(near) / len(near))


@dataclass
class Result:
    rc: Optional[int]  # None when cli.main raised
    text: str          # first line of standard output


class Harness:
    """Runs operations through cli.main, times them, and counts failures."""

    def __init__(self) -> None:
        self.cli = None  # dmagic.cli, once imported
        self.tracer: Optional[tracing.Tracer] = None
        self.certs = checker.CertCache()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.speed = Speed()
        # group -> key -> [(start, end)] of every timed call
        self.calls: Dict[str, Dict[str, List[tuple]]] = {"primary": {}, "secondary": {}}
        self.round_op_seconds = 0.0

    def _main(self, argv: List[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tracing.on_fresh_thread(lambda: self.cli.main(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        text = (out.getvalue() or err.getvalue()).strip()
        return Result(rc, text.splitlines()[0] if text else "")

    def op(self, group: Optional[str], key: str, argv: List[str],
           replay: Optional[Callable] = None) -> Result:
        """One timed call of cli.main; an exception counts as a failed op."""
        self.attempted += 1
        call = lambda: self._main(argv)
        self.speed.sample_if_stale()
        start = perf_counter()
        try:
            result = call() if self.tracer is None else self.tracer.time_op(key, call)
        except Exception as exc:
            self.fail(key, f"raised {exc!r}")
            return Result(None, "")
        end = perf_counter()
        if end - start >= Speed.GAP_S:
            self.speed.sample()
        if group is not None:
            self.calls[group].setdefault(key, []).append((start, end))
            self.round_op_seconds += end - start
            if self.tracer is not None and replay is not None:
                self.tracer.replay(replay)
        return result

    def fail(self, key: str, why: str, wrong: bool = False) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        print(f"{'WRONG' if wrong else 'failed'}: {key}: {why}")

    def op_seconds(self, group: str, reference: bool) -> Dict[str, float]:
        """Each operation's median time across rounds, raw or in reference seconds."""
        return {key: median((e - s) * (self.speed.factor(s, e) if reference else 1)
                            for s, e in calls)
                for key, calls in self.calls[group].items()}


def _fresh_import(workload: Workload, seed: int, workdir: Path, speed: Speed) -> float:
    """Import dmagic from scratch and generate the inputs; reference seconds."""
    for name in [n for n in sys.modules if n == "dmagic" or n.startswith("dmagic.")]:
        del sys.modules[name]
    speed.sample()
    start = perf_counter()
    importlib.import_module("dmagic.cli")
    workload.prepare(seed, workdir)
    end = perf_counter()
    speed.sample()
    return (end - start) * speed.factor(start, end)


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def _run(args: argparse.Namespace, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload]()
    h = Harness()
    setup_s = median(_fresh_import(workload, args.seed, workdir, h.speed)
                     for _ in range(SETUP_REPEATS))
    h.cli = sys.modules["dmagic.cli"]
    print(f"{workload.name} seed={args.seed}: {workload.describe()}")
    start = perf_counter()
    decided = [workload.round(h)]
    if args.trace:
        untraced = h.round_op_seconds
        h.tracer = tracing.Tracer()
        per_round = []
        while True:
            h.round_op_seconds = 0.0
            first_span = len(h.tracer.spans)
            workload.round(h)
            spans = h.tracer.spans[first_span:]
            layers = tracing.layer_metrics(spans)
            layers["trace.overhead_share"] = h.round_op_seconds / untraced - 1
            per_round.append(layers)
            if perf_counter() - start >= args.seconds:
                break
        for key, line in tracing.serial_search_counts(h.tracer.spans).items():
            print(f"  {key} (serial replay): {line}")
        metrics = tracing.median_metrics(per_round)
        metrics["trace.replay_errors"] = h.tracer.replay_errors
        trace_file = workdir.parent / f"trace-{workload.name}-seed{args.seed}.json"
        h.tracer.dump(trace_file)
        print(f"traced rounds: {len(per_round)}; spans written to {trace_file.relative_to(ROOT)}")
        print(f"tracing overhead: op spans {metrics['trace.overhead_share']:+.1%} "
              f"against the untraced round")
        units = dict(tracing.PER_LAYER)
        for name, _ in tracing.PER_LAYER:
            print(f"  {name} = {metrics[name]:.6g} {units[name]}")
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        while len(decided) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            decided.append(workload.round(h))
        ops = {g: (h.op_seconds(g, False), h.op_seconds(g, True)) for g in ("primary", "secondary")}
        values = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(),
                  "primary_s": sum(ops["primary"][1].values()),
                  "secondary_s": sum(ops["secondary"][1].values()),
                  "decided": median(decided)}
        print(f"rounds: {len(decided)}; per-operation medians, raw s and reference s:")
        for group, (raw, ref) in ops.items():
            for key in raw:
                print(f"  {group:9} {key}: {raw[key]:.4f} s, {ref[key]:.4f} ref s")
            print(f"  {group}_s raw = {sum(raw.values()):.6g} s")
        loop = [d for _, d in h.speed.samples]
        print(f"reference loop: {len(loop)} samples, median {median(loop) * 1000:.3f} ms "
              f"(nominal {Speed.NOMINAL_S * 1000:.3f} ms)")
        alias = dict(zip(("primary_s", "secondary_s", "decided"), workload.aliases))
        for name, unit in END_TO_END:
            shown = f"{alias[name]} = {name}" if name in alias else name
            print(f"  {shown} = {values[name]:.6g} {unit}")
        out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for key, line in getattr(workload, "nodes", {}).items():
        print(f"  {key}: {line.split(' time_ms=')[0]}")
    return {"correct": h.correct, "attempted": h.attempted, "failed": h.failed, "metrics": out}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dmagic" / "cli.py").is_file():
        print(f"error: no dmagic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
