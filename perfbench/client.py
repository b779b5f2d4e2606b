"""Closed-loop client: runs one workload in this process, one item at a
time, and prints its raw results as one JSON line on stdout.

    python3 perfbench/client.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at MONOTONIC [--setup-only]

``run.py`` starts it with ``PYTHONPATH`` pointing at ``src``.  Set-up is
the imports plus one warm-up item of each kind, timed from the moment the
parent spawned this process (``--spawned-at``, a ``time.monotonic()``
reading, which is system-wide on Linux).

The timed loop runs a fixed number of seeded passes (``PASSES``) as one
round, and repeats the round while another fits in ``--seconds``.  The
set of items timed is the same in every run of a seed, whatever the
host's speed, so the order statistics (the median, the tail) always fall
on the same items.

The host is shared, and its speed changes in spells of a second to
several minutes: in a slow spell the same code runs up to twice as long,
in wall time and in CPU time alike.  So every timing of the timed loop
is scaled to a reference host speed.  Before each item the client times a fixed
calibration loop (``calibration_ms``); an item's time in a round is
scaled by ``CAL_REF_MS`` over the median of the loops timed just before
and after it, and its latency is the median of its scaled times over the
rounds.  The unscaled wall times are reported beside the scaled ones.
Set-up is not scaled: the loop's speed right after set-up did not follow
the time the imports took, so ``setup_s`` is a plain wall time.  The loop
runs in this benchmark, not in the library, so no change to the library
moves it; a change that left threads busy after its calls return would
slow the loop too, and part of its cost would be scaled away.  Because
the rounds repeat identical inputs, a cache keyed on the inputs would
gain here what it would not gain on inputs that never repeat.

With ``--trace 1`` every item runs once plain and once traced in each
round, in alternating order, so the traced and untraced time of the same
items give the tracing overhead; then ``cli.main`` runs in process on the
CLI catalog.  Spans are kept in memory and summarised at the end.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import cli_layer
from items import Item

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 10
IN_PROCESS_REPS = 5
#: passes of distinct items in one round, per workload.  On a 2-core Xeon
#: a round takes 9-15 s on neck-sweep and 2.5-4 s on exact-sweep, as the
#: host's speed varies, so a 45 s run times every item in 3 to 20 rounds.
#: Fewer neck-sweep passes would give more rounds, but the median and the
#: tail would then depend more on the seed.
PASSES = {"neck-sweep": 6, "exact-sweep": 16}
#: the calibration loop's time at the reference host speed, in ms: about
#: its time on a quiet 2-core Xeon host
CAL_REF_MS = 0.1
#: an item's speed is taken from the loops timed up to this many items
#: before and after it
CAL_WINDOW = 3
_CAL_COEFFS = np.linspace(0.5, 2.0, 6)


def calibration_ms() -> float:
    """Time one fixed loop of the kind of work the library's Python-level
    numeric code does: a Horner polynomial over numpy scalars and a
    square root, 60 times.  Slow spells of the host slow this loop about
    as much as they slow the items."""
    start = perf_counter()
    total = 0.0
    for k in range(60):
        x = k * 0.05
        u, v = x * x, 0.0
        for c in _CAL_COEFFS[::-1]:
            v = v * u + c
        total += 1.0 / ((1.0 + u) * math.sqrt(v))
    return (perf_counter() - start) * 1e3


class Tracer:
    """Spans (name, parent index, start, end) recorded by function wrappers."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, parent, start, perf_counter())
                self._open.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: median duration, median self time (duration
        minus that of the child spans), call count and total, in ms."""
        child_ms = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        by_name = {}
        for (name, _, start, end), kids in zip(self.spans, child_ms):
            dur = (end - start) * 1e3
            by_name.setdefault(name, []).append((dur, dur - kids))
        return {
            name: {
                "p50_ms": statistics.median(d for d, _ in vals),
                "self_p50_ms": statistics.median(s for _, s in vals),
                "calls": len(vals),
                "sum_ms": sum(d for d, _ in vals),
            }
            for name, vals in by_name.items()
        }


class Workload:
    """Seeded passes of items plus the two function tables (plain, traced)."""

    def __init__(self, name: str, seed: int, tracer: Tracer):
        import slcones
        import sweeps

        if not Path(slcones.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"slcones imported from {slcones.__file__}, not from {ROOT / 'src'}")
        self.name, self.seed = name, seed
        if name == "neck-sweep":
            self.make_pass, self.make_warmup = sweeps.neck_pass, sweeps.neck_warmup
        else:
            self.make_pass, self.make_warmup = sweeps.exact_pass, sweeps.exact_warmup
        self.plain = dict(sweeps.FUNCTIONS)
        self.traced = {key: tracer.wrap(key, fn) for key, fn in sweeps.FUNCTIONS.items()}
        kernels = sys.modules.get("slcones._kernels")
        self.record = {"have_numba": getattr(kernels, "HAVE_NUMBA", None)}

    def rng(self, stream) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    def pass_items(self, k: int) -> list:
        return self.make_pass(self.rng(k))

    def warmup_items(self) -> list:
        return self.make_warmup(self.rng("warmup"))


class Tally:
    """Counts the items run and keeps the failures."""

    def __init__(self):
        self.failures = []
        self.attempted = 0

    def run(self, item, fns) -> float:
        """Run one item; return its latency in ms."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = item.compute(fns)
        except Exception as exc:  # a crash is a failed item, not a harness failure
            elapsed = perf_counter() - start
            self.failures.append(f"{item.kind}: {type(exc).__name__}: {exc}")
        else:
            elapsed = perf_counter() - start
            try:
                item.check(out)
            except Exception as exc:
                self.failures.append(f"{item.kind}: {type(exc).__name__}: {exc}")
        return elapsed * 1e3


def timed_rounds(items: list, seconds: float, run_round) -> int:
    """Call ``run_round(items)`` at least once, and again while one more
    round fits in ``seconds``; return the number of rounds."""
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        run_round(items)
        rounds += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            return rounds


def scaled_rounds(items: list, fns: dict, tally: Tally, seconds: float) -> tuple:
    """Time every item once per round, with a calibration loop before each
    item and one after the last.  An item's speed in a round is the median
    loop time within ``CAL_WINDOW`` items of it, over ``CAL_REF_MS``, and
    its latency is the median over the rounds of its time divided by that
    speed.  Returns (rounds, latency ms, best wall ms, round speeds)."""
    wall = [[] for _ in items]
    scaled = [[] for _ in items]
    speeds = []

    def run_round(items):
        loops, times = [], []
        for item in items:
            loops.append(calibration_ms())
            times.append(tally.run(item, fns))
        loops.append(calibration_ms())
        for slot, ms in enumerate(times):
            nearby = loops[max(0, slot - CAL_WINDOW):slot + CAL_WINDOW + 2]
            wall[slot].append(ms)
            scaled[slot].append(ms * CAL_REF_MS / statistics.median(nearby))
        speeds.append(statistics.median(loops) / CAL_REF_MS)

    rounds = timed_rounds(items, seconds, run_round)
    return (rounds, [statistics.median(times) for times in scaled],
            [min(times) for times in wall], speeds)


def traced_rounds(wl: Workload, items: list, tally: Tally, tracer: Tracer,
                  seconds: float) -> tuple:
    """Run every item twice per round, plain and traced, alternating which
    goes first.  Returns (rounds, best plain ms, tracing overhead in %)."""
    traced = [Item(item.kind, tracer.wrap(f"item.{item.kind}", item.compute), item.check)
              for item in items]
    best = [math.inf] * len(items)
    sums = {"plain": 0.0, "traced": 0.0}

    def run_round(items):
        for slot, (item, twin) in enumerate(zip(items, traced)):
            runs = [("plain", item, wl.plain), ("traced", twin, wl.traced)]
            for side, it, fns in runs[::-1] if slot % 2 else runs:
                ms = tally.run(it, fns)
                sums[side] += ms
                if side == "plain":
                    best[slot] = min(best[slot], ms)

    rounds = timed_rounds(items, seconds, run_round)
    return rounds, best, 100.0 * (sums["traced"] - sums["plain"]) / sums["plain"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")  # quadrature warnings are expected on wide ratios

    tracer = Tracer()
    wl = Workload(args.workload, args.seed, tracer)
    tally = Tally()
    for item in wl.warmup_items():
        tally.run(item, wl.plain)
    result = {"setup_s": time.monotonic() - args.spawned_at, "record": wl.record}

    if not args.setup_only:
        result["props"] = [item.props for item in wl.pass_items(0)]
        passes = PASSES[args.workload]
        items = [item for k in range(passes) for item in wl.pass_items(k)]
        if args.trace:
            rounds, latency, overhead = traced_rounds(wl, items, tally, tracer, args.seconds)
            sweep_spans = tracer.summary()
            attempted, failures = cli_layer.in_process(tracer, IN_PROCESS_REPS)
            tally.attempted += attempted
            tally.failures += failures
            spans = tracer.summary()
            for name, span in sweep_spans.items():  # calls of one round: a fixed count
                spans[name]["calls"] = span["calls"] // rounds
            result.update(overhead_pct=overhead, spans=spans)
        else:
            rounds, latency, wall, speeds = scaled_rounds(items, wl.plain, tally, args.seconds)
            result.update(wall_ms=wall, speeds=speeds)
        result.update(passes=passes, rounds=rounds, latency_ms=latency,
                      kinds=[item.kind for item in items])

    result.update(attempted=tally.attempted, failed=len(tally.failures),
                  failures=tally.failures[:MAX_REPORTED_FAILURES])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
