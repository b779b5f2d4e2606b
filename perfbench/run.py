"""slcones benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload neck-sweep|exact-sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree (it needs ``src/slcones`` and
``BENCHMARK.json`` there; nothing is installed).  The workload runs in one
closed-loop client process (``client.py``).  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the same numbers for a reader, with the machine and
program record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
Set-up runs several times, each in a fresh client, and ``setup_s`` is the
median; the last client goes on to the timed loop, where every item is
timed in many rounds.  Its timings are scaled to a reference host speed
by a calibration loop timed beside them (see ``client.py``); the
unscaled wall times are printed too, before the result line.

``--trace 1`` reports the per-layer metrics: spans from the benchmark's own
calls into each module (``.calls`` counts one round), the interpreter start and the import layer from
probe processes, ``cli.main`` in process, and the computed work counts of
the first pass of inputs.  Metrics of layers a workload does not call read 0.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_layer

ROOT = Path(__file__).resolve().parent.parent
CLIENT = Path(__file__).resolve().with_name("client.py")
SETUP_RUNS = 7
STARTUP_PROBES = 10
IMPORT_PROBES = 5
TAIL_BEYOND = 10
#: a run must end within this many seconds of its start
RUN_BUDGET_S = 170.0
#: environment switches that would make two commits run different code paths
SCRUBBED_ENV = ("SLCONES_LOG", "SLCONES_NO_NUMBA")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts child processes within the run's time budget."""

    def __init__(self, env: dict):
        self.env = env
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, cmd, stdin=None) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        try:
            # run() kills the child on timeout and waits for it
            return subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from None

    def client(self, args, setup_only: bool) -> dict:
        cmd = [sys.executable, str(CLIENT), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
        proc = self.run(cmd + (["--setup-only"] if setup_only else []))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"client failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# layer probes


def _importtime(stderr: str) -> list:
    """(name, depth, self_us, cumulative_us) of each -X importtime line, in
    the order printed (a module after the modules it imported)."""
    out = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, field = line[len("import time:"):].split("|", 2)
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        out.append((name, depth, int(self_us), int(cum_us)))
    return out


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _outermost_cumulative_ms(entries, prefix: str) -> float:
    """Cumulative time of the modules under ``prefix`` that no other module
    under ``prefix`` imported, so nothing is counted twice."""
    total, stack = 0, []
    for name, depth, _, cum in reversed(entries):  # importers before what they import
        while stack and stack[-1][1] >= depth:
            stack.pop()
        if _matches(name, prefix) and not any(_matches(n, prefix) for n, _ in stack):
            total += cum
        stack.append((name, depth))
    return total / 1e3


def cold_cli(runner: Runner) -> tuple:
    """One fresh CLI process per catalog entry: the median wall time per
    subcommand, the processes run, and the outputs that differ from the
    goldens."""
    by_sub, failures = {}, []
    for name, argv, stdin in cli_layer.CATALOG:
        start = time.perf_counter()
        proc = runner.run(cli_layer.command(argv), stdin)
        by_sub.setdefault(argv[0], []).append((time.perf_counter() - start) * 1e3)
        wrong = cli_layer.mismatch(name, proc.returncode, proc.stdout)
        if wrong:
            failures.append(f"cold process: {wrong}")
    ms = {f"cli.cold_ms.{sub}": statistics.median(v) for sub, v in by_sub.items()}
    return ms, len(cli_layer.CATALOG), failures


def layer_probes(runner: Runner) -> dict:
    startup = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        runner.run([sys.executable, "-c", "pass"])
        startup.append((time.perf_counter() - start) * 1e3)
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = runner.run([sys.executable, "-X", "importtime", "-c", "import slcones.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import slcones.cli failed:\n{proc.stderr[-2000:]}")
        entries = _importtime(proc.stderr)
        samples.append({
            "import.total_ms": _outermost_cumulative_ms(entries, "slcones"),
            "import.numpy_ms": _outermost_cumulative_ms(entries, "numpy"),
            "import.scipy_sparse_ms": _outermost_cumulative_ms(entries, "scipy.sparse"),
            "import.scipy_integrate_ms": _outermost_cumulative_ms(entries, "scipy.integrate"),
            "import.slcones_self_ms": sum(s for n, _, s, _ in entries if _matches(n, "slcones")) / 1e3,
        })
    out = {"interp.startup_ms": statistics.median(startup)}
    for key in samples[0]:
        out[key] = statistics.median(s[key] for s in samples)
    return out


# ---------------------------------------------------------------------------
# metrics


def _by_kind_p50(res: dict, kind: str) -> float:
    vals = [ms for ms, k in zip(res["latency_ms"], res["kinds"]) if k == kind]
    return statistics.median(vals) if vals else 0.0


def _computed(props: list) -> dict:
    """Work counts of the first pass of inputs: computed, not measured."""
    def share(key):
        vals = [p[key] for p in props if key in p]
        return sum(vals) / len(vals) if vals else 0.0

    out = {
        "spectrum.dp_cells": sum(p.get("dp_cells", 0) for p in props),
        "consum.edges": sum(p.get("edges", 0) for p in props),
        "consum.feasible_share": share("feasible"),
        "lawlor.wide_ratio_share": share("wide"),
    }
    for m in (3, 5, 8):
        out[f"lawlor.items_by_m.{m}"] = sum(1 for p in props if p.get("m") == m)
    return out


def per_layer(names, res: dict, probes: dict) -> dict:
    spans = res["spans"]
    item_ms = sum(s["sum_ms"] for n, s in spans.items() if n.startswith("item."))
    main_self = [s["self_p50_ms"] for n, s in spans.items() if n.startswith("cli.main.")]
    fixed = {**probes, **_computed(res["props"]),
             "cli.overhead_ms": statistics.median(main_self) if main_self else 0.0,
             "trace.overhead_pct": res["overhead_pct"]}
    out = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        span = spans.get(head, {})
        if name in fixed:
            out[name] = fixed[name]
        elif head == "cli.main_ms":
            out[name] = spans.get(f"cli.main.{tail}", {}).get("p50_ms", 0.0)
        elif head.startswith("item.") and tail == "ms_p50":
            out[name] = _by_kind_p50(res, head[len("item."):])
        elif tail == "ms_p50":
            out[name] = span.get("p50_ms", 0.0)
        elif tail == "calls":
            out[name] = span.get("calls", 0)
        elif tail == "busy_share":
            out[name] = span.get("sum_ms", 0.0) / item_ms if item_ms else 0.0
        else:
            raise BenchError(f"no rule computes the per-layer metric {name!r}")
    return out


def tail_latency(lat: list) -> tuple:
    """The highest percentile with TAIL_BEYOND samples above it: the
    (TAIL_BEYOND + 1)-th largest sample.  With too few samples, the
    largest.  Returns (value, percentile level, samples beyond it)."""
    ordered = sorted(lat)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def machine_record(client_record: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                  cwd=ROOT, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": numba,
        "have_numba": client_record.get("have_numba"),
        "spectrum_backend": "numba enumeration" if numba else "numpy DP",
        "scrubbed_env": {k: os.environ.get(k) for k in SCRUBBED_ENV},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "slcones" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/slcones/cli.py or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    runner = Runner(child_env())
    attempted, failures = 0, []
    try:
        if args.trace:
            probes = layer_probes(runner)
            cold_ms, attempted, failures = cold_cli(runner)
            probes.update(cold_ms)
            runs = [runner.client(args, setup_only=False)]
        else:
            runs = [runner.client(args, setup_only=True) for _ in range(SETUP_RUNS - 1)]
            runs.append(runner.client(args, setup_only=False))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    res = runs[-1]
    attempted += sum(r["attempted"] for r in runs)
    failed = len(failures) + sum(r["failed"] for r in runs)
    failures += [f for r in runs for f in r["failures"]]  # the clients report the first few
    lat = res["latency_ms"]
    tail, level, beyond = tail_latency(lat)

    if args.trace:
        metrics = per_layer([m["name"] for m in spec["per_layer"]], res, probes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "latency_p50_ms": statistics.median(lat),
            "latency_tail_ms": tail,
            "throughput_items_per_s": len(lat) / (sum(lat) / 1e3),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    record = machine_record(res["record"])
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=res["passes"], rounds=res["rounds"],
                  items_timed=len(lat))
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        print(f"items timed: {len(lat)} from {res['passes']} passes, each the best plain "
              f"wall time of {res['rounds']} rounds")
    else:
        speeds = res["speeds"]
        print(f"items timed: {len(lat)} from {res['passes']} passes in {res['rounds']} rounds; "
              f"tail = p{level:.1f} ({beyond} samples beyond it)")
        print(f"host speed: the calibration loop took {min(speeds):.3g}-{max(speeds):.3g} "
              f"times its reference time over the rounds (median {statistics.median(speeds):.3g})")
        wall = res["wall_ms"]
        print(f"unscaled: best wall time p50 {statistics.median(wall):.6g} ms, "
              f"tail {tail_latency(wall)[0]:.6g} ms")
        print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} items wrong or failed)")
    for failure in failures:
        print(f"failure: {failure}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
