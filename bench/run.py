#!/usr/bin/env python3
"""Benchmark of the repro STA tool: one seeded workload per run.

    python3 bench/run.py --workload search-nworst --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout; it drives the code under
``src/`` and reads and writes nothing outside the checkout (scratch
files, traces and the characterized-library cache go to
``.bench_cache/``).  It prints every metric with its unit, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of
requests.  ``--trace 1`` runs a fixed number of requests twice, untraced
and then traced, and reports the per-layer metrics; the traced pass's
spans are written as a Chrome trace under ``.bench_cache/traces/``.  A
failed correctness check prints what failed and exits 1 without a
result line.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden" / "seed0.json"
PINS = BENCH / "golden" / "inputs.json"
CACHE_DIR = ".bench_cache"
#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: Longest wait for one worker or server step before it is killed.
STEP_TIMEOUT_S = 150.0
#: Served positions planned for a timed run (more than any run sends).
SERVED_POSITIONS = 4000
HOST = "127.0.0.1"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}
#: Benchmark-side spans, one per layer call (self time, % of request wall).
LAYER_SPANS = (
    "netlist.load",
    "core.engine.init",
    "core.tgraph.forward",
    "core.tgraph.backward",
    "core.pathfinder.search",
    "core.incremental.edit",
    "core.incremental.read",
    "core.report.render",
)
#: The program's own spans inside the path search.
PROGRAM_SPANS = (
    "pathfinder.step",
    "pathfinder.justify",
    "justify.solve",
    "pathfinder.delaycalc",
)
COUNTERS = (
    "pathfinder.extensions_tried",
    "pathfinder.justification_cubes",
    "pathfinder.justification_backtracks",
    "pathfinder.justify_skipped",
    "pathfinder.conflicts",
    "pathfinder.pruned",
    "pathfinder.bound_prunes",
    "pathfinder.paths_found",
    "delaycalc.arc_evaluations",
    "delaycalc.arc_cache_hits",
    "delaycalc.arc_cache_misses",
    "incremental.edits",
    "incremental.cone_gates",
    "incremental.levels_reswept",
    "incremental.full_rebuilds",
    "incremental.soa_recompiles",
    "service.result_hits",
    "service.result_misses",
    "service.worker_cache_hits",
    "service.worker_cache_misses",
    "service.queued",
    "service.overloaded",
    "service.request_retries",
    "service.worker_crashes",
    "service.requests_failed",
)


class BenchError(Exception):
    """The program failed in a way no metric can describe."""


# ---------------------------------------------------------------------------
# Environment


def program_env(root: Path) -> Dict[str, str]:
    """Environment of every program process: the checkout's sources, a
    library cache inside the checkout, and a pinned hash seed so work
    counters repeat exactly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CHAR_CACHE"] = str(root / CACHE_DIR / "charlib")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_stamp(workloads, charlib_cold_s: Optional[float]
              ) -> Dict[str, object]:
    """What the host looked like: a slow or contended host shows up
    next to the numbers."""
    import numpy

    slowdown = workloads.speed_probe()
    return {
        "probe_s": slowdown * workloads.PROBE_REF_S,
        "host_slowdown": slowdown,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "charlib_cache": "warm" if charlib_cold_s is None else "cold",
        "charlib_cold_s": charlib_cold_s,
    }


def warm_charlib(workloads) -> Optional[float]:
    """Load the library, characterizing it first if the cache is cold;
    returns the characterization seconds, or None when it was warm."""
    from repro import obs

    misses = obs.counter("charlib.cache_misses")
    before = misses.value
    started = perf_counter()
    workloads.load_charlib()
    return perf_counter() - started if misses.value > before else None


# ---------------------------------------------------------------------------
# Processes


def _watchdog(proc: subprocess.Popen) -> threading.Timer:
    timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def _pin(pid: int, cpus) -> None:
    """CPU affinity of every thread of a process."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        os.sched_setaffinity(int(task.name), cpus)


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(job_path: Path, env, root: Path,
                 go: bool) -> Tuple[float, int]:
    """One cold start of the worker; returns (seconds to READY, exit
    code).  With ``go`` the worker then runs the job."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(job_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root,
        text=True)
    timer = _watchdog(proc)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - started
        if line.strip() != "READY":
            raise BenchError(f"worker failed during set-up "
                             f"(exit {proc.wait()})")
        proc.stdin.write("go\n" if go else "stop\n")
        proc.stdin.close()
        return ready, proc.wait()
    finally:
        timer.cancel()
        _reap(proc)


class Server:
    """One ``repro serve`` subprocess (the served workload's program)."""

    def __init__(self, env, root: Path, log: Path):
        from repro.service.client import ServiceClient
        import workloads

        started = perf_counter()
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--fleet", str(workloads.SERVED_FLEET),
             "--cache-size", str(workloads.SERVED_CACHE)],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=root,
            text=True)
        timer = _watchdog(self.proc)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise BenchError(f"server did not start (see {log})")
            self.port = int(line.rsplit(":", 1)[1])
            with ServiceClient(HOST, self.port) as client:
                client.call("ping")
        except BaseException:
            self.stop()
            raise
        finally:
            timer.cancel()
        #: Spawn to first answered ping.
        self.setup_s = perf_counter() - started

    def call(self, op: str, params: Optional[Dict] = None) -> Dict:
        from repro.service.client import ServiceClient

        with ServiceClient(HOST, self.port) as client:
            return client.call(op, params)

    def children(self) -> List[int]:
        """Pids of the daemon's fleet workers."""
        pids = []
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            pids.extend(int(pid) for pid in
                        (task / "children").read_text().split())
        return pids

    def isolate_compute(self, warm_netlist: str) -> Optional[int]:
        """Warm the daemon (its first analyze forks the fleet worker and
        loads the library), then pin the fleet worker to the last CPU
        and the acceptor and this harness to the others, so the speed
        sampler can probe the CPU the compute runs on.  Returns that CPU
        (None on a one-CPU host)."""
        self.call("analyze", {"netlist": warm_netlist, "n_worst": 1})
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return None
        compute, rest = cpus[-1], set(cpus[:-1])
        for pid in self.children():
            _pin(pid, {compute})
        _pin(self.proc.pid, rest)
        _pin(os.getpid(), rest)
        return compute

    def peak_rss_mb(self) -> float:
        """Largest peak RSS among the server and its fleet workers."""
        peaks = []
        for pid in [self.proc.pid] + self.children():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]) / 1024)
        return max(peaks)

    def stop(self) -> None:
        """Graceful wire shutdown; killed if it does not exit in time."""
        from repro.service.client import ServiceError

        if self.proc.poll() is None and hasattr(self, "port"):
            try:
                self.call("shutdown")
                self.proc.wait(timeout=30)
            except (ServiceError, subprocess.TimeoutExpired):
                pass
        _reap(self.proc)
        self._log.close()


# ---------------------------------------------------------------------------
# Runs


def run_in_process(args, root: Path, env, tmp: Path,
                   trace_file: Optional[Path]) -> Dict:
    import workloads

    _paths, inputs = workloads.write_inputs(args.workload, args.seed, tmp)
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "dir": str(tmp),
        "trace": args.trace,
        "seconds": args.seconds,
        "count": workloads.TRACE_REQUESTS[args.workload],
        "result": str(tmp / "result.json"),
        "trace_file": str(trace_file) if trace_file else None,
    }
    job_path = tmp / "job.json"
    job_path.write_text(json.dumps(job))
    starts = 1 if args.trace else SETUP_STARTS
    setups = []
    for start in range(starts):
        factor = workloads.speed_probe()
        ready, code = start_worker(job_path, env, root,
                                   go=start == starts - 1)
        if code != 0:
            raise BenchError(f"worker exited {code}")
        setups.append(ready / factor)
    result = json.loads((tmp / "result.json").read_text())
    result["setups"] = setups
    result["inputs"] = {**inputs, **{int(k): v for k, v in
                                     result["inputs"].items()}}
    return result


def _served_counters(samples, stats: Dict) -> Dict[str, float]:
    """Work counters of a served pass: the program's per-request metric
    deltas (result frames) plus the daemon's own service counters."""
    totals: Dict[str, float] = {}
    for sample in samples:
        for key, value in sample.metrics.items():
            if "{" not in key:
                totals[key] = totals.get(key, 0) + value
    for key, value in stats["metrics"].items():
        if key.startswith("service.") and isinstance(value, (int, float)):
            totals[key] = value
    return totals


def run_served(args, root: Path, env, tmp: Path,
               trace_file: Optional[Path]) -> Dict:
    import workloads
    from spans import SpanRecorder

    from repro.netlist.bench import C17_BENCH

    netlists, inputs = workloads.write_inputs(args.workload, args.seed, tmp)
    warm_netlist = tmp / "c17.bench"
    warm_netlist.write_text(C17_BENCH)
    count = workloads.TRACE_REQUESTS[args.workload] if args.trace else None
    plan = workloads.served_plan(args.seed, count or SERVED_POSITIONS)
    result: Dict = {"inputs": inputs, "errors": [], "failures": []}
    all_cpus = os.sched_getaffinity(0)

    def served_pass(boots: int, recorder=None):
        setups = []
        for boot in range(boots):
            factor = workloads.speed_probe()
            server = Server(env, root, tmp / f"server-{boot}.log")
            setups.append(server.setup_s / factor)
            if boot < boots - 1:
                server.stop()
        try:
            compute_cpu = server.isolate_compute(str(warm_netlist))
            samples, wall, slowdown = workloads.run_clients(
                HOST, server.port, plan, netlists, count=count,
                seconds=None if args.trace else args.seconds,
                recorder=recorder, compute_cpu=compute_cpu)
            stats = server.call("stats")
            rss = server.peak_rss_mb()
        finally:
            server.stop()
            _pin(os.getpid(), all_cpus)
        return setups, samples, wall / slowdown, stats, rss

    setups, samples, wall, stats, rss = served_pass(
        1 if args.trace else SETUP_STARTS)
    result["errors"] = [f"position {s.position}: {s.error}"
                        for s in samples if s.error is not None]
    result["failures"] = workloads.check_served(samples, plan, netlists)
    result.update(setups=setups, peak_rss_mb=rss,
                  # Two clients overlap, so throughput uses the pass's
                  # wall time (at its median compute-CPU speed).
                  wall=wall,
                  latencies=[s.latency for s in samples],
                  factors=[s.factor for s in samples],
                  digests=[(s.position, workloads.digest(s.report))
                           for s in samples])
    if args.trace:
        recorder = SpanRecorder()
        _, traced, _, _, _ = served_pass(1, recorder)
        if [s.report for s in traced] != [s.report for s in samples]:
            result["failures"].append("traced pass served different "
                                      "reports than the untraced pass")
        if trace_file:
            recorder.write_chrome_trace(str(trace_file))
        result.update(
            untraced_busy=sum(s.latency / s.factor for s in samples),
            traced_busy=sum(s.latency / s.factor for s in traced),
            request_wall=recorder.wall(),
            counters=_served_counters(samples, stats),
            compute=sum(s.compute_s for s in traced),
            memo_rtt=[s.latency for s in traced if s.cached],
            fresh_rtt=[s.latency for s in traced if not s.cached],
        )
    return result


# ---------------------------------------------------------------------------
# Checks and metrics


def load_golden() -> Dict[str, List[str]]:
    with open(GOLDEN) as handle:
        return json.load(handle)


def check_golden(workload: str, seed: int,
                 digests: List[Tuple[int, str]]) -> List[str]:
    """Seed 0 of the exact workloads: every report's digest is pinned."""
    import workloads

    if seed != 0 or workload not in workloads.POOL:
        return []
    golden = load_golden()[workload]
    pool = workloads.POOL[workload]
    return [f"request {index}: report digest {value} != golden "
            f"{golden[index % pool]}"
            for index, value in digests if golden[index % pool] != value]


def inputs_pinned(workload: str, seed: int,
                  inputs: Dict[int, str]) -> Optional[bool]:
    """Whether the generated inputs match the pinned digests (None for a
    seed without pins)."""
    with open(PINS) as handle:
        pins = json.load(handle).get(str(seed), {}).get(workload)
    if pins is None:
        return None
    return all(pins[index] == value for index, value in inputs.items())


def end_to_end(result: Dict) -> Dict[str, float]:
    """Timings in reference-host seconds (see ``workloads.PROBE_REF_S``)."""
    latencies = [t / f for t, f in zip(result["latencies"],
                                       result["factors"])]
    wall = result.get("wall", sum(latencies))
    return {
        "setup_s": statistics.median(result["setups"]),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(
            latencies, n=10, method="inclusive")[-1],
        "throughput_rps": len(latencies) / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(result: Dict, charlib_load_s: float
              ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run (see README.md for the table
    of which end-to-end metric each one should move)."""
    layer = result.get("layer_self", {})
    program = result.get("program_self", {})
    wall = result["request_wall"]
    out: Dict[str, Tuple[float, str]] = {
        "charlib.load_s": (charlib_load_s, "s"),
    }
    for name in LAYER_SPANS:
        out[f"{name}.self_pct"] = (100 * _ratio(layer.get(name, 0.0), wall),
                                   "%")
    for name in PROGRAM_SPANS:
        out[f"{name}.self_pct"] = (
            100 * _ratio(program.get(name, 0.0), wall), "%")
    covered = sum(layer.get(name, 0.0) for name in LAYER_SPANS)
    overhead = 0.0
    if "compute" in result:
        # Served: each request span is one round trip, split into the
        # daemon's compute (result elapsed_s) and everything else --
        # codec, admission wait, fleet IPC.
        overhead = wall - result["compute"]
        covered = wall
    out["service.overhead_pct"] = (100 * _ratio(overhead, wall), "%")
    memo, fresh = result.get("memo_rtt"), result.get("fresh_rtt")
    out["service.memo_hit_rtt_pct"] = (
        100 * _ratio(statistics.median(memo), statistics.median(fresh))
        if memo and fresh else 0.0, "%")
    out["layers.coverage_pct"] = (100 * _ratio(covered, wall), "%")
    untraced = result["untraced_busy"]
    out["trace.overhead_pct"] = (
        100 * _ratio(result["traced_busy"] - untraced, untraced), "%")
    counts = result["counters"]
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    extensions = counts.get("pathfinder.extensions_tried", 0)
    out["pathfinder.paths_per_extension"] = (
        _ratio(counts.get("pathfinder.paths_found", 0), extensions), "ratio")
    out["pathfinder.extensions_per_s"] = (
        _ratio(extensions, counts.get("pathfinder.cpu_seconds", 0.0)), "1/s")
    hits = counts.get("delaycalc.arc_cache_hits", 0)
    out["delaycalc.arc_cache_hit_ratio"] = (
        _ratio(hits, hits + counts.get("delaycalc.arc_cache_misses", 0)),
        "ratio")
    out["incremental.cone_fraction"] = (
        _ratio(counts.get("incremental.cone_gates", 0),
               counts.get("incremental.edits", 0) * result.get("gates", 0)),
        "ratio")
    hits = counts.get("service.result_hits", 0)
    out["service.result_hit_ratio"] = (
        _ratio(hits, hits + counts.get("service.result_misses", 0)), "ratio")
    hits = counts.get("service.worker_cache_hits", 0)
    out["service.context_hit_ratio"] = (
        _ratio(hits, hits + counts.get("service.worker_cache_misses", 0)),
        "ratio")
    out["requests"] = (len(result["latencies"]), "count")
    return out


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one seeded workload against the repro STA tool.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed requests per --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result JSON here")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("run.py: no src/repro in the current directory; run from the "
              "root of a repro checkout", file=sys.stderr)
        return 2
    cache = root / CACHE_DIR
    (cache / "traces").mkdir(parents=True, exist_ok=True)
    env = program_env(root)
    os.environ["REPRO_CHAR_CACHE"] = env["REPRO_CHAR_CACHE"]
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    stamp = run_stamp(workloads, warm_charlib(workloads))
    print(f"host: slowdown {stamp['host_slowdown']:.2f} (probe "
          f"{stamp['probe_s'] * 1e3:.2f} ms), nproc {stamp['nproc']}, "
          f"load {stamp['loadavg_1m']:.2f}, library cache "
          f"{stamp['charlib_cache']}", file=sys.stderr)
    factor = workloads.speed_probe()
    charlib_load_s = workloads.time_charlib_load() / factor
    trace_file = (cache / "traces" / f"{args.workload}-seed{args.seed}.json"
                  if args.trace else None)
    try:
        with tempfile.TemporaryDirectory(dir=cache, prefix="run-") as tmp:
            runner = (run_served if args.workload == workloads.SERVED
                      else run_in_process)
            result = runner(args, root, env, Path(tmp), trace_file)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failures = list(result["failures"])
    failures += check_golden(args.workload, args.seed, result["digests"])
    pinned = inputs_pinned(args.workload, args.seed, result["inputs"])
    if pinned is False:
        print(f"\n*** INPUTS CHANGED: the generated {args.workload} inputs "
              f"for seed {args.seed} differ from bench/golden/inputs.json; "
              "results are not comparable with earlier runs ***\n",
              file=sys.stderr)
    attempted = len(result["latencies"])
    failed = len(result["errors"])
    for problem in result["errors"] + failures:
        print(f"FAIL {args.workload} seed {args.seed}: {problem}",
              file=sys.stderr)
    if failed or failures:
        return 1

    if args.trace:
        metrics = per_layer(result, charlib_load_s)
        overhead = metrics["trace.overhead_pct"][0]
        print(f"tracing overhead: {overhead:+.1f}% "
              f"(trace written to {trace_file})", file=sys.stderr)
    else:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(result).items()}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} requests, {failed} failed, checks passed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40s} {value:>16.6g} {unit}")
    line = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = dict(line, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, stamp=stamp,
                      inputs={"digests": result["inputs"], "pinned": pinned},
                      latencies=result["latencies"],
                      slowdowns=result["factors"])
        record.update({name: value for name, (value, _) in metrics.items()})
        if args.trace:
            record["spans"] = {
                name: {"self_s": seconds}
                for name, seconds in {**result.get("program_self", {}),
                                      **result.get("layer_self", {})}.items()}
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
