"""Command-line STA driver.

Analyze a netlist file with either tool::

    python -m repro.cli analyze circuit.bench --tech 90nm --top 10
    python -m repro.cli analyze design.v --tool baseline --required 500
    python -m repro.cli analyze iscas:c432 --tool gba --compare
    python -m repro.cli analyze iscas:c880a --n-worst 10 --metrics-json m.json
    python -m repro.cli analyze iscas:c432 --jobs 4 --progress --trace-json t.json
    python -m repro.cli obs diff before.json after.json --fail-on 'pathfinder\.:10'
    python -m repro.cli stats circuit.bench

Or keep the expensive state hot in a long-running server::

    python -m repro.cli serve --port 7487
    python -m repro.cli client 127.0.0.1:7487 analyze iscas:c432 --n-worst 5
    python -m repro.cli client 127.0.0.1:7487 stats

``.bench`` files are parsed as ISCAS benchmarks (and technology-mapped
onto the complex-gate library unless ``--no-map``); ``.v`` files as
structural Verilog using library cell names directly; ``iscas:<name>``
builds a circuit from the bundled evaluation suite.

A served analysis is byte-identical to the one-shot CLI for the same
configuration: both run :func:`repro.service.requests.execute_analysis`
(see docs/SERVICE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Optional

from repro import obs
from repro.core.report import paths_to_json
from repro.gates.library import default_library
from repro.resilience.errors import (
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_UNAVAILABLE,
    OutputWriteError,
    ResilienceError,
    SearchInterrupted,
    classify,
)
# Re-exported for backward compatibility: these lived here before the
# service split and are part of the de-facto public surface
# (tests and scripts import them from repro.cli).
from repro.service.requests import (  # noqa: F401
    _CHARLIB_MEMO,
    REQUEST_TYPES,
    AnalysisRequest,
    SizeRequest,
    VerifyRequest,
    cached_charlib,
    execute_analysis,
    execute_size,
    execute_verify,
    load_circuit,
)
from repro.tech.presets import TECHNOLOGIES

_log = obs.get_logger("repro.cli")


def _setup_obs(args) -> None:
    if getattr(args, "log_level", None):
        obs.configure_logging(level=args.log_level,
                              jsonl_path=getattr(args, "log_json", None))
    if getattr(args, "profile", False):
        obs.tracing.enable()
    if getattr(args, "trace_json", None):
        obs.export.enable()


def _write_artifact(path: str, text: str, what: str) -> None:
    """Write a user-requested output file, mapping any OS failure into
    the error taxonomy (the analysis succeeded; silently dropping the
    artifact and exiting 0 would hide the loss from scripts)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OutputWriteError(f"cannot write {what} to {path}: {exc}",
                               cause=exc)


def _finish_obs(args) -> int:
    obs.aggregate.record_resource_usage()
    if getattr(args, "profile", False):
        print()
        print(obs.tracing.render())
        snapshot = obs.metrics.snapshot()
        if snapshot:
            print("\nmetrics:")
            for key, value in snapshot.items():
                if isinstance(value, dict):
                    value = (f"count={value['count']} sum={value['sum']:.4g} "
                             f"mean={value['mean']:.4g} max={value['max']:.4g}")
                print(f"  {key:<48s} {value}")
    metrics_json = getattr(args, "metrics_json", None)
    if metrics_json:
        _write_artifact(metrics_json, json.dumps(obs.snapshot(), indent=2),
                        "metrics snapshot")
        print(f"\nwrote metrics snapshot to {metrics_json}")
    trace_json = getattr(args, "trace_json", None)
    if trace_json:
        try:
            n_events = obs.export.collector().write(trace_json)
        except OSError as exc:
            raise OutputWriteError(
                f"cannot write trace to {trace_json}: {exc}", cause=exc)
        print(f"wrote {n_events} trace events to {trace_json} "
              "(load in ui.perfetto.dev or chrome://tracing)")
    return 0


def _request(request_type, args):
    """The parsed flags as a ``request_type`` -- the one mapping the
    one-shot commands and ``repro client`` share: one value per
    dataclass field, and an absent flag keeps the field's default."""
    values = {f.name: getattr(args, f.name, None)
              for f in fields(request_type)}
    return request_type(**{name: value for name, value in values.items()
                           if value is not None})


def _analyze(args) -> int:
    _setup_obs(args)
    outcome = execute_analysis(_request(AnalysisRequest, args))
    print(outcome.report)
    if args.json:
        _write_artifact(args.json, paths_to_json(outcome.paths, indent=2),
                        "path list")
        print(f"\nwrote {len(outcome.paths)} paths to {args.json}")
    return _finish_obs(args)


def _size(args) -> int:
    _setup_obs(args)
    outcome = execute_size(_request(SizeRequest, args))
    print(outcome.report)
    if args.json:
        _write_artifact(args.json, json.dumps(outcome.payload, indent=2),
                        "sizing report")
        print(f"\nwrote sizing report to {args.json}")
    return _finish_obs(args)


def _verify(args) -> int:
    _setup_obs(args)
    failed = False
    request = _request(VerifyRequest, args)

    if request.oracle or request.metamorphic:
        outcome = execute_verify(request)
        print(outcome.report)
        failed = failed or not outcome.ok

    # The fault batteries default to one larger circuit.
    fault_specs = args.circuits or ["iscas:c432@0.1"]
    if args.faults:
        from repro.verify import run_faults

        charlib = cached_charlib(default_library(),
                                 TECHNOLOGIES[request.tech])
        for spec in fault_specs:
            circuit = load_circuit(spec)
            report = run_faults(
                circuit, charlib, seed=args.seed,
                jobs=max(request.jobs, 2), max_paths=args.max_paths,
            )
            print(report.describe())
            failed = failed or not report.ok

    if args.server_faults:
        from repro.verify import run_server_faults

        for spec in fault_specs:
            report = run_server_faults(
                spec, seed=args.seed, jobs=max(request.jobs, 2),
                max_paths=args.max_paths,
            )
            print(report.describe())
            failed = failed or not report.ok

    if args.fuzz is not None:
        from repro.verify import run_fuzz

        charlib = cached_charlib(default_library(),
                                 TECHNOLOGIES[request.tech])
        report = run_fuzz(charlib, n=args.fuzz, seed=args.seed,
                          jobs=request.jobs)
        print(report.summary())
        for failure in report.failures:
            print(f"  {failure.describe()}")
            if args.artifact_dir:
                out_dir = Path(args.artifact_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                out = out_dir / (
                    f"counterexample_s{failure.seed}_i{failure.index}.v"
                )
                out.write_text(failure.verilog)
                print(f"  wrote {out}")
        failed = failed or not report.ok

    obs_rc = _finish_obs(args)
    return 1 if failed else obs_rc


def _obs_diff(args) -> int:
    """Compare two ``--metrics-json`` snapshots; exit
    :data:`~repro.obs.diff.EXIT_REGRESSION` when a ``--fail-on`` rule is
    violated (the regression-gate building block for CI)."""
    from repro.obs.diff import (
        EXIT_REGRESSION,
        diff_snapshots,
        format_diff,
        load_snapshot,
        parse_fail_rule,
        violations,
    )

    try:
        rules = [parse_fail_rule(spec) for spec in args.fail_on]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    before = load_snapshot(args.before)
    after = load_snapshot(args.after)
    entries = diff_snapshots(before, after)
    print(f"metrics diff: {args.before} -> {args.after}")
    print(format_diff(entries, only_changed=not args.all,
                      key_filter=args.filter))
    failed = violations(entries, rules)
    if failed:
        print(f"\n{len(failed)} regression(s) over threshold:",
              file=sys.stderr)
        for entry, rule in failed:
            print(f"  {entry.describe()}  (rule {rule.pattern.pattern}:"
                  f"{rule.threshold_pct:g})", file=sys.stderr)
        return EXIT_REGRESSION
    if rules:
        print("\nall --fail-on rules passed")
    return 0


def _stats(args) -> int:
    circuit = load_circuit(args.netlist, map_to_complex=not args.no_map)
    for key, value in circuit.stats().items():
        print(f"{key:>14s}: {value}")
    print(f"{'cells':>14s}: {circuit.cell_histogram()}")
    return 0


def _serve(args) -> int:
    import signal

    from repro.service import ServiceConfig, start_in_thread

    _setup_obs(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        result_cache_size=args.result_cache_size,
        heartbeat_interval=args.heartbeat_interval,
        allow_fault_injection=args.allow_fault_injection,
        fleet=args.fleet,
        max_queue=args.max_queue,
        request_retries=args.request_retries,
        preempt_after_s=args.preempt_after,
        snapshot_path=args.snapshot,
        snapshot_interval_s=args.snapshot_interval,
        snapshot_max_age_s=args.snapshot_max_age,
    )
    handle = start_in_thread(config)
    print(f"listening on {handle.host}:{handle.port}", flush=True)
    if args.port_file:
        _write_artifact(args.port_file, f"{handle.port}\n", "port file")

    def _on_sigterm(signum, frame):
        # Same graceful drain as the wire `shutdown` op: finish
        # in-flight work, refuse new requests with `unavailable`,
        # snapshot warm state, exit 0.
        print("SIGTERM: draining", file=sys.stderr)
        handle.server.begin_drain()

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        # Until a `shutdown` request / SIGTERM drain finishes (or Ctrl-C).
        handle.thread.join()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        handle.stop()
    return 0


def _client(args) -> int:
    from repro.service import ServiceClient

    host, sep, port = args.server.rpartition(":")
    if not sep or not port.isdigit():
        from repro.resilience.errors import ConfigError

        raise ConfigError(f"server must be HOST:PORT, got {args.server!r}")
    command = args.client_command
    with ServiceClient(host, int(port), timeout=args.timeout) as client:
        if command in REQUEST_TYPES:
            params = asdict(_request(REQUEST_TYPES[command], args))
            qos = dict(deadline_s=args.deadline,
                       effort=getattr(args, "effort", None))
            if args.retries > 0:
                result = client.call_with_retry(
                    command, params, retries=args.retries, **qos)
            else:
                result = client.call(command, params, **qos)
            print(result["report"])
            if getattr(args, "metrics_json", None):
                _write_artifact(
                    args.metrics_json,
                    json.dumps(result.get("metrics", {}), indent=2),
                    "request metrics")
                print(f"\nwrote request metrics to {args.metrics_json}")
            # Only a verify result carries a pass/fail verdict.
            return 0 if result.get("ok", True) else 1
        if command == "stats":
            result = client.call("stats")
            payload = {key: value for key, value in result.items()
                       if key not in ("kind", "id")}
            text = json.dumps(payload, indent=2, sort_keys=True)
            if args.json:
                _write_artifact(args.json, text, "server stats")
                print(f"wrote server stats to {args.json}")
            else:
                print(text)
            return 0
        if command == "ping":
            result = client.call("ping")
            print(f"pong from {args.server} "
                  f"(uptime {result['uptime_s']:g}s)")
            return 0
        # shutdown
        client.call("shutdown")
        print(f"server at {args.server} stopping")
        return 0


#: One argparse definition per request field, shared by every op whose
#: request type has the field, in ``repro <op>`` and ``repro client
#: HOST:PORT <op>`` alike, so a served request is specified exactly
#: like a one-shot run.  No argparse defaults: an absent flag keeps the
#: field's dataclass default, which ``{default}`` in a help text names.
_REQUEST_FLAGS = {
    "netlist": ("netlist", {}),
    "circuits": ("--circuit", dict(
        action="append", metavar="SPEC",
        help="netlist file or iscas:<name>[@scale] spec (repeatable; "
             "default: {default})")),
    "oracle": ("--oracle", dict(
        action="store_true",
        help="exhaustively sweep each --circuit through event "
             "simulation and cross-check the pathfinder's "
             "delay/course/vector")),
    "metamorphic": ("--metamorphic", dict(
        action="store_true",
        help="check the cross-engine invariant catalog on each "
             "--circuit")),
    "max_inputs": ("--max-inputs", dict(
        type=int, metavar="N",
        help="refuse oracle sweeps beyond this many primary inputs "
             "(n * 2**n simulations; default {default})")),
    "tech": ("--tech", dict(choices=list(TECHNOLOGIES),
                            help="technology (default {default})")),
    "tool": ("--tool", dict(choices=["developed", "baseline", "gba"],
                            help="default {default}")),
    "top": ("--top", dict(type=int, metavar="N",
                          help="report rows (default {default})")),
    "n_worst": ("--n-worst", dict(
        type=int, metavar="N",
        help="developed tool only: report the N worst true paths using "
             "the backward required-time bound to prune the search")),
    "compare": ("--compare", dict(
        action="store_true",
        help="with --tool gba: also run the true-path search and print "
             "the per-endpoint gba_pessimism delta")),
    "required_ps": ("--required", dict(
        type=float, metavar="PS",
        help="required time in ps (analyze: for a slack report)")),
    "strategy": ("--strategy", dict(choices=["greedy", "anneal"],
                                    help="default {default}")),
    "seed": ("--seed", dict(
        type=int, help="anneal move-selection seed (default {default})")),
    "max_moves": ("--max-moves", dict(
        type=int, metavar="N",
        help="greedy: sizing rounds; anneal: attempted moves "
             "(default {default})")),
    "max_paths": ("--max-paths", dict(
        type=int, metavar="N",
        help="path cap per search (default {default})")),
    "backtrack_limit": ("--backtrack-limit", dict(
        type=int, metavar="N",
        help="baseline tool: backtracks per sensitization "
             "(default {default})")),
    "no_map": ("--no-map", dict(
        action="store_true",
        help="skip technology mapping of .bench input")),
    "jobs": ("--jobs", dict(
        type=int, metavar="N",
        help="worker processes: analyze shards the developed tool's "
             "search across primary inputs, verify the "
             "parallel-identical invariant (1 = in-process; "
             "default {default})")),
    # No argparse choices=: an unknown policy must exit through the
    # resilience taxonomy (ConfigError, EX_CONFIG=78) with a one-line
    # message naming the valid values, not argparse's usage dump.
    "missing_arc_policy": ("--missing-arc-policy", dict(
        metavar="POLICY",
        help="on a library gap: abort (error) or fall back to the "
             "nearest characterized arc of the same cell "
             "(warn-substitute; default {default})")),
    "wall_budget": ("--wall-budget", dict(
        type=float, metavar="SECONDS",
        help="anytime mode: stop after this much wall-clock time (one "
             "deadline for all origins and workers; size: for the "
             "whole sizing loop) and report partial results, with "
             "per-origin completeness + GBA bounds for analyze")),
    "extension_budget": ("--extension-budget", dict(
        type=int, metavar="N",
        help="anytime mode: cap search extensions per origin of each "
             "path search")),
    "backtrack_budget": ("--backtrack-budget", dict(
        type=int, metavar="N",
        help="anytime mode: cap justification backtracks per origin of "
             "each path search")),
    "checkpoint": ("--checkpoint", dict(
        metavar="PATH",
        help="stream completed origins to this JSON snapshot (atomic "
             "writes; survives crashes and Ctrl-C)")),
    "resume": ("--resume", dict(
        metavar="PATH",
        help="adopt completed origins from a checkpoint written by an "
             "identical configuration")),
    "shard_timeout": ("--shard-timeout", dict(
        type=float, metavar="SECONDS",
        help="wall-clock deadline per parallel shard attempt (hung "
             "workers are terminated and the shard retried)")),
    "shard_retries": ("--shard-retries", dict(
        type=int, metavar="N",
        help="retry attempts per failed shard before the in-process "
             "serial fallback (default {default})")),
    "progress": ("--progress", dict(
        action="store_true",
        help="developed tool: live per-origin progress line on stderr "
             "(heartbeats from worker processes under --jobs)")),
    "heartbeat_timeout": ("--heartbeat-timeout", dict(
        type=float, metavar="SECONDS",
        help="treat a parallel shard as stalled when its workers send "
             "no heartbeat for this long (terminate + retry, like "
             "--shard-timeout but distinguishing silent hangs from "
             "slow progress)")),
}


def _add_request_flags(parser, request_type, names=None) -> None:
    """One flag per ``request_type`` field (:data:`_REQUEST_FLAGS`), or
    per field in ``names``; fields without one are service-only knobs."""
    for f in fields(request_type):
        if f.name not in _REQUEST_FLAGS or (names and f.name not in names):
            continue
        flag, kwargs = _REQUEST_FLAGS[f.name]
        kwargs = dict(kwargs)
        if "help" in kwargs:
            default = f.default
            if isinstance(default, tuple):
                default = " ".join(default)
            kwargs["help"] = kwargs["help"].format(default=default)
        if flag.startswith("--"):
            kwargs.update(dest=f.name, default=None,
                          required=f.default is MISSING)
        parser.add_argument(flag, **kwargs)


#: The observability flags, defined once for every command taking them.
_OBS_FLAGS = {
    "--log-level": dict(choices=["debug", "info", "warning", "error"],
                        help="enable structured logging at this level"),
    "--log-json": dict(metavar="PATH",
                       help="also write JSONL log records to PATH"),
    "--profile": dict(action="store_true",
                      help="trace spans and print a span/metric tree"),
    "--metrics-json": dict(metavar="PATH",
                           help="write the metrics+span snapshot to PATH"),
    "--trace-json": dict(metavar="PATH",
                         help="write a Chrome trace-event / Perfetto "
                              "timeline (one lane per worker process, "
                              "instant markers for resilience incidents) "
                              "to PATH"),
}


def _add_obs_flags(parser, *flags: str) -> None:
    for flag in flags or _OBS_FLAGS:
        parser.add_argument(flag, **_OBS_FLAGS[flag])


def _add_client_flags(parser, op: str) -> None:
    """``repro client HOST:PORT <op>``'s own flags: the socket timeout,
    plus QoS and retries for the compute ops."""
    compute = op in REQUEST_TYPES
    parser.add_argument("--timeout", type=float,
                        default=600.0 if compute else 60.0,
                        help="client socket timeout (default %(default)g)")
    if not compute:
        return
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="QoS: wall-clock deadline; a request "
                             "still queued when it passes is refused "
                             "(analyze: also the search's wall budget, "
                             "net of the queue wait)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry 'overloaded'/'unavailable' refusals "
                             "and transport failures up to N times with "
                             "jittered exponential backoff (idempotent "
                             "re-send; default 0)")
    if op == "analyze":
        parser.add_argument("--effort", default=None,
                            choices=["low", "medium", "high", "exhaustive"],
                            help="QoS: named extension-budget tier")
        parser.add_argument("--metrics-json", default=None, metavar="PATH",
                            help="write the request's server-side counter "
                                 "deltas to PATH")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run STA on a netlist")
    _add_request_flags(analyze, AnalysisRequest)
    analyze.add_argument("--json", default=None,
                         help="dump the path list to this JSON file")
    _add_obs_flags(analyze)
    analyze.set_defaults(func=_analyze)

    size = sub.add_parser(
        "size",
        help="timing-driven gate sizing against the incremental STA "
             "session (repro.opt.sizer)",
    )
    _add_request_flags(size, SizeRequest)
    size.add_argument("--json", default=None, metavar="PATH",
                      help="write the move-by-move sizing report to PATH")
    _add_obs_flags(size)
    size.set_defaults(func=_size)

    verify = sub.add_parser(
        "verify",
        help="differential verification: exhaustive oracle, metamorphic "
             "invariants, seeded fuzzing (repro.verify)",
    )
    _add_request_flags(verify, VerifyRequest)
    verify.add_argument("--fuzz", type=int, default=None, metavar="N",
                        help="fuzz N random mapped circuits, shrinking "
                             "any failure to a minimal counterexample")
    verify.add_argument("--faults", action="store_true",
                        help="inject deterministic faults (worker crash, "
                             "shard hang, corrupted charlib, mid-run "
                             "interrupt) into each --circuit and assert "
                             "every recovery reproduces the fault-free "
                             "output (default circuit: iscas:c432@0.1)")
    verify.add_argument("--server-faults", action="store_true",
                        help="run the analysis-server fault scenarios: "
                             "kill pool workers behind a served request "
                             "and assert retry recovery / sound degraded "
                             "GBA bounds (default circuit: iscas:c432@0.1)")
    verify.add_argument("--max-paths", type=int, default=None, metavar="N",
                        help="cap paths per fault-scenario run (keeps "
                             "--faults cheap on large circuits)")
    verify.add_argument("--seed", type=int, default=0,
                        help="fuzz batch seed (default 0)")
    verify.add_argument("--artifact-dir", default=None, metavar="DIR",
                        help="write shrunk fuzz counterexamples (.v) here")
    _add_obs_flags(verify, "--log-level", "--log-json", "--profile",
                   "--metrics-json")
    verify.set_defaults(func=_verify)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived analysis server (repro.service): hot "
             "library/circuit/session caches behind a length-prefixed "
             "JSON socket protocol",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = OS-assigned; the "
                            "bound port is printed and, with "
                            "--port-file, written to a file)")
    serve.add_argument("--cache-size", type=int, default=8,
                       help="LRU capacity for hot analysis contexts, "
                            "per fleet worker (default 8)")
    serve.add_argument("--result-cache-size", type=int, default=64,
                       help="LRU capacity for memoized deterministic "
                            "results (default 64)")
    serve.add_argument("--heartbeat-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="liveness beat period while a request "
                            "computes (default 5)")
    serve.add_argument("--allow-fault-injection", action="store_true",
                       help="honor the 'fault' request param (test/CI "
                            "harnesses only)")
    serve.add_argument("--fleet", type=int, default=1, metavar="N",
                       help="compute in N >= 1 supervised worker "
                            "processes, each with its own context cache "
                            "and one admission slot (a worker crash "
                            "kills one request, not the daemon; "
                            "default 1)")
    serve.add_argument("--max-queue", type=int, default=32, metavar="N",
                       help="waiting requests beyond which new arrivals "
                            "are shed with 'overloaded' + retry_after_s "
                            "(default 32)")
    serve.add_argument("--request-retries", type=int, default=2,
                       metavar="N",
                       help="crash retries per request before giving up "
                            "(default 2)")
    serve.add_argument("--preempt-after", type=float, default=2.0,
                       metavar="SECONDS",
                       help="queue wait after which a deadline-bearing "
                            "request may preempt an exhaustive hog "
                            "(default 2)")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="persist warm state (the result memo) to "
                            "PATH periodically and on drain; re-warm "
                            "from it on boot")
    serve.add_argument("--snapshot-interval", type=float, default=30.0,
                       metavar="SECONDS",
                       help="period between warm-state snapshots "
                            "(default 30)")
    serve.add_argument("--snapshot-max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="discard boot snapshots older than this "
                            "(default: no horizon)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port to PATH once listening")
    _add_obs_flags(serve, "--log-level", "--log-json")
    serve.set_defaults(func=_serve)

    client = sub.add_parser(
        "client",
        help="send one request to a running `repro serve` daemon",
    )
    client.add_argument("server", metavar="HOST:PORT")
    client.set_defaults(func=_client)
    client_sub = client.add_subparsers(dest="client_command", required=True)
    client_help = {
        "analyze": "served STA run (byte-identical to `repro analyze` for "
                   "the same flags)",
        "size": "served gate sizing (byte-identical to `repro size`)",
        "verify": "served --oracle/--metamorphic verification",
        "stats": "server uptime, request counts, cache and metrics state",
        "ping": "liveness check",
        "shutdown": "stop the server cleanly",
    }
    for op, text in client_help.items():
        c_op = client_sub.add_parser(op, help=text)
        if op in REQUEST_TYPES:
            _add_request_flags(c_op, REQUEST_TYPES[op])
        _add_client_flags(c_op, op)
        if op == "stats":
            c_op.add_argument("--json", default=None, metavar="PATH",
                              help="write the stats payload to PATH "
                                   "instead of stdout")

    obs_parser = sub.add_parser(
        "obs",
        help="observability utilities over --metrics-json snapshots",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_diff = obs_sub.add_parser(
        "diff",
        help="compare two metrics snapshots; with --fail-on, exit "
             "nonzero when a counter regresses past a threshold",
    )
    obs_diff.add_argument("before", help="baseline --metrics-json file")
    obs_diff.add_argument("after", help="candidate --metrics-json file")
    obs_diff.add_argument("--fail-on", action="append", default=[],
                          metavar="REGEX:PCT",
                          help="fail (exit 4) when any metric key matching "
                               "REGEX grew by more than PCT percent "
                               "(repeatable; e.g. 'pathfinder\\.:10')")
    obs_diff.add_argument("--filter", default=None, metavar="REGEX",
                          help="only show keys matching REGEX")
    obs_diff.add_argument("--all", action="store_true",
                          help="show unchanged keys too")
    obs_diff.set_defaults(func=_obs_diff)

    stats = sub.add_parser("stats", help="print netlist statistics")
    _add_request_flags(stats, AnalysisRequest, ("netlist", "no_map"))
    stats.set_defaults(func=_stats)

    args = parser.parse_args(argv)
    debug = getattr(args, "log_level", None) == "debug"
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream pager/head closed our stdout: the Unix convention
        # is a quiet death, not an error report (which could not be
        # written anyway).  128 + SIGPIPE, like the shell reports it.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13
    except SearchInterrupted as exc:
        # Completed shards were merged and (if --checkpoint) snapshotted
        # before the unwind; say so instead of printing a stack.
        if debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ResilienceError as exc:
        if debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        from repro.service.client import ServiceError

        if isinstance(exc, (ServiceError, ConnectionError, OSError)) \
                and getattr(args, "command", None) == "client":
            # The server refused, failed, or is simply not there: a
            # service-availability failure, not a local software error.
            if debug:
                raise
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNAVAILABLE
        # Foreign exceptions (bad paths, parse errors...) map into the
        # taxonomy for a one-line message and a distinct exit status;
        # --log-level debug keeps the full traceback.
        if debug:
            raise
        err = classify(exc, context=args.command)
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
