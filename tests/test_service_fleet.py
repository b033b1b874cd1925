"""Fleet compute: byte identity, crash supervision, configuration.

The worker fleet must be *invisible* in the answers: for any request,
a ``fleet=N`` server serves the same bytes as the one-shot CLI (the
workers run :func:`repro.service.fleet.run_work`, which calls the
CLI's compute code).  What the fleet adds is blast-radius control,
exercised here via the ``fleet_fault`` chaos param: a worker hard-killed
mid-request costs one attempt (supervised retry onto a respawned
worker), retries are bounded (exhaustion maps to a structured
``internal`` error, the daemon survives), and a hung worker is killed
at its hard wall deadline.  The fleet is the daemon's only compute
mode, so a fleet of zero workers is a configuration error.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro import cli
from repro.resilience.errors import ConfigError
from repro.service import ServiceClient, ServiceConfig, ServiceError
from repro.service.server import AnalysisServer, start_in_thread

#: (label, one-shot CLI argv, service op, service params) -- one entry
#: per served op, so the byte-identity contract is pinned for all of
#: analyze/verify/size on a multi-worker fleet.
WORKLOAD = [
    ("analyze-c17",
     ["analyze", "iscas:c17"],
     "analyze", {"netlist": "iscas:c17"}),
    ("analyze-c432-nworst",
     ["analyze", "iscas:c432@0.1", "--n-worst", "5", "--top", "5"],
     "analyze", {"netlist": "iscas:c432@0.1", "n_worst": 5, "top": 5}),
    ("verify-c17",
     ["verify", "--oracle", "--circuit", "iscas:c17"],
     "verify", {"circuits": ["iscas:c17"], "oracle": True}),
    ("size-c17",
     ["size", "iscas:c17", "--required", "150"],
     "size", {"netlist": "iscas:c17", "required_ps": 150.0}),
]


def cli_stdout(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main(argv)
    assert rc == 0, f"cli {argv} exited {rc}"
    return buffer.getvalue()


@pytest.fixture(scope="module")
def fleet_server():
    handle = start_in_thread(ServiceConfig(
        heartbeat_interval=0.1, fleet=2, request_retries=2,
        allow_fault_injection=True))
    yield handle
    handle.stop()


@pytest.fixture
def client(fleet_server):
    with ServiceClient(fleet_server.host, fleet_server.port,
                       timeout=300.0) as c:
        yield c


# ---------------------------------------------------------------------------
# Byte identity


@pytest.mark.parametrize("label,argv,op,params", WORKLOAD,
                         ids=[w[0] for w in WORKLOAD])
def test_fleet_served_byte_identical_to_cli(client, label, argv, op,
                                            params):
    served = client.call(op, params)
    assert served["report"] + "\n" == cli_stdout(argv), \
        f"fleet-served {label} diverged from one-shot CLI"


# ---------------------------------------------------------------------------
# Crash supervision


def test_worker_crash_retried_to_identical_report(client):
    plain = client.call("analyze", {"netlist": "iscas:c17", "top": 6})
    crashed = client.call("analyze", {
        "netlist": "iscas:c17", "top": 6,
        "fleet_fault": {"crash_attempts": [0]}})
    assert crashed["cached"] is False  # fault-injected: never memoized
    assert crashed["report"] == plain["report"]
    stats = client.call("stats")["executor"]
    assert stats["crashes"] >= 1
    assert stats["retries"] >= 1


def test_retries_exhausted_maps_to_internal_error(client):
    with pytest.raises(ServiceError) as err:
        client.call("analyze", {
            "netlist": "iscas:c17",
            "fleet_fault": {"crash_attempts": [0, 1, 2, 3, 4]}})
    assert err.value.code == "internal"
    assert "attempts" in err.value.message
    # One poisoned request never takes the daemon down: the next
    # request on the same connection answers fine.
    follow_up = client.call("analyze", {"netlist": "iscas:c17"})
    assert follow_up["kind"] == "result"


def test_hung_worker_killed_at_hard_deadline(client):
    # The hang fires before any compute, so only the supervisor's hard
    # wall deadline (derived from the request deadline) can end it.
    with pytest.raises(ServiceError) as err:
        client.call(
            "analyze",
            {"netlist": "iscas:c17",
             "fleet_fault": {"hang_attempts": [0], "hang_s": 60.0}},
            deadline_s=1.0)
    assert err.value.code == "deadline-exceeded"
    assert "worker killed" in err.value.message
    follow_up = client.call("analyze", {"netlist": "iscas:c17"})
    assert follow_up["kind"] == "result"


# ---------------------------------------------------------------------------
# Fault-injection gating


def test_fleet_fault_refused_on_production_server():
    handle = start_in_thread(ServiceConfig(heartbeat_interval=0.1,
                                           fleet=1))
    try:
        with ServiceClient(handle.host, handle.port, timeout=60.0) as c:
            with pytest.raises(ServiceError) as err:
                c.call("analyze", {
                    "netlist": "iscas:c17",
                    "fleet_fault": {"crash_attempts": [0]}})
    finally:
        handle.stop()
    assert err.value.code == "bad-request"
    assert "disabled" in err.value.message


# ---------------------------------------------------------------------------
# Configuration


def test_fleet_zero_is_config_error():
    # Rejected at construction, before any socket or worker exists.
    with pytest.raises(ConfigError, match="--fleet"):
        AnalysisServer(ServiceConfig(fleet=0))
