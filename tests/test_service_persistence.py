"""Warm-state persistence: snapshots are verified, never trusted.

Unit tests cover the :class:`WarmStateStore` trust model -- atomic
round-trip, and a discard (plus counter) for every corruption class:
unreadable bytes, version skew, digest mismatch, malformed shapes,
staleness.  Integration tests certify the daemon-level story: a
drained server re-warms its result memo on reboot, and ``repro serve``
under SIGTERM drains gracefully (snapshot written, exit code 0).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.service import ServiceClient, ServiceConfig, WarmStateStore
from repro.service.cache import ResultMemo
from repro.service.persistence import SNAPSHOT_VERSION, _digest
from repro.service.server import start_in_thread

MEMO_ITEMS = [
    ("fp-1", {"kind": "result", "op": "analyze", "report": "first"}),
    ("fp-2", {"kind": "result", "op": "analyze", "report": "second"}),
]


def _store(tmp_path, **kwargs) -> WarmStateStore:
    return WarmStateStore(tmp_path / "warm.json", **kwargs)


# ---------------------------------------------------------------------------
# Store unit tests


def test_snapshot_round_trip(tmp_path):
    store = _store(tmp_path)
    store.save(MEMO_ITEMS)
    state = store.load()
    assert state is not None
    assert state["memo"] == MEMO_ITEMS
    assert state["saved_at"] <= time.time()
    assert obs.counter("service.snapshots_written").value == 1
    assert obs.counter("service.snapshot_restores").value == 1
    assert obs.counter("service.snapshot_restored_entries").value == 2
    assert obs.counter("service.snapshot_discarded").value == 0


def test_missing_snapshot_is_a_silent_cold_start(tmp_path):
    assert _store(tmp_path).load() is None
    assert obs.counter("service.snapshot_discarded").value == 0


def _assert_discarded(store):
    assert store.load() is None
    assert obs.counter("service.snapshot_discarded").value >= 1
    assert obs.counter("service.snapshot_restores").value == 0


def test_truncated_snapshot_discarded(tmp_path):
    store = _store(tmp_path)
    store.save(MEMO_ITEMS)
    text = store.path.read_text()
    store.path.write_text(text[:len(text) // 2])
    _assert_discarded(store)


def test_version_skew_discarded(tmp_path):
    store = _store(tmp_path)
    store.save(MEMO_ITEMS)
    document = json.loads(store.path.read_text())
    document["version"] = SNAPSHOT_VERSION + 1
    store.path.write_text(json.dumps(document))
    _assert_discarded(store)


def test_digest_mismatch_discarded(tmp_path):
    store = _store(tmp_path)
    store.save(MEMO_ITEMS)
    document = json.loads(store.path.read_text())
    # Well-formed JSON, tampered payload: only the digest guard can
    # catch this.
    document["payload"]["memo"][0][1]["report"] = "poisoned"
    store.path.write_text(json.dumps(document))
    _assert_discarded(store)


def test_malformed_memo_entries_discarded(tmp_path):
    store = _store(tmp_path)
    payload = {"memo": [["fp-1", "not-a-dict"]], "saved_at": time.time()}
    document = {"version": SNAPSHOT_VERSION, "digest": _digest(payload),
                "payload": payload}
    store.path.write_text(json.dumps(document))
    _assert_discarded(store)


def test_stale_snapshot_discarded(tmp_path):
    store = _store(tmp_path, max_age_s=0.05)
    store.save(MEMO_ITEMS)
    time.sleep(0.1)
    _assert_discarded(store)


def test_atomic_write_leaves_no_temporary(tmp_path):
    store = _store(tmp_path)
    store.save(MEMO_ITEMS)
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.name != store.path.name]
    assert not leftovers, f"non-atomic write artifacts: {leftovers}"


# ---------------------------------------------------------------------------
# Memo restore semantics


def test_memo_restore_never_clobbers_live_entries():
    memo = ResultMemo(max_entries=8)
    memo.put("fp-1", {"report": "live"})
    restored = memo.restore([("fp-1", {"report": "snapshotted"}),
                             ("fp-2", {"report": "second"})])
    assert restored == 1
    assert memo.get("fp-1") == {"report": "live"}
    assert memo.get("fp-2") == {"report": "second"}


def test_memo_restore_respects_capacity():
    memo = ResultMemo(max_entries=2)
    kept = memo.restore([(f"fp-{i}", {"i": i}) for i in range(5)])
    assert kept == 5  # all were new ...
    assert len(memo) == 2  # ... but capacity still rules


# ---------------------------------------------------------------------------
# Daemon-level warm restart


def test_drained_server_rewarns_memo_on_reboot(tmp_path):
    snapshot = str(tmp_path / "warm.json")
    config = dict(heartbeat_interval=0.1, snapshot_path=snapshot,
                  snapshot_interval_s=3600.0)
    first = start_in_thread(ServiceConfig(**config))
    try:
        with ServiceClient(first.host, first.port, timeout=120.0) as c:
            cold = c.call("analyze", {"netlist": "iscas:c17", "top": 3})
    finally:
        first.drain()  # graceful: writes the exit snapshot
    assert os.path.exists(snapshot)

    second = start_in_thread(ServiceConfig(**config))
    try:
        with ServiceClient(second.host, second.port, timeout=120.0) as c:
            warm = c.call("analyze", {"netlist": "iscas:c17", "top": 3})
    finally:
        second.stop()
    assert warm["cached"] is True, \
        "reboot did not restore the result memo"
    assert warm["report"] == cold["report"]


def test_shutdown_op_snapshots_like_a_drain(tmp_path):
    snapshot = str(tmp_path / "warm.json")
    handle = start_in_thread(ServiceConfig(
        heartbeat_interval=0.1, snapshot_path=snapshot,
        snapshot_interval_s=3600.0))
    with ServiceClient(handle.host, handle.port, timeout=120.0) as c:
        c.call("analyze", {"netlist": "iscas:c17"})
        reply = c.call("shutdown")
    assert reply["stopping"] is True
    handle.thread.join(30.0)
    assert not handle.thread.is_alive()
    assert os.path.exists(snapshot)


# ---------------------------------------------------------------------------
# SIGTERM on `repro serve`: the graceful drain path


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigterm_drains_snapshots_and_exits_zero(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]]
                      if env.get("PYTHONPATH") else []))
    port_file = tmp_path / "port"
    snapshot = tmp_path / "warm.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--port-file", str(port_file),
         "--snapshot", str(snapshot), "--heartbeat-interval", "0.2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 60.0
        while not port_file.exists() and time.monotonic() < deadline:
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        with ServiceClient("127.0.0.1", port, timeout=120.0) as c:
            result = c.call("analyze", {"netlist": "iscas:c17"})
            assert result["kind"] == "result"
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60.0)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0, \
        f"serve exited {proc.returncode}; stderr:\n{stderr}"
    assert "SIGTERM: draining" in stderr
    assert snapshot.exists(), "drain wrote no warm-state snapshot"
    state = WarmStateStore(snapshot).load()
    assert state is not None and state["memo"], \
        "snapshot restored empty after a served request"
