"""STA-as-a-service: a long-running analysis daemon with hot caches.

The CLI pays library characterization, circuit indexing, and timing-graph
construction on every invocation.  ``repro serve`` pays them once and
holds the results hot behind a length-prefixed JSON socket protocol:

* :mod:`repro.service.protocol` -- framing, schema, error taxonomy;
* :mod:`repro.service.requests` -- the execution layer shared with the
  one-shot CLI (the byte-identity contract lives here);
* :mod:`repro.service.qos` -- ``deadline_s``/``effort`` onto
  :class:`~repro.resilience.budgets.SearchBudgets`;
* :mod:`repro.service.cache` -- LRU context cache + result memo;
* :mod:`repro.service.fleet` -- the supervised worker processes every
  request computes in, behind one spec-execution function;
* :mod:`repro.service.admission` -- bounded priority queue, load
  shedding, preemption policy;
* :mod:`repro.service.persistence` -- crash-safe warm-state snapshots;
* :mod:`repro.service.server` -- the asyncio acceptor;
* :mod:`repro.service.client` -- the blocking client with retry.

See ``docs/SERVICE.md`` for the wire contract and ops guidance.
"""

from repro.service.admission import AdmissionController, Overloaded
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.fleet import WorkerFleet, run_work
from repro.service.persistence import WarmStateStore
from repro.service.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION
from repro.service.requests import (
    AnalysisRequest,
    build_context,
    execute_analysis,
    execute_size,
    execute_verify,
)
from repro.service.server import (
    AnalysisServer,
    ServerHandle,
    ServiceConfig,
    start_in_thread,
)

__all__ = [
    "AdmissionController",
    "AnalysisRequest",
    "AnalysisServer",
    "MAX_FRAME_BYTES",
    "Overloaded",
    "PROTOCOL_VERSION",
    "ServerHandle",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "WarmStateStore",
    "WorkerFleet",
    "build_context",
    "execute_analysis",
    "execute_size",
    "execute_verify",
    "run_work",
    "start_in_thread",
]
