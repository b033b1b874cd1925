"""The measured process of an in-process workload.

``run.py`` starts ``python3 bench/worker.py JOB.json``.  The worker
imports the program, loads the library and runs the workload's set-up,
prints ``READY``, then reads one line from stdin: ``stop`` ends a
set-up-only cold start, ``go`` runs the job and writes its result JSON
to ``job["result"]``.
"""

from __future__ import annotations

import json
import resource
import sys


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    import workloads

    workload = workloads.make(job["workload"], job["seed"], job["dir"])
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if job["trace"]:
        result = workloads.traced_passes(workload, job["count"],
                                         job["trace_file"])
        run = result.pop("pass")
    else:
        run = workloads.drive(workload, seconds=job["seconds"])
        result = {"errors": run.errors, "failures": run.failures}
    result.update(
        latencies=run.latencies,
        factors=run.factors,
        digests=run.digests,
        inputs=workload.inputs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    with open(job["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
