#!/usr/bin/env python3
"""Regenerate ``bench/golden/``: seed-0 report digests and input pins.

    python3 bench/make_golden.py

Run from the checkout root, only for a change that is meant to alter
the workload inputs or the exact reports; the diff of the two JSON
files is then the record of what moved.  ``seed0.json`` pins the report
of every pool netlist of the two exact workloads at seed 0;
``inputs.json`` pins the generated ``.bench`` texts of every workload at
seeds 0 and 1.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

PINNED_SEEDS = (0, 1)


def main() -> int:
    root = Path.cwd()
    golden_dir = Path(__file__).resolve().parent / "golden"
    cache = root / ".bench_cache"
    cache.mkdir(exist_ok=True)
    os.environ["REPRO_CHAR_CACHE"] = str(cache / "charlib")
    sys.path.insert(0, str(root / "src"))
    import workloads

    sizes = {**workloads.POOL, "eco-incremental": 1,
             workloads.SERVED: workloads.SERVED_NETLISTS}
    with tempfile.TemporaryDirectory(dir=cache, prefix="golden-") as tmp:
        pins = {
            str(seed): {
                name: [workloads.write_input(name, seed, index, tmp)[1]
                       for index in range(sizes[name])]
                for name in workloads.WORKLOADS
            }
            for seed in PINNED_SEEDS
        }
        reports = {}
        for name, size in workloads.POOL.items():
            workload = workloads.make(name, 0, tmp)
            reports[name] = [
                workloads.digest(workload.text(
                    workload.run(workload.prepare(index))))
                for index in range(size)
            ]
    golden_dir.mkdir(exist_ok=True)
    for file_name, data in (("inputs.json", pins), ("seed0.json", reports)):
        with open(golden_dir / file_name, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
