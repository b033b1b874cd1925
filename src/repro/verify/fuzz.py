"""Seeded random-netlist fuzzing of the verification checks.

Each iteration draws a fresh mapped DAG from
:func:`repro.netlist.generate.random_dag` + :func:`techmap` (sizes kept
in the exhaustive-oracle range so every circuit gets the strongest
check), runs the oracle and the metamorphic invariant catalog, and on
any failure shrinks the circuit to a minimal counterexample via
:func:`repro.verify.shrink.shrink_circuit`.

Everything derives from one integer seed: the i-th iteration of
``run_fuzz(n=100, seed=S)`` builds the same circuit on every machine,
so a failure report is reproducible from ``(S, i)`` alone -- and the
shrunk counterexample ships as structural Verilog ready to pin under
``tests/seeds/`` (see docs/TESTING.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, TextIO, Tuple, Union

from repro.charlib.store import CharacterizedLibrary
from repro.netlist.circuit import Circuit
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.verify.metamorphic import run_metamorphic
from repro.verify.oracle import run_oracle
from repro.verify.shrink import shrink_circuit

_log = get_logger("repro.verify")

#: Default generator size ranges (inclusive).  Inputs stay small enough
#: that every fuzzed circuit is exhaustively sweepable.
INPUT_RANGE = (4, 8)
GATE_RANGE = (10, 40)


@dataclass
class FuzzFailure:
    """One fuzz iteration that failed a check, with its shrunk core."""

    index: int
    seed: int
    kind: str  # "oracle" | "metamorphic" | "crash"
    detail: str
    circuit: Circuit  # the shrunk counterexample
    original_gates: int
    shrunk_gates: int
    shrink_steps: int

    @property
    def verilog(self) -> str:
        """Pinnable structural-Verilog form of the counterexample."""
        return write_verilog(self.circuit)

    def describe(self) -> str:
        return (
            f"#{self.index} [{self.kind}] {self.circuit.name}: {self.detail} "
            f"(shrunk {self.original_gates} -> {self.shrunk_gates} gates "
            f"in {self.shrink_steps} steps)"
        )


@dataclass
class FuzzReport:
    """Outcome of one fuzz batch."""

    seed: int
    requested: int
    checked: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return f"fuzz seed={self.seed}: {status} ({self.checked} circuits)"


def check_circuit(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    metamorphic: bool = True,
    jobs: int = 1,
    max_oracle_inputs: int = 12,
) -> Optional[Tuple[str, str]]:
    """Run every applicable check; return ``(kind, detail)`` on the
    first failure, None when the circuit passes.  Crashes inside a
    check are themselves failures (kind ``crash``) -- the fuzzer's job
    is to find them, not to die on them."""
    try:
        if len(circuit.inputs) <= max_oracle_inputs:
            report = run_oracle(circuit, charlib, max_inputs=max_oracle_inputs)
            if not report.ok:
                return (
                    "oracle",
                    "; ".join(m.describe() for m in report.mismatches[:3]),
                )
        if metamorphic:
            results = run_metamorphic(circuit, charlib, jobs=jobs)
            bad = [r for r in results if not r.ok]
            if bad:
                return ("metamorphic", "; ".join(r.describe() for r in bad))
    except Exception as exc:  # noqa: BLE001 -- crashes are findings
        return ("crash", f"{type(exc).__name__}: {exc}")
    return None


def generate_case(
    seed: int,
    index: int,
    input_range: Tuple[int, int] = INPUT_RANGE,
    gate_range: Tuple[int, int] = GATE_RANGE,
) -> Circuit:
    """The deterministic circuit for fuzz iteration ``(seed, index)``.

    A private RNG keyed on both numbers picks the size and the DAG
    sub-seed, so iterations are independent and any single one can be
    regenerated without replaying the batch.
    """
    rng = random.Random(seed * 1_000_003 + index)
    n_inputs = rng.randint(*input_range)
    n_gates = rng.randint(*gate_range)
    raw = random_dag(
        f"fuzz_s{seed}_i{index}",
        n_inputs=n_inputs,
        n_gates=n_gates,
        seed=rng.randrange(1 << 32),
    )
    return techmap(raw)


def run_fuzz(
    charlib: CharacterizedLibrary,
    n: int,
    seed: int = 0,
    metamorphic: bool = True,
    jobs: int = 1,
    shrink: bool = True,
    input_range: Tuple[int, int] = INPUT_RANGE,
    gate_range: Tuple[int, int] = GATE_RANGE,
) -> FuzzReport:
    """Fuzz ``n`` random mapped circuits; shrink and record failures.

    ``jobs`` feeds the metamorphic ``parallel_identical`` invariant:
    the default 1 exercises the shard/merge pipeline in-process (cheap
    enough per circuit); pass >= 2 to also cover the worker pool.
    """
    report = FuzzReport(seed=seed, requested=n)
    registry = obs_metrics.REGISTRY
    for index in range(n):
        circuit = generate_case(
            seed, index, input_range=input_range, gate_range=gate_range
        )
        failure = check_circuit(
            circuit, charlib, metamorphic=metamorphic, jobs=jobs
        )
        report.checked += 1
        if failure is None:
            continue
        kind, detail = failure
        registry.counter("verify.fuzz_failures").inc()
        _log.warning("fuzz.failure", index=index, seed=seed,
                     circuit=circuit.name, kind=kind, detail=detail)
        shrunk, steps = circuit, 0
        if shrink:
            shrunk, steps = shrink_circuit(
                circuit,
                lambda c: check_circuit(
                    c, charlib, metamorphic=metamorphic, jobs=jobs
                ) is not None,
            )
            refreshed = check_circuit(
                shrunk, charlib, metamorphic=metamorphic, jobs=jobs
            )
            if refreshed is not None:
                kind, detail = refreshed
        report.failures.append(FuzzFailure(
            index=index,
            seed=seed,
            kind=kind,
            detail=detail,
            circuit=shrunk,
            original_gates=circuit.num_gates,
            shrunk_gates=shrunk.num_gates,
            shrink_steps=steps,
        ))
    log = _log.warning if report.failures else _log.info
    log("fuzz.done", seed=seed, checked=report.checked,
        failures=len(report.failures))
    return report


def load_seed(source: Union[str, TextIO], charlib=None) -> Circuit:
    """Load a pinned counterexample (structural Verilog, as written by
    :attr:`FuzzFailure.verilog`) for regression replay."""
    return parse_verilog(source)
