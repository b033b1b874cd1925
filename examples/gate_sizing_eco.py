#!/usr/bin/env python
"""Gate-sizing ECO driven by vector-resolved timing.

Builds a small design that misses timing, then runs the greedy sizing
loop: at every step the *true* worst path -- worst sensitization vector
included -- picks which gate to upsize.  The closing argument for
vector-aware analysis: a vector-blind tool can declare timing met while
a harder sensitization vector still violates.

::

    python examples/gate_sizing_eco.py
"""

from repro.charlib.characterize import FAST_GRID, characterize_library
from repro.core.sta import TruePathSTA
from repro.gates.library import sized_library
from repro.netlist.circuit import Circuit
from repro.opt.sizer import TimingDrivenSizer
from repro.tech.presets import technology

CELLS = ["INV", "INV_X2", "NAND2", "NAND2_X2", "AO22", "AO22_X2",
         "AND2", "AND2_X2", "OR2", "OR2_X2", "BUF", "BUF_X2"]


def build_design(library) -> Circuit:
    c = Circuit("eco_demo", library)
    for n in ("a", "b", "c", "d", "e", "f"):
        c.add_input(n)
    c.add_gate("NAND2", "n1", {"A": "a", "B": "b"}, name="U1")
    c.add_gate("INV", "n2", {"A": "n1"}, name="U2")
    c.add_gate("AND2", "n5", {"A": "e", "B": "f"}, name="U5")
    c.add_gate("AO22", "n3", {"A": "n2", "B": "b", "C": "c", "D": "n5"},
               name="U3")
    c.add_gate("NAND2", "n4", {"A": "n3", "B": "d"}, name="U4")
    c.add_gate("INV", "out", {"A": "n4"}, name="U6")
    for k in range(6):  # heavy output fanout: the timing problem
        c.add_gate("BUF", f"z{k}", {"A": "out"}, name=f"UL{k}")
        c.add_output(f"z{k}")
    c.check()
    return c


def main() -> None:
    tech = technology("90nm")
    library = sized_library()
    print(f"Characterizing {len(CELLS)} cells (incl. X2 variants) ...")
    charlib = characterize_library(library, tech, grid=FAST_GRID, cells=CELLS)

    circuit = build_design(library)
    sta = TruePathSTA(circuit, charlib)
    paths = sta.enumerate_paths()
    worst = max(p.worst_arrival for p in paths)
    required = worst * 0.85
    print(f"\nworst true-path arrival : {worst * 1e12:.1f} ps")
    print(f"required time           : {required * 1e12:.1f} ps  (15% too slow)\n")

    sizer = TimingDrivenSizer(circuit, charlib, required,
                              strategy="greedy", max_moves=10)
    print(sizer.run().describe())
    print(f"\ncell histogram after ECO: {circuit.cell_histogram()}")


if __name__ == "__main__":
    main()
