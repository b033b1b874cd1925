"""Regression: GBA forward pass must propagate the *worst* slew.

The historical forward pass stored the slew of whichever transition
arrived latest at a net.  That is unsound: a slightly-earlier arrival
carrying a much larger slew can drive a bigger downstream delay, so the
GBA "bound" could fall below a true path delay.  The fix maximizes
arrival and slew independently per polarity -- each is then a sound
per-net bound -- and must behave identically in the vectorized sweep
and the arc-at-a-time reference pass.

The pinned netlist makes the failure concrete: a NAND2 whose A-input
arc wins the arrival race with a crisp 10 ps slew while the B-input arc
loses by 1 ps but carries a 200 ps slew into a slew-sensitive inverter.
"""

import numpy as np
import pytest

from repro.charlib.polynomial import Normalization, PolynomialModel
from repro.charlib.store import CharacterizedLibrary, TimingArc
from repro.core.delaycalc import DelayCalculator
from repro.core.graphsta import GraphSTA
from repro.core.sta import TruePathSTA
from repro.netlist.circuit import Circuit
from repro.verify.metamorphic import reference_forward

_IDENTITY = Normalization((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0))


def _const(value):
    """f(Fo, t_in, T, VDD) = value, exactly."""
    return PolynomialModel((0, 0, 0, 0), np.full((1, 1, 1, 1), value),
                           _IDENTITY)


def _affine(c0, c1):
    """f = c0 + c1 * t_in, exactly (identity normalization)."""
    coeffs = np.zeros((1, 2, 1, 1))
    coeffs[0, 0, 0, 0] = c0
    coeffs[0, 1, 0, 0] = c1
    return PolynomialModel((0, 1, 0, 0), coeffs, _IDENTITY)


#: (cell, pin) -> (delay model, slew model).  Pin A of the NAND2 wins
#: the arrival race (100 ps > 99 ps) but pin B carries the huge slew.
_SPEC = {
    ("NAND2", "A"): (_const(100e-12), _const(10e-12)),
    ("NAND2", "B"): (_const(99e-12), _const(200e-12)),
    ("INV", "A"): (_affine(5e-12, 0.5), _affine(0.0, 1.0)),
}


@pytest.fixture(scope="module")
def slew_charlib(library):
    arcs = []
    for (cell_name, pin), (delay_model, slew_model) in _SPEC.items():
        for vec in library[cell_name].sensitization_vectors(pin):
            for input_rising in (True, False):
                arcs.append(TimingArc(
                    cell=cell_name,
                    pin=pin,
                    vector_id=vec.vector_id,
                    input_rising=input_rising,
                    output_rising=input_rising != vec.inverting,
                    delay_model=delay_model,
                    slew_model=slew_model,
                ))
    return CharacterizedLibrary(
        tech_name="cmos90",
        library_name="slew-soundness-pin",
        model_kind="polynomial",
        input_caps={"NAND2": {"A": 2e-15, "B": 2e-15},
                    "INV": {"A": 2e-15}},
        arcs=arcs,
    )


@pytest.fixture(scope="module")
def netlist(library):
    circuit = Circuit("slewreg", library)
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("NAND2", "n", {"A": "a", "B": "b"})
    circuit.add_gate("INV", "out", {"A": "n"})
    circuit.add_output("out")
    circuit.check()
    return circuit


class TestWorstSlewPropagation:
    def test_mid_net_keeps_the_worst_slew(self, netlist, slew_charlib):
        """The 200 ps slew from the losing-arrival B arc must survive."""
        session = TruePathSTA(netlist, slew_charlib)
        slews = session.slews()[session.ec.net_id["n"]]
        assert slews == [200e-12, 200e-12]
        # The buggy latest-arrival rule would have kept A's 10 ps slew.
        assert slews != [10e-12, 10e-12]

    def test_gba_stays_above_every_true_path(self, netlist, slew_charlib):
        gba = GraphSTA(netlist, slew_charlib).run()
        paths = TruePathSTA(netlist, slew_charlib).enumerate_paths()
        assert paths
        bound = gba.worst_arrival("out")
        for path in paths:
            assert bound >= path.worst_arrival, path.nets
        # With the old bug the bound was 100ps + 5ps + 0.5*10ps =
        # 110 ps, below the true path through B:
        true_via_b = 99e-12 + 5e-12 + 0.5 * 200e-12
        assert bound >= true_via_b
        assert bound == pytest.approx(100e-12 + 5e-12 + 0.5 * 200e-12)

    def test_scalar_and_vectorized_agree_bitwise(self, netlist, slew_charlib):
        gba = GraphSTA(netlist, slew_charlib)
        vector = gba.ec.tgraph.forward_arrivals(gba.calc)
        scalar = reference_forward(DelayCalculator(gba.ec, slew_charlib))
        assert scalar.arrivals == vector.arrivals
        assert scalar.slews == vector.slews
