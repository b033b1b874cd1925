"""Gate-level circuit graph.

A :class:`Circuit` is a DAG of cell :class:`Instance` objects connected
by named :class:`Net` objects.  Primary inputs and outputs are nets.
The structure is deliberately simple -- dictionaries and lists -- because
the STA engines walk it millions of times; heavier graph libraries are
only used for offline analysis (:meth:`Circuit.to_networkx`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.gates.cell import Cell
from repro.gates.library import Library, default_library
from repro.gates.logic import TriValue, X


class Net:
    """A named wire with one driver and any number of sinks."""

    __slots__ = ("name", "driver", "sinks", "is_input", "is_output")

    def __init__(self, name: str):
        self.name = name
        #: The driving :class:`Instance`, or None for primary inputs.
        self.driver: Optional["Instance"] = None
        #: ``(instance, pin)`` pairs reading this net.
        self.sinks: List[Tuple["Instance", str]] = []
        self.is_input = False
        self.is_output = False

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:
        kind = "PI" if self.is_input else ("PO" if self.is_output else "net")
        return f"Net({self.name}, {kind}, fanout={self.fanout})"


class Instance:
    """One placed cell."""

    __slots__ = ("name", "cell", "pins", "output_net")

    def __init__(self, name: str, cell: Cell, pins: Dict[str, str], output_net: str):
        self.name = name
        self.cell = cell
        #: input pin name -> net name
        self.pins = dict(pins)
        self.output_net = output_net

    def input_nets(self) -> List[str]:
        """Input net names in cell pin order."""
        return [self.pins[p] for p in self.cell.inputs]

    def pin_of_net(self, net_name: str) -> List[str]:
        """All input pins connected to ``net_name`` (usually one)."""
        return [p for p, n in self.pins.items() if n == net_name]

    def __repr__(self) -> str:
        conns = ", ".join(f".{p}({n})" for p, n in self.pins.items())
        return f"{self.cell.name} {self.name} ({conns}) -> {self.output_net}"


class Circuit:
    """A combinational gate-level netlist.

    Instances must be added in any order; :meth:`check` validates that
    the result is a single-driver acyclic network with all sinks driven.
    """

    def __init__(self, name: str, library: Optional[Library] = None):
        self.name = name
        self.library = library or default_library()
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.instances: Dict[str, Instance] = {}
        self.nets: Dict[str, Net] = {}
        self._topo_cache: Optional[List[Instance]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _net(self, name: str) -> Net:
        net = self.nets.get(name)
        if net is None:
            net = Net(name)
            self.nets[name] = net
        return net

    def add_input(self, name: str) -> Net:
        net = self._net(name)
        if net.driver is not None:
            raise ValueError(f"net {name} already driven; cannot be a primary input")
        if not net.is_input:
            net.is_input = True
            self.inputs.append(name)
        return net

    def add_output(self, name: str) -> Net:
        net = self._net(name)
        if not net.is_output:
            net.is_output = True
            self.outputs.append(name)
        return net

    def add_gate(
        self,
        cell: str | Cell,
        output: str,
        connections: Dict[str, str],
        name: Optional[str] = None,
    ) -> Instance:
        """Place a cell instance.

        Parameters
        ----------
        cell:
            Cell object or library cell name.
        output:
            Net name driven by the instance.
        connections:
            Mapping from input pin name to net name; must cover every
            input pin of the cell exactly.
        name:
            Instance name (defaults to ``U<k>``).
        """
        if isinstance(cell, str):
            cell = self.library[cell]
        cell.check_pins(connections)
        if name is None:
            k = len(self.instances)
            while f"U{k}" in self.instances:
                k += 1
            name = f"U{k}"
        if name in self.instances:
            raise ValueError(f"duplicate instance name {name}")
        out_net = self._net(output)
        if out_net.driver is not None:
            raise ValueError(f"net {output} has two drivers")
        if out_net.is_input:
            raise ValueError(f"net {output} is a primary input; cannot be driven")
        inst = Instance(name, cell, connections, output)
        out_net.driver = inst
        for pin, net_name in connections.items():
            self._net(net_name).sinks.append((inst, pin))
        self.instances[name] = inst
        self._topo_cache = None
        return inst

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.instances)

    def driver_of(self, net_name: str) -> Optional[Instance]:
        return self.nets[net_name].driver

    def fanout_of(self, net_name: str) -> List[Tuple[Instance, str]]:
        return self.nets[net_name].sinks

    def complex_instances(self) -> List[Instance]:
        """Instances of cells with multi-vector pins."""
        return [inst for inst in self.instances.values() if inst.cell.is_complex]

    def cell_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for inst in self.instances.values():
            hist[inst.cell.name] = hist.get(inst.cell.name, 0) + 1
        return dict(sorted(hist.items()))

    # ------------------------------------------------------------------
    # Validation and ordering
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Raise :class:`ValueError` on structural problems."""
        for net in self.nets.values():
            if net.driver is None and not net.is_input:
                raise ValueError(f"net {net.name} has no driver and is not an input")
        for out in self.outputs:
            if out not in self.nets:
                raise ValueError(f"declared output {out} does not exist")
        self.topological()  # raises on cycles

    def topological(self) -> List[Instance]:
        """Instances in topological order (inputs first); cached."""
        if self._topo_cache is not None:
            return self._topo_cache
        indegree: Dict[str, int] = {}
        for inst in self.instances.values():
            deps = 0
            for net_name in inst.pins.values():
                drv = self.nets[net_name].driver
                if drv is not None:
                    deps += 1
            indegree[inst.name] = deps
        ready = [i for i in self.instances.values() if indegree[i.name] == 0]
        order: List[Instance] = []
        while ready:
            inst = ready.pop()
            order.append(inst)
            for sink, _pin in self.nets[inst.output_net].sinks:
                indegree[sink.name] -= 1
                if indegree[sink.name] == 0:
                    ready.append(sink)
        if len(order) != len(self.instances):
            raise ValueError(f"{self.name}: combinational loop detected")
        self._topo_cache = order
        return order

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Two-valued simulation; every primary input must be assigned."""
        missing = [n for n in self.inputs if n not in input_values]
        if missing:
            raise ValueError(f"unassigned inputs: {missing}")
        values: Dict[str, int] = {n: input_values[n] for n in self.inputs}
        for inst in self.topological():
            ins = [values[inst.pins[p]] for p in inst.cell.inputs]
            values[inst.output_net] = inst.cell.func.eval(ins)
        return values

    def simulate3(self, input_values: Dict[str, TriValue]) -> Dict[str, TriValue]:
        """Three-valued simulation; unassigned inputs default to X."""
        values: Dict[str, TriValue] = {n: input_values.get(n, X) for n in self.inputs}
        for inst in self.topological():
            ins = [values[inst.pins[p]] for p in inst.cell.inputs]
            values[inst.output_net] = inst.cell.func.eval3(ins)
        return values

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Directed instance graph for offline analysis (networkx)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for net_name in self.inputs:
            graph.add_node(net_name, kind="input")
        for inst in self.instances.values():
            graph.add_node(inst.name, kind="gate", cell=inst.cell.name)
            for net_name in inst.pins.values():
                net = self.nets[net_name]
                src = net_name if net.driver is None else net.driver.name
                graph.add_edge(src, inst.name, net=net_name)
        return graph

    def stats(self) -> Dict[str, int]:
        """Headline size statistics."""
        from repro.netlist.levelize import logic_depth

        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.num_gates,
            "complex_gates": len(self.complex_instances()),
            "nets": len(self.nets),
            "depth": logic_depth(self),
        }

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name}: {len(self.inputs)} in, {len(self.outputs)} out, "
            f"{self.num_gates} gates)"
        )
