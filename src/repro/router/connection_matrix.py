"""The 16x7 connection matrix of Figure 5.

Rows are the 16 input-port arbiters ("L-X rpY"), columns the 7 output
ports ("G-X").  Shaded cells carry no wiring.  The paper states the
matrix has 54 usable cells but the scan's shading is not legible, so we
reconstruct a layout that (a) matches every property the text does
state and (b) has exactly 54 cells:

* "the individual read ports are not connected to all the output
  ports" -- we partition each input port's outputs between its two
  read ports: read port 0 drives the four torus outputs, read port 1
  drives the three local outputs (L0, L1, I/O).
* a memory controller never targets its own local output port (a
  response bound for the local cache is delivered through the *other*
  controller's port, both being tied to the cache).

That yields ``8*4 + 8*3 - 2 = 54`` connections.  Dynamic routing rules
(no reverse hop inside the minimal rectangle, I/O ordering) are
enforced by the routing layer, not by wiring, just as in hardware.
The layout is plain data, so alternative reconstructions can be
passed to the router for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.router.ports import (
    InputPort,
    LOCAL_OUTPUTS,
    NUM_OUTPUT_PORTS,
    NUM_ROWS,
    OutputPort,
    READ_PORTS_PER_INPUT,
    TORUS_OUTPUTS,
    port_of_row,
    row_of,
)


def default_connections() -> frozenset[tuple[int, int]]:
    """The reconstructed (row, output) wiring with 54 cells."""
    cells: set[tuple[int, int]] = set()
    for port in InputPort:
        for out in TORUS_OUTPUTS:
            cells.add((row_of(port, 0), int(out)))
        for out in LOCAL_OUTPUTS:
            cells.add((row_of(port, 1), int(out)))
    cells.discard((row_of(InputPort.MC0, 1), int(OutputPort.L0)))
    cells.discard((row_of(InputPort.MC1, 1), int(OutputPort.L1)))
    return frozenset(cells)


@dataclass(frozen=True)
class ConnectionMatrix:
    """Which input-port arbiter may nominate to which output port."""

    cells: frozenset[tuple[int, int]] = field(default_factory=default_connections)

    def __post_init__(self) -> None:
        for row, out in self.cells:
            if not 0 <= row < NUM_ROWS:
                raise ValueError(f"row {row} out of range")
            if not 0 <= out < NUM_OUTPUT_PORTS:
                raise ValueError(f"output {out} out of range")

    def connected(self, row: int, output: OutputPort | int) -> bool:
        return (row, int(output)) in self.cells

    @cached_property
    def wired(self) -> tuple[tuple[bool, ...], ...]:
        """``wired[row][output]``: :meth:`connected` as a lookup table."""
        return tuple(
            tuple((row, out) in self.cells for out in range(NUM_OUTPUT_PORTS))
            for row in range(NUM_ROWS)
        )

    def outputs_of_row(self, row: int) -> tuple[int, ...]:
        """Output ports wired to *row*, ascending."""
        return tuple(
            out for out in range(NUM_OUTPUT_PORTS) if (row, out) in self.cells
        )

    def rows_of_output(self, output: OutputPort | int) -> tuple[int, ...]:
        """Rows wired to *output*, ascending."""
        return tuple(row for row in range(NUM_ROWS) if (row, int(output)) in self.cells)

    def rows_for(self, port: InputPort, output: OutputPort | int) -> tuple[int, ...]:
        """Rows of *port* that can nominate to *output*."""
        return tuple(
            row_of(port, rp)
            for rp in range(READ_PORTS_PER_INPUT)
            if self.connected(row_of(port, rp), output)
        )

    @property
    def num_connections(self) -> int:
        return len(self.cells)

    def render(self) -> str:
        """ASCII rendering in the style of Figure 5 (tests, docs)."""
        header = "            " + " ".join(f"G-{o.name:<5}" for o in OutputPort)
        lines = [header]
        for row in range(NUM_ROWS):
            port, rp = port_of_row(row)
            marks = " ".join(
                ("  x   " if self.connected(row, out) else "  .   ")
                for out in range(NUM_OUTPUT_PORTS)
            )
            lines.append(f"L-{port.name:<6}rp{rp} {marks}")
        return "\n".join(lines)


DEFAULT_CONNECTION_MATRIX = ConnectionMatrix()
