"""The 21364 router model used by the timing simulator.

A :class:`Router` owns the per-input-port buffers, the output-port busy
state, the 16 read-port input arbiters (the LA pipeline stage) and one
arbitration-algorithm instance (the GA stage).  The timing simulator
drives it with two calls per arbitration *launch*:

* :meth:`nominate` at cycle ``t`` builds the launch's nominations --
  each read-port arbiter picks the oldest packet from its
  least-recently-selected virtual channel that passes the readiness
  tests (connected output, output predicted free at grant time,
  downstream buffer space) -- and marks those packets in flight.  A
  packet's route is looked up once per router, the first time it is
  scanned (the hardware's RT/DW step; see :meth:`_route`), so each
  launch re-runs only those dynamic tests.
* :meth:`resolve` at cycle ``t + latency`` re-checks readiness (the
  speculation window: a pipelined SPAA launch may discover its output
  was just taken), runs the arbitration algorithm, applies the grants
  (buffer departure, output busy time, downstream reservation) and
  releases the losers for re-nomination.

Everything timing related (when launches happen, event scheduling) is
the simulator's job; the router is purely reactive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.antistarvation import AntiStarvationTracker
from repro.core.base import Arbiter
from repro.core.types import Grant, Nomination, SourceKind
from repro.network.channels import (
    NUM_CHANNELS,
    BufferPlan,
    ChannelKind,
    VirtualChannel,
    adaptive_channel,
    all_virtual_channels,
    escape_channel,
)
from repro.network.packets import Packet
from repro.network.routing import (
    adaptive_candidates,
    dimension_order_direction,
    escape_vc_after_hop,
)
from repro.network.topology import Direction, Torus2D
from repro.obs.telemetry import NULL_TELEMETRY
from repro.router.buffers import InputBuffer, Occupancy
from repro.router.connection_matrix import ConnectionMatrix
from repro.router.ports import (
    InputPort,
    NUM_OUTPUT_PORTS,
    NUM_ROWS,
    OutputPort,
    READ_PORTS_PER_INPUT,
    output_for_direction,
    row_of,
)

_CHANNELS = all_virtual_channels()
_DEFAULT_SINKS = (int(OutputPort.L0), int(OutputPort.L1))


@dataclass(slots=True)
class HopPlan:
    """Bookkeeping for one nominated (packet, output) candidate."""

    packet: Packet
    in_port: InputPort
    from_channel: VirtualChannel
    output: OutputPort
    #: channel at the downstream router (None when sinking locally)
    target_channel: VirtualChannel | None
    direction: Direction | None


@dataclass(slots=True)
class Launch:
    """One in-flight arbitration: nominations plus their hop plans."""

    time: float
    nominations: list[Nomination]
    plans: dict[tuple[int, int, int], HopPlan]


@dataclass(slots=True)
class Dispatch:
    """A granted packet leaving the router; consumed by the simulator."""

    packet: Packet
    plan: HopPlan
    grant_time: float
    service_cycles: float


class Router:
    """One 21364 router inside the timing model."""

    #: observability hook; the simulator swaps in a live Telemetry.
    telemetry = NULL_TELEMETRY
    #: fault-injection seam: when set, called between the arbitration
    #: algorithm and grant application as ``filter(router, launch,
    #: live, grants, now) -> grants`` (see repro.resilience.faults).
    #: Packets whose grants are filtered out are released exactly like
    #: arbitration losers, so flow control stays consistent.
    grant_filter = None

    def __init__(
        self,
        node: int,
        topology: Torus2D,
        arbiter: Arbiter,
        buffer_plan: BufferPlan,
        matrix: ConnectionMatrix,
        antistarvation: AntiStarvationTracker,
        rng: random.Random,
        torus_cycles_per_flit: float = 1.5,
        local_cycles_per_flit: float = 1.0,
    ) -> None:
        self.node = node
        self.topology = topology
        self.arbiter = arbiter
        self.matrix = matrix
        self.antistarvation = antistarvation
        self.rng = rng
        self.torus_cycles_per_flit = torus_cycles_per_flit
        self.local_cycles_per_flit = local_cycles_per_flit
        #: wire-delay cycles between the grant decision and the packet
        #: reaching the output (PIM1/WFA's pipelined fourth cycle);
        #: set by the simulator from the algorithm's timing.
        self.output_tail_cycles = 0.0

        self._occupancy = Occupancy()
        self.buffers: dict[InputPort, InputBuffer] = {
            port: InputBuffer(buffer_plan, self._occupancy) for port in InputPort
        }
        #: (port, buffer, its read-port rows, source kind), scan order
        self._ports = tuple(
            (
                port,
                self.buffers[port],
                tuple(row_of(port, rp) for rp in range(READ_PORTS_PER_INPUT)),
                SourceKind.NETWORK if port.is_network else SourceKind.LOCAL,
            )
            for port in InputPort
        )
        self._wired = matrix.wired
        self.output_busy_until = [0.0] * NUM_OUTPUT_PORTS
        #: downstream wiring, filled in by the simulator:
        #: torus output -> (neighbor router, neighbor's input port)
        self.downstream: dict[OutputPort, tuple["Router", InputPort]] = {}
        self._in_flight: set[int] = set()
        #: rows with an unresolved nomination -- SPAA's "small list of
        #: in-flight packets, only 16": each input-port arbiter keeps at
        #: most one nomination outstanding until its Reset step.
        self._row_in_flight: set[int] = set()
        self._reset_lrs()
        #: launch gating, managed by the simulator
        self.last_launch_time = float("-inf")
        self.launch_scheduled_at: float | None = None

    def _reset_lrs(self) -> None:
        #: per-row least-recently-selected sort keys per channel index:
        #: ``stamp * NUM_CHANNELS + index``, where the stamp is 0 for a
        #: never-selected channel, so those rank oldest and ties break
        #: on the fixed channel index (simulations stay deterministic).
        self._lrs_keys = [list(range(NUM_CHANNELS)) for _ in range(NUM_ROWS)]
        self._vc_clock = 0
        #: per-row rotation for picking one of two adaptive outputs
        self._output_toggle = [0] * NUM_ROWS

    # -- nomination (the LA stage) -------------------------------------

    def nominate(
        self,
        now: float,
        resolve_time: float,
        fanout: int,
        nominations_per_port: int = READ_PORTS_PER_INPUT,
    ) -> Launch | None:
        """Build one arbitration launch; None when nothing is ready."""
        if not self._occupancy.count:
            return None
        nominations: list[Nomination] = []
        plans: dict[tuple[int, int, int], HopPlan] = {}
        row_in_flight = self._row_in_flight
        for port, buffer, rows, source in self._ports:
            if not buffer.count:
                continue
            port_nominations = 0
            for row in rows:
                if port_nominations >= nominations_per_port:
                    break
                if row in row_in_flight:
                    # Each read-port arbiter keeps at most one
                    # nomination outstanding (SPAA's Reset step); with
                    # one nomination per port per launch the pair
                    # alternates read ports across launches, giving the
                    # paper's 16-entry in-flight list.
                    continue
                picked = self._pick_for_row(row, port, buffer, resolve_time, fanout)
                if picked is None:
                    continue
                packet, index, candidates = picked
                nominations.append(
                    Nomination(
                        row=row,
                        packet=packet.uid,
                        outputs=tuple(hop[0] for hop in candidates),
                        source=source,
                        age=max(0, int(now - packet.waiting_since)),
                        group=int(port),
                        group_capacity=READ_PORTS_PER_INPUT,
                    )
                )
                for out, _, _, plan in candidates:
                    plans[(row, packet.uid, out)] = plan
                self._in_flight.add(packet.uid)
                row_in_flight.add(row)
                self._vc_clock += 1
                self._lrs_keys[row][index] = self._vc_clock * NUM_CHANNELS + index
                port_nominations += 1
        if not nominations:
            return None
        tel = self.telemetry
        if tel.events:
            for nom in nominations:
                tel.on_nomination(now, self.node, nom.row, nom.packet, nom.outputs)
        return Launch(time=now, nominations=nominations, plans=plans)

    def _pick_for_row(
        self,
        row: int,
        port: InputPort,
        buffer: InputBuffer,
        resolve_time: float,
        fanout: int,
    ) -> tuple[Packet, int, list[tuple]] | None:
        """The read-port arbiter: oldest packet from the LRS channel."""
        waiting = buffer.waiting
        if len(waiting) > 1:
            waiting = sorted(waiting, key=self._lrs_keys[row].__getitem__)
        queues = buffer.queues
        for index in waiting:
            packet = queues[index][0]
            if packet.uid in self._in_flight:
                continue
            route = packet.route
            if route is None or route[0] != self.node:
                route = self._route(port, packet, index)
            candidates = self._ready_hops(row, route[1], resolve_time)
            if not candidates:
                continue
            if fanout == 1 and len(candidates) > 1:
                # SPAA commits to a single output; rotate the choice so
                # both adaptive directions get exercised over time.
                toggle = self._output_toggle[row]
                candidates = [candidates[toggle % len(candidates)]]
                self._output_toggle[row] = toggle + 1
            else:
                candidates = candidates[:fanout]
            return packet, index, candidates
        return None

    # -- routing (the RT/DW step) ----------------------------------------

    def _route(self, port: InputPort, packet: Packet, index: int) -> tuple:
        """Compute and cache the packet's static hop options here.

        Runs once per packet per router, the first time a read-port
        arbiter scans it.  The result, ``(node, stages)``, holds one or
        two stages of hops ``(output index, downstream buffer or None,
        target channel index, HopPlan)``: the sink outputs at the
        destination; elsewhere the adaptive directions, then the
        dimension-order escape hop as a fallback.  Everything here is
        fixed while the packet waits in this buffer; only the dynamic
        checks in :meth:`_ready_hops` repeat per launch.
        """
        node = self.node
        channel = _CHANNELS[index]
        if packet.destination == node:
            sinks = packet.sink_outputs
            if sinks is None:
                sinks = _DEFAULT_SINKS
            stages = (
                tuple(
                    (int(out), None, 0, HopPlan(
                        packet, port, channel, OutputPort(out), None, None
                    ))
                    for out in sinks
                ),
            )
        else:
            topology = self.topology
            destination = packet.destination
            stages = ()
            if packet.pclass.adaptive_allowed:
                stages += (
                    self._hops(
                        port, packet, channel,
                        adaptive_candidates(topology, node, destination),
                        adaptive_channel(packet.pclass),
                    ),
                )
            # Blocked adaptively (or I/O-class): the escape network.
            direction = dimension_order_direction(topology, node, destination)
            if direction is not None:
                vc_index = escape_vc_after_hop(topology, packet, node, direction)
                stages += (
                    self._hops(
                        port, packet, channel, (direction,),
                        escape_channel(packet.pclass, vc_index),
                    ),
                )
        route = packet.route = (node, stages)
        return route

    def _hops(
        self,
        port: InputPort,
        packet: Packet,
        channel: VirtualChannel,
        directions: tuple[Direction, ...],
        target_channel: VirtualChannel,
    ) -> tuple[tuple, ...]:
        # Torus output index == direction value.  A packet arriving at
        # torus input port P came from the neighbor in direction P;
        # leaving via output P would reverse, which minimal-rectangle
        # routing never does.
        reverse = int(port) if port.is_network else None
        hops = []
        for direction in directions:
            out = int(direction)
            if out == reverse:
                continue
            output = output_for_direction(direction)
            neighbor, in_port = self.downstream[output]
            plan = HopPlan(packet, port, channel, output, target_channel, direction)
            hops.append((out, neighbor.buffers[in_port], target_channel.index, plan))
        return tuple(hops)

    def _ready_hops(
        self, row: int, stages: tuple, resolve_time: float
    ) -> list[tuple]:
        """The LA readiness tests: output free at *resolve_time*, cell
        wired, downstream credit.  The first stage with a ready hop wins."""
        busy = self.output_busy_until
        connected = self._wired[row]
        ready = []
        for hops in stages:
            for hop in hops:
                out, downstream, target, _ = hop
                if busy[out] > resolve_time or not connected[out]:
                    continue
                if downstream is None or downstream.can_reserve_index(target):
                    ready.append(hop)
            if ready:
                break
        return ready

    # -- resolution (the GA stage) ---------------------------------------

    def resolve(self, now: float, launch: Launch) -> list[Dispatch]:
        """Run the arbitration algorithm and apply its grants."""
        live: list[Nomination] = []
        speculation_drops = 0
        for nom in launch.nominations:
            outputs = tuple(
                out
                for out in nom.outputs
                if self._still_ready(launch.plans[(nom.row, nom.packet, out)], now)
            )
            self._row_in_flight.discard(nom.row)
            if outputs:
                if outputs != nom.outputs:
                    nom = Nomination(
                        row=nom.row,
                        packet=nom.packet,
                        outputs=outputs,
                        source=nom.source,
                        age=nom.age,
                        group=nom.group,
                        group_capacity=nom.group_capacity,
                    )
                live.append(nom)
            else:
                speculation_drops += 1
                self._in_flight.discard(nom.packet)
        tel = self.telemetry
        if tel.enabled and speculation_drops:
            # The launch's output(s) were taken between nominate and
            # resolve -- the pipelined speculation window in action.
            tel.on_speculation_drops(speculation_drops)
        if not live:
            return []

        live = self.antistarvation.classify(live, now)
        free_outputs = frozenset(
            out
            for out in range(NUM_OUTPUT_PORTS)
            if self.output_busy_until[out] <= now
        )
        grants = self.arbiter.arbitrate(live, free_outputs)
        if self.grant_filter is not None:
            grants = self.grant_filter(self, launch, live, grants, now)
        granted = {nom_key for nom_key in ((g.row, g.packet) for g in grants)}
        for nom in live:
            if (nom.row, nom.packet) not in granted:
                self._in_flight.discard(nom.packet)
        if tel.events and len(grants) < len(live):
            tel.on_conflicts(
                now, self.node, self.arbiter.name, len(live) - len(grants)
            )
        return [self._apply_grant(grant, launch, now) for grant in grants]

    def upstream_node(self, port: InputPort) -> int:
        """The neighbor feeding a torus input port."""
        if not port.is_network:
            raise ValueError(f"{port.name} has no upstream router")
        return self.topology.neighbor(self.node, port.direction)

    def plan_is_ready(self, plan: HopPlan, now: float) -> bool:
        """Public readiness probe (used by the fault injector's
        mis-routing, which must not redirect onto a busy output or a
        full downstream buffer)."""
        return self._still_ready(plan, now)

    def _still_ready(self, plan: HopPlan, now: float) -> bool:
        if self.output_busy_until[int(plan.output)] > now:
            return False
        if plan.target_channel is None:
            return True
        neighbor, in_port = self.downstream[plan.output]
        return neighbor.buffers[in_port].can_reserve(plan.target_channel)

    def _apply_grant(self, grant: Grant, launch: Launch, now: float) -> Dispatch:
        plan = launch.plans[(grant.row, grant.packet, grant.output)]
        packet = plan.packet
        self.buffers[plan.in_port].remove(packet, plan.from_channel)
        self._in_flight.discard(packet.uid)
        packet.route = None
        if plan.target_channel is None:
            cycles_per_flit = self.local_cycles_per_flit
        else:
            cycles_per_flit = self.torus_cycles_per_flit
            neighbor, in_port = self.downstream[plan.output]
            neighbor.buffers[in_port].reserve(plan.target_channel)
            packet.last_direction = plan.direction
            packet.escape_vc = (
                None
                if plan.target_channel.kind is ChannelKind.ADAPTIVE
                else (0 if plan.target_channel.kind is ChannelKind.VC0 else 1)
            )
            packet.hops += 1
        service = packet.flits * cycles_per_flit
        self.output_busy_until[int(plan.output)] = (
            now + self.output_tail_cycles + service
        )
        tel = self.telemetry
        if tel.enabled:
            tel.on_dispatch(
                now,
                self.node,
                grant.row,
                packet.uid,
                int(plan.output),
                self.output_tail_cycles + service,
            )
        return Dispatch(
            packet=packet, plan=plan, grant_time=now, service_cycles=service
        )

    def reset_arbitration_state(self) -> None:
        """Clear dynamic state (tests and back-to-back simulations)."""
        self.arbiter.reset()
        self.antistarvation.reset()
        self._in_flight.clear()
        self._row_in_flight.clear()
        self._reset_lrs()
        self.last_launch_time = float("-inf")
        self.launch_scheduled_at = None

    # -- introspection -----------------------------------------------------

    def total_buffered(self) -> int:
        return self._occupancy.count

