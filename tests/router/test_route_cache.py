"""Parity of the router's once-per-hop route cache with fresh routing.

The router computes a packet's static hop options the first time it
scans the packet and reuses them for every later launch while the
packet waits.  These tests wrap the router's private route step and
readiness check (test-only, via monkeypatch) over a saturated run with
the fault injector and invariant checker armed, and compare every use
of a cached route with a fresh computation by the routing functions.
"""

import pytest

from repro.network.channels import ChannelKind, adaptive_channel, escape_channel
from repro.network.routing import (
    adaptive_candidates,
    dimension_order_direction,
    escape_vc_after_hop,
)
from repro.resilience.faults import FaultConfig
from repro.resilience.invariants import InvariantConfig
from repro.router.ports import OutputPort, output_for_direction
from repro.router.router import Router
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.timing_model import NetworkSimulator


def fresh_route(router, packet, port):
    """The hop options, ``[[(output, target channel), ...], ...]``,
    computed from scratch by the routing functions."""
    node = router.node
    if packet.destination == node:
        sinks = packet.sink_outputs or (int(OutputPort.L0), int(OutputPort.L1))
        return [[(out, None) for out in sinks]]

    def hops(directions, target):
        return [
            (int(d), target)
            for d in directions
            if not (port.is_network and int(port) == int(d))
        ]

    topology, destination = router.topology, packet.destination
    stages = []
    if packet.pclass.adaptive_allowed:
        stages.append(hops(
            adaptive_candidates(topology, node, destination),
            adaptive_channel(packet.pclass),
        ))
    direction = dimension_order_direction(topology, node, destination)
    vc = escape_vc_after_hop(topology, packet, node, direction)
    stages.append(hops((direction,), escape_channel(packet.pclass, vc)))
    return stages


@pytest.fixture(scope="module")
def audited_run():
    computed: dict[int, tuple] = {}
    uses = {"hits": 0, "escape": 0}
    problems: list[str] = []
    original_route = Router._route
    original_ready = Router._ready_hops

    def route(self, port, packet, index):
        result = original_route(self, port, packet, index)
        # Holding the stages keeps their id unique for the whole run.
        computed[id(result[1])] = (self, packet, port, index, result[1])
        return result

    def ready_hops(self, row, stages, resolve_time):
        owner, packet, port, index, _ = computed[id(stages)]
        uses["hits"] += 1
        if owner is not self:
            problems.append(
                f"packet #{packet.uid}: route of node {owner.node} "
                f"used at node {self.node}"
            )
        if packet.route is None or packet.route[1] is not stages:
            problems.append(f"packet #{packet.uid}: route used after it left")
        queue = self.buffers[port].queues[index]
        if not queue or queue[0] is not packet:
            problems.append(f"packet #{packet.uid}: not at the scanned head")
        cached = [
            [(hop[0], hop[3].target_channel) for hop in stage] for stage in stages
        ]
        if cached != fresh_route(self, packet, port):
            problems.append(f"packet #{packet.uid} at node {self.node}: stale")
        for stage in stages:
            for out, downstream, target, plan in stage:
                if plan.packet is not packet or plan.in_port is not port:
                    problems.append(f"packet #{packet.uid}: foreign hop plan")
                if plan.target_channel is None:
                    continue
                neighbor, in_port = self.downstream[output_for_direction(
                    plan.direction
                )]
                if downstream is not neighbor.buffers[in_port]:
                    problems.append(f"packet #{packet.uid}: wrong downstream")
                if target != plan.target_channel.index:
                    problems.append(f"packet #{packet.uid}: wrong target index")
                uses["escape"] += plan.target_channel.kind is not ChannelKind.ADAPTIVE
        return original_ready(self, row, stages, resolve_time)

    mp = pytest.MonkeyPatch()
    mp.setattr(Router, "_route", route)
    mp.setattr(Router, "_ready_hops", ready_hops)
    try:
        config = SimulationConfig(
            algorithm="WFA-base",  # two outputs per nomination: misroutable
            network=NetworkConfig(
                width=4, height=4, buffer_plan=saturation_buffer_plan()
            ),
            traffic=TrafficConfig(injection_rate=0.08),
            warmup_cycles=300,
            measure_cycles=1_500,
            seed=5,
        )
        simulator = NetworkSimulator(
            config,
            faults=FaultConfig(
                seed=3,
                flit_drop_rate=2e-3,
                flit_corrupt_rate=1e-3,
                grant_misroute_rate=0.2,
            ),
            invariants=InvariantConfig(check_interval_cycles=200.0),
        )
        simulator.run()
    finally:
        mp.undo()
    return simulator, computed, uses, problems


class TestRouteCacheParity:
    def test_run_exercised_the_fault_paths(self, audited_run):
        simulator, computed, uses, _ = audited_run
        counts = simulator.faults.counts
        assert counts["grant-misrouted"] > 0
        assert simulator.stats.link_faults > 0
        assert uses["escape"] > 0
        # Routes are reused: far more readiness checks than route steps.
        assert uses["hits"] > 3 * len(computed)

    def test_every_cached_route_matches_a_fresh_computation(self, audited_run):
        _, _, _, problems = audited_run
        assert problems == []

    def test_invariants_hold(self, audited_run):
        simulator = audited_run[0]
        assert simulator.invariants.violations == []
