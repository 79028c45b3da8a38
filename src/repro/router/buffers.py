"""Per-input-port packet buffering with virtual-channel partitions.

The 21364 provides buffer space for 316 packets per input port to
support virtual cut-through routing (a blocked packet is buffered
whole).  Buffers are partitioned by virtual channel so a lower-priority
coherence class can never block a higher one, and the escape channels
VC0/VC1 keep their own (tiny) partitions.

Space is reserved upstream at grant time and committed on arrival --
the credit-based flow control of the hardware, modelled with immediate
credit visibility (the simulator can read the downstream buffer
directly; the few-cycle credit-return delay is folded into the
pin-to-pin latency constant).
"""

from __future__ import annotations

from collections import deque

from repro.network.channels import (
    NUM_CHANNELS,
    BufferPlan,
    VirtualChannel,
    all_virtual_channels,
)
from repro.network.packets import Packet

_CHANNELS = all_virtual_channels()


class Occupancy:
    """A packet count shared by the input buffers of one router."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class InputBuffer:
    """Buffering for one input port: a FIFO per virtual channel.

    Per-channel state lives in lists indexed by
    :attr:`VirtualChannel.index`.  The public methods take channels;
    the router's hot path uses :attr:`queues`, :attr:`waiting` and
    :meth:`can_reserve_index` directly.  Buffers built with the same
    *shared* :class:`Occupancy` keep a running total across them.
    """

    def __init__(self, plan: BufferPlan, shared: Occupancy | None = None) -> None:
        self._plan = plan
        self._shared = shared if shared is not None else Occupancy()
        #: FIFO per channel index (read-only outside this class)
        self.queues: list[deque[Packet]] = [deque() for _ in range(NUM_CHANNELS)]
        self._reserved = [0] * NUM_CHANNELS
        self._capacity = plan.channel_capacities
        #: number of buffered packets (read-only outside this class)
        self.count = 0
        #: indices of the channels holding a packet (a live set: don't mutate)
        self.waiting: set[int] = set()

    # -- capacity ----------------------------------------------------

    def capacity(self, channel: VirtualChannel) -> int:
        return self._capacity[channel.index]

    def free_slots(self, channel: VirtualChannel) -> int:
        """Slots neither occupied nor promised to an in-flight packet."""
        return self._free_slots(channel.index)

    def _free_slots(self, index: int) -> int:
        return self._capacity[index] - len(self.queues[index]) - self._reserved[index]

    def can_reserve(self, channel: VirtualChannel) -> bool:
        return self._free_slots(channel.index) > 0

    def can_reserve_index(self, index: int) -> bool:
        return self._free_slots(index) > 0

    def reserve(self, channel: VirtualChannel) -> None:
        """Promise one slot to a packet granted upstream."""
        if not self.can_reserve(channel):
            raise BufferOverflowError(f"no free slot in {channel}")
        self._reserved[channel.index] += 1

    def cancel_reservation(self, channel: VirtualChannel) -> None:
        index = channel.index
        if self._reserved[index] <= 0:
            raise ValueError(f"no reservation to cancel on {channel}")
        self._reserved[index] -= 1

    # -- occupancy ---------------------------------------------------

    def commit(self, packet: Packet, channel: VirtualChannel) -> None:
        """Arrival: turn a reservation into an occupied slot."""
        index = channel.index
        if self._reserved[index] <= 0:
            raise ValueError(f"arrival without reservation on {channel}")
        self._reserved[index] -= 1
        self.queues[index].append(packet)
        self.count += 1
        self._shared.count += 1
        self.waiting.add(index)

    def inject(self, packet: Packet, channel: VirtualChannel) -> bool:
        """Local-port enqueue without a prior reservation.

        Returns False (and leaves the buffer unchanged) when the
        channel is full -- the caller holds the packet and retries,
        which is how injection back-pressure throttles the processor.
        """
        index = channel.index
        if self._free_slots(index) <= 0:
            return False
        self.queues[index].append(packet)
        self.count += 1
        self._shared.count += 1
        self.waiting.add(index)
        return True

    def head(self, channel: VirtualChannel) -> Packet | None:
        queue = self.queues[channel.index]
        return queue[0] if queue else None

    def remove(self, packet: Packet, channel: VirtualChannel) -> None:
        """Departure: the packet won arbitration and left the router."""
        index = channel.index
        queue = self.queues[index]
        if not queue or queue[0] is not packet:
            # Read-port arbiters only nominate FIFO heads, so a grant
            # always removes the head; anything else is a model bug.
            raise ValueError(f"{packet} is not at the head of {channel}")
        queue.popleft()
        self.count -= 1
        self._shared.count -= 1
        if not queue:
            self.waiting.discard(index)

    # -- introspection -----------------------------------------------

    def packets(self, channel: VirtualChannel):
        """Iterate the waiting packets of one channel, FIFO order.

        Read-only view for invariant checking and diagnostics; the
        underlying deque must not be mutated during iteration.
        """
        return iter(self.queues[channel.index])

    def reserved(self, channel: VirtualChannel) -> int:
        """Slots promised to in-flight packets but not yet occupied."""
        return self._reserved[channel.index]

    def credit_state(self):
        """Yield ``(channel, occupancy, reserved)`` for non-idle channels.

        The invariant checker walks this to assert credit-flow sanity
        without touching the per-channel lists directly.
        """
        for channel, queue, reserved in zip(_CHANNELS, self.queues, self._reserved):
            occupancy = len(queue)
            if occupancy or reserved:
                yield channel, occupancy, reserved

    def occupancy(self, channel: VirtualChannel | None = None) -> int:
        if channel is not None:
            return len(self.queues[channel.index])
        return self.count

    def channels_with_waiting(self) -> set[VirtualChannel]:
        """Channels holding at least one packet."""
        return {_CHANNELS[index] for index in self.waiting}

    def is_empty(self) -> bool:
        return self.count == 0

    def total_capacity(self) -> int:
        return self._plan.total_packets()


class BufferOverflowError(RuntimeError):
    """Raised when flow control is violated (a slot was not reserved)."""
