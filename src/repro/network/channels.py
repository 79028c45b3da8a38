"""Virtual channels of the 21364 network.

Each non-special coherence class owns a *virtual channel group* of
three channels -- ADAPTIVE, VC0 and VC1 -- and the special class has a
single channel, 19 virtual channels in all (paper section 2.1).
Packets route adaptively in the adaptive channel until blocked, then
fall into the dimension-ordered deadlock-free channels VC0/VC1 (and,
thanks to virtual cut-through, may later return to the adaptive
channel).  Coherence classes are ordered so that, e.g., a request can
never block a block response -- achieved here, as in hardware, by
giving every class its own buffer partition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.network.packets import PacketClass


class ChannelKind(enum.Enum):
    ADAPTIVE = "adaptive"
    VC0 = "vc0"
    VC1 = "vc1"


def _channel_keys():
    """(class, kind) of every virtual channel, in channel-index order."""
    for pclass in PacketClass:
        if pclass is PacketClass.SPECIAL:
            yield pclass, ChannelKind.ADAPTIVE
        elif pclass.is_io:
            yield pclass, ChannelKind.VC0
            yield pclass, ChannelKind.VC1
        else:
            yield pclass, ChannelKind.ADAPTIVE
            yield pclass, ChannelKind.VC0
            yield pclass, ChannelKind.VC1


_INDEX = {key: index for index, key in enumerate(_channel_keys())}


@dataclass(frozen=True, slots=True, eq=False)
class VirtualChannel:
    """One of the virtual channels: a (class, kind) pair.

    Every channel carries a small int :attr:`index`, its position in
    :func:`all_virtual_channels`; buffers keep per-channel state in
    lists indexed by it.  The module's lookups (:func:`adaptive_channel`,
    :func:`escape_channel`, :func:`entry_channel`) return the singleton
    members of :func:`all_virtual_channels`; equality and hashing go by
    the index, so a separately constructed (or unpickled) channel still
    equals its singleton.
    """

    pclass: PacketClass
    kind: ChannelKind
    index: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.pclass is PacketClass.SPECIAL and self.kind is not ChannelKind.ADAPTIVE:
            raise ValueError("the special class has a single channel")
        if self.pclass.is_io and self.kind is ChannelKind.ADAPTIVE:
            raise ValueError("I/O packets only use the deadlock-free channels")
        object.__setattr__(self, "index", _INDEX[(self.pclass, self.kind)])

    def __hash__(self) -> int:
        return self.index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, VirtualChannel):
            return NotImplemented
        return self.index == other.index


_CHANNELS = tuple(VirtualChannel(pclass, kind) for pclass, kind in _channel_keys())
#: number of virtual channels (the length of every per-channel list)
NUM_CHANNELS = len(_CHANNELS)


def all_virtual_channels() -> tuple[VirtualChannel, ...]:
    """The 21364's virtual channels, in index order (always the same tuple)."""
    return _CHANNELS


@dataclass(frozen=True)
class BufferPlan:
    """Per-input-port packet-buffer allocation across channels.

    The 21364 provides buffer space for 316 packets per input port;
    the adaptive channels hold the bulk while each escape channel
    (VC0/VC1) holds one or two packets (paper section 2.1).  The
    default plan reserves one packet per escape channel and splits the
    rest over the adaptive channels roughly in proportion to each
    class's share of the coherence traffic.
    """

    adaptive_capacity: dict[PacketClass, int] = field(default_factory=dict)
    escape_capacity: int = 1
    special_capacity: int = 4

    def __post_init__(self) -> None:
        if not self.adaptive_capacity:
            # Defaults sized for the 70/30 request/forward/response mix;
            # together with the escape and special buffers they total
            # the paper's 316 packets (see total_packets).
            object.__setattr__(
                self,
                "adaptive_capacity",
                {
                    PacketClass.REQUEST: 80,
                    PacketClass.FORWARD: 40,
                    PacketClass.BLOCK_RESPONSE: 136,
                    PacketClass.NONBLOCK_RESPONSE: 40,
                },
            )
        if self.escape_capacity < 1:
            raise ValueError("escape channels need at least one buffer")
        for pclass, capacity in self.adaptive_capacity.items():
            if not pclass.adaptive_allowed:
                raise ValueError(f"{pclass} has no adaptive channel")
            if capacity < 1:
                raise ValueError("adaptive capacities must be positive")

    def capacity(self, channel: VirtualChannel) -> int:
        """Packet capacity of one virtual channel at one input port."""
        if channel.pclass is PacketClass.SPECIAL:
            return self.special_capacity
        if channel.kind is ChannelKind.ADAPTIVE:
            return self.adaptive_capacity[channel.pclass]
        # I/O classes ride only VC0/VC1; give them modest FIFO room so
        # the I/O ordering rules (strict escape routing) still flow.
        if channel.pclass.is_io:
            return max(self.escape_capacity, 2)
        return self.escape_capacity

    @cached_property
    def channel_capacities(self) -> tuple[int, ...]:
        """:meth:`capacity` of every channel, by channel index."""
        return tuple(self.capacity(channel) for channel in _CHANNELS)

    def total_packets(self) -> int:
        """Total packet buffering per input port under this plan."""
        return sum(self.channel_capacities)


def default_buffer_plan() -> BufferPlan:
    """The plan matching the paper's 316 packets per input port."""
    plan = BufferPlan()
    return plan


def adaptive_channel(pclass: PacketClass) -> VirtualChannel:
    """The adaptive channel of a coherence class."""
    channel = _ADAPTIVE.get(pclass)
    if channel is None:
        raise ValueError(f"{pclass} has no adaptive channel")
    return channel


def escape_channel(pclass: PacketClass, index: int) -> VirtualChannel:
    """The escape channel VC0 or VC1 of a coherence class."""
    if index not in (0, 1):
        raise ValueError("escape channels are VC0 and VC1")
    pair = _ESCAPE.get(pclass)
    if pair is None:
        raise ValueError("the special class has a single channel")
    return pair[index]


_ADAPTIVE = {c.pclass: c for c in _CHANNELS if c.kind is ChannelKind.ADAPTIVE}
_ESCAPE = {
    pclass: tuple(
        _CHANNELS[_INDEX[pclass, kind]] for kind in (ChannelKind.VC0, ChannelKind.VC1)
    )
    for pclass in PacketClass
    if pclass.has_escape_channels
}


def entry_channel(pclass: PacketClass) -> VirtualChannel:
    """The channel a freshly injected packet of *pclass* starts in.

    Non-I/O packets start in their adaptive channel; I/O packets ride
    only the deadlock-free channels (the 21364's I/O ordering rules)
    and the special class has its single channel.
    """
    return _ENTRY[pclass]


_ENTRY = {
    pclass: (
        adaptive_channel(pclass)
        if pclass.adaptive_allowed or pclass is PacketClass.SPECIAL
        else escape_channel(pclass, 0)
    )
    for pclass in PacketClass
}
