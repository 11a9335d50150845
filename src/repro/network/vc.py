"""Per-virtual-channel state.

An :class:`InputVC` couples a bounded flit FIFO with the routing state of
the packet currently being serviced at its head: the output port chosen by
route computation (``out_port``) and the downstream VC claimed by VC
allocation (``out_vc``). Both are reset when the packet's tail flit
departs, at which point the next packet's head (if queued behind) goes
through route computation and VC allocation afresh.

Invariant: because an upstream output VC is held by a single packet from
head to tail, flits of distinct packets never interleave within one VC
FIFO — the state pair always describes the packet at the head.

Each router input port holds a fixed pool of flit slots divided evenly
among its virtual channels (the paper: 128 flit buffers per input port,
two VCs, so 64 slots per VC): ``flits`` is the VC's FIFO and ``capacity``
its share. The two enqueue sites (the kernel's event dispatch for an
arriving flit, the router's injection stage for a local one) stamp each
flit's ``buffer_arrival_cycle`` and append; the router's traversal and
ejection stages pop from the front.

For the allocation-free hot loops the VC also carries *prebound* aliases
of everything they need — its router's ``node``, its own ``(in_port,
in_vc)`` coordinates and switch-allocation request id, the input port's
occupancy tracker, and ``upstream_credits``, the credit list of the
upstream output port feeding it. Transport records are addressed to
these objects: an ARRIVAL carries the downstream ``InputVC`` itself and a
CREDIT the ``upstream_credits`` list and VC index, so neither the
dispatch loop nor the router's scan performs tuple unpacking, list
indexing or dict lookups to find its target. The router fills the
aliases in at construction, and the upstream router binds
``upstream_credits`` when its channel is attached.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError
from .packet import Flit

#: Sentinel for "not yet computed / allocated".
UNROUTED = -1


class InputVC:
    """One virtual channel of a router input port.

    ``route_options`` caches route computation for the packet at the head:
    a list of ``(out_port, allowed_downstream_vcs)`` pairs in preference
    order, so VC-allocation retries on later cycles skip the routing
    function entirely.
    """

    __slots__ = (
        "flits",
        "capacity",
        "out_port",
        "out_vc",
        "route_options",
        # Hot-path prebindings (see module docstring).
        "node",
        "in_port",
        "in_vc",
        "rid",
        "tracker",
        "upstream_credits",
        # Membership flag for the router's occupied-VC list (kept by the
        # enqueue sites and the router's scan; see Router._occ_list).
        "in_occ",
    )

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("VC buffer capacity must be >= 1")
        self.flits: deque[Flit] = deque()
        self.capacity = capacity
        self.out_port = UNROUTED
        self.out_vc = UNROUTED
        self.route_options: list[tuple[int, tuple[int, ...]]] | None = None
        self.node = UNROUTED
        self.in_port = UNROUTED
        self.in_vc = UNROUTED
        self.rid = UNROUTED
        self.tracker = None
        self.upstream_credits: list[int] | None = None
        self.in_occ = False

    def reset_route(self) -> None:
        """Clear routing state after the tail departs."""
        self.out_port = UNROUTED
        self.out_vc = UNROUTED
        self.route_options = None
