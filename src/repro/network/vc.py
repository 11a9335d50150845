"""Per-virtual-channel state.

An :class:`InputVC` couples a flit FIFO with the routing state of the
packet currently being serviced at its head: the output port chosen by
route computation (``out_port``) and the downstream VC claimed by VC
allocation (``out_vc``). Both are reset when the packet's tail flit
departs, at which point the next packet's head (if queued behind) goes
through route computation and VC allocation afresh.

Invariant: because an upstream output VC is held by a single packet from
head to tail, flits of distinct packets never interleave within one VC
FIFO — the state pair always describes the packet at the head.

For the router's allocation-free hot loop the VC also carries *prebound*
aliases of everything its step needs — the buffer's deque and capacity,
its own ``(in_port, in_vc)`` coordinates and switch-allocation request id,
and the input port's occupancy tracker and upstream credit target. The
router fills these in at construction/wiring time so the per-cycle scan
performs no tuple unpacking, list indexing, or dict lookups.
"""

from __future__ import annotations

from .buffers import VCBuffer

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
        "buffer",
        "out_port",
        "out_vc",
        "route_options",
        # Hot-path prebindings (see module docstring). ``flits`` aliases
        # ``buffer.flits`` — the deque object is stable for the buffer's
        # lifetime — and ``capacity`` mirrors ``buffer.capacity``.
        "flits",
        "capacity",
        "in_port",
        "in_vc",
        "rid",
        "tracker",
        "credit_target",
        # Membership flag for the router's occupied-VC list (kept by the
        # enqueue sites and the router's scan; see Router._occ_list).
        "in_occ",
    )

    def __init__(self, capacity: int):
        self.buffer = VCBuffer(capacity)
        self.out_port = UNROUTED
        self.out_vc = UNROUTED
        self.route_options: list[tuple[int, tuple[int, ...]]] | None = None
        self.flits = self.buffer.flits
        self.capacity = self.buffer.capacity
        self.in_port = UNROUTED
        self.in_vc = UNROUTED
        self.rid = UNROUTED
        self.tracker = None
        self.credit_target: tuple[int, int] | None = None
        self.in_occ = False

    @property
    def needs_route(self) -> bool:
        """A head flit waits at the front with no output port chosen."""
        head = self.buffer.head()
        return head is not None and head.is_head and self.out_port == UNROUTED

    @property
    def active(self) -> bool:
        """A packet holds this VC (route computed, not yet fully departed)."""
        return self.out_port != UNROUTED

    def reset_route(self) -> None:
        """Clear routing state after the tail departs."""
        self.out_port = UNROUTED
        self.out_vc = UNROUTED
        self.route_options = None
