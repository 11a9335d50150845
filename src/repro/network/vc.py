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
its share. The router's enqueue sites (:meth:`Router.on_arrival
<repro.network.router.Router.on_arrival>` and injection) stamp each flit's
``buffer_arrival_cycle`` and append; its traversal and ejection stages
pop from the front.

For the router's allocation-free hot loop the VC also carries *prebound*
aliases of everything its step needs — its own ``(in_port, in_vc)``
coordinates and switch-allocation request id, and the input port's
occupancy tracker and upstream credit target. The
router fills these in at construction/wiring time so the per-cycle scan
performs no tuple unpacking, list indexing, or dict lookups.
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
        if capacity < 1:
            raise ConfigError("VC buffer capacity must be >= 1")
        self.flits: deque[Flit] = deque()
        self.capacity = capacity
        self.out_port = UNROUTED
        self.out_vc = UNROUTED
        self.route_options: list[tuple[int, tuple[int, ...]]] | None = None
        self.in_port = UNROUTED
        self.in_vc = UNROUTED
        self.rid = UNROUTED
        self.tracker = None
        self.credit_target: tuple[int, int] | None = None
        self.in_occ = False

    def reset_route(self) -> None:
        """Clear routing state after the tail departs."""
        self.out_port = UNROUTED
        self.out_vc = UNROUTED
        self.route_options = None
