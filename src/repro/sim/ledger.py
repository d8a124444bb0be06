"""The resource ledger: grant state for one decision round.

The model's resources are exclusive within a time step: each edge unit
has one compute slot, one send port and one receive port; each cloud
processor has one compute slot, one receive port and one send port
(one-port full-duplex, §III).  The ledger owns those booleans and the
grant bookkeeping the engine's activation pass runs on.

A round starts with :meth:`~ResourceLedger.begin_round`, which marks
every resource free; the engine then pre-claims what is down
(:meth:`~ResourceLedger.block_from_outlook` or
:meth:`~ResourceLedger.block`) and grants the decision's requests in
priority order.  :meth:`~ResourceLedger.release` hands one grant back;
the engine never needs it, since it re-grants every round from scratch.

Free-slot counters back :attr:`exhausted`, which lets the activation
scan stop as soon as no grant of any kind can succeed anymore.
"""

from __future__ import annotations

from repro.core.platform import Platform

#: Activity codes used across ledger/kernel/engine (array-friendly).
ACT_UPLINK = 0
ACT_COMPUTE = 1
ACT_DOWNLINK = 2


class ResourceLedger:
    """Boolean grant state of every exclusive resource of the platform."""

    __slots__ = (
        "n_edge",
        "n_cloud",
        "edge_compute",
        "edge_send",
        "edge_recv",
        "cloud_compute",
        "cloud_recv",
        "cloud_send",
        "_free_edge_compute",
        "_free_cloud_compute",
        "_free_edge_send",
        "_free_edge_recv",
        "_free_cloud_recv",
        "_free_cloud_send",
    )

    def __init__(self, platform: Platform):
        self.n_edge = platform.n_edge
        self.n_cloud = platform.n_cloud
        self.begin_round()

    # -- round lifecycle -------------------------------------------------------

    def begin_round(self) -> None:
        """Mark every resource free (a from-scratch grant round)."""
        self.edge_compute = [True] * self.n_edge
        self.edge_send = [True] * self.n_edge
        self.edge_recv = [True] * self.n_edge
        self.cloud_compute = [True] * self.n_cloud
        self.cloud_recv = [True] * self.n_cloud
        self.cloud_send = [True] * self.n_cloud
        self._free_edge_compute = self.n_edge
        self._free_cloud_compute = self.n_cloud
        self._free_edge_send = self.n_edge
        self._free_edge_recv = self.n_edge
        self._free_cloud_recv = self.n_cloud
        self._free_cloud_send = self.n_cloud

    @property
    def exhausted(self) -> bool:
        """True when no further grant of any kind can succeed.

        Exact, not heuristic: every activity needs either a compute slot
        or a (send, recv) port pair, so when all compute slots are taken
        and each direction is missing at least one side of its pair,
        scanning lower-priority requests cannot grant anything.
        """
        return (
            self._free_edge_compute == 0
            and self._free_cloud_compute == 0
            and (self._free_edge_send == 0 or self._free_cloud_recv == 0)
            and (self._free_cloud_send == 0 or self._free_edge_recv == 0)
        )

    # -- fault blocking --------------------------------------------------------
    #
    # A down resource is modelled as pre-claimed for the round: its
    # slots/ports are marked taken before the grant scan runs, so no
    # activity can be granted on it and the `exhausted` early-exit stays
    # exact.  Only valid right after `begin_round()` (the engine blocks
    # down resources at the start of every round).

    def block_edge(self, j: int) -> None:
        """Mark crashed edge unit ``j`` fully unusable for this round."""
        if self.edge_compute[j]:
            self.edge_compute[j] = False
            self._free_edge_compute -= 1
        self.block_link(j)

    def block_cloud(self, k: int) -> None:
        """Mark crashed cloud processor ``k`` fully unusable for this round."""
        if self.cloud_compute[k]:
            self.cloud_compute[k] = False
            self._free_cloud_compute -= 1
        if self.cloud_recv[k]:
            self.cloud_recv[k] = False
            self._free_cloud_recv -= 1
        if self.cloud_send[k]:
            self.cloud_send[k] = False
            self._free_cloud_send -= 1

    def block_cloud_compute(self, k: int) -> None:
        """Mark only cloud ``k``'s compute slot taken (planned co-tenancy).

        Availability windows steal cycles, not bandwidth: the ports stay
        grantable while the compute slot is pre-claimed for the round.
        """
        if self.cloud_compute[k]:
            self.cloud_compute[k] = False
            self._free_cloud_compute -= 1

    def block_from_outlook(self, outlook, t: float) -> tuple[list, list, list, list]:
        """Pre-claim everything the capacity outlook says is down at ``t``.

        Blocks the answer of
        :meth:`~repro.capacity.outlook.CapacityOutlook.blocked_at` (see
        :meth:`block`) and returns it, so a caller can re-block the same
        down-set in later rounds of the same constancy interval.  Only
        valid right after :meth:`begin_round`.
        """
        blocked = outlook.blocked_at(t)
        self.block(blocked)
        return blocked

    def block(self, blocked: tuple[list, list, list, list]) -> None:
        """Pre-claim the down-set ``(edges, clouds, links, cloud_compute_only)``.

        Crashed edge units and cloud processors are blocked whole,
        downed links both ports, and clouds inside a static co-tenancy
        window compute-only.  Only valid right after :meth:`begin_round`.
        """
        edges, clouds, links, busy = blocked
        for j in edges:
            self.block_edge(j)
        for k in clouds:
            self.block_cloud(k)
        for o in links:
            self.block_link(o)
        for k in busy:
            self.block_cloud_compute(k)

    def block_link(self, o: int) -> None:
        """Mark edge unit ``o``'s access link (both ports) unusable."""
        if self.edge_send[o]:
            self.edge_send[o] = False
            self._free_edge_send -= 1
        if self.edge_recv[o]:
            self.edge_recv[o] = False
            self._free_edge_recv -= 1

    # -- grants ----------------------------------------------------------------

    def grant_edge_compute(self, j: int) -> bool:
        """Claim edge unit ``j``'s compute slot; False if already taken."""
        if self.edge_compute[j]:
            self.edge_compute[j] = False
            self._free_edge_compute -= 1
            return True
        return False

    def grant_cloud_compute(self, k: int) -> bool:
        """Claim cloud processor ``k``'s compute slot; False if taken."""
        if self.cloud_compute[k]:
            self.cloud_compute[k] = False
            self._free_cloud_compute -= 1
            return True
        return False

    def grant_uplink(self, o: int, k: int) -> bool:
        """Claim edge ``o``'s send port and cloud ``k``'s receive port together."""
        if self.edge_send[o] and self.cloud_recv[k]:
            self.edge_send[o] = False
            self.cloud_recv[k] = False
            self._free_edge_send -= 1
            self._free_cloud_recv -= 1
            return True
        return False

    def grant_downlink(self, k: int, o: int) -> bool:
        """Claim cloud ``k``'s send port and edge ``o``'s receive port together."""
        if self.cloud_send[k] and self.edge_recv[o]:
            self.cloud_send[k] = False
            self.edge_recv[o] = False
            self._free_cloud_send -= 1
            self._free_edge_recv -= 1
            return True
        return False

    # -- releases --------------------------------------------------------------

    def release(self, act: int, o: int, k: int) -> None:
        """Return the resources of one granted activity.

        ``act`` is one of :data:`ACT_UPLINK` / :data:`ACT_COMPUTE` /
        :data:`ACT_DOWNLINK`; ``o`` is the origin edge unit, ``k`` the
        cloud processor (``k < 0`` for an edge compute activity).
        """
        if act == ACT_COMPUTE:
            if k < 0:
                self.edge_compute[o] = True
                self._free_edge_compute += 1
            else:
                self.cloud_compute[k] = True
                self._free_cloud_compute += 1
        elif act == ACT_UPLINK:
            self.edge_send[o] = True
            self.cloud_recv[k] = True
            self._free_edge_send += 1
            self._free_cloud_recv += 1
        else:
            self.cloud_send[k] = True
            self.edge_recv[o] = True
            self._free_cloud_send += 1
            self._free_edge_recv += 1
