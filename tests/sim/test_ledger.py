"""Unit tests for the resource ledger (grant/release/exhausted/block)."""

from repro.capacity.outlook import CapacityOutlook
from repro.core.intervals import Interval
from repro.core.platform import Platform
from repro.faults.trace import FaultTrace
from repro.sim.availability import CloudAvailability
from repro.sim.ledger import ACT_COMPUTE, ACT_DOWNLINK, ACT_UPLINK, ResourceLedger


def ledger(n_edge=2, n_cloud=2):
    return ResourceLedger(Platform.create([0.5] * n_edge, n_cloud=n_cloud))


class TestGrants:
    def test_edge_compute_exclusive(self):
        led = ledger()
        assert led.grant_edge_compute(0)
        assert not led.grant_edge_compute(0)
        assert led.grant_edge_compute(1)

    def test_cloud_compute_exclusive(self):
        led = ledger()
        assert led.grant_cloud_compute(1)
        assert not led.grant_cloud_compute(1)
        assert led.grant_cloud_compute(0)

    def test_uplink_claims_port_pair(self):
        led = ledger()
        assert led.grant_uplink(0, 0)
        # Edge 0's send port is taken: no other uplink can leave edge 0.
        assert not led.grant_uplink(0, 1)
        # Cloud 0's receive port is taken: nothing else can arrive there.
        assert not led.grant_uplink(1, 0)
        # A disjoint pair is still free.
        assert led.grant_uplink(1, 1)

    def test_downlink_claims_port_pair(self):
        led = ledger()
        assert led.grant_downlink(0, 0)
        assert not led.grant_downlink(0, 1)
        assert not led.grant_downlink(1, 0)
        assert led.grant_downlink(1, 1)

    def test_full_duplex_up_and_down_coexist(self):
        # One-port FULL-duplex: the same edge unit may send and receive
        # simultaneously, and a cloud processor may receive and send.
        led = ledger(n_edge=1, n_cloud=1)
        assert led.grant_uplink(0, 0)
        assert led.grant_downlink(0, 0)

    def test_compute_independent_of_ports(self):
        led = ledger(n_edge=1, n_cloud=1)
        assert led.grant_uplink(0, 0)
        assert led.grant_edge_compute(0)
        assert led.grant_cloud_compute(0)


class TestRelease:
    def test_release_edge_compute(self):
        led = ledger()
        led.grant_edge_compute(0)
        led.release(ACT_COMPUTE, 0, -1)
        assert led.grant_edge_compute(0)

    def test_release_cloud_compute(self):
        led = ledger()
        led.grant_cloud_compute(1)
        led.release(ACT_COMPUTE, 0, 1)
        assert led.grant_cloud_compute(1)

    def test_release_uplink_returns_both_sides(self):
        led = ledger()
        led.grant_uplink(0, 1)
        led.release(ACT_UPLINK, 0, 1)
        assert led.grant_uplink(0, 1)

    def test_release_downlink_returns_both_sides(self):
        led = ledger()
        led.grant_downlink(1, 0)
        led.release(ACT_DOWNLINK, 0, 1)
        assert led.grant_downlink(1, 0)

    def test_begin_round_resets_everything(self):
        led = ledger(n_edge=1, n_cloud=1)
        led.grant_edge_compute(0)
        led.grant_cloud_compute(0)
        led.grant_uplink(0, 0)
        led.grant_downlink(0, 0)
        led.begin_round()
        assert led.grant_edge_compute(0)
        assert led.grant_cloud_compute(0)
        assert led.grant_uplink(0, 0)
        assert led.grant_downlink(0, 0)


class TestExhausted:
    def test_fresh_ledger_not_exhausted(self):
        assert not ledger().exhausted

    def test_exhausted_when_everything_taken(self):
        led = ledger(n_edge=1, n_cloud=1)
        led.grant_edge_compute(0)
        led.grant_cloud_compute(0)
        led.grant_uplink(0, 0)
        led.grant_downlink(0, 0)
        assert led.exhausted

    def test_one_sided_port_exhaustion_suffices(self):
        # All compute taken; the single cloud processor's receive and
        # send ports are both busy, so no communication can be granted
        # even though edge unit 1 still has both of its ports free.
        led = ledger(n_edge=2, n_cloud=1)
        led.grant_edge_compute(0)
        led.grant_edge_compute(1)
        led.grant_cloud_compute(0)
        led.grant_uplink(0, 0)
        led.grant_downlink(0, 0)
        assert led.exhausted

    def test_free_compute_means_not_exhausted(self):
        led = ledger(n_edge=1, n_cloud=1)
        led.grant_cloud_compute(0)
        led.grant_uplink(0, 0)
        led.grant_downlink(0, 0)
        assert not led.exhausted

    def test_release_clears_exhaustion(self):
        led = ledger(n_edge=1, n_cloud=1)
        led.grant_edge_compute(0)
        led.grant_cloud_compute(0)
        led.grant_uplink(0, 0)
        led.grant_downlink(0, 0)
        assert led.exhausted
        led.release(ACT_COMPUTE, 0, -1)
        assert not led.exhausted


class TestBlock:
    def test_block_claims_the_down_set(self):
        # Edge 0 and cloud 1 crashed, edge 1's link down, cloud 0
        # inside a co-tenancy window.
        platform = Platform.create([0.5] * 3, n_cloud=2)
        faults = FaultTrace(
            edge_down={0: (Interval(0.0, 2.0),)},
            cloud_down={1: (Interval(0.0, 2.0),)},
            link_down={1: (Interval(0.0, 2.0),)},
        )
        windows = CloudAvailability({0: (Interval(0.0, 2.0),)})
        outlook = CapacityOutlook(platform, windows, faults)
        assert outlook.blocked_at(1.0) == ([0], [1], [1], [0])
        led = ResourceLedger(platform)
        led.block_from_outlook(outlook, 1.0)
        assert not led.grant_edge_compute(0)
        assert not led.grant_cloud_compute(1)
        # Co-tenancy takes the compute slot only.
        assert not led.grant_cloud_compute(0)
        assert not led.grant_uplink(0, 0)  # edge 0's ports died with it
        assert not led.grant_uplink(1, 0)  # edge 1's link is down
        assert not led.grant_uplink(2, 1)  # cloud 1's ports died with it
        assert led.grant_edge_compute(1)
        assert led.grant_uplink(2, 0)
        assert led.grant_downlink(0, 2)

    def test_block_from_outlook_blocks_the_down_set(self):
        platform = Platform.create([0.5] * 2, n_cloud=2)
        faults = FaultTrace(
            edge_down={1: (Interval(1.0, 3.0),)}, cloud_down={0: (Interval(0.0, 2.0),)}
        )
        outlook = CapacityOutlook(platform, faults=faults)
        led = ResourceLedger(platform)
        assert led.block_from_outlook(outlook, 1.5) is None
        # A second round in the same constancy interval, served from the
        # outlook's cache, blocks the same.
        again = ResourceLedger(platform)
        again.block_from_outlook(outlook, 1.7)
        assert (outlook.n_queries, outlook.n_delta_updates) == (1, 1)
        for lg in (led, again):
            assert not lg.grant_edge_compute(1)
            assert not lg.grant_cloud_compute(0)
            assert lg.grant_edge_compute(0)
            assert lg.grant_cloud_compute(1)
            assert not lg.grant_uplink(0, 0)  # cloud 0's ports died with it
            assert not lg.grant_downlink(1, 1)  # edge 1's ports died with it
            assert lg.grant_uplink(0, 1)
