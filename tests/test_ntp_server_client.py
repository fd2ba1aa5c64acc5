"""Tests for NTP servers (honest and malicious), the querier and the traditional client."""

from __future__ import annotations

import pytest

from repro.dns.nameserver import PoolNTPNameserver
from repro.dns.resolver import RecursiveResolver, ResolverPolicy
from repro.netsim.network import Host, LinkProperties, Network
from repro.netsim.packets import UDPDatagram
from repro.netsim.simulator import Simulator
from repro.ntp.client import TraditionalNTPClient
from repro.ntp.clock import SystemClock
from repro.ntp.packet import NTP_PACKET_SIZE, NTP_PORT
from repro.ntp.query import NTPQuerier
from repro.ntp.server import MaliciousNTPServer, NTPServer


class QuerierHost(Host):
    """Minimal host wrapping an NTPQuerier for direct exchange tests."""

    def __init__(self, network, address):
        super().__init__(network, address)
        self.clock = SystemClock(network.simulator)
        self.querier = NTPQuerier(self, self.clock)

    def handle_datagram(self, datagram):
        self.querier.handle_datagram(datagram)


def build(latency=0.02, seed=1):
    simulator = Simulator(seed=seed)
    network = Network(simulator, default_link=LinkProperties(latency=latency))
    return simulator, network


# -- single exchanges --------------------------------------------------------------------

def test_honest_server_sample_offset_near_zero():
    simulator, network = build()
    server = NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert len(samples) == 1
    assert samples[0] is not None
    assert abs(samples[0].offset) < 0.01
    assert samples[0].delay == pytest.approx(0.04, abs=0.01)
    assert samples[0].server == server.address


def mode6_datagram(src_port, dst_port):
    """An ``ntpq`` control-mode packet, off-path from the NTP exchange."""
    payload = bytes([(4 << 3) | 6]) + b"\x00" * (NTP_PACKET_SIZE - 1)
    return UDPDatagram("198.51.100.7", "10.0.0.1", src_port, dst_port, payload)


def test_server_ignores_control_mode_datagram():
    _, network = build()
    server = NTPServer(network, "10.0.0.1")
    server.handle_datagram(mode6_datagram(40000, NTP_PORT))
    assert server.requests_received == 0


def test_querier_ignores_control_mode_datagram_and_still_completes():
    simulator, network = build()
    server = NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    assert client.querier.handle_datagram(mode6_datagram(NTP_PORT, 40000)) is False
    simulator.run(until=5.0)
    assert len(samples) == 1
    assert samples[0] is not None


def test_server_with_clock_error_reports_that_offset():
    simulator, network = build()
    server = NTPServer(network, "10.0.0.1", clock_error=0.25)
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert samples[0].offset == pytest.approx(0.25, abs=0.01)


def test_malicious_server_shifts_offset():
    simulator, network = build()
    server = MaliciousNTPServer(network, "198.51.100.1", time_shift=600.0)
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert samples[0].offset == pytest.approx(600.0, abs=0.01)


def test_malicious_server_shift_schedule():
    simulator, network = build()
    server = MaliciousNTPServer(network, "198.51.100.1",
                                shift_schedule=lambda true_time: 42.0)
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query(server.address, samples.append)
    simulator.run(until=5.0)
    assert samples[0].offset == pytest.approx(42.0, abs=0.01)


def test_query_to_dead_server_times_out_with_none():
    simulator, network = build()
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query("10.9.9.9", samples.append)
    simulator.run(until=10.0)
    assert samples == [None]
    assert client.querier.timeouts == 1


def test_client_clock_error_reflected_in_measured_offset():
    """A client whose clock runs 1 s fast sees roughly -1 s offsets."""
    simulator, network = build()
    NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    client.clock.adjust(1.0)
    samples = []
    client.querier.query("10.0.0.1", samples.append)
    simulator.run(until=5.0)
    assert samples[0].offset == pytest.approx(-1.0, abs=0.01)


def test_lossy_server_leads_to_timeout():
    simulator, network = build()
    NTPServer(network, "10.0.0.1", response_loss=1.0)
    client = QuerierHost(network, "192.0.2.100")
    samples = []
    client.querier.query("10.0.0.1", samples.append)
    simulator.run(until=10.0)
    assert samples == [None]


def test_server_counts_requests_and_responses():
    simulator, network = build()
    server = NTPServer(network, "10.0.0.1")
    client = QuerierHost(network, "192.0.2.100")
    for _ in range(3):
        client.querier.query(server.address, lambda s: None)
    simulator.run(until=5.0)
    assert server.requests_received == 3
    assert server.responses_sent == 3


# -- the traditional client end to end -----------------------------------------------------

def build_full_world(client_offset=0.0, server_error=0.0, seed=1):
    simulator, network = build(seed=seed)
    servers = [NTPServer(network, f"10.0.0.{i + 1}", clock_error=server_error)
               for i in range(8)]
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[s.address for s in servers])
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address},
                                 policy=ResolverPolicy())
    client = TraditionalNTPClient(network, "192.0.2.100", resolver_address=resolver.address,
                                  poll_interval=64.0,
                                  clock=SystemClock(simulator, offset=client_offset))
    return simulator, network, client


def test_traditional_client_uses_at_most_four_servers():
    simulator, _, client = build_full_world()
    client.start()
    simulator.run(until=10.0)
    assert len(client.servers) == 4


def test_traditional_client_corrects_initial_offset():
    simulator, _, client = build_full_world(client_offset=0.5)
    client.start()
    simulator.run(until=300.0)
    assert abs(client.clock.error) < 0.05
    assert len(client.poll_history) >= 2
    assert client.poll_history[0].applied_offset == pytest.approx(-0.5, abs=0.05)


def test_traditional_client_stable_when_already_correct():
    simulator, _, client = build_full_world(client_offset=0.0)
    client.start()
    simulator.run(until=300.0)
    assert abs(client.clock.error) < 0.01


def test_traditional_client_polls_periodically():
    simulator, _, client = build_full_world()
    client.start()
    simulator.run(until=64.0 * 4)
    assert len(client.poll_history) >= 3


def test_traditional_client_retries_failed_resolution():
    simulator, network = build()
    # resolver exists but has no route to any nameserver → lookups fail
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={},
                                 policy=ResolverPolicy(query_timeout=2.0))
    client = TraditionalNTPClient(network, "192.0.2.100", resolver_address=resolver.address)
    client.start()
    simulator.run(until=10.0)
    assert client.servers == []
    assert client.dns.lookups_issued >= 1
    # a retry gets scheduled (30 s backoff)
    simulator.run(until=50.0)
    assert client.dns.lookups_issued >= 2


def test_traditional_client_max_adjustment_guard():
    simulator, network = build()
    servers = [MaliciousNTPServer(network, f"198.51.100.{i + 1}", time_shift=1000.0)
               for i in range(4)]
    nameserver = PoolNTPNameserver(network, "192.0.2.53", zone_name="pool.ntp.org",
                                   pool_servers=[s.address for s in servers])
    resolver = RecursiveResolver(network, "192.0.2.1",
                                 nameserver_map={"pool.ntp.org": nameserver.address})
    client = TraditionalNTPClient(network, "192.0.2.100", resolver_address=resolver.address,
                                  max_adjustment=16.0)
    client.start()
    simulator.run(until=200.0)
    # The panic-threshold guard refuses the huge step.
    assert abs(client.clock.error) < 1.0
