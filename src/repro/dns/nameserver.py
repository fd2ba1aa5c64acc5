"""Authoritative nameservers, including a faithful pool.ntp.org model.

pool.ntp.org behaviour that matters to the reproduction:

* each response to an A query carries **4** addresses drawn from a large,
  rotating set of volunteer NTP servers (this is why Chronos needs 24 hourly
  queries to accumulate ~96 servers);
* the records have a short TTL (150 seconds in the real zone), so each hourly
  Chronos query is a cache miss and reaches the authoritative server again;
* per the paper's companion measurement ([3]), 16 of the 30 pool.ntp.org
  nameservers are willing to fragment their responses down to a 548-byte MTU
  and do not serve DNSSEC — the combination the fragmentation-poisoning
  vector requires.  Fragmentation behaviour is configured via the network's
  per-source path MTU; the DNSSEC flag lives here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace
from typing import Optional

from ..netsim.network import Host, Network
from ..netsim.packets import UDPDatagram
from .message import DNSMessage, ResponseCode
from .records import RecordType, a_record, signature_record
from .wire import normalise_name

DNS_PORT = 53
#: TTL used by the real pool.ntp.org zone for A records.
POOL_NTP_ORG_TTL = 150
#: Number of A records per pool.ntp.org response.
POOL_RECORDS_PER_RESPONSE = 4


class ResponseRateLimiter:
    """BIND-style response-rate limiting (RRL) for UDP answers.

    Token bucket per source *prefix* (default /24, matching BIND's
    ``responses-per-second`` aggregation): each UDP response costs one
    token; buckets refill at ``rate`` tokens per second up to ``burst``.
    When a bucket is empty the response is normally **dropped**, except:

    * every ``slip``-th suppressed response goes out *truncated* (TC=1,
      empty sections) instead — small, unspoofable-to-amplify, and it
      tells a legitimate resolver to retry over TCP where RRL does not
      apply.  ``slip=0`` disables slipping (pure drops).
    * every ``leak``-th suppressed response escapes at full size
      (BIND's ``leak-rate`` escape hatch for lossy paths).  ``leak=0``
      — the default — never leaks.

    Entirely deterministic: no RNG, state is a pure function of the
    response timeline, so digests are identical across worker counts.
    Stream (TCP/DoT/DoH) responses are never limited — that asymmetry is
    the point: a throttled resolver falls back to the transport an
    off-path attacker cannot race.
    """

    def __init__(self, rate: float = 1.0, burst: int = 2, slip: int = 2,
                 leak: int = 0, prefix_len: int = 24) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.slip = int(slip)
        self.leak = int(leak)
        self.prefix_len = int(prefix_len)
        #: prefix -> (tokens, last-refill timestamp)
        self._buckets: dict[str, tuple[float, float]] = {}
        #: prefix -> suppressed-response count (drives slip/leak cadence)
        self._suppressed: dict[str, int] = {}
        self.responses_allowed = 0
        self.responses_dropped = 0
        self.responses_slipped = 0
        self.responses_leaked = 0

    def _prefix(self, address: str) -> str:
        octets = address.split(".")
        keep = max(1, min(len(octets), self.prefix_len // 8))
        return ".".join(octets[:keep]) + f"/{self.prefix_len}"

    @property
    def leak_ratio(self) -> float:
        """Fraction of over-limit responses that escaped at full size."""
        suppressed = self.responses_dropped + self.responses_slipped + self.responses_leaked
        return self.responses_leaked / suppressed if suppressed else 0.0

    def check(self, address: str, now: float) -> str:
        """Classify one UDP response: ``"send"``, ``"slip"`` or ``"drop"``."""
        prefix = self._prefix(address)
        tokens, last = self._buckets.get(prefix, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens >= 1.0:
            self._buckets[prefix] = (tokens - 1.0, now)
            self.responses_allowed += 1
            return "send"
        self._buckets[prefix] = (tokens, now)
        count = self._suppressed.get(prefix, 0) + 1
        self._suppressed[prefix] = count
        if self.leak and count % self.leak == 0:
            self.responses_leaked += 1
            return "send"
        if self.slip and count % self.slip == 0:
            self.responses_slipped += 1
            return "slip"
        self.responses_dropped += 1
        return "drop"


class AuthoritativeNameserver(Host):
    """A simple authoritative server answering A queries from a static zone."""

    def __init__(self, network: Network, address: str, zone: dict[str, list[str]],
                 ttl: int = 300, name: Optional[str] = None, dnssec: bool = False,
                 zone_key: Optional[str] = None,
                 udp_payload_limit: Optional[int] = None) -> None:
        super().__init__(network, address, name=name or f"ns-{address}")
        self.zone = {normalise_name(owner): list(addresses) for owner, addresses in zone.items()}
        self.ttl = ttl
        self.dnssec = dnssec
        #: When set, every answer RRset is signed (appended signature record);
        #: provisioned by the ``response_signing`` defense via the testbed.
        self.zone_key = zone_key
        #: Largest UDP response payload this server sends (``None`` = no
        #: limit).  Responses that would exceed it go out *truncated* —
        #: empty answer section, TC=1 — telling the resolver to retry over a
        #: stream transport.  Stream (TCP/DoT/DoH) responses never truncate.
        self.udp_payload_limit = udp_payload_limit
        #: Stream listeners, when attached (see ``repro.dns.transport``).
        self.stream_transport = None
        #: UDP response-rate limiter, when attached (the
        #: ``response_rate_limit`` defense); ``None`` = unlimited.
        self.rate_limiter: Optional[ResponseRateLimiter] = None
        self.queries_received = 0
        self.responses_sent = 0
        self.truncated_responses = 0

    # -- zone management -----------------------------------------------------
    def records_for(self, owner: str) -> list[str]:
        return self.zone.get(normalise_name(owner), [])

    # -- answering -------------------------------------------------------------
    def select_addresses(self, owner: str) -> list[str]:
        """Which addresses to include in a response (all of them, by default)."""
        return self.records_for(owner)

    def answer_query(self, query: DNSMessage) -> DNSMessage:
        """Build the authoritative response to one query (any transport).

        ``make_response`` echoes the query's transaction id, question case
        pattern and cookie, so hardening defenses validate identically over
        UDP and over the stream transports.
        """
        addresses = self.select_addresses(query.question.name)
        if addresses and query.question.qtype == RecordType.A:
            answers = [a_record(query.question.name, address, self.ttl) for address in addresses]
            if self.zone_key is not None:
                # The signature travels at the end of the answer section —
                # in the trailing fragment of a fragmented response, exactly
                # where the defragmentation attacker splices.
                answers.append(signature_record(self.zone_key, query.question.name, answers))
            return query.make_response(answers)
        return query.make_response([], rcode=ResponseCode.NXDOMAIN)

    def handle_datagram(self, datagram: UDPDatagram) -> None:
        if datagram.dst_port != DNS_PORT:
            return
        try:
            query = DNSMessage.decode(datagram.payload)
        except Exception:
            return
        if query.is_response:
            return
        self.queries_received += 1
        obs = self.network.simulator.obs
        if obs.enabled:
            obs.metrics.counter("ns.queries_received").inc()
        response = self.answer_query(query)
        if (self.udp_payload_limit is not None
                and response.wire_size > self.udp_payload_limit):
            # The answer does not fit the UDP budget: send a truncated stub
            # (TC=1, empty sections) instead of an oversized datagram.  This
            # is what keeps the fragmentation-attack size knobs meaningful —
            # a server with a payload limit never emits the fragmenting
            # response the splice needs.
            oversized = response.wire_size
            response = replace(response, answers=(), authority=(), truncated=True)
            self.truncated_responses += 1
            if obs.enabled:
                obs.metrics.counter("ns.responses_truncated").inc()
                obs.trace.instant("ns.truncated", category="dns",
                                  qname=normalise_name(query.question.name),
                                  txid=query.transaction_id,
                                  server=self.address,
                                  wire_size=oversized)
        if self.rate_limiter is not None:
            # RRL applies to UDP answers only — a stream response already
            # proved the client's address with a handshake, and the TC=1
            # slip below is precisely the nudge toward that stream.
            verdict = self.rate_limiter.check(
                datagram.src_ip, self.network.simulator.now)
            if verdict != "send":
                if obs.enabled:
                    obs.metrics.counter("ns.rrl", verdict=verdict).inc()
                if verdict == "drop":
                    return
                response = replace(response, answers=(), authority=(),
                                   truncated=True)
        self.responses_sent += 1
        if obs.enabled:
            obs.metrics.counter("ns.responses_sent",
                                truncated=response.truncated).inc()
        self.send_datagram(
            UDPDatagram(
                src_ip=self.address,
                dst_ip=datagram.src_ip,
                src_port=DNS_PORT,
                dst_port=datagram.src_port,
                payload=response.encode(),
            )
        )


class PoolNTPNameserver(AuthoritativeNameserver):
    """Authoritative server for ``pool.ntp.org`` with rotation.

    Each query is answered with ``records_per_response`` servers chosen
    uniformly at random (without replacement within a response) from the
    volunteer pool, mimicking the real zone's GeoDNS rotation.  Selection
    uses the simulator RNG so pool-generation experiments are reproducible.
    """

    def __init__(self, network: Network, address: str, zone_name: str,
                 pool_servers: Sequence[str],
                 records_per_response: int = POOL_RECORDS_PER_RESPONSE,
                 ttl: int = POOL_NTP_ORG_TTL,
                 name: Optional[str] = None,
                 dnssec: bool = False,
                 min_supported_mtu: int = 1500,
                 zone_key: Optional[str] = None,
                 udp_payload_limit: Optional[int] = None) -> None:
        zone = {zone_name: list(pool_servers)}
        super().__init__(network, address, zone=zone, ttl=ttl,
                         name=name or f"pool-ns-{address}", dnssec=dnssec,
                         zone_key=zone_key, udp_payload_limit=udp_payload_limit)
        self.zone_name = normalise_name(zone_name)
        self.pool_servers = list(pool_servers)
        self.records_per_response = records_per_response
        #: Smallest MTU this nameserver is willing to fragment responses to,
        #: mirroring the per-nameserver measurement in the paper ([3] found
        #: 16/30 fragmenting down to 548 bytes).
        self.min_supported_mtu = min_supported_mtu

    def matches_zone(self, owner: str) -> bool:
        """Accept the zone apex and the numbered sub-pools (0..3.pool.ntp.org)."""
        owner = normalise_name(owner)
        return owner == self.zone_name or owner.endswith("." + self.zone_name)

    def select_addresses(self, owner: str) -> list[str]:
        if not self.matches_zone(owner):
            return []
        count = min(self.records_per_response, len(self.pool_servers))
        return self.network.simulator.rng.sample(self.pool_servers, count)
