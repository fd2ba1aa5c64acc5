"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import contextlib
import hashlib
import math
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.security_analysis import hypergeometric_pmf, hypergeometric_tail
from repro.core.selection import ChronosConfig, chronos_select, panic_select, trim_offsets
from repro.dns.cache import DNSCache
from repro.dns.message import (
    DNSMessage,
    max_a_records_for_payload,
    response_size_for_a_records,
)
from repro.dns.records import RecordType, ResourceRecord, a_record
from repro.dns.wire import WireFormatError, decode_name, encode_name, letter_count
from repro.netsim import transport
from repro.netsim.addresses import AddressError, int_to_ip, ip_to_bytes, ip_to_int
from repro.netsim.fragmentation import OverlapPolicy, ReassemblyBuffer, fragment_datagram
from repro.netsim.packets import IPPacket, PacketError, UDPDatagram
from repro.ntp.packet import NTPMode, NTPPacket, PacketFormatError
from repro.ntp.timestamps import ntp_to_unix, unix_to_ntp
from repro.population import engine
from repro.population.batch import FleetPolicy
from repro.population.rng import HypergeomSampler, numpy_or_none

numpy = numpy_or_none()
needs_numpy = pytest.mark.skipif(numpy is None, reason="numpy not installed")

# -- strategies --------------------------------------------------------------------------

ip_addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(int_to_ip)

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
                 max_size=20).filter(lambda s: not s.startswith("-"))
domain_names = st.lists(labels, min_size=1, max_size=4).map(".".join)

cookies = st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 64 - 1))
case_nonces = st.integers(min_value=0, max_value=2 ** 32 - 1)
ttls = st.integers(min_value=0, max_value=2 ** 31 - 1)


@st.composite
def other_records(draw, owner):
    """An NS, CNAME or TXT record, owned by the question name or another name."""
    name = draw(st.one_of(st.just(owner), domain_names,
                          domain_names.map(lambda label: f"{label}.{owner}")))
    rtype = draw(st.sampled_from([RecordType.NS, RecordType.CNAME, RecordType.TXT]))
    rdata = draw(st.text(alphabet="abc xyz", max_size=30) if rtype == RecordType.TXT
                 else domain_names)
    return ResourceRecord(name=name, rtype=rtype, ttl=draw(ttls), rdata=rdata)


@st.composite
def cached_answers(draw):
    """A question name and 0-89 A records, optionally mixed with NS/CNAME/TXT."""
    owner = draw(domain_names)
    records = [a_record(owner, int_to_ip(draw(st.integers(0, 0xFFFFFFFF))), draw(ttls))
               for _ in range(draw(st.integers(min_value=0, max_value=89)))]
    for record in draw(st.lists(other_records(owner), max_size=4)):
        records.insert(draw(st.integers(min_value=0, max_value=len(records))), record)
    return owner, records


def query_for(name, txid, cookie, nonce, **flags):
    return replace(DNSMessage.query(txid, name), cookie=cookie, case_nonce=nonce or None,
                   **flags)


offsets = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


# -- addresses ----------------------------------------------------------------------------

@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ip_int_roundtrip(value):
    assert ip_to_int(int_to_ip(value)) == value


@given(address=ip_addresses)
def test_ip_string_roundtrip(address):
    assert int_to_ip(ip_to_int(address)) == address


@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
@example(0)
@example(0xFFFFFFFF)
def test_int_to_ip_matches_the_octet_formula(value):
    assert int_to_ip(value) == ".".join(str((value >> shift) & 0xFF)
                                        for shift in (24, 16, 8, 0))


@pytest.mark.parametrize("value", [-1, 2 ** 32])
def test_int_to_ip_rejects_values_outside_ipv4(value):
    with pytest.raises(AddressError):
        int_to_ip(value)


@given(text=st.one_of(ip_addresses, st.text(alphabet="0123456789.x -", max_size=16),
                     st.text(max_size=16)))
@example("1")
@example("1.2.3")
@example("0x1.2.3.4")
@example("01.2.3.4")
@example("1.2.3.4 ")
@example("1.2.3.256")
@example("\u0663.1.1.1")
@example("1.2.3.4\x00")
def test_ip_to_bytes_accepts_exactly_what_ip_to_int_accepts(text):
    try:
        expected = ip_to_int(text).to_bytes(4, "big")
    except ValueError as exc:
        with pytest.raises(type(exc)):
            ip_to_bytes(text)
    else:
        assert ip_to_bytes(text) == expected


# -- DNS names and messages ------------------------------------------------------------------

@given(name=domain_names)
def test_name_encode_decode_roundtrip(name):
    decoded, consumed = decode_name(encode_name(name), 0)
    assert decoded == name
    assert consumed == len(encode_name(name))


@given(name=domain_names, count=st.integers(min_value=0, max_value=60), ttl=ttls,
       cookie=cookies, nonce=case_nonces)
def test_dns_response_roundtrip(name, count, ttl, cookie, nonce):
    query = query_for(name, 0x0102, cookie, nonce)
    answers = [a_record(name, int_to_ip(1000 + i), ttl) for i in range(count)]
    response = query.make_response(answers)
    decoded = DNSMessage.decode(response.encode())
    assert decoded.transaction_id == 0x0102
    assert decoded.question.name == name
    assert len(decoded.answers) == count
    assert all(rr.ttl == ttl for rr in decoded.answers)
    assert decoded.answer_addresses == [int_to_ip(1000 + i) for i in range(count)]
    assert decoded.cookie == cookie
    # The nonce survives up to the name's letter count: one case bit per letter.
    echoed = nonce & ((1 << letter_count(name)) - 1)
    assert decoded == replace(response, case_nonce=echoed or None)
    assert decoded.encode() == response.encode()


@given(data=st.one_of(
    st.binary(max_size=600),
    # A header announcing exactly one question gets past the first check.
    st.builds(lambda head, tail: struct.pack(">HHH", *head, 1) + tail,
              st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
              st.binary(max_size=600))))
def test_decode_is_total_on_arbitrary_bytes(data):
    try:
        DNSMessage.decode(data)
    except WireFormatError:
        pass


@given(answers=cached_answers(), cookie=cookies, nonce=case_nonces,
       mutations=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                          min_size=1, max_size=4),
       cut=st.one_of(st.none(), st.integers(min_value=0)))
def test_decode_is_total_on_mutated_responses(answers, cookie, nonce, mutations, cut):
    name, records = answers
    wire = bytearray(query_for(name, 7, cookie, nonce).make_response(records).encode())
    for position, value in mutations:
        wire[position % len(wire)] = value
    if cut is not None:
        del wire[cut % len(wire):]
    try:
        DNSMessage.decode(bytes(wire))
    except WireFormatError:
        pass


@given(answers=cached_answers(), ttl=ttls,
       queries=st.lists(st.tuples(st.integers(0, 0xFFFF), cookies, case_nonces,
                                  st.booleans(), st.booleans()),
                        min_size=1, max_size=4))
@settings(max_examples=60)
def test_cache_hit_reply_is_byte_identical(answers, ttl, queries):
    name, records = answers
    if not records:
        return  # the cache never holds an empty record set
    entry = DNSCache().insert(name, RecordType.A, records, now=0.0)
    # One entry answers every query: its sections must follow each layout.
    for txid, cookie, nonce, rd, tc in queries * 2:
        query = query_for(name, txid, cookie, nonce, recursion_desired=rd, truncated=tc)
        expected = query.make_response([r.with_ttl(ttl) for r in records],
                                       authoritative=False).encode()
        assert entry.reply(query, ttl) == expected


@given(name=domain_names, count=st.integers(min_value=0, max_value=120))
def test_response_size_formula_matches_encoder(name, count):
    query = DNSMessage.query(1, name)
    answers = [a_record(name, int_to_ip(i + 1), 300) for i in range(count)]
    assert query.make_response(answers).wire_size == response_size_for_a_records(name, count)


@given(name=domain_names, budget=st.integers(min_value=0, max_value=4096))
def test_capacity_is_maximal(name, budget):
    count = max_a_records_for_payload(name, budget)
    if count > 0:
        assert response_size_for_a_records(name, count) <= budget
    assert response_size_for_a_records(name, count + 1) > budget


# -- NTP timestamps and packets -----------------------------------------------------------------

@given(value=st.floats(min_value=0.0, max_value=2.0e9, allow_nan=False,
                       allow_infinity=False))
def test_ntp_timestamp_roundtrip_precision(value):
    # 2.0e9 (year 2033) stays inside NTP era 0, which ends in 2036.
    assert abs(ntp_to_unix(unix_to_ntp(value)) - value) < 1e-6


@given(origin=st.floats(min_value=1e9, max_value=2e9, allow_nan=False),
       shift=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_ntp_packet_roundtrip_and_origin_echo(origin, shift):
    request = NTPPacket.client_request(transmit_time=origin)
    reply = request.server_reply(receive_time=origin + abs(shift), transmit_time=origin + abs(shift),
                                 stratum=2, reference_time=origin)
    decoded = NTPPacket.decode(reply.encode())
    assert decoded.mode == NTPMode.SERVER
    assert decoded.valid_server_reply_to(origin)


# -- fragmentation ---------------------------------------------------------------------------------

@given(size=st.integers(min_value=0, max_value=4000),
       mtu=st.sampled_from([296, 548, 576, 1280, 1500]),
       ip_id=st.integers(min_value=0, max_value=0xFFFF))
@settings(max_examples=60)
def test_fragmentation_reassembly_roundtrip(size, mtu, ip_id):
    payload = bytes(i % 251 for i in range(size))
    datagram = UDPDatagram("10.0.0.1", "10.0.0.2", 53, 9999, payload).with_valid_checksum()
    fragments = fragment_datagram(datagram, ip_id=ip_id, mtu=mtu)
    assert all(f.total_size <= mtu for f in fragments)
    buffer = ReassemblyBuffer()
    result = None
    for fragment in fragments:
        result = buffer.add_fragment(fragment, now=0.0)
    assert result.datagram is not None
    assert result.datagram.payload == payload
    assert result.datagram.checksum_valid()
    assert not result.poisoned


# -- decoder totality: attacker bytes yield a value or the decoder's own error -------------------

@given(data=st.one_of(st.binary(max_size=64), st.binary(min_size=48, max_size=48)))
@settings(max_examples=300)
def test_ntp_decode_is_total_on_arbitrary_bytes(data):
    try:
        NTPPacket.decode(data)
    except PacketFormatError:
        pass


@given(data=st.one_of(st.binary(max_size=80), st.binary(min_size=20, max_size=20)))
@settings(max_examples=300)
def test_tcp_segment_decode_is_total_on_arbitrary_bytes(data):
    try:
        transport.TCPSegment.decode(data)
    except PacketError:
        pass


fragments = st.builds(
    lambda ip_id, units, payload, more, spoofed, compensated: IPPacket(
        "10.0.0.1", "10.0.0.2", ip_id, payload, fragment_offset=8 * units,
        more_fragments=more, spoofed=spoofed, checksum_compensated=compensated),
    st.integers(0, 1), st.integers(0, 8), st.binary(max_size=40),
    st.booleans(), st.booleans(), st.booleans())


@given(policy=st.sampled_from(list(OverlapPolicy)),
       sequence=st.lists(st.tuples(fragments, st.floats(0.0, 40.0)), max_size=12))
@settings(max_examples=150)
def test_reassembly_is_total_on_random_fragment_sequences(policy, sequence):
    buffer = ReassemblyBuffer(overlap_policy=policy, capacity=2)
    for fragment, now in sequence:
        with contextlib.suppress(PacketError):
            buffer.add_fragment(fragment, now)


# -- Chronos selection invariants -------------------------------------------------------------------

@given(values=st.lists(offsets, min_size=0, max_size=60),
       trim=st.integers(min_value=0, max_value=10))
def test_trim_offsets_invariants(values, trim):
    survivors, discarded = trim_offsets(values, trim)
    assert len(survivors) + len(discarded) == len(values)
    assert sorted(survivors + discarded) == sorted(values)
    if survivors and discarded:
        lower = sorted(values)[:trim]
        upper = sorted(values)[-trim:] if trim else []
        assert min(survivors) >= max(lower) if lower else True
        assert max(survivors) <= min(upper) if upper else True


@given(values=st.lists(offsets, min_size=15, max_size=15))
def test_chronos_offset_is_bounded_by_sample_range(values):
    config = ChronosConfig()
    result = chronos_select(values, config, enforce_checks=False)
    assert result.accepted
    assert min(values) - 1e-9 <= result.offset <= max(values) + 1e-9


@given(values=st.lists(offsets, min_size=3, max_size=200))
def test_panic_offset_is_bounded_by_middle_third(values):
    result = panic_select(values, ChronosConfig())
    assert result.accepted
    ordered = sorted(values)
    trim = len(values) // 3
    survivors = ordered[trim:len(ordered) - trim] if len(ordered) > 2 * trim else ordered
    assert min(survivors) - 1e-9 <= result.offset <= max(survivors) + 1e-9


@given(honest=st.lists(st.floats(min_value=-0.01, max_value=0.01, allow_nan=False),
                       min_size=10, max_size=10),
       attack_value=st.floats(min_value=10.0, max_value=1e4, allow_nan=False))
def test_minority_attacker_never_moves_chronos(honest, attack_value):
    """Security invariant: 5 of 15 malicious samples can never drag the
    accepted offset beyond the honest range."""
    config = ChronosConfig()
    result = chronos_select(honest + [attack_value] * 5, config, enforce_checks=False)
    assert result.accepted
    assert result.offset <= max(honest) + 1e-9


# -- hypergeometric invariants --------------------------------------------------------------------------

@given(population=st.integers(min_value=1, max_value=200),
       data=st.data())
@settings(max_examples=50)
def test_hypergeometric_pmf_normalises(population, data):
    successes = data.draw(st.integers(min_value=0, max_value=population))
    draws = data.draw(st.integers(min_value=0, max_value=population))
    total = sum(hypergeometric_pmf(population, successes, draws, k) for k in range(draws + 1))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


@given(population=st.integers(min_value=1, max_value=200), data=st.data())
@settings(max_examples=50)
def test_hypergeometric_tail_monotone_and_bounded(population, data):
    successes = data.draw(st.integers(min_value=0, max_value=population))
    draws = data.draw(st.integers(min_value=0, max_value=population))
    previous = 1.0
    for threshold in range(0, draws + 2):
        value = hypergeometric_tail(population, successes, draws, threshold)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value <= previous + 1e-12
        previous = value


@needs_numpy
@given(pool=st.integers(min_value=1, max_value=80), data=st.data())
@settings(max_examples=60)
def test_hypergeom_sampling_is_backend_identical(pool, data):
    malicious = data.draw(st.integers(min_value=0, max_value=pool))
    sample = data.draw(st.integers(min_value=0, max_value=pool))
    sampler = HypergeomSampler(pool, malicious, sample)
    # Uniforms exactly on each table entry and one ulp either side of it.
    edges = [u for edge in sampler.cdf[:-1]
             for u in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0))
             if 0.0 <= u < 1.0]
    uniforms = edges + data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20))
    vector = sampler.sample_from(numpy.asarray(uniforms), np=numpy)
    assert vector.dtype == numpy.int64  # callers subtract from it
    assert vector.tolist() == sampler.sample_from(uniforms)


# -- fleet resolver poison map ----------------------------------------------------------------

@needs_numpy
@given(resolvers=st.integers(min_value=1, max_value=8),
       step=st.sampled_from([75.0, 150.0, 600.0, 1800.0]),
       slots=st.lists(st.integers(min_value=0, max_value=1151), min_size=0, max_size=64),
       ttl=st.sampled_from([0, 1, 150, 3600, 7200]),
       hijack_start=st.floats(min_value=86000.0, max_value=94000.0),
       hijack_duration=st.sampled_from([1.0, 150.0, 600.0, 3600.0, 7300.0]))
@example(resolvers=1, step=75.0, slots=[0, 0, 2, 48], ttl=150,
         hijack_start=89999.5, hijack_duration=600.0)
@settings(max_examples=80)
def test_poison_map_miss_steps_match_the_renewal_walk(resolvers, step, slots, ttl,
                                                      hijack_start, hijack_duration):
    # Starts on a coarse grid put several clients' queries at the same time.
    starts = tuple(float(slot * step % 86400.0) for slot in slots)
    config = engine.FleetConfig(
        clients=len(starts), resolvers=resolvers, explicit_starts=starts,
        policy=FleetPolicy(benign_ttl=ttl), hijack_start=hijack_start,
        hijack_duration=hijack_duration, run_time_shift=False)
    # The memo key ignores the backend: clear it so each backend computes.
    try:
        engine._POISON_MEMO.clear()
        walked = engine.resolver_poison_times(config, None)
        engine._POISON_MEMO.clear()
        stepped = engine.resolver_poison_times(config, numpy)
    finally:
        engine._POISON_MEMO.clear()
    assert stepped == walked
    assert all(type(r) is int and type(t) is float for r, t in stepped.items())


# -- secure-channel primitives -----------------------------------------------------------------

@given(exponent=st.integers(min_value=0, max_value=2 ** 256 - 1))
@example(0)
@example(1)
@example(2 ** 255 - 1)
@example(2 ** 256 - 1)
def test_generator_power_matches_builtin_pow(exponent):
    assert transport.generator_power(exponent) == pow(
        transport.DH_GENERATOR, exponent, transport.DH_PRIME)


@given(data=st.data(), length=st.integers(min_value=0, max_value=600))
def test_xor_matches_the_per_byte_formula(data, length):
    plain = data.draw(st.binary(min_size=length, max_size=length))
    keystream = data.draw(st.binary(min_size=length, max_size=length))
    assert transport._xor(plain, keystream) == bytes(
        a ^ b for a, b in zip(plain, keystream))


def block_loop_keystream(key, label, counter, length):
    """The per-block loop the record layer used before ``_keystream``."""
    stream = bytearray()
    block = 0
    while len(stream) < length:
        stream += hashlib.sha256(key + label + counter.to_bytes(8, "big")
                                 + block.to_bytes(4, "big")).digest()
        block += 1
    return bytes(stream[:length])


@given(key=st.binary(min_size=32, max_size=32),
       label=st.sampled_from([b"c2s", b"s2c", b"early"]),
       counter=st.integers(min_value=0, max_value=2 ** 64 - 1),
       length=st.integers(min_value=0, max_value=700))
@example(key=bytes(32), label=b"c2s", counter=0, length=33)
@example(key=bytes(32), label=b"early", counter=1, length=64)
def test_keystream_matches_the_block_loop(key, label, counter, length):
    assert transport._keystream(key, label, counter, length) == block_loop_keystream(
        key, label, counter, length)
