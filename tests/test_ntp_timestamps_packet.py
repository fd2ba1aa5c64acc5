"""Unit tests for NTP timestamps, offset/delay arithmetic and the packet codec."""

from __future__ import annotations

import pytest

from repro.ntp.packet import NTP_PACKET_SIZE, LeapIndicator, NTPMode, NTPPacket, PacketFormatError
from repro.ntp.timestamps import (
    NTP_UNIX_EPOCH_DELTA,
    ExchangeTimestamps,
    TimestampError,
    from_short_format,
    ntp_to_unix,
    short_format,
    unix_to_ntp,
)


# -- timestamps ------------------------------------------------------------------

def test_epoch_delta_constant():
    assert NTP_UNIX_EPOCH_DELTA == 2208988800


def test_unix_epoch_converts_to_delta_seconds():
    assert unix_to_ntp(0.0) == NTP_UNIX_EPOCH_DELTA << 32


def test_roundtrip_precision_is_sub_microsecond():
    for value in (0.0, 1.5, 1609459200.123456, 1717171717.987654321):
        assert abs(ntp_to_unix(unix_to_ntp(value)) - value) < 1e-6


def test_roundtrip_precision_at_modern_epoch_is_nanoseconds():
    value = 1609459200.000961
    assert abs(ntp_to_unix(unix_to_ntp(value)) - value) < 1e-8


def test_fraction_carry_does_not_overflow():
    # A fractional part that rounds up to 1.0 must carry into the seconds.
    value = 123.9999999999
    assert abs(ntp_to_unix(unix_to_ntp(value)) - value) < 1e-6


def test_pre_epoch_time_rejected():
    with pytest.raises(TimestampError):
        unix_to_ntp(-NTP_UNIX_EPOCH_DELTA - 1)


def test_out_of_range_ntp_value_rejected():
    with pytest.raises(TimestampError):
        ntp_to_unix(1 << 64)
    with pytest.raises(TimestampError):
        ntp_to_unix(-1)


def test_short_format_roundtrip():
    for value in (0.0, 0.001, 0.5, 1.25):
        assert abs(from_short_format(short_format(value)) - value) < 1e-4


def test_short_format_negative_rejected():
    with pytest.raises(TimestampError):
        short_format(-0.1)


def test_offset_and_delay_symmetric_path():
    # Client 0.5 s behind the server, 40 ms symmetric one-way delay and
    # 20 ms of server processing time.
    exchange = ExchangeTimestamps(origin=100.0, receive=100.54, transmit=100.56,
                                  destination=100.10)
    assert exchange.offset == pytest.approx(0.5, abs=1e-9)
    assert exchange.delay == pytest.approx(0.08, abs=1e-9)
    assert exchange.is_plausible()


def test_offset_zero_when_clocks_agree():
    exchange = ExchangeTimestamps(origin=10.0, receive=10.01, transmit=10.02,
                                  destination=10.03)
    assert exchange.offset == pytest.approx(0.0, abs=1e-9)
    assert exchange.delay == pytest.approx(0.02, abs=1e-9)


def test_implausible_delay_detected():
    exchange = ExchangeTimestamps(origin=10.0, receive=10.0, transmit=10.0,
                                  destination=40.0)
    assert not exchange.is_plausible(max_delay=16.0)


# -- packets -----------------------------------------------------------------------

def test_client_request_mode_and_size():
    packet = NTPPacket.client_request(transmit_time=1609459200.0)
    assert packet.mode == NTPMode.CLIENT
    assert len(packet.encode()) == NTP_PACKET_SIZE


def test_server_reply_echoes_origin():
    request = NTPPacket.client_request(transmit_time=1609459200.25)
    reply = request.server_reply(receive_time=1609459200.30, transmit_time=1609459200.31,
                                 stratum=2, reference_time=1609459199.0)
    assert reply.mode == NTPMode.SERVER
    assert reply.origin_time == request.transmit_time
    assert reply.stratum == 2
    assert reply.valid_server_reply_to(request.transmit_time)


def test_reply_with_wrong_origin_rejected():
    request = NTPPacket.client_request(transmit_time=1609459200.25)
    reply = request.server_reply(receive_time=1609459200.30, transmit_time=1609459200.31,
                                 stratum=2, reference_time=1609459199.0)
    assert not reply.valid_server_reply_to(request.transmit_time + 1.0)


def test_encode_decode_roundtrip_preserves_fields():
    request = NTPPacket.client_request(transmit_time=1609459200.123)
    reply = request.server_reply(receive_time=1609459200.2, transmit_time=1609459200.21,
                                 stratum=3, reference_time=1609459100.0,
                                 root_delay=0.01, root_dispersion=0.02,
                                 leap=LeapIndicator.NO_WARNING)
    decoded = NTPPacket.decode(reply.encode())
    assert decoded.mode == NTPMode.SERVER
    assert decoded.stratum == 3
    assert decoded.leap == LeapIndicator.NO_WARNING
    assert abs(decoded.origin_time - reply.origin_time) < 1e-6
    assert abs(decoded.receive_time - reply.receive_time) < 1e-6
    assert abs(decoded.transmit_time - reply.transmit_time) < 1e-6
    assert abs(decoded.root_delay - 0.01) < 1e-4
    assert abs(decoded.root_dispersion - 0.02) < 1e-4


def test_roundtrip_preserves_origin_echo_validity():
    """The encode/decode chain must not break the origin-timestamp check."""
    origin = 1609459200.0009629726
    request = NTPPacket.client_request(transmit_time=origin)
    over_the_wire = NTPPacket.decode(request.encode())
    reply = over_the_wire.server_reply(receive_time=origin + 0.01, transmit_time=origin + 0.02,
                                       stratum=2, reference_time=origin - 1)
    decoded_reply = NTPPacket.decode(reply.encode())
    assert decoded_reply.valid_server_reply_to(origin)


def test_decode_truncated_packet_rejected():
    with pytest.raises(PacketFormatError):
        NTPPacket.decode(b"\x00" * 10)


@pytest.mark.parametrize("mode", [0, 6, 7])
def test_decode_rejects_unsupported_modes(mode):
    """Reserved, control (ntpq) and private modes are format errors, not
    a bare ``ValueError`` escaping into the receive path."""
    data = bytes([(4 << 3) | mode]) + b"\x00" * (NTP_PACKET_SIZE - 1)
    with pytest.raises(PacketFormatError, match="mode"):
        NTPPacket.decode(data)


def test_zero_timestamps_stay_zero():
    packet = NTPPacket(mode=NTPMode.CLIENT)
    decoded = NTPPacket.decode(packet.encode())
    assert decoded.origin_time == 0.0
    assert decoded.receive_time == 0.0


def test_negative_precision_roundtrip():
    packet = NTPPacket(mode=NTPMode.SERVER, precision=-20, stratum=1,
                       transmit_time=1609459200.0)
    decoded = NTPPacket.decode(packet.encode())
    assert decoded.precision == -20


def test_shifted_moves_server_timestamps_only():
    request = NTPPacket.client_request(transmit_time=100.0)
    reply = request.server_reply(receive_time=100.0, transmit_time=100.0, stratum=2,
                                 reference_time=99.0)
    shifted = reply.shifted(600.0)
    assert shifted.receive_time == pytest.approx(700.0)
    assert shifted.transmit_time == pytest.approx(700.0)
    assert shifted.origin_time == reply.origin_time  # nonce untouched


def test_kiss_of_death_detection():
    kod = NTPPacket(mode=NTPMode.SERVER, stratum=0)
    normal = NTPPacket(mode=NTPMode.SERVER, stratum=2)
    assert kod.kiss_of_death
    assert not normal.kiss_of_death
