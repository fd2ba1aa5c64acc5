"""DNS resource records and record types.

Only the record types the reproduction actually touches are implemented
(A, NS, CNAME, TXT, OPT), but they use the genuine wire encodings so that
message sizes are exact.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from socket import inet_ntoa
from typing import Optional

from ..netsim.addresses import ip_to_bytes
from .wire import WireFormatError, decode_name, encode_name, normalise_name

#: TYPE, CLASS, TTL and RDLENGTH: the fixed fields after an RR's owner name.
RR_FIXED = struct.Struct(">HHIH")
#: Where the TTL sits inside those fixed fields.
TTL_FIELD_OFFSET = 4
MAX_TTL = 0x7FFFFFFF


class RecordType(enum.IntEnum):
    """DNS RR TYPE values (subset)."""

    A = 1
    NS = 2
    CNAME = 5
    TXT = 16
    AAAA = 28
    OPT = 41


#: Wire TYPE value -> :class:`RecordType`; a value not in it is malformed.
RECORD_TYPES = {rtype.value: rtype for rtype in RecordType}


class RecordClass(enum.IntEnum):
    """DNS RR CLASS values (IN only, plus the EDNS payload-size overload)."""

    IN = 1


#: Seconds in a day; the attack sets TTLs *above* this so that every
#: subsequent hourly Chronos query is served from cache.
SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class ResourceRecord:
    """A single DNS resource record.

    ``rdata`` is type-specific structured data:

    * ``A`` — dotted-quad address string;
    * ``NS`` / ``CNAME`` — target domain name;
    * ``TXT`` — text string;
    * ``OPT`` — ignored (EDNS uses the class/ttl fields for its payload).
    """

    name: str
    rtype: RecordType
    ttl: int
    rdata: str
    rclass: int = RecordClass.IN

    def __post_init__(self) -> None:
        if self.ttl < 0 or self.ttl > MAX_TTL:
            raise WireFormatError(f"TTL out of range: {self.ttl}")
        object.__setattr__(self, "name", normalise_name(self.name))

    # -- helpers -----------------------------------------------------------
    @property
    def is_address(self) -> bool:
        return self.rtype == RecordType.A

    def with_ttl(self, ttl: int) -> ResourceRecord:
        """Copy of this record with a different TTL (cache decrementing)."""
        return ResourceRecord(self.name, self.rtype, ttl, self.rdata, self.rclass)

    # -- wire format -------------------------------------------------------
    def rdata_bytes(self) -> bytes:
        """Encode the RDATA portion for this record type."""
        if self.rtype == RecordType.A:
            return ip_to_bytes(self.rdata)
        if self.rtype in (RecordType.NS, RecordType.CNAME):
            # Name compression inside RDATA is legal but not used here; the
            # size impact is irrelevant for the experiments (NS answers are
            # never the large ones).
            return encode_name(self.rdata)
        if self.rtype == RecordType.TXT:
            text = self.rdata.encode("ascii")
            if len(text) > 255:
                raise WireFormatError("TXT string too long")
            return bytes([len(text)]) + text
        if self.rtype == RecordType.OPT:
            return b""
        raise WireFormatError(f"unsupported record type {self.rtype}")

    def encode_fields(self) -> bytes:
        """Everything after the owner name: the fixed fields, then RDATA.

        The TTL is the four bytes at :data:`TTL_FIELD_OFFSET`.
        """
        rdata = self.rdata_bytes()
        try:
            fixed = RR_FIXED.pack(self.rtype, self.rclass, self.ttl, len(rdata))
        except struct.error:
            raise WireFormatError(f"RR field out of range in {self!r}") from None
        return fixed + rdata

    def encode(self, compression: dict, offset: int) -> bytes:
        """Encode the full RR, updating the compression map."""
        return encode_name(self.name, compression, offset) + self.encode_fields()

    @classmethod
    def decode(cls, data: bytes, offset: int,
               names: Optional[dict[int, str]] = None) -> tuple[ResourceRecord, int]:
        """Decode one RR starting at ``offset``; returns (record, next_offset).

        ``names`` is the message's name table (see :func:`decode_name`).
        """
        name, offset = decode_name(data, offset, names)
        rdata_start = offset + RR_FIXED.size
        if rdata_start > len(data):
            raise WireFormatError("truncated RR header")
        code, rclass, ttl, rdlength = RR_FIXED.unpack_from(data, offset)
        rtype = RECORD_TYPES.get(code)
        if rtype is None:
            raise WireFormatError(f"unknown record type {code}")
        rdata_end = rdata_start + rdlength
        if rdata_end > len(data):
            raise WireFormatError("truncated RDATA")
        if rtype == RecordType.A:
            if rdlength != 4:
                raise WireFormatError("A record RDATA must be 4 bytes")
            rdata = inet_ntoa(data[rdata_start:rdata_end])
        elif rtype in (RecordType.NS, RecordType.CNAME):
            rdata, _ = decode_name(data, rdata_start, names)
        elif rtype == RecordType.TXT:
            raw = data[rdata_start:rdata_end]
            text = raw[1:1 + raw[0]] if raw else b""
            if not text.isascii():
                raise WireFormatError("non-ASCII TXT string")
            rdata = text.decode("ascii")
        elif rtype == RecordType.OPT:
            rdata = ""
        else:
            raise WireFormatError(f"unsupported record type {rtype}")
        record = cls(name=name or ".", rtype=rtype, ttl=ttl, rdata=rdata, rclass=rclass)
        return record, rdata_end


def rrset_signature(zone_key: str, name: str, records: Sequence[ResourceRecord]) -> str:
    """Deterministic signature over an A RRset (the DNSSEC-style model).

    A real RRSIG is a public-key signature over the canonical RRset; the
    simulation models it as a keyed digest — only code holding ``zone_key``
    can produce it, and the off-path attacker never does.  The digest covers
    owner name, record data *and TTLs*, so a spliced or forged answer (whose
    records or TTLs differ) cannot reuse a genuine signature.
    """
    payload = "|".join([zone_key, normalise_name(name)]
                       + sorted(f"{r.rdata}/{r.ttl}" for r in records if r.rtype == RecordType.A))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def signature_record(zone_key: str, name: str,
                     records: Sequence[ResourceRecord]) -> ResourceRecord:
    """The signature as a TXT record appended to the answer section.

    Like a real RRSIG it travels at the end of the answers — i.e. in the
    *trailing* fragment of a fragmented response, which is exactly the part a
    defragmentation-cache attacker substitutes.  Resolvers only cache records
    matching the question type, so the TXT never leaks into answers.
    """
    return ResourceRecord(name=name, rtype=RecordType.TXT, ttl=0,
                          rdata=rrset_signature(zone_key, name, records))


def a_record(name: str, address: str, ttl: int) -> ResourceRecord:
    """Convenience constructor for an A record."""
    return ResourceRecord(name=name, rtype=RecordType.A, ttl=ttl, rdata=address)


def opt_record(payload_size: int = 4096) -> ResourceRecord:
    """EDNS0 OPT pseudo-record advertising ``payload_size`` bytes.

    EDNS is what allows UDP DNS responses larger than 512 bytes in the first
    place — both the fragmented benign responses the poisoning vector needs
    and the attacker's jumbo 89-record response depend on it, so responses in
    the simulation carry the OPT record and pay its 11 bytes.
    """
    return ResourceRecord(name=".", rtype=RecordType.OPT, ttl=0, rdata="", rclass=payload_size)
