"""DNS messages: header, question, sections, and full wire encode/decode.

The encoder implements name compression, so the size of a response carrying
``n`` A records for the same owner name matches real DNS: 12 bytes of header,
one question, ``n`` sixteen-byte answer records (2-byte name pointer + type +
class + TTL + RDLENGTH + 4 address bytes) and an 11-byte EDNS OPT record.
:func:`max_a_records_for_payload` inverts that layout to compute how many A
records fit under a payload budget — the paper's "up to 89 for a single
non-fragmented DNS response".
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

from .records import (
    MAX_TTL,
    RECORD_TYPES,
    TTL_FIELD_OFFSET,
    RecordClass,
    RecordType,
    ResourceRecord,
    opt_record,
)
from .wire import (
    WireFormatError,
    apply_case_pattern,
    decode_name,
    encode_name,
    extract_case_pattern,
    normalise_name,
)

DNS_HEADER_SIZE = 12
#: RFC 1035 §4.1.1 header: ID, flags, QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT.
HEADER = struct.Struct(">6H")
#: QTYPE and QCLASS after the question name.
QUESTION_FIELDS = struct.Struct(">HH")
#: A TTL field.
TTL_FIELD = struct.Struct(">I")
#: Header flag bits.
QR_FLAG = 0x8000
AA_FLAG = 0x0400
TC_FLAG = 0x0200
RD_FLAG = 0x0100
RA_FLAG = 0x0080
RCODE_MASK = 0x000F
#: Header flag marking the presence of a DNS-cookie block (the reserved Z
#: bit, repurposed by the simulation — see :class:`DNSMessage.cookie`).
COOKIE_FLAG = 0x0040
#: Size of the simulated cookie block in bytes.
COOKIE_SIZE = 8
#: Classic maximum UDP payload without EDNS.
CLASSIC_UDP_LIMIT = 512
#: UDP payload that fits in a single Ethernet frame: 1500 - 20 (IP) - 8 (UDP).
MAX_UNFRAGMENTED_UDP_PAYLOAD = 1472
#: Size of the EDNS OPT pseudo-record: root name (1) + type (2) + class (2)
#: + TTL (4) + RDLENGTH (2).
OPT_RECORD_SIZE = 11
#: Size of an answer A record whose owner name is compressed to a pointer:
#: pointer (2) + type (2) + class (2) + TTL (4) + RDLENGTH (2) + address (4).
COMPRESSED_A_RECORD_SIZE = 16


class ResponseCode(enum.IntEnum):
    """DNS RCODE values (subset)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    REFUSED = 5


#: Wire RCODE value -> :class:`ResponseCode`; a value not in it is malformed.
RESPONSE_CODES = {rcode.value: rcode for rcode in ResponseCode}


class Opcode(enum.IntEnum):
    QUERY = 0


@dataclass(frozen=True)
class Question:
    """The question section entry (single-question messages only)."""

    name: str
    qtype: RecordType = RecordType.A
    qclass: int = RecordClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalise_name(self.name))

    def encoded_size(self) -> int:
        return len(encode_name(self.name)) + 4


@dataclass(frozen=True)
class DNSMessage:
    """A DNS query or response message."""

    transaction_id: int
    question: Question
    is_response: bool = False
    answers: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()
    rcode: ResponseCode = ResponseCode.NOERROR
    recursion_desired: bool = True
    recursion_available: bool = False
    authoritative: bool = False
    truncated: bool = False
    dnssec_ok: bool = False
    #: DNS-cookie block (RFC 7873 model): a 64-bit value a client attaches to
    #: its query and the server must echo.  The simulation encodes it right
    #: after the question — alongside the transaction id in the *first*
    #: fragment of a fragmented response — because what the attack model
    #: cares about is that the cookie is attacker-visible under a BGP hijack
    #: (the attacker receives the query) and genuine under a fragment splice
    #: (the spoofed fragments only replace the trailing answer bytes).
    cookie: Optional[int] = None
    #: DNS-0x20 nonce: the case pattern of the question name's letters (bit i
    #: = i-th letter upper-cased).  ``None`` decodes/encodes as all-lowercase.
    case_nonce: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.transaction_id <= 0xFFFF:
            raise WireFormatError(f"transaction id out of range: {self.transaction_id}")
        if self.cookie is not None and not 0 <= self.cookie < 1 << (8 * COOKIE_SIZE):
            raise WireFormatError(f"cookie out of range: {self.cookie}")
        object.__setattr__(self, "answers", tuple(self.answers))
        object.__setattr__(self, "authority", tuple(self.authority))
        object.__setattr__(self, "additional", tuple(self.additional))

    # -- constructors --------------------------------------------------------
    @classmethod
    def query(cls, transaction_id: int, name: str, qtype: RecordType = RecordType.A,
              edns_payload: int = 4096, dnssec_ok: bool = False) -> DNSMessage:
        """Build a standard recursive query with an EDNS OPT record."""
        additional = (opt_record(edns_payload),) if edns_payload else ()
        return cls(
            transaction_id=transaction_id,
            question=Question(name=name, qtype=qtype),
            is_response=False,
            additional=additional,
            dnssec_ok=dnssec_ok,
        )

    def make_response(self, answers: list[ResourceRecord],
                      rcode: ResponseCode = ResponseCode.NOERROR,
                      authoritative: bool = True,
                      edns_payload: int = 4096) -> DNSMessage:
        """Build a response to this query, echoing id and question."""
        additional = (opt_record(edns_payload),) if edns_payload else ()
        return replace(
            self,
            is_response=True,
            answers=tuple(answers),
            authority=(),
            additional=additional,
            rcode=rcode,
            authoritative=authoritative,
            recursion_available=True,
        )

    # -- convenience ---------------------------------------------------------
    @property
    def answer_addresses(self) -> list[str]:
        """All A-record addresses in the answer section, in order."""
        return [rr.rdata for rr in self.answers if rr.rtype == RecordType.A]

    def matches_query(self, query: DNSMessage) -> bool:
        """Off-path acceptance check a resolver performs on a response:
        transaction id and question must match the outstanding query."""
        return (
            self.transaction_id == query.transaction_id
            and self.question == query.question
        )

    # -- wire format -----------------------------------------------------------
    def flags(self) -> int:
        value = 0
        if self.is_response:
            value |= QR_FLAG
        if self.authoritative:
            value |= AA_FLAG
        if self.truncated:
            value |= TC_FLAG
        if self.recursion_desired:
            value |= RD_FLAG
        if self.recursion_available:
            value |= RA_FLAG
        if self.cookie is not None:
            value |= COOKIE_FLAG
        value |= int(self.rcode) & RCODE_MASK
        return value

    def _encode_question(self, out: bytearray, compression: Optional[dict]) -> None:
        """Append the question — 0x20-cased name, QTYPE, QCLASS — and the cookie."""
        name_start = len(out)
        out += encode_name(self.question.name, compression, name_start)
        if self.case_nonce:
            # The compression map is keyed on the canonical lower-case name;
            # only the emitted bytes change case, so pointers still resolve.
            out[name_start:] = apply_case_pattern(bytes(out[name_start:]), self.case_nonce)
        try:
            out += QUESTION_FIELDS.pack(self.question.qtype, self.question.qclass)
        except struct.error:
            raise WireFormatError(f"question field out of range: {self.question}") from None
        if self.cookie is not None:
            out += self.cookie.to_bytes(COOKIE_SIZE, "big")

    def encode(self) -> bytes:
        """Serialise to wire bytes with name compression."""
        try:
            out = bytearray(HEADER.pack(self.transaction_id, self.flags(), 1, len(self.answers),
                                        len(self.authority), len(self.additional)))
        except struct.error:
            raise WireFormatError("header field out of range") from None
        compression: dict = {}
        self._encode_question(out, compression)
        for section in (self.answers, self.authority, self.additional):
            for record in section:
                out += record.encode(compression, len(out))
        return bytes(out)

    def cache_hit_reply(self, records: Sequence[ResourceRecord], ttl: int,
                        sections: dict[tuple[str, int], AnswerSection]) -> bytes:
        """Wire reply to this query from cached ``records``, stamped with ``ttl``.

        Byte-identical to ``self.make_response([r.with_ttl(ttl) for r in
        records], authoritative=False).encode()``, but the answer section
        is encoded once per layout (see :class:`AnswerSection`) and kept in
        ``sections``, the caller's store for these records; each reply then
        costs a header, this query's question and the stored section with
        ``ttl`` written into it.
        """
        if not 0 <= ttl <= MAX_TTL:
            raise WireFormatError(f"TTL out of range: {ttl}")
        # make_response: QR and RA set, AA and RCODE cleared, the rest echoed.
        flags = (self.flags() & ~(AA_FLAG | RCODE_MASK)) | QR_FLAG | RA_FLAG
        out = bytearray(HEADER.pack(self.transaction_id, flags, 1, len(records), 0, 1))
        self._encode_question(out, None)
        layout = (self.question.name, len(out))
        section = sections.get(layout)
        if section is None:
            section = sections[layout] = AnswerSection.encode(records, *layout)
        out += section.with_ttl(ttl)
        return bytes(out)

    @property
    def wire_size(self) -> int:
        """Size of the encoded message in bytes."""
        return len(self.encode())

    @classmethod
    def decode(cls, data: bytes) -> DNSMessage:
        """Parse wire bytes back into a message (single-question only).

        Total: returns a message or raises :class:`WireFormatError`.
        """
        if len(data) < DNS_HEADER_SIZE:
            raise WireFormatError("truncated DNS header")
        transaction_id, flags, qdcount, ancount, nscount, arcount = HEADER.unpack_from(data)
        if qdcount != 1:
            raise WireFormatError(f"unsupported question count: {qdcount}")
        rcode = RESPONSE_CODES.get(flags & RCODE_MASK)
        if rcode is None:
            raise WireFormatError(f"unknown rcode {flags & RCODE_MASK}")
        names: dict[int, str] = {}
        qname, offset = decode_name(data, DNS_HEADER_SIZE, names)
        nonce, _ = extract_case_pattern(data[DNS_HEADER_SIZE:offset])
        if offset + QUESTION_FIELDS.size > len(data):
            raise WireFormatError("truncated question")
        code, qclass = QUESTION_FIELDS.unpack_from(data, offset)
        qtype = RECORD_TYPES.get(code)
        if qtype is None:
            raise WireFormatError(f"unknown question type {code}")
        offset += QUESTION_FIELDS.size
        cookie: Optional[int] = None
        if flags & COOKIE_FLAG:
            if offset + COOKIE_SIZE > len(data):
                raise WireFormatError("truncated cookie block")
            cookie = int.from_bytes(data[offset:offset + COOKIE_SIZE], "big")
            offset += COOKIE_SIZE
        sections: list[tuple[ResourceRecord, ...]] = []
        for count in (ancount, nscount, arcount):
            records: list[ResourceRecord] = []
            for _ in range(count):
                record, offset = ResourceRecord.decode(data, offset, names)
                records.append(record)
            sections.append(tuple(records))
        return cls(
            transaction_id=transaction_id,
            question=Question(name=qname, qtype=qtype, qclass=qclass),
            is_response=bool(flags & QR_FLAG),
            answers=sections[0],
            authority=sections[1],
            additional=sections[2],
            rcode=rcode,
            recursion_desired=bool(flags & RD_FLAG),
            recursion_available=bool(flags & RA_FLAG),
            authoritative=bool(flags & AA_FLAG),
            truncated=bool(flags & TC_FLAG),
            cookie=cookie,
            # All-lowercase decodes to None so that cookie-less, case-less
            # messages round-trip to objects equal to their originals.
            case_nonce=nonce or None,
        )


@dataclass(frozen=True)
class AnswerSection:
    """A cache-hit reply's answers plus its EDNS OPT record, encoded once.

    The bytes depend only on the layout — the question name the section
    follows (its suffixes seed the compression map) and the offset the
    section starts at — and on the records; a reply's TTL is the one thing
    that varies between hits.  ``pieces`` is the encoded section cut around
    each answer's TTL field, so stamping a TTL is a single join.
    """

    pieces: tuple[bytes, ...]

    @classmethod
    def encode(cls, records: Sequence[ResourceRecord], question_name: str,
               start: int) -> AnswerSection:
        """Encode ``records`` and an OPT record as :meth:`DNSMessage.encode` does."""
        compression: dict = {}
        encode_name(question_name, compression, DNS_HEADER_SIZE)
        wire = bytearray()
        ttl_offsets = []
        for record in records:
            wire += encode_name(record.name, compression, start + len(wire))
            ttl_offsets.append(len(wire) + TTL_FIELD_OFFSET)
            wire += record.encode_fields()
        wire += opt_record().encode(compression, start + len(wire))
        starts = [0, *(offset + TTL_FIELD.size for offset in ttl_offsets)]
        ends = [*ttl_offsets, len(wire)]
        return cls(tuple(bytes(wire[a:b]) for a, b in zip(starts, ends)))

    def with_ttl(self, ttl: int) -> bytes:
        """The section with every answer's TTL set to ``ttl``."""
        return TTL_FIELD.pack(ttl).join(self.pieces)


def response_size_for_a_records(qname: str, record_count: int, with_edns: bool = True) -> int:
    """Wire size of a response to ``qname`` carrying ``record_count`` A records.

    Computed analytically from the layout (and cross-checked against the real
    encoder in the test suite).
    """
    question_size = len(encode_name(qname)) + 4
    size = DNS_HEADER_SIZE + question_size + record_count * COMPRESSED_A_RECORD_SIZE
    if with_edns:
        size += OPT_RECORD_SIZE
    return size


def max_a_records_for_payload(qname: str, payload_limit: int = MAX_UNFRAGMENTED_UDP_PAYLOAD,
                              with_edns: bool = True) -> int:
    """Maximum number of A records that fit in a response of ``payload_limit`` bytes.

    With the pool.ntp.org question name, EDNS enabled and the conventional
    1472-byte unfragmented UDP budget this evaluates to 89 — the figure the
    paper quotes for the attacker's single-response pool flood.
    """
    question_size = len(encode_name(qname)) + 4
    fixed = DNS_HEADER_SIZE + question_size + (OPT_RECORD_SIZE if with_edns else 0)
    if payload_limit < fixed:
        return 0
    return (payload_limit - fixed) // COMPRESSED_A_RECORD_SIZE
