"""DNS wire-format primitives: domain-name encoding and compression.

The reproduction encodes DNS messages to real wire bytes because two of the
paper's quantitative claims are *size* claims:

* a benign pool.ntp.org response (4 A records) is small and unfragmented,
  but the nameservers are willing to fragment larger responses down to an
  MTU of 548 bytes — which is what the poisoning vector needs;
* an attacker can fit "up to 89" A records into a single non-fragmented DNS
  response (§IV), which is what lets a single successful poisoning flood the
  Chronos pool with malicious servers.

Both are computed from the byte layout implemented here, not hard-coded.
"""

from __future__ import annotations

import struct
from typing import Optional

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
POINTER_FLAG = 0xC0
#: A compression pointer: the two top bits set, then a 14-bit offset.
_POINTER = struct.Struct(">H")
#: Largest offset a compression pointer can reach.
MAX_POINTER_OFFSET = 0x3FFF


class WireFormatError(ValueError):
    """Raised when encoding or decoding malformed DNS wire data."""


def normalise_name(name: str) -> str:
    """Lower-case a domain name and strip any trailing dot.

    DNS names are case-insensitive; the cache and the poisoning checks all
    operate on normalised names so ``Pool.NTP.org.`` and ``pool.ntp.org``
    collide as they do in a real resolver.
    """
    return name.rstrip(".").lower()


def _split_labels(name: str) -> list[str]:
    """Split an already-normalised name into validated labels."""
    if not name:
        return []
    if not name.isascii():
        raise WireFormatError(f"non-ASCII name: {name!r}")
    labels = name.split(".")
    for label in labels:
        if not label:
            raise WireFormatError(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_LENGTH:
            raise WireFormatError(f"label too long in {name!r}")
    if len(name) + 2 > MAX_NAME_LENGTH:
        # The wire form is one length byte per label plus the root byte:
        # len(name) + 2 once the dots are counted as length bytes.
        raise WireFormatError(f"name too long: {name!r}")
    return labels


def name_to_labels(name: str) -> list[str]:
    """Split a domain name into its labels, validating lengths."""
    return _split_labels(normalise_name(name))


def encode_name(name: str, compression: Optional[dict[str, int]] = None,
                offset: int = 0) -> bytes:
    """Encode a domain name, optionally using/updating a compression map.

    ``compression`` maps a (normalised) name suffix to the wire offset where
    it was first written.  When a suffix is already present a 2-byte pointer
    is emitted instead, which is how a real response packs 89 A records whose
    owner name is all the same.  A name already in the map is answered with
    its pointer straight away: it was validated when it was first written.
    """
    name = normalise_name(name)
    if compression is not None:
        pointer = compression.get(name)
        if pointer is not None:
            return _POINTER.pack(0xC000 | pointer)
    out = bytearray()
    start = 0
    for label in _split_labels(name):
        if compression is not None:
            suffix = name[start:]
            if start:
                pointer = compression.get(suffix)
                if pointer is not None:
                    out += _POINTER.pack(0xC000 | pointer)
                    return bytes(out)
            if offset + len(out) <= MAX_POINTER_OFFSET:
                compression[suffix] = offset + len(out)
        out.append(len(label))
        out += label.encode("ascii")
        start += len(label) + 1
    out.append(0)
    return bytes(out)


def encoded_name_length(name: str, compressed: bool) -> int:
    """Length in bytes of an encoded name (2 when a compression pointer is used)."""
    if compressed:
        return 2
    labels = name_to_labels(name)
    return sum(len(label) + 1 for label in labels) + 1


def decode_name(data: bytes, offset: int,
                names: Optional[dict[int, str]] = None) -> tuple[str, int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns ``(name, next_offset)`` where ``next_offset`` is the offset just
    past the name *in the original position* (pointers do not advance it
    beyond the 2 pointer bytes).

    ``names`` is an optional per-message table from offset to the name
    decoded there: a pointer to an offset already in it is resolved from
    the table, and ``offset`` and every pointer target this call follows
    are added to it.  A response whose 89 owner names all point at the
    question decodes that name once.  Decoding from an offset is
    context-free, so the table never changes a result.
    """
    labels: list[str] = []
    position = offset
    next_offset = -1
    seen_pointers: set[int] = set()
    # (pointer target, labels decoded before the jump), for the table.
    targets: list[tuple[int, int]] = []
    size = len(data)
    while True:
        if position >= size:
            raise WireFormatError("truncated name")
        length = data[position]
        if length >= POINTER_FLAG:
            if position + 1 >= size:
                raise WireFormatError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[position + 1]
            if next_offset < 0:
                next_offset = position + 2
            if names is not None:
                known = names.get(pointer)
                if known is not None:
                    if known:
                        labels.append(known)
                    break
                targets.append((pointer, len(labels)))
            if pointer in seen_pointers:
                raise WireFormatError("compression pointer loop")
            seen_pointers.add(pointer)
            position = pointer
            continue
        if length & POINTER_FLAG:
            raise WireFormatError(f"reserved label type 0x{length:02x}")
        position += 1
        if length == 0:
            if next_offset < 0:
                next_offset = position
            break
        if position + length > size:
            raise WireFormatError("truncated label")
        label = data[position:position + length]
        if not label.isascii():
            raise WireFormatError("non-ASCII label")
        labels.append(label.decode("ascii"))
        position += length
    name = ".".join(labels)
    if names is not None:
        names[offset] = name
        for target, start in targets:
            names[target] = ".".join(labels[start:])
    return name, next_offset


def apply_case_pattern(name_bytes: bytes, nonce: int) -> bytes:
    """Re-case the letters of an encoded (uncompressed) name per ``nonce``.

    Bit *i* of ``nonce`` (LSB first) decides whether the *i*-th alphabetic
    character is upper-cased — the DNS-0x20 encoding: the case pattern rides
    inside the question name itself, so it is covered by the very bytes a
    response must echo.
    """
    out = bytearray(name_bytes)
    position = 0
    bit = 0
    while position < len(out):
        length = out[position]
        if length == 0 or length & POINTER_FLAG:
            break
        position += 1
        for index in range(position, position + length):
            char = out[index]
            if 65 <= char <= 90 or 97 <= char <= 122:
                out[index] = (char & ~0x20) if (nonce >> bit) & 1 else (char | 0x20)
                bit += 1
        position += length
    return bytes(out)


def extract_case_pattern(name_bytes: bytes) -> tuple[int, int]:
    """Recover ``(nonce, letter_count)`` from an encoded name's letter cases."""
    nonce = 0
    bit = 0
    position = 0
    while position < len(name_bytes):
        length = name_bytes[position]
        if length == 0 or length & POINTER_FLAG:
            break
        position += 1
        for index in range(position, position + length):
            char = name_bytes[index]
            if 65 <= char <= 90:
                nonce |= 1 << bit
                bit += 1
            elif 97 <= char <= 122:
                bit += 1
        position += length
    return nonce, bit


def letter_count(name: str) -> int:
    """Number of alphabetic characters in a name (the 0x20 entropy in bits)."""
    return sum(1 for char in normalise_name(name) if char.isalpha())
