"""Bit-exact message framing, channels, and traffic accounting.

Frame layout (all multi-byte integers little-endian):

    magic   4 bytes  0x44 0x41 0x47 0x31 ("DAG1")
    kind    1 byte
    round   8 bytes
    sender  4 bytes
    length  4 bytes  payload byte count
    payload

Model-share payloads are the raw 8-byte field-element words with no
extra count prefix (the frame length determines the element count), so
a share of a d-dimensional model is exactly 8*d payload bytes and a tag
share is exactly 8.  A publication, of the model or of the tag, is an
8-byte participant count, then its words: d at the CS, one at the VS.
Their reader, ``field.vec_from_raw`` or ``tags.tag_from_bytes``, checks
their length.

Two channel backends share the same semantics: an in-memory FIFO for
deterministic simulation and a TCP stream for networked runs.  A
:class:`TrafficLedger` counts bytes and messages per link name and
round; the channels know no names and record nothing.

A payload need not be ``bytes``: ``field.vec_to_raw`` gives a read-only
view of an array's words, so a d-word payload is copied once, into its
frame.  A message is framed once, however many links carry it: its
``frame`` is built on first use and kept.  A received payload is a view
into the frame it arrived in.
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from typing import Dict, Iterable, List, Tuple

MAGIC = b"DAG1"
HEADER = struct.Struct("<4sBQII")
MAX_PAYLOAD = (1 << 31) - 1


class MessageKind(IntEnum):
    # Each value is the frame's kind byte; 0, 1, 9 and 10 are unassigned.
    MODEL_SHARE = 2
    TAG_SHARE = 3
    ONLINE_LIST = 4
    RESHARE_MODEL = 5
    RESHARE_TAG = 6
    PUBLISH_MODEL = 7
    PUBLISH_TAG = 8


# Kind byte -> kind: a dict lookup is cheaper than calling the enum.
_KINDS = {int(kind): kind for kind in MessageKind}


@dataclass(frozen=True, init=False)
class Message:
    kind: MessageKind
    round_index: int
    sender: int
    # bytes, or a read-only byte view: of an array's words, or of the
    # frame the message was received in.
    payload: bytes

    def __init__(self, kind: MessageKind, round_index: int, sender: int, payload: bytes):
        # The frozen dataclass's own __init__ sets each field through
        # object.__setattr__; writing the instance dict once is cheaper.
        fields = self.__dict__
        fields["kind"] = kind
        fields["round_index"] = round_index
        fields["sender"] = sender
        fields["payload"] = payload

    @property
    def frame(self) -> bytes:
        """``serialize(self)``, built once and reused by every link that sends it."""
        # Kept outside the fields, so equality and repr ignore it.  Not a
        # functools.cached_property, which before Python 3.12 takes a lock
        # on every first access: a round can send hundreds of messages.
        frame = self.__dict__.get("_frame")
        if frame is None:
            frame = self.__dict__["_frame"] = serialize(self)
        return frame


class WireError(ValueError):
    """Malformed frame; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class LinkClosedError(RuntimeError):
    pass


def serialize(msg: Message) -> bytes:
    if len(msg.payload) > MAX_PAYLOAD:
        raise WireError(f"payload of {len(msg.payload)} bytes exceeds 2^31 limit")
    return HEADER.pack(MAGIC, int(msg.kind), msg.round_index, msg.sender,
                       len(msg.payload)) + msg.payload


def _read_header(header) -> Tuple[MessageKind, int, int, int]:
    """The kind, round, sender and payload length a frame's header names,
    once its magic and kind pass."""
    magic, kind, round_index, sender, length = HEADER.unpack_from(header)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}", 0)
    known = _KINDS.get(kind)
    if known is None:
        raise WireError(f"unknown message kind {kind}", 4)
    return known, round_index, sender, length


def deserialize(data: bytes) -> Message:
    """Exact inverse of :func:`serialize` on a single well-formed frame.

    The payload is a memoryview into ``data``, not a copy.
    """
    if len(data) < HEADER.size:
        raise WireError("frame shorter than its header", len(data))
    kind, round_index, sender, length = _read_header(data)
    end = HEADER.size + length
    if len(data) < end:
        raise WireError("frame truncated mid-payload", len(data))
    if end != len(data):
        raise WireError(f"{len(data) - end} trailing bytes after frame", end)
    return Message(kind, round_index, sender, memoryview(data)[HEADER.size:end])


# -- payload layouts ---------------------------------------------------------

def pack_online_list(ids: Iterable[int]) -> bytes:
    ids = sorted(ids)
    return struct.pack(f"<{len(ids)}I", *ids)


def unpack_online_list(payload: bytes) -> List[int]:
    if len(payload) % 4 != 0:
        raise WireError("online list payload must be a multiple of 4 bytes")
    return list(struct.unpack(f"<{len(payload) // 4}I", payload))


def pack_publication(m: int, body) -> bytes:
    return struct.pack("<Q", m) + body


def unpack_publication(payload) -> Tuple[int, memoryview]:
    """Split a publication into its participant count and a view of its words."""
    if len(payload) < 8:
        raise WireError(
            f"publication payload of {len(payload)} bytes has no 8-byte count", len(payload))
    (m,) = struct.unpack_from("<Q", payload)
    return m, memoryview(payload)[8:]


class AlarmReason(IntEnum):
    """The check that made a user reject a round.

    It fixes the meaning of the alarm's two values, given here in order.
    """

    TAG_MISMATCH = 1    # tag expected from the VS's publication, tag recomputed
    COUNT_MISMATCH = 2  # participant count published by the CS, by the VS
    NON_CANONICAL = 3   # first aggregate coordinate holding a residue >= R, its value
    LENGTH_MISMATCH = 4  # model dimension d, length of the published aggregate
    MALFORMED_PUBLICATION = 5  # kind of the wrong-kind or unparsable publication, its payload length
    ROUND_MISMATCH = 6  # round being reconstructed, round the publication names


# -- traffic accounting ------------------------------------------------------

@dataclass
class LinkTraffic:
    payload_bytes: int = 0
    total_bytes: int = 0
    messages: int = 0


@dataclass
class TrafficLedger:
    """Byte and message counts per (link name, round)."""

    entries: Dict[Tuple[str, int], LinkTraffic] = dc_field(default_factory=dict)

    def record(self, link: str, round_index: int, payload_len: int, frame_len: int) -> None:
        key = (link, round_index)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = LinkTraffic()
        entry.payload_bytes += payload_len
        entry.total_bytes += frame_len
        entry.messages += 1

    def payload_bytes(self, link: str, round_index: int) -> int:
        entry = self.entries.get((link, round_index))
        return entry.payload_bytes if entry else 0


# -- channels ----------------------------------------------------------------

class MemoryLink:
    """Reliable ordered in-process channel."""

    def __init__(self):
        self._queue: deque = deque()
        self._closed = False

    def send(self, msg: Message) -> None:
        if self._closed:
            raise LinkClosedError("link is closed")
        # Round-trip through bytes so both backends exercise the codec.
        self._queue.append(msg.frame)

    def recv(self) -> Message:
        if not self._queue:
            raise LinkClosedError("link is closed" if self._closed
                                  else "link has no pending message")
        return deserialize(self._queue.popleft())

    def close(self) -> None:
        self._closed = True


class SocketLink:
    """Length-framed message stream over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.settimeout(10.0)

    def send(self, msg: Message) -> None:
        self._sock.sendall(msg.frame)

    def _read_into(self, view: memoryview) -> None:
        """Fill ``view`` from the socket."""
        while view:
            n = self._sock.recv_into(view)
            if not n:
                raise LinkClosedError("link closed mid-frame")
            view = view[n:]

    def recv(self) -> Message:
        header = bytearray(HEADER.size)
        self._read_into(memoryview(header))
        # Refused before a byte is allocated for, or read of, the payload.
        length = _read_header(header)[3]
        if length > MAX_PAYLOAD:
            raise WireError(f"header announces {length} payload bytes, over the "
                            f"{MAX_PAYLOAD}-byte limit", HEADER.size - 4)
        # The payload is read straight into the frame the message keeps.
        frame = bytearray(HEADER.size + length)
        frame[:HEADER.size] = header
        self._read_into(memoryview(frame)[HEADER.size:])
        return deserialize(frame)

    def close(self) -> None:
        self._sock.close()


def socket_link_pair() -> Tuple[SocketLink, SocketLink]:
    """Connected (sender, receiver) TCP pair on the loopback interface."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return SocketLink(client), SocketLink(server)
