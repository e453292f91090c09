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
share is exactly 8.

Two channel backends share the same semantics: an in-memory FIFO for
deterministic simulation and a TCP stream for networked runs.  Both
record every send into a :class:`TrafficLedger`.

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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import field
from .tags import TAG_BYTES, tag_from_bytes, tag_to_bytes

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


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    round_index: int
    sender: int
    # bytes, or a read-only byte view: of an array's words, or of the
    # frame the message was received in.
    payload: bytes

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


class BadMagicError(WireError):
    pass


class TruncatedFrameError(WireError):
    pass


class UnknownKindError(WireError):
    pass


class LengthMismatchError(WireError):
    pass


class LinkClosedError(RuntimeError):
    pass


def serialize(msg: Message) -> bytes:
    if len(msg.payload) > MAX_PAYLOAD:
        raise WireError(f"payload of {len(msg.payload)} bytes exceeds 2^31 limit")
    return HEADER.pack(MAGIC, int(msg.kind), msg.round_index, msg.sender,
                       len(msg.payload)) + msg.payload


def deserialize(data: bytes) -> Message:
    """Exact inverse of :func:`serialize` on a single well-formed frame.

    The payload is a memoryview into ``data``, not a copy.
    """
    if len(data) < HEADER.size:
        raise TruncatedFrameError("frame shorter than its header", len(data))
    magic, kind, round_index, sender, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}", 0)
    try:
        kind = MessageKind(kind)
    except ValueError:
        raise UnknownKindError(f"unknown message kind {kind}", 4) from None
    end = HEADER.size + length
    if len(data) < end:
        raise TruncatedFrameError("frame truncated mid-payload", len(data))
    if end != len(data):
        raise LengthMismatchError(
            f"{len(data) - end} trailing bytes after frame", end)
    return Message(kind, round_index, sender, memoryview(data)[HEADER.size:end])


# -- payload layouts ---------------------------------------------------------

def pack_online_list(ids: Iterable[int]) -> bytes:
    ids = sorted(ids)
    return struct.pack(f"<{len(ids)}I", *ids)


def unpack_online_list(payload: bytes) -> List[int]:
    if len(payload) % 4 != 0:
        raise WireError("online list payload must be a multiple of 4 bytes")
    return list(struct.unpack(f"<{len(payload) // 4}I", payload))


def pack_publish_model(m: int, vec: np.ndarray) -> bytes:
    return struct.pack("<Q", m) + field.vec_to_raw(vec)


def _unpack_publish_count(payload: bytes) -> Tuple[int, memoryview]:
    """Split a publication into its participant count and the published body."""
    if len(payload) < 8:
        raise TruncatedFrameError(
            f"publication payload of {len(payload)} bytes has no 8-byte count", len(payload))
    (m,) = struct.unpack_from("<Q", payload)
    return m, memoryview(payload)[8:]


def unpack_publish_model(payload: bytes) -> Tuple[int, np.ndarray]:
    m, body = _unpack_publish_count(payload)
    if len(body) % 8 != 0:
        raise LengthMismatchError(
            f"published model of {len(body)} bytes is not a whole number of words", 8)
    return m, field.vec_from_raw(body)


def pack_publish_tag(m: int, tag: int) -> bytes:
    return struct.pack("<Q", m) + tag_to_bytes(tag)


def unpack_publish_tag(payload: bytes) -> Tuple[int, int]:
    m, body = _unpack_publish_count(payload)
    if len(body) != TAG_BYTES:
        raise LengthMismatchError(
            f"published tag must be {TAG_BYTES} bytes, got {len(body)}", 8)
    return m, tag_from_bytes(body)


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
        entry = self.entries.setdefault((link, round_index), LinkTraffic())
        entry.payload_bytes += payload_len
        entry.total_bytes += frame_len
        entry.messages += 1

    def payload_bytes(self, link: str, round_index: int) -> int:
        entry = self.entries.get((link, round_index))
        return entry.payload_bytes if entry else 0

    def total_bytes(self, link: str, round_index: int) -> int:
        entry = self.entries.get((link, round_index))
        return entry.total_bytes if entry else 0


# -- channels ----------------------------------------------------------------

class MemoryLink:
    """Reliable ordered in-process channel with ledger accounting."""

    def __init__(self, name: str, ledger: TrafficLedger):
        self.name = name
        self.ledger = ledger
        self._queue: deque = deque()
        self._closed = False

    def send(self, msg: Message) -> None:
        if self._closed:
            raise LinkClosedError(f"link {self.name} is closed")
        frame = msg.frame
        self.ledger.record(self.name, msg.round_index, len(msg.payload), len(frame))
        # Round-trip through bytes so both backends exercise the codec.
        self._queue.append(frame)

    def recv(self) -> Message:
        if not self._queue:
            if self._closed:
                raise LinkClosedError(f"link {self.name} is closed")
            raise LinkClosedError(f"link {self.name} has no pending message")
        return deserialize(self._queue.popleft())

    def close(self) -> None:
        self._closed = True


class SocketLink:
    """Length-framed message stream over a connected TCP socket."""

    def __init__(self, sock: socket.socket, name: str,
                 ledger: Optional[TrafficLedger] = None):
        self.name = name
        self.ledger = ledger  # the sending end records; the receiving end has none
        self._sock = sock
        self._sock.settimeout(10.0)

    def send(self, msg: Message) -> None:
        frame = msg.frame
        if self.ledger is not None:
            self.ledger.record(self.name, msg.round_index, len(msg.payload), len(frame))
        self._sock.sendall(frame)

    def _read_into(self, view: memoryview) -> None:
        """Fill ``view`` from the socket."""
        while view:
            n = self._sock.recv_into(view)
            if not n:
                raise LinkClosedError(f"link {self.name} closed mid-frame")
            view = view[n:]

    def recv(self) -> Message:
        header = bytearray(HEADER.size)
        self._read_into(memoryview(header))
        magic, kind, round_index, sender, length = HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}")
        # The payload is read straight into the frame the message keeps.
        frame = bytearray(HEADER.size + length)
        frame[:HEADER.size] = header
        self._read_into(memoryview(frame)[HEADER.size:])
        return deserialize(frame)

    def close(self) -> None:
        self._sock.close()


def socket_link_pair(name: str, ledger: Optional[TrafficLedger] = None,
                     host: str = "127.0.0.1") -> Tuple[SocketLink, SocketLink]:
    """Connected (sender, receiver) TCP pair on the loopback interface."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((host, 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return SocketLink(client, name, ledger), SocketLink(server, name)
