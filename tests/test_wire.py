import random

import numpy as np
import pytest

from vsecagg import field, tags, wire
from vsecagg.field import FieldError
from vsecagg.harness import _Network
from vsecagg.wire import (HEADER, MAGIC, LinkClosedError, MemoryLink, Message,
                          MessageKind, WireError, deserialize, pack_online_list,
                          pack_publication, serialize, socket_link_pair,
                          unpack_online_list, unpack_publication)


def random_message(rng: random.Random) -> Message:
    kind = rng.choice(list(MessageKind))
    payload = rng.randbytes(rng.randrange(0, 64))
    return Message(kind, rng.randrange(1 << 64), rng.randrange(1 << 32), payload)


def test_round_trip_randomized():
    rng = random.Random(1)
    for _ in range(200):
        msg = random_message(rng)
        assert deserialize(serialize(msg)) == msg


def test_frame_layout():
    msg = Message(MessageKind.TAG_SHARE, 3, 7, b"\xaa" * 8)
    frame = serialize(msg)
    assert frame[:4] == MAGIC == b"DAG1"
    assert frame[4] == int(MessageKind.TAG_SHARE)
    assert len(frame) == HEADER.size + 8 == 21 + 8
    # The kind byte of every frame on the wire.
    assert {kind.name: int(kind) for kind in MessageKind} == {
        "MODEL_SHARE": 2, "TAG_SHARE": 3, "ONLINE_LIST": 4, "RESHARE_MODEL": 5,
        "RESHARE_TAG": 6, "PUBLISH_MODEL": 7, "PUBLISH_TAG": 8}


def test_model_share_payload_size_at_20k():
    vec = np.zeros(20_000, dtype=np.uint64)
    msg = Message(MessageKind.MODEL_SHARE, 1, 1, field.vec_to_raw(vec))
    assert len(msg.payload) == 160_000
    assert len(serialize(msg)) == 160_000 + 21


def test_serialize_refuses_a_payload_over_the_limit(monkeypatch):
    monkeypatch.setattr(wire, "MAX_PAYLOAD", 64)
    assert len(serialize(Message(MessageKind.MODEL_SHARE, 1, 1, b"\x00" * 64))) == 21 + 64
    with pytest.raises(WireError, match="payload of 65 bytes exceeds"):
        serialize(Message(MessageKind.MODEL_SHARE, 1, 1, b"\x00" * 65))


def test_bad_magic():
    frame = bytearray(serialize(Message(MessageKind.ONLINE_LIST, 1, 1, b"")))
    frame[0] ^= 0xFF
    with pytest.raises(WireError, match="bad magic"):
        deserialize(bytes(frame))


def test_truncated_frame():
    frame = serialize(Message(MessageKind.MODEL_SHARE, 1, 1, b"\x00" * 16))
    with pytest.raises(WireError, match="frame truncated mid-payload"):
        deserialize(frame[:-3])
    with pytest.raises(WireError, match="frame shorter than its header"):
        deserialize(frame[:10])


def test_unknown_kind():
    frame = bytearray(serialize(Message(MessageKind.ONLINE_LIST, 1, 1, b"")))
    for kind in (10, 0x7F):  # 10 was the alarm frame's kind byte
        frame[4] = kind
        with pytest.raises(WireError, match=f"unknown message kind {kind}"):
            deserialize(bytes(frame))


def test_trailing_bytes_rejected():
    frame = serialize(Message(MessageKind.ONLINE_LIST, 1, 1, b""))
    with pytest.raises(WireError, match="1 trailing bytes after frame"):
        deserialize(frame + b"\x00")


def test_online_list_payloads():
    ids = [5, 1, 9]
    payload = pack_online_list(ids)
    assert len(payload) == 12
    assert unpack_online_list(payload) == [1, 5, 9]  # sorted on the wire


def test_publish_payloads():
    # Both publications are the count as 8 little-endian bytes, then their words.
    vec = np.arange(4, dtype=np.uint64)
    model = pack_publication(3, field.vec_to_raw(vec))
    assert bytes(model) == (3).to_bytes(8, "little") + vec.astype("<u8").tobytes()
    m, body = unpack_publication(model)
    assert m == 3 and np.array_equal(field.vec_from_raw(body), vec)
    tag = pack_publication(7, tags.tag_to_bytes(12345))
    assert bytes(tag) == (7).to_bytes(8, "little") + (12345).to_bytes(8, "little")
    m, body = unpack_publication(tag)
    assert (m, tags.tag_from_bytes(body)) == (7, 12345)


@pytest.mark.parametrize("payload", [b"", b"abc", b"\x00" * 7])
def test_publish_payloads_without_count(payload):
    with pytest.raises(WireError, match="has no 8-byte count"):
        unpack_publication(payload)


def test_publish_payloads_with_bad_body_length():
    # The wire splits off the count; the body's reader checks its length.
    model = pack_publication(3, field.vec_to_raw(np.arange(4, dtype=np.uint64)))
    with pytest.raises(FieldError, match="must be a multiple of 8"):
        field.vec_from_raw(unpack_publication(model[:-3])[1])
    assert field.vec_from_raw(unpack_publication(model[:8])[1]).size == 0
    tag = pack_publication(7, tags.tag_to_bytes(12345))
    for bad in (tag[:8], tag[:-1], tag + b"\x00"):
        with pytest.raises(FieldError, match="tag must be 8 bytes"):
            tags.tag_from_bytes(unpack_publication(bad)[1])


def test_decoded_share_and_publication_are_read_only_views_of_the_frame():
    vec = np.random.default_rng(8).integers(0, (1 << 61) - 1, 1000, dtype=np.uint64)
    for kind, payload in ((MessageKind.MODEL_SHARE, field.vec_to_raw(vec)),
                          (MessageKind.PUBLISH_MODEL, pack_publication(4, field.vec_to_raw(vec)))):
        frame = serialize(Message(kind, 1, 2, payload))
        msg = deserialize(frame)
        if kind is MessageKind.MODEL_SHARE:
            got = field.vec_from_raw(msg.payload)
        else:
            m, body = unpack_publication(msg.payload)
            got = field.vec_from_raw(body)
            assert m == 4
        assert np.array_equal(got, vec)
        assert not got.flags.writeable
        assert np.shares_memory(got, np.frombuffer(frame, dtype=np.uint8))
        with pytest.raises(ValueError):
            got[0] = 1


def test_memory_link_fifo_and_ledger():
    net = _Network("memory")
    vec = np.zeros(20_000, dtype=np.uint64)
    out = net.transfer("user1->cs", Message(MessageKind.MODEL_SHARE, 1, 1, field.vec_to_raw(vec)))
    assert net.ledger.payload_bytes("user1->cs", 1) == 160_000
    assert net.ledger.entries[("user1->cs", 1)].total_bytes == 160_021
    assert out.kind is MessageKind.MODEL_SHARE
    net.close()
    with pytest.raises(LinkClosedError):
        net.transfer("user1->cs", Message(MessageKind.ONLINE_LIST, 1, 1, b""))


def test_closed_memory_link_neither_sends_nor_receives():
    link = MemoryLink()
    with pytest.raises(LinkClosedError, match="link has no pending message"):
        link.recv()  # open, but empty
    link.close()
    with pytest.raises(LinkClosedError, match="link is closed"):
        link.recv()
    with pytest.raises(LinkClosedError):
        link.send(Message(MessageKind.ONLINE_LIST, 1, 1, b""))


def test_message_is_framed_once_for_every_link(monkeypatch):
    framed = []

    def counting_serialize(msg):
        framed.append(msg)
        return serialize(msg)

    monkeypatch.setattr(wire, "serialize", counting_serialize)
    net = _Network("memory")
    names = [f"cs->user{uid}" for uid in range(3)]
    vec = np.arange(10, dtype=np.uint64)
    msg = Message(MessageKind.PUBLISH_MODEL, 4, 0, pack_publication(3, field.vec_to_raw(vec)))
    for name in names:
        assert net.transfer(name, msg) == msg
    assert framed == [msg]
    for name in names:
        assert net.ledger.entries[(name, 4)].total_bytes == HEADER.size + 8 + 80


def test_ledger_accumulates_monotonically():
    net = _Network("memory")
    seen = 0
    for i in range(5):
        net.transfer("a->b", Message(MessageKind.TAG_SHARE, 2, 1, b"\x00" * 8))
        assert net.ledger.payload_bytes("a->b", 2) > seen
        seen = net.ledger.payload_bytes("a->b", 2)
    assert net.ledger.entries[("a->b", 2)].messages == 5


@pytest.mark.parametrize("kind, length, max_payload, match", [
    (99, 8, wire.MAX_PAYLOAD, "unknown message kind 99"),
    (int(MessageKind.MODEL_SHARE), 65, 64, "65 payload bytes"),
])
def test_socket_link_refuses_a_bad_header_before_reading_its_payload(
        monkeypatch, kind, length, max_payload, match):
    # Only the header is sent: a receiver that waited for the payload would time out.
    monkeypatch.setattr(wire, "MAX_PAYLOAD", max_payload)
    sender, receiver = socket_link_pair()
    receiver._sock.settimeout(1.0)
    try:
        sender._sock.sendall(HEADER.pack(MAGIC, kind, 1, 0, length))
        with pytest.raises(WireError, match=match):
            receiver.recv()
    finally:
        sender.close()
        receiver.close()


def test_socket_link_loopback():
    sender, receiver = socket_link_pair()
    try:
        msgs = [Message(MessageKind.MODEL_SHARE, 1, 1, bytes(range(32))),
                Message(MessageKind.ONLINE_LIST, 1, 1, b""),
                Message(MessageKind.TAG_SHARE, 1, 1, b"\x01" * 8)]
        for m in msgs:
            sender.send(m)
        assert [receiver.recv() for _ in msgs] == msgs
    finally:
        sender.close()
        receiver.close()
    net = _Network("socket")
    try:
        assert [net.transfer("user1->cs", m) for m in msgs] == msgs
    finally:
        net.close()
    assert net.ledger.payload_bytes("user1->cs", 1) == 40
