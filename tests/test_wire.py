import random

import numpy as np
import pytest

from vsecagg import field, wire
from vsecagg.wire import (HEADER, MAGIC, BadMagicError, LengthMismatchError,
                          LinkClosedError, MemoryLink, Message, MessageKind,
                          TrafficLedger, TruncatedFrameError, UnknownKindError,
                          deserialize, pack_online_list, pack_publish_model,
                          pack_publish_tag, serialize, socket_link_pair,
                          unpack_online_list, unpack_publish_model,
                          unpack_publish_tag)


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


def test_bad_magic():
    frame = bytearray(serialize(Message(MessageKind.ONLINE_LIST, 1, 1, b"")))
    frame[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        deserialize(bytes(frame))


def test_truncated_frame():
    frame = serialize(Message(MessageKind.MODEL_SHARE, 1, 1, b"\x00" * 16))
    with pytest.raises(TruncatedFrameError):
        deserialize(frame[:-3])
    with pytest.raises(TruncatedFrameError):
        deserialize(frame[:10])


def test_unknown_kind():
    frame = bytearray(serialize(Message(MessageKind.ONLINE_LIST, 1, 1, b"")))
    for kind in (10, 0x7F):  # 10 was the alarm frame's kind byte
        frame[4] = kind
        with pytest.raises(UnknownKindError):
            deserialize(bytes(frame))


def test_trailing_bytes_rejected():
    frame = serialize(Message(MessageKind.ONLINE_LIST, 1, 1, b""))
    with pytest.raises(LengthMismatchError):
        deserialize(frame + b"\x00")


def test_online_list_payloads():
    ids = [5, 1, 9]
    payload = pack_online_list(ids)
    assert len(payload) == 12
    assert unpack_online_list(payload) == [1, 5, 9]  # sorted on the wire


def test_publish_payloads():
    vec = np.arange(4, dtype=np.uint64)
    m, back = unpack_publish_model(pack_publish_model(3, vec))
    assert m == 3 and np.array_equal(back, vec)
    m, tag = unpack_publish_tag(pack_publish_tag(7, 12345))
    assert (m, tag) == (7, 12345)


@pytest.mark.parametrize("payload", [b"", b"abc", b"\x00" * 7])
def test_publish_payloads_without_count(payload):
    for unpack in (unpack_publish_model, unpack_publish_tag):
        with pytest.raises(TruncatedFrameError):
            unpack(payload)


def test_publish_payloads_with_bad_body_length():
    model = pack_publish_model(3, np.arange(4, dtype=np.uint64))
    with pytest.raises(LengthMismatchError):
        unpack_publish_model(model[:-3])
    assert unpack_publish_model(model[:8])[1].size == 0
    tag = pack_publish_tag(7, 12345)
    for bad in (tag[:8], tag[:-1], tag + b"\x00"):
        with pytest.raises(LengthMismatchError):
            unpack_publish_tag(bad)


def test_decoded_share_and_publication_are_read_only_views_of_the_frame():
    vec = np.random.default_rng(8).integers(0, (1 << 61) - 1, 1000, dtype=np.uint64)
    for kind, payload in ((MessageKind.MODEL_SHARE, field.vec_to_raw(vec)),
                          (MessageKind.PUBLISH_MODEL, pack_publish_model(4, vec))):
        frame = serialize(Message(kind, 1, 2, payload))
        msg = deserialize(frame)
        if kind is MessageKind.MODEL_SHARE:
            got = field.vec_from_raw(msg.payload)
        else:
            m, got = unpack_publish_model(msg.payload)
            assert m == 4
        assert np.array_equal(got, vec)
        assert not got.flags.writeable
        assert np.shares_memory(got, np.frombuffer(frame, dtype=np.uint8))
        with pytest.raises(ValueError):
            got[0] = 1


def test_memory_link_fifo_and_ledger():
    ledger = TrafficLedger()
    link = MemoryLink("user1->cs", ledger)
    vec = np.zeros(20_000, dtype=np.uint64)
    link.send(Message(MessageKind.MODEL_SHARE, 1, 1, field.vec_to_raw(vec)))
    assert ledger.payload_bytes("user1->cs", 1) == 160_000
    assert ledger.total_bytes("user1->cs", 1) == 160_021
    out = link.recv()
    assert out.kind is MessageKind.MODEL_SHARE
    link.close()
    with pytest.raises(LinkClosedError):
        link.recv()
    with pytest.raises(LinkClosedError):
        link.send(Message(MessageKind.ONLINE_LIST, 1, 1, b""))


def test_message_is_framed_once_for_every_link(monkeypatch):
    framed = []

    def counting_serialize(msg):
        framed.append(msg)
        return serialize(msg)

    monkeypatch.setattr(wire, "serialize", counting_serialize)
    ledger = TrafficLedger()
    links = [MemoryLink(f"cs->user{uid}", ledger) for uid in range(3)]
    vec = np.arange(10, dtype=np.uint64)
    msg = Message(MessageKind.PUBLISH_MODEL, 4, 0, pack_publish_model(3, vec))
    for link in links:
        link.send(msg)
    assert framed == [msg]
    for link in links:
        assert link.recv() == msg
        assert ledger.total_bytes(link.name, 4) == HEADER.size + 8 + 80


def test_ledger_accumulates_monotonically():
    ledger = TrafficLedger()
    link = MemoryLink("a->b", ledger)
    seen = 0
    for i in range(5):
        link.send(Message(MessageKind.TAG_SHARE, 2, 1, b"\x00" * 8))
        assert ledger.payload_bytes("a->b", 2) > seen
        seen = ledger.payload_bytes("a->b", 2)
        link.recv()
    assert ledger.entries[("a->b", 2)].messages == 5


def test_socket_link_loopback():
    ledger = TrafficLedger()
    sender, receiver = socket_link_pair("user1->cs", ledger)
    try:
        msgs = [Message(MessageKind.MODEL_SHARE, 1, 1, bytes(range(32))),
                Message(MessageKind.ONLINE_LIST, 1, 1, b""),
                Message(MessageKind.TAG_SHARE, 1, 1, b"\x01" * 8)]
        for m in msgs:
            sender.send(m)
        assert [receiver.recv() for _ in msgs] == msgs
        assert ledger.payload_bytes("user1->cs", 1) == 40
    finally:
        sender.close()
        receiver.close()
