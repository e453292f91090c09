"""User, computation-server (CS), and verification-server (VS) state machines.

One aggregation round, with all arithmetic of models and tags over Z_R
for one prime R, the codec's modulus:

  Share        user i sends  w_i1 = enc(w_i) - F_{Kvi}(r)  to CS and
               b_i2 = tag(enc(w_i)) - F_{Kci}(r, 1)        to VS.
  Aggregate    each server answers the peer's online list with its one
               reshare: it intersects that list with its own senders,
               which fixes the round's participants, and VS sends
               w_t = sum_i F_{Kvi}(r) - F_{Kvg}(r) to CS, which publishes
               w''_1 = sum_i w_i1 + w_t together with m; CS sends
               b_t = sum_i F_{Kci}(r,1) - F_{Kcg}(r,1) to VS, which
               publishes b'_2 = sum_i b_i2 + b_t together with m.
  Reconstruct  each user adds its locally regenerated masks, checks the
               tag, and on success decodes the mean.

Each role builds the messages it sends and reads the messages it
receives.  The CS and the VS run one state machine and differ only in
their share type (d words at the CS, one tag, a Python int, at the VS)
and in their reshare.  A server holds one round at a time, opened by
``start_round(r)`` and taking nothing for any other round.  It keeps its
users' shares of r and fixes r's participants once, so it sends one
reshare per round: two, for different participant sets, would differ by
one user's mask and so reveal that user's update to the peer.  Once it
has sent its reshare it finalizes r: it sums the participants' shares
and the peer's reshare mod R, returns that sum, with m, as the round's
publication, and holds no round until the next ``start_round``.

Users require the participant counts published by the two servers to
agree before decoding: the tag covers the sum but not the divisor, so a
lying CS could otherwise skew the mean undetected.  Counts that disagree
are a COUNT_MISMATCH alarm, a publication of the wrong kind or that does
not parse a MALFORMED_PUBLICATION alarm, and one of another round a
ROUND_MISMATCH alarm, each an ``Alarm`` returned like every other failed check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Dict, Optional, Tuple

import numpy as np

from . import codec, field, sharing, tags
from .prf import KeyMaterial, concat_keys, expand, expand_one
from .wire import (AlarmReason, Message, MessageKind, WireError, pack_online_list,
                   pack_publication, unpack_online_list, unpack_publication)


class ProtocolError(Exception):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    """Parameters every role must share identically.

    ``dim`` is d, the length of an update and of a decoded model; in a
    ``weighted`` run every share carries its user's weight as one more word.
    """

    dim: int
    codec: codec.CodecParams
    weighted: bool = False

    @functools.cached_property
    def words(self) -> int:
        """Length of every share, mask, tag key and aggregate: d, plus the weight's word."""
        return self.dim + self.weighted

    # Cached: every kernel call of a round reads it.
    @functools.cached_property
    def r(self) -> int:
        """The one prime R of models and tags: the codec's modulus."""
        return self.codec.r_w


def init_model_from_seeds(s1: KeyMaterial, s2: KeyMaterial, dim: int, r: int) -> np.ndarray:
    """Initial model every user derives identically, read-only; neither seed alone fixes it."""
    model = expand(concat_keys(s1, s2), 0, dim, r)
    model.setflags(write=False)
    return model


@dataclass(frozen=True)
class Alarm:
    """A user's rejection of a round: the round, the user, the check and its two values."""

    round_index: int
    uid: int
    reason: AlarmReason
    first: int
    second: int


@dataclass
class ReconstructResult:
    """A participant's round: its decoded mean, or no model and the alarm it raised."""

    model: Optional[np.ndarray]
    alarm: Optional[Alarm] = None

    @property
    def verified(self) -> bool:
        return self.alarm is None


class UserState:
    """One federated-learning participant: its own keys, the servers' shared
    keys, and both servers' seeds, from which it derives the initial model."""

    def __init__(self, uid: int, k_vi: KeyMaterial, k_ci: KeyMaterial,
                 k_cv: KeyMaterial, k_vv: KeyMaterial,
                 k_cg: KeyMaterial, k_vg: KeyMaterial,
                 seed_c: KeyMaterial, seed_v: KeyMaterial, params: ProtocolParams):
        self.uid = uid
        self.k_vi = k_vi
        self.k_ci = k_ci
        self.k_cg = k_cg
        self.k_vg = k_vg
        self.k_v = concat_keys(k_cv, k_vv)
        self.seeds = (seed_c, seed_v)
        self.params = params
        self.current_model: Optional[np.ndarray] = None
        self.last_verified_round: Optional[int] = None
        self._last_shared_round = 0
        # (round, key vector) of the last shared round, reused once to verify it.
        self._tag_key: Optional[Tuple[int, np.ndarray]] = None

    @functools.cached_property
    def initial_model(self) -> np.ndarray:
        """The initial model, derived from the two servers' seeds on first read."""
        return init_model_from_seeds(*self.seeds, self.params.dim, self.params.r)

    def share_round(self, update, round_index: int,
                    weight: Optional[float] = None) -> Tuple[Message, Message]:
        """Produce the round's MODEL_SHARE (to CS) and TAG_SHARE (to VS)."""
        p = self.params
        if round_index <= self._last_shared_round:
            raise ProtocolError(
                f"user {self.uid} already shared round {self._last_shared_round}; "
                f"got round {round_index}")
        update = np.asarray(update, dtype=np.float64)
        if update.size != p.dim:
            raise ProtocolError(f"update has {update.size} parameters, expected {p.dim}")
        if (weight is not None) != p.weighted:
            raise ProtocolError(f"user {self.uid}: a weighted run shares a weight with every "
                                f"update, an unweighted run none; got weight {weight}")
        if weight is not None:
            if not weight > 0:
                raise ProtocolError(f"aggregation weight must be positive, got {weight}")
            # Below one quantum a weight may encode to 0, and a weight sum of 0 divides nothing.
            if weight < 1 / p.codec.delta:
                raise ProtocolError(f"aggregation weight {weight} is below one quantum, "
                                    f"1/{p.codec.delta}")
            # The weight rides as the last word, so users recover the weight sum.
            update = np.append(update * weight, weight)
        encoded = codec.encode(update, p.codec)
        share = sharing.share_with_prf(encoded, self.k_vi, round_index, p.r)
        key_vec = tags.derive_tag_key(self.k_v, round_index, p.words, p.r)
        b_i = tags.gen_tag(encoded, key_vec, p.r)
        b_i2 = (b_i - expand_one(self.k_ci, round_index, p.r)) % p.r
        self._last_shared_round = round_index
        self._tag_key = (round_index, key_vec)
        return (
            Message(MessageKind.MODEL_SHARE, round_index, self.uid,
                    field.vec_to_raw(share)),
            Message(MessageKind.TAG_SHARE, round_index, self.uid,
                    tags.tag_to_bytes(b_i2)),
        )

    def _rejected(self, round_index: int, reason: AlarmReason, *values: int) -> ReconstructResult:
        return ReconstructResult(None, Alarm(round_index, self.uid, reason, *values))

    def reconstruct_round(self, model_msg: Message, tag_msg: Message,
                          round_index: int) -> ReconstructResult:
        """Read both publications, unmask the aggregate, check the tag, decode on success."""
        p = self.params
        for msg, kind in ((model_msg, MessageKind.PUBLISH_MODEL),
                          (tag_msg, MessageKind.PUBLISH_TAG)):
            if msg.kind is not kind:
                return self._rejected(round_index, AlarmReason.MALFORMED_PUBLICATION,
                                      int(msg.kind), len(msg.payload))
            if msg.round_index != round_index:
                return self._rejected(round_index, AlarmReason.ROUND_MISMATCH,
                                      round_index, msg.round_index)
        reading = model_msg
        try:
            m_cs, body = unpack_publication(model_msg.payload)
            w1pp = field.vec_from_raw(body)
            reading = tag_msg
            m_vs, body = unpack_publication(tag_msg.payload)
            b2p = tags.tag_from_bytes(body)
        except (WireError, field.FieldError):
            return self._rejected(round_index, AlarmReason.MALFORMED_PUBLICATION,
                                  int(reading.kind), len(reading.payload))
        if m_cs != m_vs:
            return self._rejected(round_index, AlarmReason.COUNT_MISMATCH, m_cs, m_vs)
        # Fail closed before any arithmetic on an aggregate that is not
        # ``words`` residues mod R.
        if w1pp.size != p.words:
            return self._rejected(round_index, AlarmReason.LENGTH_MISMATCH, p.words, w1pp.size)
        bad = field.first_non_canonical(w1pp, p.r)
        if bad is not None:
            return self._rejected(round_index, AlarmReason.NON_CANONICAL, bad, int(w1pp[bad]))
        expected = (expand_one(self.k_cg, round_index, p.r) + b2p) % p.r
        w_prime = field.vec_add(w1pp, expand(self.k_vg, round_index, p.words, p.r), p.r)
        if self._tag_key is not None and self._tag_key[0] == round_index:
            key_vec = self._tag_key[1]
            self._tag_key = None  # a d-word vector no later round reads
        else:
            key_vec = tags.derive_tag_key(self.k_v, round_index, p.words, p.r)
        computed = tags.gen_tag(w_prime, key_vec, p.r)
        if computed != expected:
            # State stays untouched; the caller surfaces the alarm.
            return self._rejected(round_index, AlarmReason.TAG_MISMATCH, expected, computed)
        # A weighted mean divides by the weight sum, the decoded last word.
        divisor = codec.decode(w_prime[-1:], p.codec, 1)[0] if p.weighted else m_cs
        model = codec.decode(w_prime[:p.dim], p.codec, divisor)
        self.current_model = model
        self.last_verified_round = round_index
        return ReconstructResult(model)


@dataclass
class _ServerRound:
    # Each user's share of the round: a model share at the CS, a tag share at the VS.
    shares: Dict[int, object] = dc_field(default_factory=dict)
    participants: Optional[Tuple[int, ...]] = None  # fixed once; no share is taken after


class _Server:
    """The one round state machine of the CS and the VS: round r runs from
    ``start_round(r)`` to the ``finalize`` that returns its publication.

    A subclass names the kinds of the shares, the reshare and the
    publication it handles, and defines ``_read(msg)``, the share or
    reshare a message of the right size carries, and ``_sum(terms)``, the
    bytes of the terms' sum mod R that it publishes.
    """

    _name: str    # "CS" or "VS"
    _sender: int  # sender id of every message the server builds
    _share_kind: MessageKind  # and _reshare_kind, _publish_kind

    def __init__(self, params: ProtocolParams, seed: KeyMaterial, payload_bytes: int):
        self.params = params
        self.seed = seed  # this server's half of the initial-model seed pair
        # Size of every share and reshare the server receives: d words at
        # the CS, one tag at the VS.
        self.payload_bytes = payload_bytes
        self.user_keys: Dict[int, KeyMaterial] = {}
        # {r: book} of the open round r, from start_round(r) until its
        # finalize or the next start_round; {} otherwise.
        self.rounds: Dict[int, _ServerRound] = {}
        self._last_started = 0  # round indices start at 1

    def register_user(self, uid: int, key: KeyMaterial) -> None:
        if uid in self.user_keys:
            raise ProtocolError(f"user id {uid} already registered at {self._name}")
        self.user_keys[uid] = key

    def start_round(self, round_index: int) -> None:
        """Open round ``round_index`` and drop a round left unfinished.  The
        round comes after every round started before: a reopened round could
        answer a second online list."""
        if round_index <= self._last_started:
            raise ProtocolError(f"{self._name} already started round "
                                f"{self._last_started}; got round {round_index}")
        self._last_started = round_index
        self.rounds = {round_index: _ServerRound()}

    def online_list(self, round_index: int) -> Message:
        """ONLINE_LIST of the open round to the peer: the users this server holds a share from."""
        return Message(MessageKind.ONLINE_LIST, round_index, self._sender,
                       pack_online_list(self.rounds[round_index].shares))

    def _open_round(self, msg: Message, kind: MessageKind,
                    size: Optional[int] = None) -> _ServerRound:
        """Book of the open round, once ``msg``'s kind, its round and, if
        ``size`` is given, its payload size pass."""
        if msg.kind is not kind:
            raise ProtocolError(f"{self._name} cannot accept {msg.kind.name}")
        if msg.round_index not in self.rounds:
            raise ProtocolError(f"{self._name} has no round {msg.round_index} open")
        if size is not None and len(msg.payload) != size:
            raise ProtocolError(f"{kind.name} from sender {msg.sender} has "
                                f"{len(msg.payload)} bytes, expected {size}")
        return self.rounds[msg.round_index]

    def receive_share(self, msg: Message) -> None:
        """Keep a new share of the open round from a registered user, in time."""
        state = self._open_round(msg, self._share_kind, self.payload_bytes)
        if msg.sender not in self.user_keys:
            raise ProtocolError(f"{self._name} has no key for user {msg.sender}")
        if state.participants is not None:
            raise ProtocolError(f"round {msg.round_index}: late share from user {msg.sender}")
        if msg.sender in state.shares:
            raise ProtocolError(
                f"round {msg.round_index}: duplicate share from user {msg.sender}")
        state.shares[msg.sender] = self._read(msg)

    def _fix_participants(self, peer_list: Message) -> Tuple[int, ...]:
        """Fix and return the round's participants: the peer's ONLINE_LIST
        intersected with this server's own received-from set."""
        state = self._open_round(peer_list, MessageKind.ONLINE_LIST)
        try:
            peer_ids = unpack_online_list(peer_list.payload)
        except WireError as exc:
            raise ProtocolError(f"{self._name} got a malformed online list: {exc}") from None
        if state.participants is not None:
            raise ProtocolError(f"round {peer_list.round_index}: {self._name} already fixed them")
        common = tuple(sorted(set(peer_ids) & set(state.shares)))
        if not common:
            raise ProtocolError(f"round {peer_list.round_index}: no user reached both servers")
        state.participants = common
        return common

    def finalize(self, reshare: Message) -> Message:
        """The publication of the open round: the participants' shares and
        the peer's reshare summed mod R, with the participant count m.

        A server finalizes only once it fixed the participants, and so sent
        its own reshare; the round then leaves, and no round is open.
        """
        state = self._open_round(reshare, self._reshare_kind, self.payload_bytes)
        if state.participants is None:
            raise ProtocolError(f"round {reshare.round_index}: {self._name} has fixed "
                                "no participants")
        terms = [state.shares[uid] for uid in state.participants] + [self._read(reshare)]
        self.rounds.clear()
        return Message(self._publish_kind, reshare.round_index, self._sender,
                       pack_publication(len(state.participants), self._sum(terms)))


class CsState(_Server):
    """Computation server: sums model shares, publishes w''_1 = sum_i w_i1 + w_t."""

    _name, _sender = "CS", 0
    _share_kind, _reshare_kind, _publish_kind = (
        MessageKind.MODEL_SHARE, MessageKind.RESHARE_MODEL, MessageKind.PUBLISH_MODEL)

    def __init__(self, params: ProtocolParams, k_cg: KeyMaterial,
                 k_cv: KeyMaterial, seed: KeyMaterial):
        super().__init__(params, seed, 8 * params.words)
        self.k_cg = k_cg
        self.k_cv = k_cv

    def _read(self, msg: Message) -> np.ndarray:
        vec = field.vec_from_raw(msg.payload)
        # The modular sum is exact only on canonical residues.
        if field.first_non_canonical(vec, self.params.r) is not None:
            raise ProtocolError(f"round {msg.round_index}: {msg.kind.name} from sender "
                                f"{msg.sender} holds non-canonical residues")
        return vec

    def _sum(self, terms: list) -> memoryview:
        return field.vec_to_raw(field.vec_sum(terms, self.params.r))

    def tag_aggregate(self, vs_list: Message) -> Tuple[Tuple[int, ...], Message]:
        """The participants fixed from the VS's ONLINE_LIST, and the answer
        RESHARE_TAG to the VS: b_t = sum of regenerated tag shares minus the
        global mask."""
        r, round_index = self.params.r, vs_list.round_index
        ids = self._fix_participants(vs_list)
        b1 = sum(expand_one(self.user_keys[uid], round_index, r) for uid in ids)
        b_t = (b1 - expand_one(self.k_cg, round_index, r)) % r
        return ids, Message(MessageKind.RESHARE_TAG, round_index, self._sender,
                            tags.tag_to_bytes(b_t))


class VsState(_Server):
    """Verification server: sums tag shares, publishes b'_2 = sum_i b_i2 + b_t."""

    _name, _sender = "VS", 1
    _share_kind, _reshare_kind, _publish_kind = (
        MessageKind.TAG_SHARE, MessageKind.RESHARE_TAG, MessageKind.PUBLISH_TAG)

    def __init__(self, params: ProtocolParams, k_vg: KeyMaterial,
                 k_vv: KeyMaterial, seed: KeyMaterial):
        super().__init__(params, seed, tags.TAG_BYTES)
        self.k_vg = k_vg
        self.k_vv = k_vv

    def _read(self, msg: Message) -> int:
        return tags.tag_from_bytes(msg.payload)

    def _sum(self, terms: list) -> bytes:
        return tags.tag_to_bytes(sum(terms) % self.params.r)

    def model_aggregate(self, cs_list: Message) -> Tuple[Tuple[int, ...], Message]:
        """The participants fixed from the CS's ONLINE_LIST, and the answer
        RESHARE_MODEL to the CS: w_t = sum of regenerated user masks minus the
        global mask."""
        p, round_index = self.params, cs_list.round_index
        ids = self._fix_participants(cs_list)
        # A generator: each mask is added and dropped before the next is made.
        total = field.vec_sum((expand(self.user_keys[uid], round_index, p.words, p.r)
                               for uid in ids), p.r)
        w_t = field.vec_sub(total, expand(self.k_vg, round_index, p.words, p.r), p.r)
        return ids, Message(MessageKind.RESHARE_MODEL, round_index, self._sender,
                            field.vec_to_raw(w_t))


def setup(n: int, params: ProtocolParams, rng=None):
    """Create the two servers, then enrol n users, each through ``join_new_user``.

    ``rng`` is an optional ``random.Random`` so tests can reproduce key
    bytes; without it keys come from the OS CSPRNG.
    """
    if n < 1:
        raise ProtocolError("need at least one user")
    gen = lambda: KeyMaterial.generate(rng)
    cs = CsState(params, k_cg=gen(), k_cv=gen(), seed=gen())
    vs = VsState(params, k_vg=gen(), k_vv=gen(), seed=gen())
    return [join_new_user(cs, vs, rng) for _ in range(n)], cs, vs


def join_new_user(cs: CsState, vs: VsState, rng=None) -> UserState:
    """Enrol a user, at setup or mid-training: the next id, fresh keys
    registered at both servers, and the servers' shared keys and seeds.

    Participants are registered users, so refusing a user past the codec's
    ``n_max`` keeps every round's sum of encodings from wrapping mod R.
    """
    uid = len(cs.user_keys)
    if uid >= cs.params.codec.n_max:
        raise ProtocolError(f"user {uid} would exceed the codec's n_max of "
                            f"{cs.params.codec.n_max} users")
    k_vi, k_ci = KeyMaterial.generate(rng), KeyMaterial.generate(rng)
    vs.register_user(uid, k_vi)
    cs.register_user(uid, k_ci)
    return UserState(uid, k_vi, k_ci, cs.k_cv, vs.k_vv, cs.k_cg, vs.k_vg,
                     cs.seed, vs.seed, cs.params)
