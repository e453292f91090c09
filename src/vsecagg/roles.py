"""User, computation-server (CS), and verification-server (VS) state machines.

One aggregation round, with all arithmetic of models and tags over Z_R
for one prime R, the codec's modulus:

  Share        user i sends  w_i1 = enc(w_i) - F_{Kvi}(r)  to CS and
               b_i2 = tag(enc(w_i)) - F_{Kci}(r, 1)        to VS.
  Aggregate    servers intersect their received-from ID sets; VS sends
               w_t = sum_i F_{Kvi}(r) - F_{Kvg}(r) to CS, which publishes
               w''_1 = sum_i w_i1 + w_t together with m; CS sends
               b_t = sum_i F_{Kci}(r,1) - F_{Kcg}(r,1) to VS, which
               publishes b'_2 = sum_i b_i2 + b_t together with m.
  Reconstruct  each user adds its locally regenerated masks, checks the
               tag, and on success decodes the mean.

Each role builds the messages it sends and reads the messages it
receives: the shares, the reshares w_t and b_t, and both publications.
The CS and VS keep their round bookkeeping and checks in one shared
base.

Users require the participant counts published by the two servers to
agree before decoding: the tag covers the sum but not the divisor, so a
lying CS could otherwise skew the mean undetected.  Counts that disagree
are a COUNT_MISMATCH alarm, a publication of the wrong kind or that does
not parse a MALFORMED_PUBLICATION alarm, and one of another round a
ROUND_MISMATCH alarm, each returned like every other failed check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import codec, field, sharing, tags
from .prf import KeyMaterial, concat_keys, expand, expand_one
from .wire import (AlarmReason, Message, MessageKind, WireError, pack_publish_model,
                   pack_publish_tag, unpack_publish_model, unpack_publish_tag)


class ProtocolError(Exception):
    pass


class DuplicateIdError(ProtocolError):
    pass


class DuplicateShareError(ProtocolError):
    pass


class StaleRoundError(ProtocolError):
    pass


class MissingShareError(ProtocolError):
    pass


class EmptyIntersectionError(ProtocolError):
    pass


class UnknownParticipantError(ProtocolError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    """Parameters every role must share identically."""

    dim: int
    codec: codec.CodecParams

    @property
    def r(self) -> int:
        """The one prime R of models and tags: the codec's modulus."""
        return self.codec.r_w


@dataclass(frozen=True)
class RoundContext:
    """Finalized participant set of one round."""

    round_index: int
    participants: Tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.participants)


def intersect_online(cs_ids: Iterable[int], vs_ids: Iterable[int],
                     round_index: int) -> RoundContext:
    """Sorted intersection of the servers' received-from sets."""
    common = sorted(set(cs_ids) & set(vs_ids))
    if not common:
        raise EmptyIntersectionError(f"round {round_index}: no user reached both servers")
    return RoundContext(round_index, tuple(common))


def _require_canonical(vec: np.ndarray, r: int, what: str) -> None:
    # The modular sum, add and subtract are exact only on canonical residues.
    if field.first_non_canonical(vec, r) is not None:
        raise ProtocolError(f"{what} holds non-canonical residues")


@functools.lru_cache(maxsize=1)
def init_model_from_seeds(s1: KeyMaterial, s2: KeyMaterial, dim: int, r: int) -> np.ndarray:
    """Initial model every user derives identically; neither seed alone fixes it.

    Read-only, so one array is shared by every user, joiners included:
    the last one derived is kept and returned again for the same seeds.
    """
    model = expand(concat_keys(s1, s2), 0, dim, r)
    model.setflags(write=False)
    return model


@dataclass
class ReconstructResult:
    round_index: int
    verified: bool
    model: Optional[np.ndarray]
    # Set when not verified: the check that fired and its two values.
    alarm: Optional[Tuple[AlarmReason, int, int]] = None


def _rejected(round_index: int, reason: AlarmReason, first: int,
              second: int) -> ReconstructResult:
    return ReconstructResult(round_index, False, None, (reason, first, second))


class UserState:
    """One federated-learning participant."""

    def __init__(self, uid: int, k_vi: KeyMaterial, k_ci: KeyMaterial,
                 k_cv: KeyMaterial, k_vv: KeyMaterial,
                 k_cg: KeyMaterial, k_vg: KeyMaterial,
                 params: ProtocolParams, initial_model: np.ndarray):
        self.uid = uid
        self.k_vi = k_vi
        self.k_ci = k_ci
        self.k_cg = k_cg
        self.k_vg = k_vg
        self.k_v = concat_keys(k_cv, k_vv)
        self.params = params
        self.initial_model = initial_model
        self.current_model: Optional[np.ndarray] = None
        self.last_verified_round: Optional[int] = None
        self._last_shared_round = 0
        # (round, key vector) of the last shared round, reused once to verify it.
        self._tag_key: Optional[Tuple[int, np.ndarray]] = None

    def _encode_update(self, update, weight: Optional[float]) -> np.ndarray:
        p = self.params
        if weight is None:
            return codec.encode(update, p.codec)
        if weight <= 0:
            raise ProtocolError(f"aggregation weight must be positive, got {weight}")
        # Weighted path: the weight rides along as one extra parameter so
        # users can recover the weight sum and divide by it.
        scaled = np.append(np.asarray(update, dtype=np.float64) * weight, weight)
        return codec.encode(scaled, p.codec)

    def share_round(self, update, round_index: int,
                    weight: Optional[float] = None) -> Tuple[Message, Message]:
        """Produce the round's MODEL_SHARE (to CS) and TAG_SHARE (to VS)."""
        p = self.params
        if round_index <= self._last_shared_round:
            raise StaleRoundError(
                f"user {self.uid} already shared round {self._last_shared_round}; "
                f"got round {round_index}")
        encoded = self._encode_update(update, weight)
        if encoded.size != p.dim:
            raise ProtocolError(f"update has {encoded.size} parameters, expected {p.dim}")
        share = sharing.share_with_prf(encoded, self.k_vi, round_index, p.r)
        key_vec = tags.derive_tag_key(self.k_v, round_index, p.dim, p.r)
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

    def reconstruct_round(self, model_msg: Message, tag_msg: Message, round_index: int,
                          weighted: bool = False) -> ReconstructResult:
        """Read both publications, unmask the aggregate, check the tag, decode on success."""
        p = self.params
        for msg, kind in ((model_msg, MessageKind.PUBLISH_MODEL),
                          (tag_msg, MessageKind.PUBLISH_TAG)):
            if msg.kind is not kind:
                return _rejected(round_index, AlarmReason.MALFORMED_PUBLICATION,
                                 int(msg.kind), len(msg.payload))
            if msg.round_index != round_index:
                return _rejected(round_index, AlarmReason.ROUND_MISMATCH,
                                 round_index, msg.round_index)
        reading = model_msg
        try:
            m_cs, w1pp = unpack_publish_model(model_msg.payload)
            reading = tag_msg
            m_vs, b2p = unpack_publish_tag(tag_msg.payload)
        except WireError:
            return _rejected(round_index, AlarmReason.MALFORMED_PUBLICATION,
                             int(reading.kind), len(reading.payload))
        if m_cs != m_vs:
            return _rejected(round_index, AlarmReason.COUNT_MISMATCH, m_cs, m_vs)
        # Fail closed before any arithmetic on an aggregate that is not d
        # residues mod R.
        if w1pp.size != p.dim:
            return _rejected(round_index, AlarmReason.LENGTH_MISMATCH, p.dim, int(w1pp.size))
        bad = field.first_non_canonical(w1pp, p.r)
        if bad is not None:
            return _rejected(round_index, AlarmReason.NON_CANONICAL, bad, int(w1pp[bad]))
        expected = (expand_one(self.k_cg, round_index, p.r) + b2p) % p.r
        w_prime = field.vec_add(w1pp, expand(self.k_vg, round_index, p.dim, p.r), p.r)
        if self._tag_key is not None and self._tag_key[0] == round_index:
            key_vec = self._tag_key[1]
            self._tag_key = None  # a d-word vector no later round reads
        else:
            key_vec = tags.derive_tag_key(self.k_v, round_index, p.dim, p.r)
        computed = tags.gen_tag(w_prime, key_vec, p.r)
        if computed != expected:
            # State stays untouched; the caller surfaces the alarm.
            return _rejected(round_index, AlarmReason.TAG_MISMATCH, expected, computed)
        if weighted:
            signed = field.vec_to_signed(w_prime, p.r)
            weight_sum = signed[-1] / p.codec.delta
            # One division, as in codec.decode: delta * weight_sum is exact.
            model = signed[:-1] / (p.codec.delta * weight_sum)
        else:
            model = codec.decode(w_prime, p.codec, m_cs)
        self.current_model = model
        self.last_verified_round = round_index
        return ReconstructResult(round_index, True, model)


@dataclass
class _ServerRound:
    # Each user's share of the round: a model share at the CS, a tag share at the VS.
    shares: Dict[int, object] = dc_field(default_factory=dict)
    published: Optional[object] = None
    m: Optional[int] = None


class _Server:
    """Round bookkeeping and checks that the CS and VS share."""

    _name: str    # "CS" or "VS"
    _sender: int  # sender id of every message the server builds

    def __init__(self, params: ProtocolParams, seed: KeyMaterial, payload_bytes: int):
        self.params = params
        self.seed = seed  # this server's half of the initial-model seed pair
        # Size of every share and reshare the server receives: d words at
        # the CS, one tag at the VS.
        self.payload_bytes = payload_bytes
        self.user_keys: Dict[int, KeyMaterial] = {}
        # Open rounds, plus the last finalized round without its shares.
        self.rounds: Dict[int, _ServerRound] = {}
        self.finalized_round = 0

    def register_user(self, uid: int, key: KeyMaterial) -> None:
        if uid in self.user_keys:
            raise DuplicateIdError(f"user id {uid} already registered at {self._name}")
        self.user_keys[uid] = key

    def online_ids(self, round_index: int) -> List[int]:
        state = self.rounds.get(round_index)
        return sorted(state.shares) if state else []

    def _round_of(self, msg: Message, kind: MessageKind) -> Optional[_ServerRound]:
        """State of the open round ``msg`` belongs to, once its kind, round and
        payload size pass; None while that round holds no share."""
        if msg.kind is not kind:
            raise ProtocolError(f"{self._name} cannot accept {msg.kind.name}")
        if msg.round_index <= self.finalized_round:
            raise StaleRoundError(f"{self._name} already finalized round "
                                  f"{self.finalized_round}; got round {msg.round_index}")
        if len(msg.payload) != self.payload_bytes:
            raise ProtocolError(f"{kind.name} from sender {msg.sender} has "
                                f"{len(msg.payload)} bytes, expected {self.payload_bytes}")
        return self.rounds.get(msg.round_index)

    def _check_share(self, msg: Message, kind: MessageKind) -> None:
        """Raise unless ``msg`` is a new user share."""
        state = self._round_of(msg, kind)
        if state is not None and msg.sender in state.shares:
            raise DuplicateShareError(
                f"round {msg.round_index}: duplicate share from user {msg.sender}")

    def _keep_share(self, msg: Message, share) -> None:
        """Keep a share that passed every check; the first one opens its round."""
        self.rounds.setdefault(msg.round_index, _ServerRound()).shares[msg.sender] = share

    def _participant_shares(self, ctx: RoundContext, reshare: Message,
                            kind: MessageKind) -> list:
        """Every participant's share, once ``reshare`` passed the checks of a share."""
        if reshare.round_index != ctx.round_index:
            raise ProtocolError(f"{self._name} got a reshare of round {reshare.round_index} "
                                f"for round {ctx.round_index}")
        state = self._round_of(reshare, kind)
        shares = state.shares if state else {}
        missing = [uid for uid in ctx.participants if uid not in shares]
        if missing:
            raise MissingShareError(
                f"round {ctx.round_index}: {self._name} has no share from users {missing}")
        return [shares[uid] for uid in ctx.participants]

    def _known_keys(self, ctx: RoundContext) -> List[KeyMaterial]:
        for uid in ctx.participants:
            if uid not in self.user_keys:
                raise UnknownParticipantError(f"{self._name} has no key for user {uid}")
        return [self.user_keys[uid] for uid in ctx.participants]

    def _finalize(self, ctx: RoundContext, published) -> None:
        """Keep the round's publication; drop its shares and every earlier round."""
        state = self.rounds[ctx.round_index]
        state.published = published
        state.m = ctx.m
        state.shares = {}
        for r in [r for r in self.rounds if r < ctx.round_index]:
            del self.rounds[r]
        self.finalized_round = ctx.round_index

    def _publication(self, round_index: int, kind: MessageKind, pack) -> Message:
        state = self.rounds[round_index]
        if state.published is None:
            raise ProtocolError(f"round {round_index} not finalized at {self._name}")
        return Message(kind, round_index, self._sender, pack(state.m, state.published))


class CsState(_Server):
    """Computation server: collects model shares, publishes the model aggregate."""

    _name, _sender = "CS", 0

    def __init__(self, params: ProtocolParams, k_cg: KeyMaterial,
                 k_cv: KeyMaterial, seed: KeyMaterial):
        super().__init__(params, seed, 8 * params.dim)
        self.k_cg = k_cg
        self.k_cv = k_cv

    def receive_share(self, msg: Message) -> None:
        self._check_share(msg, MessageKind.MODEL_SHARE)
        vec = field.vec_from_raw(msg.payload)
        _require_canonical(vec, self.params.r, f"share from user {msg.sender}")
        self._keep_share(msg, vec)

    def finalize_model(self, ctx: RoundContext, reshare: Message) -> None:
        """w''_1 = sum of participant shares + w_t from the VS's RESHARE_MODEL, kept with m."""
        p = self.params
        shares = self._participant_shares(ctx, reshare, MessageKind.RESHARE_MODEL)
        w_t = field.vec_from_raw(reshare.payload)
        _require_canonical(w_t, p.r, f"round {ctx.round_index}: reshare w_t from the VS")
        self._finalize(ctx, field.vec_add(field.vec_sum(shares, p.r), w_t, p.r))

    def tag_aggregate(self, ctx: RoundContext) -> Message:
        """RESHARE_TAG to the VS: b_t = sum of regenerated tag shares minus the global mask."""
        r, round_index = self.params.r, ctx.round_index
        b1 = sum(expand_one(key, round_index, r) for key in self._known_keys(ctx))
        b_t = (b1 - expand_one(self.k_cg, round_index, r)) % r
        return Message(MessageKind.RESHARE_TAG, ctx.round_index, self._sender,
                       tags.tag_to_bytes(b_t))

    def publish_model_message(self, round_index: int) -> Message:
        return self._publication(round_index, MessageKind.PUBLISH_MODEL, pack_publish_model)


class VsState(_Server):
    """Verification server: regenerates model shares, publishes the tag aggregate."""

    _name, _sender = "VS", 1

    def __init__(self, params: ProtocolParams, k_vg: KeyMaterial,
                 k_vv: KeyMaterial, seed: KeyMaterial):
        super().__init__(params, seed, tags.TAG_BYTES)
        self.k_vg = k_vg
        self.k_vv = k_vv

    def receive_tag_share(self, msg: Message) -> None:
        self._check_share(msg, MessageKind.TAG_SHARE)
        self._keep_share(msg, tags.tag_from_bytes(msg.payload))

    def model_aggregate(self, ctx: RoundContext) -> Message:
        """RESHARE_MODEL to the CS: w_t = sum of regenerated user masks minus the global mask."""
        p = self.params
        # A generator: each mask is added and dropped before the next is made.
        total = field.vec_sum((expand(key, ctx.round_index, p.dim, p.r)
                               for key in self._known_keys(ctx)), p.r)
        w_t = field.vec_sub(total, expand(self.k_vg, ctx.round_index, p.dim, p.r), p.r)
        return Message(MessageKind.RESHARE_MODEL, ctx.round_index, self._sender,
                       field.vec_to_raw(w_t))

    def finalize_tag(self, ctx: RoundContext, reshare: Message) -> None:
        """b'_2 = sum of participant tag shares + b_t from the CS's RESHARE_TAG, kept with m."""
        b2 = sum(self._participant_shares(ctx, reshare, MessageKind.RESHARE_TAG))
        self._finalize(ctx, (b2 + tags.tag_from_bytes(reshare.payload)) % self.params.r)

    def publish_tag_message(self, round_index: int) -> Message:
        return self._publication(round_index, MessageKind.PUBLISH_TAG, pack_publish_tag)


def _enroll(cs: CsState, vs: VsState, uid: int, initial: np.ndarray, rng) -> UserState:
    """A user with fresh keys, registered at both servers."""
    k_vi, k_ci = KeyMaterial.generate(rng), KeyMaterial.generate(rng)
    vs.register_user(uid, k_vi)
    cs.register_user(uid, k_ci)
    return UserState(uid, k_vi, k_ci, cs.k_cv, vs.k_vv, cs.k_cg, vs.k_vg, cs.params, initial)


def setup(n: int, params: ProtocolParams, rng=None):
    """Create n users and the two servers, distribute keys, derive the initial model.

    ``rng`` is an optional ``random.Random`` so tests can reproduce key
    bytes; without it keys come from the OS CSPRNG.
    """
    if n < 1:
        raise ProtocolError("need at least one user")
    gen = lambda: KeyMaterial.generate(rng)
    cs = CsState(params, k_cg=gen(), k_cv=gen(), seed=gen())
    vs = VsState(params, k_vg=gen(), k_vv=gen(), seed=gen())
    initial = init_model_from_seeds(cs.seed, vs.seed, params.dim, params.r)
    return [_enroll(cs, vs, uid, initial, rng) for uid in range(n)], cs, vs


def join_new_user(cs: CsState, vs: VsState, rng=None) -> UserState:
    """Mid-training join: fetch shared keys from the servers, register fresh ones."""
    existing = set(cs.user_keys) | set(vs.user_keys)
    uid = max(existing) + 1 if existing else 0
    initial = init_model_from_seeds(cs.seed, vs.seed, cs.params.dim, cs.params.r)
    return _enroll(cs, vs, uid, initial, rng)
