"""User, computation-server (CS), and verification-server (VS) state machines.

One aggregation round, with all arithmetic over Z_{R_w} for models and
Z_{R_b} for tags:

  Share        user i sends  w_i1 = enc(w_i) - F_{Kvi}(r)  to CS and
               b_i2 = tag(enc(w_i)) - F_{Kci}(r, 1)        to VS.
  Aggregate    servers intersect their received-from ID sets; VS sends
               w_t = sum_i F_{Kvi}(r) - F_{Kvg}(r) to CS, which publishes
               w''_1 = sum_i w_i1 + w_t together with m; CS sends
               b_t = sum_i F_{Kci}(r,1) - F_{Kcg}(r,1) to VS, which
               publishes b'_2 = sum_i b_i2 + b_t together with m.
  Reconstruct  each user adds its locally regenerated masks, checks the
               tag, and on success decodes the mean.

Users require the participant counts published by the two servers to
agree before decoding: the tag covers the sum but not the divisor, so a
lying CS could otherwise skew the mean undetected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import codec, field, sharing, tags
from .prf import KeyMaterial, concat_keys, expand
from .wire import Message, MessageKind, pack_publish_model, pack_publish_tag


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


class ParticipantMismatchError(ProtocolError):
    pass


class ParamDigestMismatchError(ProtocolError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    """Parameters every role must share identically."""

    r_w: int
    r_b: int
    dim: int
    codec: codec.CodecParams
    key_bytes: int = 16

    def digest(self) -> bytes:
        text = f"{self.r_w}|{self.r_b}|{self.dim}|{self.codec.delta}|" \
               f"{self.codec.n_max}|{self.codec.x_min}|{self.codec.x_max}|{self.key_bytes}"
        return hashlib.sha256(text.encode()).digest()


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


def init_model_from_seeds(s1: KeyMaterial, s2: KeyMaterial, dim: int, r_w: int) -> np.ndarray:
    """Initial model every user derives identically; neither seed alone fixes it."""
    return expand(concat_keys(s1, s2), 0, dim, r_w)


def load_pretrained_model(path, dim: int, r_w: int) -> np.ndarray:
    """Read a length-prefixed field vector from a trusted model file."""
    with open(path, "rb") as fh:
        vec = field.vec_from_bytes(fh.read())
    if vec.size != dim:
        raise ProtocolError(f"model file holds {vec.size} parameters, expected {dim}")
    if vec.size and int(vec.max()) >= r_w:
        raise ProtocolError("model file contains non-canonical residues")
    return vec


@dataclass
class ReconstructResult:
    round_index: int
    verified: bool
    model: Optional[np.ndarray]
    expected_tag: int
    computed_tag: int

    def alarm_message(self, sender: int) -> Message:
        from .wire import pack_alarm
        return Message(MessageKind.ALARM, self.round_index, sender,
                       pack_alarm(self.round_index, self.expected_tag, self.computed_tag))


class UserState:
    """One federated-learning participant."""

    def __init__(self, uid: int, k_vi: KeyMaterial, k_ci: KeyMaterial,
                 k_cv: KeyMaterial, k_vv: KeyMaterial,
                 k_cg: KeyMaterial, k_vg: KeyMaterial,
                 params: ProtocolParams):
        self.uid = uid
        self.k_vi = k_vi
        self.k_ci = k_ci
        self.k_cg = k_cg
        self.k_vg = k_vg
        self.k_v = concat_keys(k_cv, k_vv)
        self.params = params
        self.current_model: Optional[np.ndarray] = None
        self.last_verified_round: Optional[int] = None
        self._last_shared_round = 0
        # (round, key vector) of the last shared round, reused to verify it.
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
        share = sharing.share_with_prf(encoded, self.k_vi, round_index, p.r_w,
                                       holder=sharing.CS, origin=str(self.uid))
        key_vec = tags.derive_tag_key(self.k_v, round_index, p.dim, p.r_b)
        b_i = tags.gen_tag(encoded, key_vec, p.r_w, p.r_b)
        b_i1 = int(expand(self.k_ci, round_index, 1, p.r_b)[0])
        b_i2 = field.fe_sub(b_i, b_i1, p.r_b)
        self._last_shared_round = round_index
        self._tag_key = (round_index, key_vec)
        return (
            Message(MessageKind.MODEL_SHARE, round_index, self.uid,
                    field.vec_to_raw(share.data)),
            Message(MessageKind.TAG_SHARE, round_index, self.uid,
                    tags.tag_to_bytes(b_i2)),
        )

    def reconstruct_round(self, w1pp: np.ndarray, b2p: int,
                          m_cs: int, m_vs: int, round_index: int,
                          weighted: bool = False) -> ReconstructResult:
        """Unmask the published aggregate, check the tag, decode on success."""
        p = self.params
        if m_cs != m_vs:
            raise ParticipantMismatchError(
                f"round {round_index}: CS reports m={m_cs} but VS reports m={m_vs}")
        w_prime = field.vec_add(
            w1pp, expand(self.k_vg, round_index, p.dim, p.r_w), p.r_w)
        b1p = int(expand(self.k_cg, round_index, 1, p.r_b)[0])
        expected = field.fe_add(b1p, b2p, p.r_b)
        if self._tag_key is not None and self._tag_key[0] == round_index:
            key_vec = self._tag_key[1]
        else:
            key_vec = tags.derive_tag_key(self.k_v, round_index, p.dim, p.r_b)
        computed = tags.gen_tag(w_prime, key_vec, p.r_w, p.r_b)
        if computed != expected:
            # State stays untouched; the caller surfaces the alarm.
            return ReconstructResult(round_index, False, None, expected, computed)
        if weighted:
            signed = field.vec_to_signed(w_prime, p.r_w).astype(np.float64)
            weight_sum = signed[-1] / p.codec.delta
            model = signed[:-1] / p.codec.delta / weight_sum
        else:
            model = codec.decode(w_prime, p.codec, m_cs)
        self.current_model = model
        self.last_verified_round = round_index
        return ReconstructResult(round_index, True, model, expected, computed)

    def recovered_weight_sum(self, w1pp: np.ndarray, round_index: int) -> float:
        """Weight-sum coordinate of a weighted-round aggregate (exact for integral weights)."""
        p = self.params
        w_prime = field.vec_add(
            w1pp, expand(self.k_vg, round_index, p.dim, p.r_w), p.r_w)
        return float(field.to_signed(int(w_prime[-1]), p.r_w)) / p.codec.delta


def _prune(rounds: Dict[int, object], round_index: int) -> None:
    """Forget every round before ``round_index``, which is now finalized."""
    for r in [r for r in rounds if r < round_index]:
        del rounds[r]


def _check_open(server: str, round_index: int, finalized: int) -> None:
    if round_index <= finalized:
        raise StaleRoundError(
            f"{server} already finalized round {finalized}; got round {round_index}")


@dataclass
class _CsRound:
    shares: Dict[int, np.ndarray] = dc_field(default_factory=dict)
    published: Optional[np.ndarray] = None
    m: Optional[int] = None


class CsState:
    """Computation server: collects model shares, publishes the model aggregate."""

    def __init__(self, params: ProtocolParams, k_cg: KeyMaterial,
                 k_cv: KeyMaterial, seed: KeyMaterial):
        self.params = params
        self.k_cg = k_cg
        self.k_cv = k_cv
        self.seed = seed  # s1, half of the initial-model seed pair
        self.user_keys: Dict[int, KeyMaterial] = {}
        # Open rounds, plus the last finalized round without its shares.
        self.rounds: Dict[int, _CsRound] = {}
        self.finalized_round = 0

    def register_user(self, uid: int, k_ci: KeyMaterial) -> None:
        if uid in self.user_keys:
            raise DuplicateIdError(f"user id {uid} already registered at CS")
        self.user_keys[uid] = k_ci

    def receive_share(self, msg: Message) -> None:
        if msg.kind is not MessageKind.MODEL_SHARE:
            raise ProtocolError(f"CS cannot accept {msg.kind.name}")
        _check_open("CS", msg.round_index, self.finalized_round)
        state = self.rounds.setdefault(msg.round_index, _CsRound())
        if msg.sender in state.shares:
            raise DuplicateShareError(
                f"round {msg.round_index}: duplicate share from user {msg.sender}")
        vec = field.vec_from_raw(msg.payload)
        if vec.size != self.params.dim:
            raise ProtocolError(
                f"share from user {msg.sender} has {vec.size} elements, "
                f"expected {self.params.dim}")
        # The lazy modular sum in finalize_model relies on canonical residues.
        if vec.size and int(vec.max()) >= self.params.r_w:
            raise ProtocolError(f"share from user {msg.sender} holds non-canonical residues")
        state.shares[msg.sender] = vec

    def online_ids(self, round_index: int) -> List[int]:
        state = self.rounds.get(round_index)
        return sorted(state.shares) if state else []

    def finalize_model(self, ctx: RoundContext, w_t: np.ndarray) -> Tuple[np.ndarray, int]:
        """w''_1 = sum of participant shares + w_t, published with m."""
        p = self.params
        _check_open("CS", ctx.round_index, self.finalized_round)
        state = self.rounds.setdefault(ctx.round_index, _CsRound())
        missing = [uid for uid in ctx.participants if uid not in state.shares]
        if missing:
            raise MissingShareError(
                f"round {ctx.round_index}: no model share from users {missing}")
        w1p = field.vec_sum((state.shares[uid] for uid in ctx.participants), p.r_w)
        w1pp = field.vec_add(w1p, w_t, p.r_w)
        state.published = w1pp
        state.m = ctx.m
        state.shares = {}
        _prune(self.rounds, ctx.round_index)
        self.finalized_round = ctx.round_index
        return w1pp, ctx.m

    def tag_aggregate(self, ctx: RoundContext) -> int:
        """b_t = sum of regenerated per-user tag shares minus the global mask."""
        p = self.params
        b1 = 0
        for uid in ctx.participants:
            if uid not in self.user_keys:
                raise UnknownParticipantError(f"CS has no key for user {uid}")
            b1 = field.fe_add(
                b1, int(expand(self.user_keys[uid], ctx.round_index, 1, p.r_b)[0]), p.r_b)
        b1p = int(expand(self.k_cg, ctx.round_index, 1, p.r_b)[0])
        return field.fe_sub(b1, b1p, p.r_b)

    def publish_model_message(self, round_index: int) -> Message:
        state = self.rounds[round_index]
        if state.published is None:
            raise ProtocolError(f"round {round_index} not finalized at CS")
        return Message(MessageKind.PUBLISH_MODEL, round_index, 0,
                       pack_publish_model(state.m, state.published))


@dataclass
class _VsRound:
    tag_shares: Dict[int, int] = dc_field(default_factory=dict)
    published: Optional[int] = None
    m: Optional[int] = None


class VsState:
    """Verification server: regenerates model shares, publishes the tag aggregate."""

    def __init__(self, params: ProtocolParams, k_vg: KeyMaterial,
                 k_vv: KeyMaterial, seed: KeyMaterial):
        self.params = params
        self.k_vg = k_vg
        self.k_vv = k_vv
        self.seed = seed  # s2
        self.user_keys: Dict[int, KeyMaterial] = {}
        # Open rounds, plus the last finalized round without its shares.
        self.rounds: Dict[int, _VsRound] = {}
        self.finalized_round = 0

    def register_user(self, uid: int, k_vi: KeyMaterial) -> None:
        if uid in self.user_keys:
            raise DuplicateIdError(f"user id {uid} already registered at VS")
        self.user_keys[uid] = k_vi

    def receive_tag_share(self, msg: Message) -> None:
        if msg.kind is not MessageKind.TAG_SHARE:
            raise ProtocolError(f"VS cannot accept {msg.kind.name}")
        _check_open("VS", msg.round_index, self.finalized_round)
        state = self.rounds.setdefault(msg.round_index, _VsRound())
        if msg.sender in state.tag_shares:
            raise DuplicateShareError(
                f"round {msg.round_index}: duplicate tag share from user {msg.sender}")
        state.tag_shares[msg.sender] = tags.tag_from_bytes(msg.payload)

    def online_ids(self, round_index: int) -> List[int]:
        state = self.rounds.get(round_index)
        return sorted(state.tag_shares) if state else []

    def model_aggregate(self, ctx: RoundContext) -> np.ndarray:
        """w_t = sum of regenerated user masks minus the global mask, sent to CS."""
        p = self.params
        for uid in ctx.participants:
            if uid not in self.user_keys:
                raise UnknownParticipantError(f"VS has no key for user {uid}")
        # A generator: each mask is added and dropped before the next is made.
        total = field.vec_sum((expand(self.user_keys[uid], ctx.round_index, p.dim, p.r_w)
                               for uid in ctx.participants), p.r_w)
        global_mask = expand(self.k_vg, ctx.round_index, p.dim, p.r_w)
        return field.vec_sub(total, global_mask, p.r_w)

    def finalize_tag(self, ctx: RoundContext, b_t: int) -> Tuple[int, int]:
        """b'_2 = sum of participant tag shares + b_t, published with m."""
        p = self.params
        _check_open("VS", ctx.round_index, self.finalized_round)
        state = self.rounds.setdefault(ctx.round_index, _VsRound())
        missing = [uid for uid in ctx.participants if uid not in state.tag_shares]
        if missing:
            raise MissingShareError(
                f"round {ctx.round_index}: no tag share from users {missing}")
        b2 = 0
        for uid in ctx.participants:
            b2 = field.fe_add(b2, state.tag_shares[uid], p.r_b)
        b2p = field.fe_add(b2, b_t, p.r_b)
        state.published = b2p
        state.m = ctx.m
        state.tag_shares = {}
        _prune(self.rounds, ctx.round_index)
        self.finalized_round = ctx.round_index
        return b2p, ctx.m

    def publish_tag_message(self, round_index: int) -> Message:
        state = self.rounds[round_index]
        if state.published is None:
            raise ProtocolError(f"round {round_index} not finalized at VS")
        return Message(MessageKind.PUBLISH_TAG, round_index, 1,
                       pack_publish_tag(state.m, state.published))


def check_param_digest(*roles) -> None:
    """All roles must agree on protocol parameters before any round runs."""
    digests = {r.params.digest() for r in roles}
    if len(digests) != 1:
        raise ParamDigestMismatchError("protocol parameter digests disagree across roles")


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
    users = []
    for uid in range(n):
        k_vi, k_ci = gen(), gen()
        vs.register_user(uid, k_vi)
        cs.register_user(uid, k_ci)
        users.append(UserState(uid, k_vi, k_ci, cs.k_cv, vs.k_vv,
                               cs.k_cg, vs.k_vg, params))
    check_param_digest(cs, vs, *users)
    initial = init_model_from_seeds(cs.seed, vs.seed, params.dim, params.r_w)
    for u in users:
        u.initial_model = initial.copy()
    return users, cs, vs


def join_new_user(cs: CsState, vs: VsState, rng=None) -> UserState:
    """Mid-training join: fetch shared keys from the servers, register fresh ones."""
    existing = set(cs.user_keys) | set(vs.user_keys)
    uid = max(existing) + 1 if existing else 0
    k_co = KeyMaterial.generate(rng)
    k_vo = KeyMaterial.generate(rng)
    cs.register_user(uid, k_co)
    vs.register_user(uid, k_vo)
    user = UserState(uid, k_vo, k_co, cs.k_cv, vs.k_vv, cs.k_cg, vs.k_vg, cs.params)
    user.initial_model = init_model_from_seeds(
        cs.seed, vs.seed, cs.params.dim, cs.params.r_w)
    return user
