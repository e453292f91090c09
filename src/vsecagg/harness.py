"""Multi-round simulation driver, adversary injection, oracles, and stage timings.

Synthetic update vectors (uniform in [-1, 1] by default) stand in for
locally trained models: the aggregation math is exercised in full
without any ML machinery.  All randomness forks deterministically from
the master seed, so two runs with the same config produce identical
transcripts apart from wall-clock fields.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import codec, field, roles, tags
from .field import FieldModulus, find_prime_below
from .roles import (CsState, ProtocolParams, RoundContext, UserState, VsState,
                    intersect_online, setup)
from .wire import (AlarmReason, MemoryLink, Message, MessageKind, TrafficLedger,
                   pack_online_list, socket_link_pair, unpack_online_list)


class ConfigError(ValueError):
    pass


def _bumped(vec: np.ndarray, coord: int, magnitude: int, r: int) -> np.ndarray:
    """A copy of ``vec`` with a nonzero offset added at ``coord``, mod r."""
    out = vec.copy()
    out[coord] = (out[coord] + np.uint64(magnitude % r or 1)) % np.uint64(r)
    return out


def _tamper_model_share(cs: CsState, ctx: RoundContext, rng: random.Random,
                        magnitude: int) -> None:
    shares = cs.rounds[ctx.round_index].shares
    victim = ctx.participants[rng.randrange(ctx.m)]
    shares[victim] = _bumped(shares[victim], rng.randrange(cs.params.dim), magnitude,
                             cs.params.r)


def _drop_participant(cs: CsState, ctx: RoundContext, rng: random.Random,
                      magnitude: int) -> None:
    # The CS claims the victim participated but omits its share from the sum.
    victim = ctx.participants[rng.randrange(ctx.m)]
    rng.randrange(cs.params.dim)  # the coordinate draw of a share attack
    cs.rounds[ctx.round_index].shares[victim] = np.zeros(cs.params.dim, dtype=np.uint64)


def _tamper_aggregate(cs: CsState, ctx: RoundContext, rng: random.Random,
                      magnitude: int) -> None:
    state = cs.rounds[ctx.round_index]
    state.published = _bumped(state.published, rng.randrange(cs.params.dim), magnitude,
                              cs.params.r)


def _lie_about_m(cs: CsState, ctx: RoundContext, rng: random.Random,
                 magnitude: int) -> None:
    cs.rounds[ctx.round_index].m += max(1, magnitude)


def _forge_tag(vs: VsState, ctx: RoundContext, rng: random.Random,
               magnitude: int) -> None:
    vs.rounds[ctx.round_index].published = rng.randrange(vs.params.r)


@dataclass(frozen=True)
class Attack:
    server: str   # "cs" or "vs": the server that performs it
    stage: str    # the step of run_round it follows
    apply: Callable[..., None]  # (server, ctx, rng, magnitude): changes the round state


# Every modelled attack; run_round knows none of them by name.
ADVERSARY_ACTIONS = {
    "tamper_model_share": Attack("cs", "intersect", _tamper_model_share),
    "tamper_aggregate": Attack("cs", "finalize_model", _tamper_aggregate),
    "drop_participant": Attack("cs", "intersect", _drop_participant),
    "lie_about_m": Attack("cs", "finalize_model", _lie_about_m),
    "forge_tag": Attack("vs", "finalize_tag", _forge_tag),
}


def supported_adversaries() -> str:
    """The target:action pairs of ADVERSARY_ACTIONS, comma-separated."""
    return ", ".join(f"{attack.server}:{action}" for action, attack in ADVERSARY_ACTIONS.items())


@dataclass(frozen=True)
class AdversarySpec:
    """One malicious-server action, applied once at the given round."""

    target: str            # the server that performs the action
    action: str
    round_index: int
    magnitude: int = 1     # field offset for tampering actions

    def __post_init__(self) -> None:
        attack = ADVERSARY_ACTIONS.get(self.action)
        if attack is None or attack.server != self.target:
            raise ConfigError(f"unsupported adversary {self.target}:{self.action}; "
                              f"supported: {supported_adversaries()}")

    @classmethod
    def parse(cls, text: str) -> "AdversarySpec":
        """Parse 'target:action:round[:magnitude]'."""
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"adversary spec {text!r} must be target:action:round[:magnitude]")
        try:
            numbers = [int(part) for part in parts[2:]]
        except ValueError:
            raise ConfigError(f"adversary spec {text!r}: round and magnitude must be integers") \
                from None
        return cls(parts[0], parts[1], *numbers)


@dataclass(frozen=True)
class RunConfig:
    users: int = 3
    dim: int = 2
    rounds: int = 1
    dropout: float = 0.0
    seed: int = 0
    prime_bits: int = 60
    delta_exp: int = 40
    mode: str = "memory"           # "memory" or "socket"
    adversary: Optional[AdversarySpec] = None
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.users < 1 or self.dim < 1 or self.rounds < 1:
            raise ConfigError("users, dim, and rounds must all be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout rate must lie in [0, 1)")
        if self.mode not in ("memory", "socket"):
            raise ConfigError(f"mode must be memory or socket, got {self.mode!r}")
        if self.weights is not None and len(self.weights) != self.users:
            raise ConfigError("weights vector length must equal the user count")
        if not 1 <= self.prime_bits < field.MAX_MODULUS_BITS:
            raise ConfigError(f"prime bits must lie in [1, {field.MAX_MODULUS_BITS - 1}]")
        if not 0 <= self.delta_exp <= field.MAX_MODULUS_BITS:
            raise ConfigError(f"delta exponent must lie in [0, {field.MAX_MODULUS_BITS}]")


@dataclass(frozen=True)
class Alarm:
    """A participant's rejection of a round: the check that fired and its two values."""

    round_index: int
    uid: int
    reason: AlarmReason
    first: int
    second: int


# The stages run_round times, in the order a round runs them.
STAGES = ("share", "vs_aggregate", "cs_aggregate", "eval", "verify")


@dataclass
class RoundRecord:
    round_index: int
    participants: Tuple[int, ...]
    aborted: bool = False
    verified: bool = False
    adversarial: bool = False
    detected: bool = False
    oracle_deviation: float = 0.0
    wall_time: float = 0.0  # seconds in the run_round call
    # Stage name -> seconds of each call in that stage (see run_round).
    spans: Dict[str, List[float]] = dc_field(default_factory=dict)


@dataclass
class MetricsReport:
    config: RunConfig
    r: int
    rounds: List[RoundRecord] = dc_field(default_factory=list)
    ledger: TrafficLedger = dc_field(default_factory=TrafficLedger)
    alarms: List[Alarm] = dc_field(default_factory=list)

    @property
    def exit_ok(self) -> bool:
        for rec in self.rounds:
            if rec.aborted:
                continue
            if rec.adversarial and not rec.detected:
                return False
            if not rec.adversarial and not rec.verified:
                return False
        return True

    @property
    def max_oracle_deviation(self) -> float:
        devs = [r.oracle_deviation for r in self.rounds if r.verified]
        return max(devs) if devs else 0.0

    def stage_ms(self, stage: str) -> Optional[float]:
        """Median milliseconds of ``stage``'s spans over every round that ran, or None."""
        spans = [s for rec in self.rounds for s in rec.spans.get(stage, ())]
        return 1e3 * statistics.median(spans) if spans else None

    def to_text(self) -> str:
        lines = [
            f"users={self.config.users}",
            f"dim={self.config.dim}",
            f"rounds={self.config.rounds}",
            f"dropout={self.config.dropout}",
            f"seed={self.config.seed}",
            f"mode={self.config.mode}",
            f"modulus={self.r}",
            f"exit_ok={self.exit_ok}",
            f"max_oracle_deviation={self.max_oracle_deviation:.3e}",
        ]
        for rec in self.rounds:
            lines.append(
                f"round={rec.round_index} m={len(rec.participants)} "
                f"aborted={rec.aborted} verified={rec.verified} "
                f"adversarial={rec.adversarial} detected={rec.detected} "
                f"oracle_deviation={rec.oracle_deviation:.3e} "
                f"wall_time={rec.wall_time:.4f}")
        for stage in STAGES:
            median = self.stage_ms(stage)
            if median is not None:
                lines.append(f"stage={stage} median_ms={median:.3f}")
        for alarm in self.alarms:
            lines.append(f"alarm round={alarm.round_index} uid={alarm.uid} "
                         f"reason={alarm.reason.name} first={alarm.first} "
                         f"second={alarm.second}")
        for (link, r), entry in sorted(self.ledger.entries.items()):
            lines.append(
                f"traffic link={link} round={r} payload={entry.payload_bytes} "
                f"total={entry.total_bytes} messages={entry.messages}")
        return "\n".join(lines) + "\n"


def default_params(cfg: RunConfig) -> ProtocolParams:
    """Protocol parameters for a run over one prime r, for models and tags.

    r is the largest prime below 2^(prime_bits + 1), so it lies in
    (2^prime_bits, 2^(prime_bits + 1)) and, just below a power of two,
    makes PRF expansion reject almost no draw.  The default 60 bits give
    the Mersenne prime 2^61 - 1.
    """
    r = find_prime_below(1 << (cfg.prime_bits + 1))
    dim = cfg.dim + 1 if cfg.weights is not None else cfg.dim
    bound = 10.0
    # A weight scales an update drawn from [-1, 1] and rides along as a
    # coordinate itself, so it must lie in (0, bound].
    if cfg.weights is not None and not all(0 < w <= bound for w in cfg.weights):
        raise ConfigError(f"every weight must lie in (0, {bound}]")
    try:
        cparams = codec.CodecParams(delta=1 << cfg.delta_exp, r_w=r,
                                    n_max=cfg.users, x_min=-bound, x_max=bound)
    except codec.CodecError as exc:
        raise ConfigError(str(exc)) from None
    return ProtocolParams(dim=dim, codec=cparams)


def plaintext_oracle(updates: Dict[int, np.ndarray], participants: Sequence[int],
                     cparams: codec.CodecParams,
                     weights: Optional[Dict[int, float]] = None) -> np.ndarray:
    """Ground-truth mean through the same fixed-point pipeline, no sharing."""
    if not participants:
        raise ConfigError("oracle needs a non-empty participant list")
    total = None
    weight_sum = 0.0
    for uid in participants:
        u = np.asarray(updates[uid], dtype=np.float64)
        if weights is not None:
            u = u * weights[uid]
            weight_sum += weights[uid]
        enc = field.vec_to_signed(codec.encode(u, cparams), cparams.r_w)
        total = enc if total is None else total + enc
    divisor = weight_sum if weights is not None else len(participants)
    return total.astype(np.float64) / cparams.delta / divisor


class _Network:
    """Per-link channels plus a shared ledger; memory or socket backend.

    In socket mode a frame is written on a sender thread while the
    caller reads it, so a frame larger than the socket buffers cannot
    block its own delivery.  Party work stays on the calling thread.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.ledger = TrafficLedger()
        # Link name -> (sending end, receiving end), one memory link for both.
        self._links: Dict[str, tuple] = {}
        self._sender = ThreadPoolExecutor(1) if mode == "socket" else None

    def transfer(self, name: str, msg: Message) -> Message:
        """Send through the named link, opened on first use, and deliver to the far end."""
        ends = self._links.get(name)
        if ends is None:
            if self.mode == "socket":
                ends = socket_link_pair(name, self.ledger)
            else:
                link = MemoryLink(name, self.ledger)
                ends = (link, link)
            self._links[name] = ends
        if self._sender is None:
            ends[0].send(msg)
            return ends[1].recv()
        sent = self._sender.submit(ends[0].send, msg)
        try:
            return ends[1].recv()
        finally:
            sent.result()  # the frame is written, or the sender's error is raised

    def close(self) -> None:
        for ends in self._links.values():
            for link in ends:
                link.close()
        if self._sender is not None:
            self._sender.shutdown()


@dataclass
class _RoundOutcome:
    results: Dict[int, roles.ReconstructResult]  # every participant's, in order
    w1pp: np.ndarray
    b2p: int
    spans: Dict[str, List[float]]

    @property
    def alarms(self) -> List[Alarm]:
        """One per participant that rejected the round, in participant order."""
        return [Alarm(res.round_index, uid, *res.alarm)
                for uid, res in self.results.items() if not res.verified]

    @property
    def mismatch_errors(self) -> int:
        """COUNT_MISMATCH results; the round benchmark's checker reads this count."""
        return sum(1 for res in self.results.values()
                   if res.alarm and res.alarm[0] is AlarmReason.COUNT_MISMATCH)


def run_round(users_online: List[UserState], all_users: Dict[int, UserState],
              cs: CsState, vs: VsState, net: _Network, round_index: int,
              updates: Dict[int, np.ndarray], rng: random.Random,
              weights: Optional[Dict[int, float]] = None,
              adversary: Optional[AdversarySpec] = None) -> _RoundOutcome:
    """Drive one full Share/Aggregate/Reconstruct round over the network.

    The outcome's spans time each role call by stage: ``share`` (each
    user's share_round), ``vs_aggregate`` (the VS's mask regeneration),
    ``cs_aggregate`` (the CS's share sum), ``eval`` (the CS's tag-share
    evaluation) and ``verify`` (each participant's reconstruct_round).
    """
    adv = adversary if adversary and adversary.round_index == round_index else None
    spans: Dict[str, List[float]] = {}

    def timed(stage: str, call: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = call(*args, **kwargs)
        spans.setdefault(stage, []).append(time.perf_counter() - start)
        return result

    cs_inbox, vs_inbox = [], []
    for u in users_online:
        weight = weights[u.uid] if weights is not None else None
        to_cs, to_vs = timed("share", u.share_round, updates[u.uid], round_index,
                             weight=weight)
        cs_inbox.append(net.transfer(f"user{u.uid}->cs", to_cs))
        vs_inbox.append(net.transfer(f"user{u.uid}->vs", to_vs))
    # Delivery order at each server is a seeded shuffle: the published
    # aggregates must not depend on arrival order.
    rng.shuffle(cs_inbox)
    rng.shuffle(vs_inbox)
    for msg in cs_inbox:
        cs.receive_share(msg)
    for msg in vs_inbox:
        vs.receive_tag_share(msg)

    from_cs = net.transfer("cs->vs", Message(MessageKind.ONLINE_LIST, round_index, 0,
                                             pack_online_list(cs.online_ids(round_index))))
    from_vs = net.transfer("vs->cs", Message(MessageKind.ONLINE_LIST, round_index, 1,
                                             pack_online_list(vs.online_ids(round_index))))
    # The servers intersect the lists they received, not the ones they sent.
    ctx = intersect_online(unpack_online_list(from_cs.payload),
                           unpack_online_list(from_vs.payload), round_index)

    def attack_after(stage: str) -> None:
        attack = ADVERSARY_ACTIONS[adv.action] if adv else None
        if attack and attack.stage == stage:
            attack.apply(cs if attack.server == "cs" else vs, ctx, rng, adv.magnitude)

    attack_after("intersect")
    w_t = net.transfer("vs->cs", timed("vs_aggregate", vs.model_aggregate, ctx))
    timed("cs_aggregate", cs.finalize_model, ctx, w_t)
    attack_after("finalize_model")
    b_t = net.transfer("cs->vs", timed("eval", cs.tag_aggregate, ctx))
    vs.finalize_tag(ctx, b_t)
    attack_after("finalize_tag")

    model_msg = cs.publish_model_message(round_index)
    tag_msg = vs.publish_tag_message(round_index)
    results = {uid: timed("verify", all_users[uid].reconstruct_round,
                          net.transfer(f"cs->user{uid}", model_msg),
                          net.transfer(f"vs->user{uid}", tag_msg),
                          round_index, weighted=weights is not None)
               for uid in ctx.participants}
    return _RoundOutcome(results, cs.rounds[round_index].published,
                         vs.rounds[round_index].published, spans)


def draw_round(cfg: RunConfig, users: Sequence[UserState], rng: random.Random,
               update_rng: np.random.Generator
               ) -> Tuple[List[UserState], Dict[int, np.ndarray]]:
    """A round's online users, by seeded dropout, and their synthetic updates."""
    online = [u for u in users if rng.random() >= cfg.dropout]
    updates = {u.uid: update_rng.uniform(-1.0, 1.0, cfg.dim)
               for u in online}
    return online, updates


def run_simulation(cfg: RunConfig) -> MetricsReport:
    """Execute setup plus cfg.rounds aggregation rounds with seeded dropout."""
    params = default_params(cfg)
    rng = random.Random(cfg.seed)
    update_rng = np.random.default_rng(cfg.seed)
    users, cs, vs = setup(cfg.users, params, rng=rng)
    all_users = {u.uid: u for u in users}
    weights = (dict(zip(sorted(all_users), cfg.weights))
               if cfg.weights is not None else None)
    net = _Network(cfg.mode)
    report = MetricsReport(cfg, params.r)
    try:
        for r in range(1, cfg.rounds + 1):
            online, updates = draw_round(cfg, users, rng, update_rng)
            rec = RoundRecord(r, tuple(u.uid for u in online))
            rec.adversarial = bool(cfg.adversary) and cfg.adversary.round_index == r
            report.rounds.append(rec)
            if not online:
                rec.aborted = True
                continue
            start = time.perf_counter()
            outcome = run_round(online, all_users, cs, vs, net, r, updates, rng,
                                weights=weights, adversary=cfg.adversary)
            rec.wall_time = time.perf_counter() - start
            rec.participants = tuple(outcome.results)
            # Every participant that rejects the round raises an alarm.
            alarms = outcome.alarms
            rec.verified = not alarms
            rec.spans = outcome.spans
            report.alarms.extend(alarms)
            if rec.adversarial:
                rec.detected = not rec.verified
            if rec.verified:
                oracle = plaintext_oracle(updates, rec.participants, params.codec, weights)
                rec.oracle_deviation = max(float(np.max(np.abs(res.model - oracle)))
                                           for res in outcome.results.values())
    finally:
        report.ledger = net.ledger
        net.close()
    return report


@dataclass
class CalibrationResult:
    r_b: int
    trials: int
    tamper_rate: float      # random single-coordinate perturbation of the aggregate
    guess_rate: float       # random tag guess against a fixed tampered vector
    bound: float

    @property
    def stderr(self) -> float:
        p = self.bound
        return math.sqrt(p * (1 - p) / self.trials)


def _lifted_tag(v: np.ndarray, key_vec: np.ndarray, r_w: int, r_b: int) -> int:
    """Tag over Z_{r_b} of ``v`` over Z_{r_w}: each residue's signed lift, reduced mod r_b.

    Both moduli are below 2^61, so the lift and its reduction fit in ``int64``.
    """
    lifted = (field.vec_to_signed(v, r_w) % np.int64(r_b)).astype(np.uint64)
    return tags.gen_tag(lifted, key_vec, r_b)


def forgery_calibration(r_b: int, trials: int, seed: int = 0,
                        dim: int = 4) -> CalibrationResult:
    """Empirical forgery pass rates of a tag over a prime R_b against 1/R_b.

    Models stay over the protocol's prime R_w = 2^61 - 1 and only the
    tag modulus shrinks, so that small rates can be resolved; the tag
    acts on the signed integer lift of each residue.  The vector forgery
    perturbs one random coordinate of a valid aggregate by a random
    nonzero offset and counts how often its tag still matches; the tag
    forgery guesses a random tag for a fixed tampered vector.  Both
    rates should sit near 1/R_b when R_b is small.
    """
    if trials < 1 or dim < 1:
        raise ConfigError("trials and dim must be positive")
    try:
        r_b = FieldModulus(r_b)
    except field.FieldError as exc:
        raise ConfigError(str(exc)) from None
    r_w = default_params(RunConfig()).r
    rng = np.random.default_rng(seed)
    w = rng.integers(0, r_w, size=dim, dtype=np.uint64)
    key_vec = rng.integers(1, r_b, size=dim, dtype=np.uint64)
    b = _lifted_tag(w, key_vec, r_w, r_b)

    passes = 0
    coords = rng.integers(0, dim, size=trials)
    offsets = rng.integers(1, r_w, size=trials, dtype=np.uint64)
    for j, off in zip(coords, offsets):
        v = w.copy()
        v[j] = (v[j] + off) % np.uint64(r_w)
        if _lifted_tag(v, key_vec, r_w, r_b) == b:
            passes += 1
    tamper_rate = passes / trials

    v = w.copy()
    v[0] = (v[0] + np.uint64(1)) % np.uint64(r_w)
    t = _lifted_tag(v, key_vec, r_w, r_b)
    guesses = rng.integers(0, r_b, size=trials)
    guess_rate = float(np.count_nonzero(guesses == t)) / trials

    return CalibrationResult(r_b, trials, tamper_rate, guess_rate, 1.0 / r_b)
