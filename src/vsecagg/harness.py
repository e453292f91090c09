"""Multi-round simulation driver, adversary injection, oracles, and benchmarks.

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
from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import codec, field, roles, tags
from .field import FieldModulus, find_prime_above
from .roles import (CsState, ParticipantMismatchError, ProtocolParams,
                    RoundContext, UserState, VsState, intersect_online, setup)
from .wire import (MemoryLink, Message, MessageKind, SocketLink, TrafficLedger,
                   pack_online_list, socket_link_pair, unpack_publish_model,
                   unpack_publish_tag)

ADVERSARY_ACTIONS = (
    "tamper_model_share",
    "tamper_aggregate",
    "drop_participant",
    "lie_about_m",
    "forge_tag",
)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AdversarySpec:
    """One malicious-server action, applied once at the given round."""

    target: str            # "cs" or "vs"
    action: str
    round_index: int
    magnitude: int = 1     # field offset for tampering actions

    def __post_init__(self) -> None:
        if self.target not in ("cs", "vs"):
            raise ConfigError(f"adversary target must be cs or vs, got {self.target!r}")
        if self.action not in ADVERSARY_ACTIONS:
            raise ConfigError(f"unknown adversary action {self.action!r}")

    @classmethod
    def parse(cls, text: str) -> "AdversarySpec":
        """Parse 'target:action:round[:magnitude]'."""
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"adversary spec {text!r} must be target:action:round[:magnitude]")
        magnitude = int(parts[3]) if len(parts) == 4 else 1
        return cls(parts[0], parts[1], int(parts[2]), magnitude)


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
    x_bound: float = 1.0           # synthetic updates drawn uniformly in [-x_bound, x_bound]

    def __post_init__(self) -> None:
        if self.users < 1 or self.dim < 1 or self.rounds < 1:
            raise ConfigError("users, dim, and rounds must all be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout rate must lie in [0, 1)")
        if self.mode not in ("memory", "socket"):
            raise ConfigError(f"mode must be memory or socket, got {self.mode!r}")
        if self.weights is not None and len(self.weights) != self.users:
            raise ConfigError("weights vector length must equal the user count")


@dataclass
class RoundRecord:
    round_index: int
    participants: Tuple[int, ...]
    aborted: bool = False
    verified: bool = False
    adversarial: bool = False
    detected: bool = False
    oracle_deviation: float = 0.0
    wall_time: float = 0.0


@dataclass
class MetricsReport:
    config: RunConfig
    r_w: int
    rounds: List[RoundRecord] = dc_field(default_factory=list)
    ledger: TrafficLedger = dc_field(default_factory=TrafficLedger)
    alarms: List[Message] = dc_field(default_factory=list)

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

    def to_text(self) -> str:
        lines = [
            f"users={self.config.users}",
            f"dim={self.config.dim}",
            f"rounds={self.config.rounds}",
            f"dropout={self.config.dropout}",
            f"seed={self.config.seed}",
            f"mode={self.config.mode}",
            f"modulus={self.r_w}",
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
        for (link, r), entry in sorted(self.ledger.entries.items()):
            lines.append(
                f"traffic link={link} round={r} payload={entry.payload_bytes} "
                f"total={entry.total_bytes} messages={entry.messages}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())


def default_params(cfg: RunConfig) -> ProtocolParams:
    r = find_prime_above(1 << cfg.prime_bits)
    dim = cfg.dim + 1 if cfg.weights is not None else cfg.dim
    bound = 10.0
    cparams = codec.CodecParams(delta=1 << cfg.delta_exp, r_w=r,
                                n_max=cfg.users, x_min=-bound, x_max=bound)
    return ProtocolParams(r_w=r, r_b=r, dim=dim, codec=cparams)


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
    """Per-link channels plus a shared ledger; memory or socket backend."""

    def __init__(self, mode: str, user_ids: Sequence[int]):
        self.mode = mode
        self.ledger = TrafficLedger()
        self._links: Dict[str, object] = {}
        self._peers: Dict[str, object] = {}
        names = ["cs->vs", "vs->cs"]
        for uid in user_ids:
            names += [f"user{uid}->cs", f"user{uid}->vs",
                      f"cs->user{uid}", f"vs->user{uid}"]
        for name in names:
            self._open(name)

    def _open(self, name: str) -> None:
        if self.mode == "socket":
            sender, receiver = socket_link_pair(name, self.ledger)
            self._links[name] = sender
            self._peers[name] = receiver
        else:
            link = MemoryLink(name, self.ledger)
            self._links[name] = link
            self._peers[name] = link

    def add_user(self, uid: int) -> None:
        for name in (f"user{uid}->cs", f"user{uid}->vs",
                     f"cs->user{uid}", f"vs->user{uid}"):
            if name not in self._links:
                self._open(name)

    def transfer(self, name: str, msg: Message) -> Message:
        """Send through the named link and deliver to the far end."""
        self._links[name].send(msg)
        return self._peers[name].recv()

    def close(self) -> None:
        for link in list(self._links.values()) + list(self._peers.values()):
            close = getattr(link, "close", None)
            if close:
                close()


@dataclass
class _RoundOutcome:
    results: Dict[int, roles.ReconstructResult]
    mismatch_errors: int
    w1pp: np.ndarray
    b2p: int


def _apply_cs_tampering(adv: AdversarySpec, cs: CsState, ctx: RoundContext,
                        rng: random.Random, r_w: int):
    """Server-internal misbehavior applied after the ID intersection."""
    state = cs.rounds[ctx.round_index]
    victim = ctx.participants[rng.randrange(ctx.m)]
    coord = rng.randrange(cs.params.dim)
    offset = np.uint64(adv.magnitude % r_w or 1)
    if adv.action == "tamper_model_share":
        share = state.shares[victim].copy()
        share[coord] = (share[coord] + offset) % np.uint64(r_w)
        state.shares[victim] = share
    elif adv.action == "drop_participant":
        # CS claims the victim participated but omits its share from the sum.
        state.shares[victim] = np.zeros(cs.params.dim, dtype=np.uint64)


def run_round(users_online: List[UserState], all_users: Dict[int, UserState],
              cs: CsState, vs: VsState, net: _Network, round_index: int,
              updates: Dict[int, np.ndarray], rng: random.Random,
              weights: Optional[Dict[int, float]] = None,
              adversary: Optional[AdversarySpec] = None) -> _RoundOutcome:
    """Drive one full Share/Aggregate/Reconstruct round over the network."""
    params = cs.params
    adv = adversary if adversary and adversary.round_index == round_index else None

    cs_inbox, vs_inbox = [], []
    for u in users_online:
        weight = weights[u.uid] if weights is not None else None
        to_cs, to_vs = u.share_round(updates[u.uid], round_index, weight=weight)
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

    cs_ids = cs.online_ids(round_index)
    vs_ids = vs.online_ids(round_index)
    net.transfer("cs->vs", Message(MessageKind.ONLINE_LIST, round_index, 0,
                                   pack_online_list(cs_ids)))
    net.transfer("vs->cs", Message(MessageKind.ONLINE_LIST, round_index, 1,
                                   pack_online_list(vs_ids)))
    ctx = intersect_online(cs_ids, vs_ids, round_index)

    if adv and adv.target == "cs" and adv.action in ("tamper_model_share", "drop_participant"):
        _apply_cs_tampering(adv, cs, ctx, rng, params.r_w)

    w_t_msg = net.transfer("vs->cs", Message(
        MessageKind.RESHARE_MODEL, round_index, 1,
        field.vec_to_raw(vs.model_aggregate(ctx))))
    w1pp, m_cs = cs.finalize_model(ctx, field.vec_from_raw(w_t_msg.payload))

    if adv and adv.action == "tamper_aggregate":
        coord = rng.randrange(params.dim)
        w1pp = w1pp.copy()
        w1pp[coord] = (w1pp[coord] + np.uint64(adv.magnitude % params.r_w or 1)) \
            % np.uint64(params.r_w)
        cs.rounds[round_index].published = w1pp
    if adv and adv.action == "lie_about_m":
        m_cs = m_cs + max(1, adv.magnitude)
        cs.rounds[round_index].m = m_cs

    b_t_msg = net.transfer("cs->vs", Message(
        MessageKind.RESHARE_TAG, round_index, 0,
        tags.tag_to_bytes(cs.tag_aggregate(ctx))))
    b2p, m_vs = vs.finalize_tag(ctx, tags.tag_from_bytes(b_t_msg.payload))

    if adv and adv.action == "forge_tag":
        b2p = rng.randrange(params.r_b)
        vs.rounds[round_index].published = b2p

    model_msg = cs.publish_model_message(round_index)
    tag_msg = vs.publish_tag_message(round_index)

    results: Dict[int, roles.ReconstructResult] = {}
    mismatches = 0
    for uid in ctx.participants:
        delivered_model = net.transfer(f"cs->user{uid}", model_msg)
        delivered_tag = net.transfer(f"vs->user{uid}", tag_msg)
        pm, pvec = unpack_publish_model(delivered_model.payload)
        pt_m, ptag = unpack_publish_tag(delivered_tag.payload)
        try:
            results[uid] = all_users[uid].reconstruct_round(
                pvec, ptag, pm, pt_m, round_index, weighted=weights is not None)
        except ParticipantMismatchError:
            mismatches += 1
    return _RoundOutcome(results, mismatches, w1pp, b2p)


def run_simulation(cfg: RunConfig) -> MetricsReport:
    """Execute setup plus cfg.rounds aggregation rounds with seeded dropout."""
    params = default_params(cfg)
    if not codec.check_capacity(params.codec, cfg.users):
        raise ConfigError("capacity check failed for the configured user count")
    rng = random.Random(cfg.seed)
    update_rng = np.random.default_rng(cfg.seed)
    users, cs, vs = setup(cfg.users, params, rng=rng)
    all_users = {u.uid: u for u in users}
    weights = (dict(zip(sorted(all_users), cfg.weights))
               if cfg.weights is not None else None)
    net = _Network(cfg.mode, sorted(all_users))
    report = MetricsReport(cfg, params.r_w)
    try:
        for r in range(1, cfg.rounds + 1):
            start = time.perf_counter()
            online = [u for u in users if rng.random() >= cfg.dropout]
            rec = RoundRecord(r, tuple(u.uid for u in online))
            adv = cfg.adversary if cfg.adversary and cfg.adversary.round_index == r else None
            rec.adversarial = adv is not None
            if not online:
                rec.aborted = True
                rec.wall_time = time.perf_counter() - start
                report.rounds.append(rec)
                continue
            updates = {u.uid: update_rng.uniform(-cfg.x_bound, cfg.x_bound, cfg.dim)
                       for u in online}
            outcome = run_round(online, all_users, cs, vs, net, r, updates, rng,
                                weights=weights, adversary=adv)
            rec.participants = tuple(sorted(outcome.results) if outcome.results
                                     else [u.uid for u in online])
            verified = [res.verified for res in outcome.results.values()]
            rec.verified = bool(verified) and all(verified) and outcome.mismatch_errors == 0
            for uid, res in outcome.results.items():
                if not res.verified:
                    report.alarms.append(res.alarm_message(sender=uid))
            if rec.adversarial:
                rec.detected = (not rec.verified) or outcome.mismatch_errors > 0
            if rec.verified:
                participants = sorted(outcome.results)
                oracle = plaintext_oracle(
                    updates, participants, params.codec,
                    weights={uid: weights[uid] for uid in participants}
                    if weights else None)
                devs = [float(np.max(np.abs(res.model - oracle)))
                        for res in outcome.results.values() if res.model is not None]
                rec.oracle_deviation = max(devs)
            rec.wall_time = time.perf_counter() - start
            report.rounds.append(rec)
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


def forgery_calibration(r_b: int, trials: int, seed: int = 0,
                        dim: int = 4, r_w: Optional[int] = None) -> CalibrationResult:
    """Empirical forgery pass rates against the 1/max(R_b, R_w) analysis.

    The vector forgery perturbs one random coordinate of a valid
    aggregate (over Z_{R_w}) by a random nonzero offset and counts how
    often verification still passes; the tag forgery guesses a random
    tag for a fixed tampered vector.  Both rates should sit near 1/R_b
    when R_b is small and R_w large.
    """
    if trials < 1:
        raise ConfigError("need at least one trial")
    r_b = FieldModulus(r_b)
    r_w = find_prime_above(1 << 60) if r_w is None else r_w
    rng = np.random.default_rng(seed)
    w = rng.integers(0, r_w, size=dim, dtype=np.uint64)
    key_vec = rng.integers(1, r_b, size=dim, dtype=np.uint64)
    b = tags.gen_tag(w, key_vec, r_w, r_b)

    passes = 0
    coords = rng.integers(0, dim, size=trials)
    offsets = rng.integers(1, r_w, size=trials, dtype=np.uint64)
    for j, off in zip(coords, offsets):
        v = w.copy()
        v[j] = (v[j] + off) % np.uint64(r_w)
        if tags.verify(v, b, key_vec, r_w, r_b):
            passes += 1
    tamper_rate = passes / trials

    v = w.copy()
    v[0] = (v[0] + np.uint64(1)) % np.uint64(r_w)
    t = tags.gen_tag(v, key_vec, r_w, r_b)
    guesses = rng.integers(0, r_b, size=trials)
    guess_rate = float(np.count_nonzero(guesses == t)) / trials

    return CalibrationResult(r_b, trials, tamper_rate, guess_rate, 1.0 / r_b)


@dataclass
class BenchResult:
    dim: int
    users: int
    reps: int
    share_ms: float         # median user share + tag proof time
    proof_ms: float         # median tag proof time alone
    cs_aggregate_ms: float  # median CS share-sum time
    vs_aggregate_ms: float  # median VS mask-regeneration + sum time
    eval_ms: float          # median CS tag-share evaluation time
    verify_ms: float        # median user verification time
    up_payload_bytes: int   # per-user per-round upload payload

    def to_text(self) -> str:
        lines = [f"dim={self.dim}", f"users={self.users}", f"reps={self.reps}"]
        for name in ("share_ms", "proof_ms", "cs_aggregate_ms", "vs_aggregate_ms",
                     "eval_ms", "verify_ms", "up_payload_bytes"):
            value = getattr(self, name)
            lines.append(f"{name}={value:.3f}" if isinstance(value, float)
                         else f"{name}={value}")
        return "\n".join(lines) + "\n"


def _median_ms(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def bench(cfg: RunConfig, reps: int = 10, aggregate_users: int = 32) -> BenchResult:
    """Wall-time medians for each protocol stage at the configured sizes.

    ``aggregate_users`` caps how many synthetic share vectors the server
    aggregation timings materialize, keeping memory bounded at large d.
    """
    params = default_params(cfg)
    rng = random.Random(cfg.seed)
    users, cs, vs = setup(min(cfg.users, aggregate_users), params, rng=rng)
    update_rng = np.random.default_rng(cfg.seed)
    update = update_rng.uniform(-1.0, 1.0, cfg.dim)
    u = users[0]

    round_counter = [0]

    def do_share():
        round_counter[0] += 1
        u.share_round(update, round_counter[0])

    share_ms = _median_ms(do_share, reps)

    encoded = codec.encode(update, params.codec)
    key_vec = tags.derive_tag_key(u.k_v, 1, params.dim, params.r_b)
    proof_ms = _median_ms(lambda: tags.gen_tag(encoded, key_vec, params.r_w, params.r_b),
                          reps)

    m = len(users)
    shares = [update_rng.integers(0, params.r_w, size=params.dim, dtype=np.uint64)
              for _ in range(m)]
    cs_aggregate_ms = _median_ms(lambda: field.vec_sum(shares, params.r_w), reps)

    ctx = RoundContext(1, tuple(sorted(uu.uid for uu in users)))
    vs_aggregate_ms = _median_ms(lambda: vs.model_aggregate(ctx), reps)

    # Tag evaluation is n length-1 PRF expansions: independent of dim.
    eval_ms = _median_ms(lambda: cs.tag_aggregate(ctx), reps)

    tag = tags.gen_tag(encoded, key_vec, params.r_w, params.r_b)
    verify_ms = _median_ms(lambda: tags.verify(encoded, tag, key_vec,
                                               params.r_w, params.r_b), reps)

    return BenchResult(cfg.dim, cfg.users, reps, share_ms, proof_ms,
                       cs_aggregate_ms, vs_aggregate_ms, eval_ms, verify_ms,
                       up_payload_bytes=8 * params.dim + 8)
