"""Golden transcript: every delivered frame, verified model and alarm, pinned by digest.

The digest covers, in order, each frame a memory link delivers (the
bytes ``wire.deserialize`` parses), the float64 bytes of every model a
participant verified, and every alarm as (round, uid, reason, first,
second).  A change to the program that is meant to be bit-exact leaves
it unchanged; a change that moves any published byte or decoded model
does not.

The runs: seeds 1-5, each plain, with dropout 0.3, with weights 1-5, at
``prime_bits=50`` and under every entry of ``ADVERSARY_ACTIONS`` at
round 2 with magnitude 5, at n = 5, d = 6 and 3 rounds; plus one run at
d = 3 * 2^15 + 5, past several PRF draws and ``field.dot`` blocks.
"""

import hashlib
from dataclasses import replace

from vsecagg import harness, wire
from vsecagg.harness import ADVERSARY_ACTIONS, AdversarySpec, RunConfig, run_simulation

GOLDEN_SMALL = "2e4632993f6c5e202511ece594fa8ece3aecd6f9fbde6959c555e920459fb10f"
GOLDEN_LARGE = "fd49f36feae559542733c209d262aafc2c6e9b4414f851441172ccb59c7bd5ee"


def small_configs():
    for seed in range(1, 6):
        base = RunConfig(users=5, dim=6, rounds=3, seed=seed)
        yield base
        yield replace(base, dropout=0.3)
        yield replace(base, weights=(1.0, 2.0, 3.0, 4.0, 5.0))
        yield replace(base, prime_bits=50)
        for action, attack in ADVERSARY_ACTIONS.items():
            yield replace(base, adversary=AdversarySpec(attack.server, action, 2, 5))


def transcript_digest(monkeypatch, configs) -> str:
    digest = hashlib.sha256()
    deserialize, run_round = wire.deserialize, harness.run_round

    def hashing_deserialize(data):
        digest.update(bytes(data))
        return deserialize(data)

    def hashing_run_round(*args, **kwargs):
        outcome = run_round(*args, **kwargs)
        for uid in sorted(outcome.results):
            res = outcome.results[uid]
            if res.verified:
                digest.update(res.model.tobytes())
        return outcome

    monkeypatch.setattr(wire, "deserialize", hashing_deserialize)
    monkeypatch.setattr(harness, "run_round", hashing_run_round)
    for cfg in configs:
        report = run_simulation(cfg)
        for alarm in report.alarms:
            digest.update(repr((alarm.round_index, alarm.uid, int(alarm.reason),
                                alarm.first, alarm.second)).encode())
    return digest.hexdigest()


def test_small_transcripts_match_golden_digest(monkeypatch):
    assert transcript_digest(monkeypatch, small_configs()) == GOLDEN_SMALL


def test_large_transcript_matches_golden_digest(monkeypatch):
    cfg = RunConfig(users=3, dim=3 * (1 << 15) + 5, rounds=2, seed=7)
    assert transcript_digest(monkeypatch, [cfg]) == GOLDEN_LARGE
