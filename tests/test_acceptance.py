"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities (run with ``pytest -s`` to see
them).  Tolerances are fixed here, not calibrated after the fact."""

import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from vsecagg import field
from vsecagg.codec import CodecParams
from vsecagg.field import FieldModulus
from vsecagg.harness import (AdversarySpec, RunConfig, default_params,
                             forgery_calibration, plaintext_oracle,
                             run_round, run_simulation, _Network)
from vsecagg.prf import KeyMaterial, expand
from vsecagg.roles import ProtocolParams, setup

BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60
DELTA = 1 << 40
TOL = 0.5 / DELTA


def make_params(dim, n_max):
    return ProtocolParams(dim=dim, codec=CodecParams(delta=DELTA, r_w=BIG_PRIME, n_max=n_max))


def test_criterion_1_oracle_equivalence():
    """50 randomized configs: secure result equals the plaintext oracle."""
    rng = random.Random(2024)
    start = time.perf_counter()
    executed = 0
    for i in range(50):
        cfg = RunConfig(
            users=rng.choice([1, 2, 3, 10, 50]),
            dim=rng.choice([1, 2, 100, 20_000]),
            dropout=rng.choice([0.0, 0.05, 0.5]),
            rounds=1,
            seed=rng.randrange(1 << 30),
        )
        report = run_simulation(cfg)
        for rec in report.rounds:
            if rec.aborted:
                continue
            executed += 1
            assert rec.verified, f"config {i} ({cfg}) failed verification"
            assert rec.oracle_deviation <= TOL, \
                f"config {i} deviation {rec.oracle_deviation} > {TOL}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 120, f"criterion 1 took {elapsed:.1f}s > 120s"
    print(f"\nACCEPTANCE 1: PASS oracle equivalence over 50 configs "
          f"({executed} executed rounds, {elapsed:.1f}s)")


ADVERSARY_PAIRS = [
    ("cs", "tamper_model_share"),
    ("cs", "tamper_aggregate"),
    ("vs", "forge_tag"),
    ("cs", "lie_about_m"),
    ("cs", "drop_participant"),
]


def detect_1000_trials(target, action, params):
    sim_rng = random.Random(99)
    users, cs, vs = setup(3, params, rng=sim_rng)
    all_users = {u.uid: u for u in users}
    net = _Network("memory")
    update_rng = np.random.default_rng(99)
    detected = 0
    trials = 1000
    for r in range(1, trials + 1):
        updates = {u.uid: update_rng.uniform(-1, 1, 8) for u in users}
        outcome = run_round(users, all_users, cs, vs, net, r, updates, sim_rng,
                            adversary=AdversarySpec(target, action, r))
        if any(not res.verified for res in outcome.results.values()):
            detected += 1
    net.close()
    assert detected == trials, f"{action}: only {detected}/{trials} detected"
    print(f"\nACCEPTANCE 2: PASS {action} detected {detected}/{trials} at R = {params.r}")


@pytest.mark.parametrize("target,action", ADVERSARY_PAIRS)
def test_criterion_2_tamper_detection_1000_trials(target, action):
    """Each adversarial action detected in 1000/1000 trials at the >2^60 prime."""
    detect_1000_trials(target, action, make_params(dim=8, n_max=3))


@pytest.mark.parametrize("target,action", ADVERSARY_PAIRS)
def test_criterion_2_tamper_detection_1000_trials_default_modulus(target, action):
    """The same 1000 trials at the default modulus 2^61 - 1."""
    params = default_params(RunConfig(users=3, dim=8))
    assert params.r == (1 << 61) - 1
    detect_1000_trials(target, action, params)


def test_criterion_3_forgery_bound_calibration():
    """Empirical forgery pass rate at R_b = 11 sits on the 1/11 analysis."""
    start = time.perf_counter()
    result = forgery_calibration(11, trials=100_000, seed=7)
    elapsed = time.perf_counter() - start
    band = 3 * result.stderr
    assert abs(result.tamper_rate - result.bound) < band, \
        f"tamper rate {result.tamper_rate} outside 1/11 +- {band}"
    assert abs(result.guess_rate - result.bound) < band
    assert result.tamper_rate <= result.bound + band
    assert result.guess_rate <= result.bound + band
    assert elapsed <= 60, f"criterion 3 took {elapsed:.1f}s > 60s"
    print(f"\nACCEPTANCE 3: PASS tamper_rate={result.tamper_rate:.5f} "
          f"guess_rate={result.guess_rate:.5f} bound={result.bound:.5f} "
          f"band={band:.5f} ({elapsed:.1f}s)")


def test_criterion_4_traffic_reproduction():
    """d = 20000: user upload is exactly 160000 B (model) + 8 B (tag)."""
    report = run_simulation(RunConfig(users=2, dim=20_000, rounds=1, seed=1))
    assert report.exit_ok
    model_payload = report.ledger.payload_bytes("user0->cs", 1)
    tag_payload = report.ledger.payload_bytes("user0->vs", 1)
    assert model_payload == 160_000
    assert tag_payload == 8
    print(f"\nACCEPTANCE 4: PASS up-traffic payload {model_payload} + {tag_payload} "
          f"bytes (= 156.25 KB + 8 B)")


def test_criterion_5_scaling_shapes():
    """Share time ~linear in d, invariant in n; tag eval invariant in d.

    Absolute ceilings are lenient commodity-CPU bounds, not the
    reference hardware's milliseconds.
    """
    # Best of three 7-round simulations per size: the span medians absorb
    # per-call jitter, the outer min absorbs whole-pass stalls.  Each pass
    # runs every size in turn, so drift in host speed hits all sizes alike
    # instead of landing on one of them.
    def best(configs):
        runs = [[] for _ in configs]
        for _ in range(3):
            for cfg, cfg_runs in zip(configs, runs):
                cfg_runs.append(run_simulation(replace(cfg, rounds=7)))
        return [min(cfg_runs, key=lambda report: report.stage_ms("share"))
                for cfg_runs in runs]

    dims = (20_000, 40_000, 80_000)
    by_d = dict(zip(dims, best([RunConfig(users=10, dim=d, seed=1) for d in dims])))
    share_by_d = {d: report.stage_ms("share") for d, report in by_d.items()}
    eval_by_d = {d: report.stage_ms("eval") for d, report in by_d.items()}
    ceilings = {"share": share_by_d[20_000], "verify": by_d[20_000].stage_ms("verify")}
    # Doubling d should roughly double share time.  The band excludes
    # quadratic growth (ratio 4) but tolerates mild cache-miss
    # superlinearity as the share's working set outgrows L2.
    r1 = share_by_d[40_000] / share_by_d[20_000]
    r2 = share_by_d[80_000] / share_by_d[40_000]
    assert 1.6 <= r1 <= 3.0, f"share time ratio 40K/20K = {r1:.2f}"
    assert 1.6 <= r2 <= 3.0, f"share time ratio 80K/40K = {r2:.2f}"
    # Tag evaluation is a handful of length-1 PRF calls; at microsecond
    # scale the ratio is timer jitter, so accept a sub-millisecond
    # absolute ceiling at every d as the invariance evidence instead.
    spread_eval = max(eval_by_d.values()) / max(min(eval_by_d.values()), 1e-9)
    assert spread_eval <= 1.5 or max(eval_by_d.values()) <= 1.0, \
        f"eval time grows with d: {eval_by_d}"

    ns = (8, 16, 32)
    share_by_n = {n: report.stage_ms("share") for n, report in
                  zip(ns, best([RunConfig(users=n, dim=20_000, seed=1) for n in ns]))}
    spread_n = max(share_by_n.values()) / min(share_by_n.values())
    assert spread_n <= 1.5, f"share time spread over n = {spread_n:.2f}"

    assert ceilings["share"] <= 300, f"share+proof {ceilings['share']:.1f}ms > 300ms"
    assert ceilings["verify"] <= 200, f"verify {ceilings['verify']:.1f}ms > 200ms"
    print(f"\nACCEPTANCE 5: PASS share ratios {r1:.2f}/{r2:.2f}, "
          f"eval spread {spread_eval:.2f}, n spread {spread_n:.2f}, "
          f"share@20K {ceilings['share']:.1f}ms, verify@20K {ceilings['verify']:.1f}ms")


def test_criterion_6_ordering_invariance():
    """10 seeded delivery shuffles publish bit-identical aggregates."""
    transcripts = set()
    update_rng = np.random.default_rng(55)
    updates = {uid: update_rng.uniform(-1, 1, 5) for uid in range(4)}
    for shuffle_seed in range(10):
        params = make_params(dim=5, n_max=4)
        users, cs, vs = setup(4, params, rng=random.Random(1234))
        all_users = {u.uid: u for u in users}
        net = _Network("memory")
        outcome = run_round(users, all_users, cs, vs, net, 1, updates,
                            random.Random(9000 + shuffle_seed))
        net.close()
        assert all(res.verified for res in outcome.results.values())
        models = tuple(outcome.results[uid].model.tobytes() for uid in sorted(outcome.results))
        transcripts.add((outcome.w1pp.tobytes(), outcome.b2p, models))
    assert len(transcripts) == 1, "published aggregates depend on delivery order"
    print("\nACCEPTANCE 6: PASS 10 shuffled deliveries, bit-identical "
          "w''_1, b'_2, and reconstructed models")


def test_criterion_7_join_and_multi_round():
    """A user joining after round 3 verifies round 3 and participates from round 4."""
    from vsecagg.roles import join_new_user
    params = make_params(dim=3, n_max=5)
    users, cs, vs = setup(3, params, rng=random.Random(31))
    all_users = {u.uid: u for u in users}
    net = _Network("memory")
    rng = random.Random(32)
    update_rng = np.random.default_rng(32)
    for r in (1, 2, 3):
        updates = {u.uid: update_rng.uniform(-1, 1, 3) for u in users}
        # Same plaintext in rounds 2 and 3 for user 0: shares must differ.
        if r == 2:
            fixed_update = updates[0].copy()
        if r == 3:
            updates[0] = fixed_update
        outcome = run_round(users, all_users, cs, vs, net, r, updates, rng)
        assert all(res.verified for res in outcome.results.values())
    # Freshness: identical plaintext, different rounds, different shares.
    probe_params = make_params(dim=3, n_max=5)
    probe, _, _ = setup(1, probe_params, rng=random.Random(33))
    same = np.array([0.25, -0.5, 0.75])
    m1, _ = probe[0].share_round(same, 1)
    m2, _ = probe[0].share_round(same, 2)
    assert m1.payload != m2.payload

    joiner = join_new_user(cs, vs, rng=random.Random(34))
    all_users[joiner.uid] = joiner
    res3 = joiner.reconstruct_round(cs.publish_model_message(3), vs.publish_tag_message(3), 3)
    assert res3.verified, "joiner failed to verify the published round"

    everyone = users + [joiner]
    updates4 = {u.uid: update_rng.uniform(-1, 1, 3) for u in everyone}
    outcome4 = run_round(everyone, all_users, cs, vs, net, 4, updates4, rng)
    net.close()
    oracle = plaintext_oracle(updates4, sorted(updates4), params.codec)
    for uid, res in outcome4.results.items():
        assert res.verified
        assert np.max(np.abs(res.model - oracle)) <= TOL
    assert joiner.uid in outcome4.results
    print("\nACCEPTANCE 7: PASS joiner verified round 3, participated in "
          "round 4, oracle match; cross-round shares differ")


def test_criterion_8_weighted_aggregation():
    """Weights (1, 3): weighted mean matches the oracle; weight sum is exactly 4."""
    params = make_params(dim=3, n_max=2)  # 2 model coords + weight coord
    users, cs, vs = setup(2, params, rng=random.Random(41))
    all_users = {u.uid: u for u in users}
    net = _Network("memory")
    updates = {0: np.array([0.5, -0.25]), 1: np.array([0.75, 0.125])}
    weights = {0: 1.0, 1: 3.0}
    outcome = run_round(users, all_users, cs, vs, net, 1, updates,
                        random.Random(42), weights=weights)
    net.close()
    expected = (updates[0] * 1 + updates[1] * 3) / 4
    for res in outcome.results.values():
        assert res.verified
        assert np.max(np.abs(res.model - expected)) <= TOL
    # The weight sum is the last coordinate of the unmasked aggregate.
    mask = expand(users[0].k_vg, 1, params.dim, BIG_PRIME)
    w_prime = field.vec_add(outcome.w1pp, mask, BIG_PRIME)
    weight_sum = int(field.vec_to_signed(w_prime[-1:], BIG_PRIME)[0]) / DELTA
    assert weight_sum == 4.0
    print(f"\nACCEPTANCE 8: PASS weighted mean within {TOL:.1e}, "
          f"weight sum = {weight_sum} exactly")


def test_criterion_9_prf_invariants():
    """Determinism, prefix stability, range, and chi-squared uniformity."""
    key = KeyMaterial(b"\x42" * 16)
    a = expand(key, 5, 2_000, BIG_PRIME)
    assert np.array_equal(a, expand(key, 5, 2_000, BIG_PRIME))
    assert np.array_equal(a[:500], expand(key, 5, 500, BIG_PRIME))
    assert int(a.max()) < BIG_PRIME
    draws = expand(key, 1, 100_000, 17)
    counts = np.bincount(draws.astype(np.int64), minlength=17)
    _, p = stats.chisquare(counts)
    assert p > 0.001, f"chi-squared p = {p}"
    print(f"\nACCEPTANCE 9: PASS determinism, prefix stability, range, "
          f"chi-squared p = {p:.3f} > 0.001")


def test_criterion_10_accuracy_substitute():
    """Model-accuracy experiments are out of scope; bit-faithful aggregation
    (criterion 1) is the substitute: a pipeline that reproduces plaintext
    summation exactly implies identical downstream learning behavior."""
    report = run_simulation(RunConfig(users=3, dim=16, rounds=2, seed=6))
    assert report.exit_ok
    assert report.max_oracle_deviation <= TOL
    print("\nACCEPTANCE 10: PASS (accuracy experiments substituted by "
          "oracle-equivalent aggregation)")
