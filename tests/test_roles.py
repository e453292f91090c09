import random

import numpy as np
import pytest

from vsecagg import field, tags
from vsecagg.codec import CodecParams, decode, encode
from vsecagg.field import find_prime_above
from vsecagg.prf import KeyMaterial, concat_keys, expand
from vsecagg.roles import (CsState, DuplicateIdError, DuplicateShareError,
                           EmptyIntersectionError, MissingShareError,
                           ParamDigestMismatchError, ParticipantMismatchError,
                           ProtocolError, ProtocolParams, RoundContext, StaleRoundError,
                           UserState, VsState, check_param_digest,
                           init_model_from_seeds, intersect_online,
                           join_new_user, load_pretrained_model, setup)
from vsecagg.wire import Message, MessageKind, unpack_publish_model

BIG_PRIME = find_prime_above(1 << 60)


def make_params(dim=2, r=BIG_PRIME, n_max=10, delta=1 << 40, bound=10.0):
    return ProtocolParams(r_w=r, r_b=r, dim=dim,
                          codec=CodecParams(delta=delta, r_w=r, n_max=n_max,
                                            x_min=-bound, x_max=bound))


def run_honest_round(users, cs, vs, updates, r, weights=None):
    """Drive one round directly through the role APIs (no transport)."""
    for u in users:
        weight = weights[u.uid] if weights else None
        to_cs, to_vs = u.share_round(updates[u.uid], r, weight=weight)
        cs.receive_share(to_cs)
        vs.receive_tag_share(to_vs)
    ctx = intersect_online(cs.online_ids(r), vs.online_ids(r), r)
    w_t = vs.model_aggregate(ctx)
    w1pp, m_cs = cs.finalize_model(ctx, w_t)
    b_t = cs.tag_aggregate(ctx)
    b2p, m_vs = vs.finalize_tag(ctx, b_t)
    return ctx, w1pp, b2p, m_cs, m_vs


def test_setup_registries_and_shared_keys():
    params = make_params()
    users, cs, vs = setup(3, params, rng=random.Random(1))
    assert len(cs.user_keys) == 3
    assert len(vs.user_keys) == 3
    assert users[0].k_v == users[1].k_v == users[2].k_v
    assert users[0].k_v.data == cs.k_cv.data + vs.k_vv.data


def test_setup_deterministic_under_seed():
    params = make_params()
    users_a, cs_a, _ = setup(2, params, rng=random.Random(9))
    users_b, cs_b, _ = setup(2, params, rng=random.Random(9))
    assert cs_a.k_cg == cs_b.k_cg
    assert users_a[0].k_vi == users_b[0].k_vi
    assert np.array_equal(users_a[1].initial_model, users_b[1].initial_model)


def test_setup_rejects_zero_users():
    from vsecagg.roles import ProtocolError
    with pytest.raises(ProtocolError):
        setup(0, make_params())


def test_duplicate_registration_rejected():
    params = make_params()
    _, cs, vs = setup(2, params, rng=random.Random(2))
    with pytest.raises(DuplicateIdError):
        cs.register_user(0, KeyMaterial.generate())
    with pytest.raises(DuplicateIdError):
        vs.register_user(1, KeyMaterial.generate())


def test_param_digest_mismatch_detected():
    users_a, cs_a, _ = setup(1, make_params(dim=2), rng=random.Random(3))
    users_b, _, vs_b = setup(1, make_params(dim=3), rng=random.Random(3))
    with pytest.raises(ParamDigestMismatchError):
        check_param_digest(cs_a, vs_b)


def test_initial_model_identical_and_seed_sensitive():
    params = make_params(dim=8)
    users, cs, vs = setup(3, params, rng=random.Random(4))
    base = init_model_from_seeds(cs.seed, vs.seed, params.dim, params.r_w)
    for u in users:
        assert np.array_equal(u.initial_model, base)
    other = init_model_from_seeds(cs.seed, KeyMaterial.generate(random.Random(5)),
                                  params.dim, params.r_w)
    assert not np.array_equal(base, other)
    # The round index of the seed expansion is fixed at zero.
    assert np.array_equal(base, expand(concat_keys(cs.seed, vs.seed), 0,
                                       params.dim, params.r_w))


def test_pretrained_model_file_round_trip(tmp_path):
    params = make_params(dim=4)
    vec = field.vec_from_ints([1, 2, 3, 4], params.r_w)
    path = tmp_path / "model.bin"
    path.write_bytes(field.vec_to_bytes(vec))
    assert np.array_equal(load_pretrained_model(path, 4, params.r_w), vec)
    from vsecagg.roles import ProtocolError
    with pytest.raises(ProtocolError):
        load_pretrained_model(path, 5, params.r_w)


def test_share_round_payload_sizes():
    params = make_params(dim=20_000)
    users, cs, vs = setup(1, params, rng=random.Random(5))
    update = np.zeros(20_000)
    to_cs, to_vs = users[0].share_round(update, 1)
    assert to_cs.kind is MessageKind.MODEL_SHARE
    assert len(to_cs.payload) == 160_000
    assert to_vs.kind is MessageKind.TAG_SHARE
    assert len(to_vs.payload) == 8


def test_share_round_trip_against_prf_mask():
    params = make_params(dim=3)
    users, cs, vs = setup(1, params, rng=random.Random(6))
    u = users[0]
    update = np.array([0.5, -0.25, 1.0])
    to_cs, _ = u.share_round(update, 1)
    share = field.vec_from_raw(to_cs.payload)
    mask = expand(u.k_vi, 1, 3, params.r_w)
    assert np.array_equal(field.vec_add(share, mask, params.r_w),
                          encode(update, params.codec))


def test_share_round_rejects_stale_round():
    params = make_params()
    users, _, _ = setup(1, params, rng=random.Random(7))
    users[0].share_round(np.zeros(2), 2)
    with pytest.raises(StaleRoundError):
        users[0].share_round(np.zeros(2), 2)
    with pytest.raises(StaleRoundError):
        users[0].share_round(np.zeros(2), 1)


def test_intersect_online():
    ctx = intersect_online({1, 2, 3}, {2, 3, 4}, 1)
    assert ctx.participants == (2, 3)
    assert ctx.m == 2
    full = intersect_online({1, 2}, {1, 2}, 1)
    assert full.participants == (1, 2)
    with pytest.raises(EmptyIntersectionError):
        intersect_online({1}, {2}, 1)


def test_vs_model_aggregate_hand_summed():
    r = 17
    params = make_params(dim=1, r=find_prime_above(16), n_max=1, delta=1, bound=4.0)
    _, cs, vs = setup(2, params, rng=random.Random(8))
    ctx = RoundContext(1, (0, 1))
    w_t = vs.model_aggregate(ctx)
    expected = (int(expand(vs.user_keys[0], 1, 1, r)[0])
                + int(expand(vs.user_keys[1], 1, 1, r)[0])
                - int(expand(vs.k_vg, 1, 1, r)[0])) % r
    assert int(w_t[0]) == expected


def test_vs_model_aggregate_order_independent():
    params = make_params(dim=4)
    _, _, vs = setup(3, params, rng=random.Random(9))
    a = vs.model_aggregate(RoundContext(1, (0, 1, 2)))
    b = vs.model_aggregate(RoundContext(1, (2, 0, 1)))
    assert np.array_equal(a, b)


def test_vs_model_aggregate_unknown_participant():
    from vsecagg.roles import UnknownParticipantError
    params = make_params()
    _, _, vs = setup(1, params, rng=random.Random(10))
    with pytest.raises(UnknownParticipantError):
        vs.model_aggregate(RoundContext(1, (0, 99)))


def test_cs_tag_aggregate_single_term():
    params = make_params()
    _, cs, _ = setup(1, params, rng=random.Random(11))
    b_t = cs.tag_aggregate(RoundContext(1, (0,)))
    expected = (int(expand(cs.user_keys[0], 1, 1, params.r_b)[0])
                - int(expand(cs.k_cg, 1, 1, params.r_b)[0])) % params.r_b
    assert b_t == expected
    assert cs.tag_aggregate(RoundContext(1, (0,))) == b_t


def test_cs_rejects_duplicate_share_and_missing_share():
    params = make_params()
    users, cs, _ = setup(2, params, rng=random.Random(12))
    to_cs, _ = users[0].share_round(np.zeros(2), 1)
    cs.receive_share(to_cs)
    with pytest.raises(DuplicateShareError):
        cs.receive_share(to_cs)
    with pytest.raises(MissingShareError, match=r"\[1\]"):
        cs.finalize_model(RoundContext(1, (0, 1)), np.zeros(2, dtype=np.uint64))


def test_finalize_model_reconstructs_encoded_sum():
    params = make_params(dim=2)
    users, cs, vs = setup(3, params, rng=random.Random(13))
    rng = np.random.default_rng(0)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    ctx, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, 1)
    assert m_cs == m_vs == 3
    # Oracle: sum of plaintext encodings.
    expected = field.vec_sum([encode(updates[u.uid], params.codec) for u in users],
                             params.r_w)
    unmasked = field.vec_add(w1pp, expand(vs.k_vg, 1, 2, params.r_w), params.r_w)
    assert np.array_equal(unmasked, expected)
    msg = cs.publish_model_message(1)
    m, vec = unpack_publish_model(msg.payload)
    assert m == 3 and np.array_equal(vec, w1pp)


def test_tag_shares_reconstruct_tag_sum():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(14))
    rng = np.random.default_rng(1)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    ctx, _, b2p, _, _ = run_honest_round(users, cs, vs, updates, 1)
    key_vec = tags.derive_tag_key(users[0].k_v, 1, 2, params.r_b)
    expected = sum(
        tags.gen_tag(encode(updates[u.uid], params.codec), key_vec,
                     params.r_w, params.r_b) for u in users) % params.r_b
    b1p = int(expand(cs.k_cg, 1, 1, params.r_b)[0])
    assert (b1p + b2p) % params.r_b == expected


def test_user_reconstruct_honest_three_users():
    params = make_params(dim=2)
    users, cs, vs = setup(3, params, rng=random.Random(15))
    rng = np.random.default_rng(2)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, 1)
    mean = np.mean([updates[u.uid] for u in users], axis=0)
    for u in users:
        res = u.reconstruct_round(w1pp, b2p, m_cs, m_vs, 1)
        assert res.verified
        assert np.max(np.abs(res.model - mean)) <= 0.5 / params.codec.delta
        assert u.last_verified_round == 1
        assert np.array_equal(u.current_model, res.model)


def test_user_reconstruct_single_participant_identity():
    params = make_params(dim=3, n_max=1)
    users, cs, vs = setup(1, params, rng=random.Random(16))
    update = np.array([0.75, -0.5, 0.125])
    _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, {0: update}, 1)
    res = users[0].reconstruct_round(w1pp, b2p, m_cs, m_vs, 1)
    assert res.verified
    assert np.max(np.abs(res.model - update)) <= 0.5 / params.codec.delta


def test_user_reconstruct_detects_flipped_coordinate():
    params = make_params(dim=4)
    users, cs, vs = setup(3, params, rng=random.Random(17))
    rng = np.random.default_rng(3)
    updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
    _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, 1)
    tampered = w1pp.copy()
    tampered[2] = (tampered[2] + np.uint64(1)) % np.uint64(params.r_w)
    res = users[0].reconstruct_round(tampered, b2p, m_cs, m_vs, 1)
    assert not res.verified
    assert res.model is None
    assert users[0].current_model is None  # state unchanged on alarm
    assert res.expected_tag != res.computed_tag


def test_user_reconstruct_rejects_m_mismatch():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(18))
    rng = np.random.default_rng(4)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, 1)
    with pytest.raises(ParticipantMismatchError):
        users[0].reconstruct_round(w1pp, b2p, m_cs + 1, m_vs, 1)


def test_shares_differ_across_rounds():
    params = make_params(dim=2)
    users, _, _ = setup(1, params, rng=random.Random(19))
    update = np.array([0.5, 0.5])
    to_cs_1, _ = users[0].share_round(update, 1)
    to_cs_2, _ = users[0].share_round(update, 2)
    assert to_cs_1.payload != to_cs_2.payload


def test_join_new_user_keys_and_participation():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(20))
    rng = np.random.default_rng(5)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, 1)

    joiner = join_new_user(cs, vs, rng=random.Random(21))
    assert joiner.uid == 2
    assert joiner.k_v == users[0].k_v
    # The joiner can verify the already-published round.
    res = joiner.reconstruct_round(w1pp, b2p, m_cs, m_vs, 1)
    assert res.verified

    everyone = users + [joiner]
    updates2 = {u.uid: rng.uniform(-1, 1, 2) for u in everyone}
    _, w1pp2, b2p2, m2_cs, m2_vs = run_honest_round(everyone, cs, vs, updates2, 2)
    mean = np.mean([updates2[u.uid] for u in everyone], axis=0)
    res2 = joiner.reconstruct_round(w1pp2, b2p2, m2_cs, m2_vs, 2)
    assert res2.verified
    assert np.max(np.abs(res2.model - mean)) <= 0.5 / params.codec.delta


def test_join_rejects_duplicate_id():
    params = make_params()
    _, cs, vs = setup(1, params, rng=random.Random(22))
    with pytest.raises(DuplicateIdError):
        cs.register_user(0, KeyMaterial.generate())


def test_weighted_round_matches_weighted_oracle():
    base_dim = 2
    params = make_params(dim=base_dim + 1)
    users, cs, vs = setup(2, params, rng=random.Random(23))
    weights = {0: 1.0, 1: 3.0}
    updates = {0: np.array([0.5, -0.5]), 1: np.array([0.25, 0.75])}
    _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, 1,
                                                weights=weights)
    res = users[0].reconstruct_round(w1pp, b2p, m_cs, m_vs, 1, weighted=True)
    assert res.verified
    expected = (updates[0] * 1.0 + updates[1] * 3.0) / 4.0
    assert np.max(np.abs(res.model - expected)) <= 0.5 / params.codec.delta
    # Integral weights recover exactly.
    assert users[0].recovered_weight_sum(w1pp, 1) == 4.0


def test_weighted_unit_weights_match_unweighted():
    params = make_params(dim=3)
    users_w, cs_w, vs_w = setup(2, params, rng=random.Random(24))
    users_p, cs_p, vs_p = setup(2, params, rng=random.Random(24))
    # Weighted path with all weights 1 shares [w || 1]; compare against the
    # unweighted path on the padded vector.
    updates = {0: np.array([0.5, -0.25]), 1: np.array([0.125, 0.875])}
    weights = {0: 1.0, 1: 1.0}
    _, w1, b1, mc1, mv1 = run_honest_round(users_w, cs_w, vs_w, updates, 1,
                                           weights=weights)
    res_w = users_w[0].reconstruct_round(w1, b1, mc1, mv1, 1, weighted=True)
    padded = {uid: np.append(v, 1.0) for uid, v in updates.items()}
    _, w2, b2, mc2, mv2 = run_honest_round(users_p, cs_p, vs_p, padded, 1)
    res_p = users_p[0].reconstruct_round(w2, b2, mc2, mv2, 1)
    assert res_w.verified and res_p.verified
    assert np.allclose(res_w.model, res_p.model[:-1], atol=0.5 / params.codec.delta)


def test_server_state_stays_within_one_round_over_many_rounds():
    params = make_params(dim=8)
    users, cs, vs = setup(3, params, rng=random.Random(25))
    rng = np.random.default_rng(5)
    for r in range(1, 61):
        updates = {u.uid: rng.uniform(-1, 1, 8) for u in users}
        _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, r)
        # Only the finalized round is kept, with its publication but no shares.
        assert list(cs.rounds) == [r] and list(vs.rounds) == [r]
        assert not cs.rounds[r].shares and not vs.rounds[r].tag_shares
        assert cs.rounds[r].published.size == params.dim
        assert users[0].reconstruct_round(w1pp, b2p, m_cs, m_vs, r).verified
    assert cs.finalized_round == vs.finalized_round == 60


def test_servers_reject_shares_for_finalized_rounds():
    params = make_params()
    users, cs, vs = setup(3, params, rng=random.Random(26))
    late = {}
    for u in users:
        to_cs, to_vs = u.share_round(np.zeros(2), 1)
        if u.uid == 2:
            late = {"cs": to_cs, "vs": to_vs}
            continue
        cs.receive_share(to_cs)
        vs.receive_tag_share(to_vs)
    ctx = RoundContext(1, (0, 1))
    cs.finalize_model(ctx, vs.model_aggregate(ctx))
    vs.finalize_tag(ctx, cs.tag_aggregate(ctx))
    with pytest.raises(StaleRoundError):
        cs.receive_share(late["cs"])
    with pytest.raises(StaleRoundError):
        vs.receive_tag_share(late["vs"])
    with pytest.raises(StaleRoundError):
        cs.finalize_model(ctx, vs.model_aggregate(ctx))
    with pytest.raises(StaleRoundError):
        vs.finalize_tag(ctx, cs.tag_aggregate(ctx))
    # The next round is open.
    to_cs, to_vs = users[2].share_round(np.zeros(2), 2)
    cs.receive_share(to_cs)
    vs.receive_tag_share(to_vs)
    assert cs.online_ids(2) == vs.online_ids(2) == [2]


def test_cs_rejects_non_canonical_share():
    params = make_params()
    users, cs, _ = setup(1, params, rng=random.Random(27))
    to_cs, _ = users[0].share_round(np.zeros(2), 1)
    bad = field.vec_from_raw(to_cs.payload).copy()
    bad[1] = np.uint64(params.r_w)
    with pytest.raises(ProtocolError, match="non-canonical"):
        cs.receive_share(Message(to_cs.kind, 1, 0, field.vec_to_raw(bad)))
    assert cs.online_ids(1) == []


def test_user_derives_tag_key_once_per_round(monkeypatch):
    calls = []
    derive = tags.derive_tag_key

    def counting(*args):
        calls.append(args[1])
        return derive(*args)

    monkeypatch.setattr(tags, "derive_tag_key", counting)
    params = make_params(dim=4)
    users, cs, vs = setup(2, params, rng=random.Random(28))
    rng = np.random.default_rng(6)
    for r in (1, 2):
        updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
        _, w1pp, b2p, m_cs, m_vs = run_honest_round(users, cs, vs, updates, r)
        for u in users:
            assert u.reconstruct_round(w1pp, b2p, m_cs, m_vs, r).verified
    assert calls == [1, 1, 2, 2]
    # Once the user has shared a later round, it derives round 2's key afresh.
    users[0].share_round(np.zeros(4), 3)
    assert users[0].reconstruct_round(w1pp, b2p, m_cs, m_vs, 2).verified
    assert calls == [1, 1, 2, 2, 3, 2]
