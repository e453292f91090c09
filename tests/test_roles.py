import random
from dataclasses import replace

import numpy as np
import pytest

from vsecagg import field, tags
from vsecagg.codec import CodecParams, decode, encode
from vsecagg.field import FieldModulus
from vsecagg.prf import KeyMaterial, concat_keys, expand
from vsecagg.roles import (CsState, DuplicateIdError, DuplicateShareError,
                           EmptyIntersectionError, MissingShareError,
                           ProtocolError, ProtocolParams, RoundContext, StaleRoundError,
                           UserState, VsState, init_model_from_seeds, intersect_online,
                           join_new_user, setup)
from vsecagg.wire import (AlarmReason, Message, MessageKind, pack_publish_model,
                          unpack_publish_model, unpack_publish_tag)

BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60
MERSENNE_61 = (1 << 61) - 1  # the default modulus
# A word above every residue: an unreduced sum holding it reaches 2^63,
# past the operand bound of the tag's limb dot product.
HIGH_WORD = (1 << 64) - (1 << 61)


def make_params(dim=2, r=BIG_PRIME, n_max=10, delta=1 << 40, bound=10.0):
    return ProtocolParams(dim=dim, codec=CodecParams(delta=delta, r_w=r, n_max=n_max,
                                                     x_min=-bound, x_max=bound))


def run_honest_round(users, cs, vs, updates, r, weights=None):
    """Drive one round directly through the role APIs (no transport).

    Returns the round's context and its two publications.
    """
    for u in users:
        weight = weights[u.uid] if weights else None
        to_cs, to_vs = u.share_round(updates[u.uid], r, weight=weight)
        cs.receive_share(to_cs)
        vs.receive_tag_share(to_vs)
    ctx = intersect_online(cs.online_ids(r), vs.online_ids(r), r)
    cs.finalize_model(ctx, vs.model_aggregate(ctx))
    vs.finalize_tag(ctx, cs.tag_aggregate(ctx))
    return ctx, cs.publish_model_message(r), vs.publish_tag_message(r)


def model_publication(vec, m, r):
    """A PUBLISH_MODEL message carrying ``vec`` and count ``m``, as the CS frames one."""
    return Message(MessageKind.PUBLISH_MODEL, r, 0, pack_publish_model(m, vec))


def reshare_model(vec, r):
    return Message(MessageKind.RESHARE_MODEL, r, 1, field.vec_to_raw(vec))


def weight_sum(user, w1pp, r):
    """The weight-sum coordinate of a weighted round's published aggregate."""
    p = user.params
    w_prime = field.vec_add(w1pp, expand(user.k_vg, r, p.dim, p.r), p.r)
    return int(field.vec_to_signed(w_prime[-1:], p.r)[0]) / p.codec.delta


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


def test_initial_model_identical_and_seed_sensitive():
    params = make_params(dim=8)
    users, cs, vs = setup(3, params, rng=random.Random(4))
    base = init_model_from_seeds(cs.seed, vs.seed, params.dim, params.r)
    for u in users:
        assert np.array_equal(u.initial_model, base)
    other = init_model_from_seeds(cs.seed, KeyMaterial.generate(random.Random(5)),
                                  params.dim, params.r)
    assert not np.array_equal(base, other)
    # The round index of the seed expansion is fixed at zero.
    assert np.array_equal(base, expand(concat_keys(cs.seed, vs.seed), 0,
                                       params.dim, params.r))


def test_initial_model_is_shared_and_read_only():
    params = make_params(dim=4)
    users, cs, vs = setup(3, params, rng=random.Random(4))
    joiner = join_new_user(cs, vs, rng=random.Random(5))
    assert all(u.initial_model is users[0].initial_model for u in users)
    assert joiner.initial_model is users[0].initial_model
    for u in (users[0], joiner):
        with pytest.raises(ValueError):
            u.initial_model[0] = 1


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
    mask = expand(u.k_vi, 1, 3, params.r)
    assert np.array_equal(field.vec_add(share, mask, params.r),
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
    params = make_params(dim=1, r=r, n_max=1, delta=1, bound=4.0)
    _, cs, vs = setup(2, params, rng=random.Random(8))
    ctx = RoundContext(1, (0, 1))
    msg = vs.model_aggregate(ctx)
    assert (msg.kind, msg.round_index, msg.sender) == (MessageKind.RESHARE_MODEL, 1, 1)
    w_t = field.vec_from_raw(msg.payload)
    expected = (int(expand(vs.user_keys[0], 1, 1, r)[0])
                + int(expand(vs.user_keys[1], 1, 1, r)[0])
                - int(expand(vs.k_vg, 1, 1, r)[0])) % r
    assert int(w_t[0]) == expected


def test_vs_model_aggregate_order_independent():
    params = make_params(dim=4)
    _, _, vs = setup(3, params, rng=random.Random(9))
    a = vs.model_aggregate(RoundContext(1, (0, 1, 2)))
    b = vs.model_aggregate(RoundContext(1, (2, 0, 1)))
    assert bytes(a.payload) == bytes(b.payload)


def test_vs_model_aggregate_unknown_participant():
    from vsecagg.roles import UnknownParticipantError
    params = make_params()
    _, _, vs = setup(1, params, rng=random.Random(10))
    with pytest.raises(UnknownParticipantError):
        vs.model_aggregate(RoundContext(1, (0, 99)))


def test_cs_tag_aggregate_single_term():
    params = make_params()
    _, cs, _ = setup(1, params, rng=random.Random(11))
    msg = cs.tag_aggregate(RoundContext(1, (0,)))
    assert (msg.kind, msg.round_index, msg.sender) == (MessageKind.RESHARE_TAG, 1, 0)
    expected = (int(expand(cs.user_keys[0], 1, 1, params.r)[0])
                - int(expand(cs.k_cg, 1, 1, params.r)[0])) % params.r
    assert tags.tag_from_bytes(msg.payload) == expected
    assert cs.tag_aggregate(RoundContext(1, (0,))) == msg


def test_cs_rejects_duplicate_share_and_missing_share():
    params = make_params()
    users, cs, _ = setup(2, params, rng=random.Random(12))
    to_cs, _ = users[0].share_round(np.zeros(2), 1)
    cs.receive_share(to_cs)
    with pytest.raises(DuplicateShareError):
        cs.receive_share(to_cs)
    with pytest.raises(MissingShareError, match=r"\[1\]"):
        cs.finalize_model(RoundContext(1, (0, 1)), reshare_model(np.zeros(2, dtype=np.uint64), 1))


def test_finalize_model_reconstructs_encoded_sum():
    params = make_params(dim=2)
    users, cs, vs = setup(3, params, rng=random.Random(13))
    rng = np.random.default_rng(0)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m_cs, w1pp = unpack_publish_model(model_msg.payload)
    assert m_cs == unpack_publish_tag(tag_msg.payload)[0] == 3
    # Oracle: sum of plaintext encodings.
    expected = field.vec_sum([encode(updates[u.uid], params.codec) for u in users],
                             params.r)
    unmasked = field.vec_add(w1pp, expand(vs.k_vg, 1, 2, params.r), params.r)
    assert np.array_equal(unmasked, expected)
    assert np.array_equal(cs.rounds[1].published, w1pp)


def test_tag_shares_reconstruct_tag_sum():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(14))
    rng = np.random.default_rng(1)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, _, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    _, b2p = unpack_publish_tag(tag_msg.payload)
    key_vec = tags.derive_tag_key(users[0].k_v, 1, 2, params.r)
    expected = sum(
        tags.gen_tag(encode(updates[u.uid], params.codec), key_vec, params.r)
        for u in users) % params.r
    b1p = int(expand(cs.k_cg, 1, 1, params.r)[0])
    assert (b1p + b2p) % params.r == expected


def test_user_reconstruct_honest_three_users():
    params = make_params(dim=2)
    users, cs, vs = setup(3, params, rng=random.Random(15))
    rng = np.random.default_rng(2)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    mean = np.mean([updates[u.uid] for u in users], axis=0)
    for u in users:
        res = u.reconstruct_round(model_msg, tag_msg, 1)
        assert res.verified
        assert np.max(np.abs(res.model - mean)) <= 0.5 / params.codec.delta
        assert u.last_verified_round == 1
        assert np.array_equal(u.current_model, res.model)


def test_user_reconstruct_single_participant_identity():
    params = make_params(dim=3, n_max=1)
    users, cs, vs = setup(1, params, rng=random.Random(16))
    update = np.array([0.75, -0.5, 0.125])
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, {0: update}, 1)
    res = users[0].reconstruct_round(model_msg, tag_msg, 1)
    assert res.verified
    assert np.max(np.abs(res.model - update)) <= 0.5 / params.codec.delta


def test_user_reconstruct_detects_flipped_coordinate():
    params = make_params(dim=4)
    users, cs, vs = setup(3, params, rng=random.Random(17))
    rng = np.random.default_rng(3)
    updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m, w1pp = unpack_publish_model(model_msg.payload)
    _, b2p = unpack_publish_tag(tag_msg.payload)
    tampered = w1pp.copy()
    tampered[2] = (tampered[2] + np.uint64(1)) % np.uint64(params.r)
    res = users[0].reconstruct_round(model_publication(tampered, m, 1), tag_msg, 1)
    assert not res.verified
    assert res.model is None
    assert users[0].current_model is None  # state unchanged on alarm
    reason, expected, computed = res.alarm
    assert reason == AlarmReason.TAG_MISMATCH and expected != computed
    # The expected tag is the one the publications vouch for.
    b1p = int(expand(users[0].k_cg, 1, 1, params.r)[0])
    assert expected == (b1p + b2p) % params.r


def test_user_reconstruct_rejects_m_mismatch():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(18))
    rng = np.random.default_rng(4)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified
    model = users[0].current_model
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 2)
    m, w1pp = unpack_publish_model(model_msg.payload)
    # Everything but the CS's count is honest, so only the count check can fire.
    res = users[0].reconstruct_round(model_publication(w1pp, m + 1, 2), tag_msg, 2)
    assert not res.verified
    assert res.model is None
    assert res.alarm == (AlarmReason.COUNT_MISMATCH, m + 1, m)
    assert users[0].current_model is model and users[0].last_verified_round == 1


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
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)

    joiner = join_new_user(cs, vs, rng=random.Random(21))
    assert joiner.uid == 2
    for u in users:
        assert (joiner.k_cg, joiner.k_vg, joiner.k_v) == (u.k_cg, u.k_vg, u.k_v)
    others = {k for u in users for k in (u.k_vi, u.k_ci)}
    assert joiner.k_vi != joiner.k_ci and others.isdisjoint({joiner.k_vi, joiner.k_ci})
    assert (vs.user_keys[2], cs.user_keys[2]) == (joiner.k_vi, joiner.k_ci)
    # The joiner can verify the already-published round.
    res = joiner.reconstruct_round(model_msg, tag_msg, 1)
    assert res.verified

    everyone = users + [joiner]
    updates2 = {u.uid: rng.uniform(-1, 1, 2) for u in everyone}
    _, model_msg2, tag_msg2 = run_honest_round(everyone, cs, vs, updates2, 2)
    mean = np.mean([updates2[u.uid] for u in everyone], axis=0)
    res2 = joiner.reconstruct_round(model_msg2, tag_msg2, 2)
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
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1, weights=weights)
    res = users[0].reconstruct_round(model_msg, tag_msg, 1, weighted=True)
    assert res.verified
    expected = (updates[0] * 1.0 + updates[1] * 3.0) / 4.0
    assert np.max(np.abs(res.model - expected)) <= 0.5 / params.codec.delta
    # Integral weights recover exactly.
    assert weight_sum(users[0], cs.rounds[1].published, 1) == 4.0


def test_weighted_unit_weights_match_unweighted():
    params = make_params(dim=3)
    users_w, cs_w, vs_w = setup(2, params, rng=random.Random(24))
    users_p, cs_p, vs_p = setup(2, params, rng=random.Random(24))
    # Weighted path with all weights 1 shares [w || 1]; compare against the
    # unweighted path on the padded vector.
    updates = {0: np.array([0.5, -0.25]), 1: np.array([0.125, 0.875])}
    weights = {0: 1.0, 1: 1.0}
    _, model_w, tag_w = run_honest_round(users_w, cs_w, vs_w, updates, 1, weights=weights)
    res_w = users_w[0].reconstruct_round(model_w, tag_w, 1, weighted=True)
    padded = {uid: np.append(v, 1.0) for uid, v in updates.items()}
    _, model_p, tag_p = run_honest_round(users_p, cs_p, vs_p, padded, 1)
    res_p = users_p[0].reconstruct_round(model_p, tag_p, 1)
    assert res_w.verified and res_p.verified
    assert np.allclose(res_w.model, res_p.model[:-1], atol=0.5 / params.codec.delta)


def test_server_state_stays_within_one_round_over_many_rounds():
    params = make_params(dim=8)
    users, cs, vs = setup(3, params, rng=random.Random(25))
    rng = np.random.default_rng(5)
    for r in range(1, 61):
        updates = {u.uid: rng.uniform(-1, 1, 8) for u in users}
        _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, r)
        # Only the finalized round is kept, with its publication but no shares.
        assert list(cs.rounds) == [r] and list(vs.rounds) == [r]
        assert not cs.rounds[r].shares and not vs.rounds[r].shares
        assert cs.rounds[r].published.size == params.dim
        assert users[0].reconstruct_round(model_msg, tag_msg, r).verified
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
    bad[1] = np.uint64(params.r)
    with pytest.raises(ProtocolError, match="non-canonical"):
        cs.receive_share(Message(to_cs.kind, 1, 0, field.vec_to_raw(bad)))
    assert cs.online_ids(1) == []


def test_rejected_shares_open_no_round():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(41))
    rng = np.random.default_rng(12)
    run_honest_round(users, cs, vs, {u.uid: rng.uniform(-1, 1, 2) for u in users}, 1)
    # User 0's shares open round 2; round 3 is open at neither server.
    to_cs, to_vs = users[0].share_round(np.zeros(2), 2)
    cs.receive_share(to_cs)
    vs.receive_tag_share(to_vs)
    non_canonical = field.vec_from_raw(to_cs.payload).copy()
    non_canonical[0] = np.uint64(params.r)
    model, tag = MessageKind.MODEL_SHARE, MessageKind.TAG_SHARE
    bad = [(cs.receive_share, to_cs), (vs.receive_tag_share, to_vs),  # duplicates
           (cs.receive_share, Message(model, 1, 1, to_cs.payload)),  # finalized round
           (vs.receive_tag_share, Message(tag, 1, 1, to_vs.payload))]
    for r in (2, 3):
        bad += [(cs.receive_share, Message(tag, r, 1, to_vs.payload)),
                (cs.receive_share, Message(model, r, 1, to_cs.payload[:-8])),
                (cs.receive_share, Message(model, r, 1, b"abc")),
                (cs.receive_share, Message(model, r, 1, field.vec_to_raw(non_canonical))),
                (vs.receive_tag_share, Message(model, r, 1, to_cs.payload)),
                (vs.receive_tag_share, Message(tag, r, 1, b"abc")),
                (vs.receive_tag_share, Message(tag, r, 1, to_vs.payload + b"\0"))]

    def books():
        return [{r: sorted(state.shares) for r, state in server.rounds.items()}
                for server in (cs, vs)]

    before = books()
    for receive, msg in bad:
        with pytest.raises(ProtocolError):
            receive(msg)
        assert books() == before
    # Round 2 completes with user 1's honest shares, and both users verify it.
    to_cs, to_vs = users[1].share_round(np.zeros(2), 2)
    cs.receive_share(to_cs)
    vs.receive_tag_share(to_vs)
    ctx = intersect_online(cs.online_ids(2), vs.online_ids(2), 2)
    cs.finalize_model(ctx, vs.model_aggregate(ctx))
    vs.finalize_tag(ctx, cs.tag_aggregate(ctx))
    for u in users:
        res = u.reconstruct_round(cs.publish_model_message(2), vs.publish_tag_message(2), 2)
        assert res.verified and np.array_equal(res.model, np.zeros(2))


@pytest.mark.parametrize("r", [BIG_PRIME, MERSENNE_61])
def test_user_fails_closed_on_non_canonical_aggregate(r):
    params = make_params(dim=4, r=r)
    users, cs, vs = setup(3, params, rng=random.Random(29))
    rng = np.random.default_rng(7)
    updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m, w1pp = unpack_publish_model(model_msg.payload)
    one_high = w1pp.copy()
    one_high[2] = np.uint64(r)
    everywhere = np.full(4, HIGH_WORD, dtype=np.uint64)
    for published, index, value in ((one_high, 2, r), (everywhere, 0, HIGH_WORD)):
        res = users[0].reconstruct_round(model_publication(published, m, 1), tag_msg, 1)
        assert not res.verified and res.model is None
        assert res.alarm == (AlarmReason.NON_CANONICAL, index, value)
    assert users[0].current_model is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified


def test_user_fails_closed_on_wrong_length_aggregate():
    params = make_params(dim=4, r=MERSENNE_61)
    users, cs, vs = setup(3, params, rng=random.Random(31))
    rng = np.random.default_rng(8)
    updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m, w1pp = unpack_publish_model(model_msg.payload)
    for published in (w1pp[:3], np.append(w1pp, w1pp[:1]), w1pp[:0]):
        res = users[0].reconstruct_round(model_publication(published, m, 1), tag_msg, 1)
        assert not res.verified and res.model is None
        assert res.alarm == (AlarmReason.LENGTH_MISMATCH, 4, published.size)
    assert users[0].current_model is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified


def test_cs_rejects_non_canonical_reshare():
    params = make_params(dim=3, r=MERSENNE_61)
    users, cs, vs = setup(2, params, rng=random.Random(30))
    for u in users:
        to_cs, to_vs = u.share_round(np.zeros(3), 1)
        cs.receive_share(to_cs)
        vs.receive_tag_share(to_vs)
    ctx = intersect_online(cs.online_ids(1), vs.online_ids(1), 1)
    w_t = vs.model_aggregate(ctx)
    one_high = field.vec_from_raw(w_t.payload).copy()
    one_high[1] = np.uint64(MERSENNE_61)
    for bad in (one_high, np.full(3, HIGH_WORD, dtype=np.uint64)):
        with pytest.raises(ProtocolError, match="non-canonical"):
            cs.finalize_model(ctx, reshare_model(bad, 1))
    assert cs.finalized_round == 0
    assert cs.finalize_model(ctx, w_t) is None
    assert cs.rounds[1].m == 2 and int(cs.rounds[1].published.max()) < MERSENNE_61


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
        _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, r)
        for u in users:
            assert u.reconstruct_round(model_msg, tag_msg, r).verified
    assert calls == [1, 1, 2, 2]
    # Once the user has shared a later round, it derives round 2's key afresh.
    users[0].share_round(np.zeros(4), 3)
    assert users[0].reconstruct_round(model_msg, tag_msg, 2).verified
    assert calls == [1, 1, 2, 2, 3, 2]


@pytest.mark.parametrize("kind", [MessageKind.PUBLISH_MODEL, MessageKind.PUBLISH_TAG],
                         ids=lambda kind: kind.name)
def test_user_rejects_a_publication_that_does_not_parse(kind):
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(32))
    rng = np.random.default_rng(9)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    short = Message(kind, 1, 0, b"\x00" * 3)
    pair = (short, tag_msg) if kind is MessageKind.PUBLISH_MODEL else (model_msg, short)
    res = users[0].reconstruct_round(*pair, 1)
    assert not res.verified and res.model is None
    assert res.alarm == (AlarmReason.MALFORMED_PUBLICATION, int(kind), 3)
    assert users[0].current_model is None and users[0].last_verified_round is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified


def test_finalize_rejects_a_reshare_of_the_wrong_kind_or_round():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(33))
    for u in users:
        to_cs, to_vs = u.share_round(np.zeros(2), 2)
        cs.receive_share(to_cs)
        vs.receive_tag_share(to_vs)
    ctx = RoundContext(2, (0, 1))
    w_t, b_t = vs.model_aggregate(ctx), cs.tag_aggregate(ctx)
    for bad in (b_t, replace(w_t, round_index=1), replace(w_t, round_index=3),
                replace(w_t, payload=b"abc"), replace(w_t, payload=w_t.payload[:-8])):
        with pytest.raises(ProtocolError):
            cs.finalize_model(ctx, bad)
    for bad in (w_t, replace(b_t, round_index=1), replace(b_t, round_index=3),
                replace(b_t, payload=b"abc")):
        with pytest.raises(ProtocolError):
            vs.finalize_tag(ctx, bad)
    assert cs.finalized_round == vs.finalized_round == 0
    assert list(cs.rounds) == list(vs.rounds) == [2]
    cs.finalize_model(ctx, w_t)
    vs.finalize_tag(ctx, b_t)
    assert cs.finalized_round == vs.finalized_round == 2
    for u in users:
        res = u.reconstruct_round(cs.publish_model_message(2), vs.publish_tag_message(2), 2)
        assert res.verified and np.array_equal(res.model, np.zeros(2))


def test_user_rejects_a_publication_of_another_round():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(34))
    rng = np.random.default_rng(10)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, model_1, tag_1 = run_honest_round(users, cs, vs, updates, 1)
    assert users[0].reconstruct_round(model_1, tag_1, 1).verified
    model = users[0].current_model
    _, model_2, tag_2 = run_honest_round(users, cs, vs, updates, 2)
    # Round 1's publications replayed at round 2, both or one of them.
    for pair in ((model_1, tag_1), (model_1, tag_2), (model_2, tag_1)):
        res = users[0].reconstruct_round(*pair, 2)
        assert not res.verified and res.model is None
        assert res.alarm == (AlarmReason.ROUND_MISMATCH, 2, 1)
        assert users[0].current_model is model and users[0].last_verified_round == 1
    assert users[0].reconstruct_round(model_2, tag_2, 2).verified


def test_user_rejects_publications_of_the_wrong_kind():
    # At d = 1 both publications are 16 bytes, so swapped they would parse.
    params = make_params(dim=1)
    users, cs, vs = setup(2, params, rng=random.Random(35))
    rng = np.random.default_rng(11)
    updates = {u.uid: rng.uniform(-1, 1, 1) for u in users}
    _, model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    assert len(model_msg.payload) == len(tag_msg.payload)
    for pair, wrong in (((tag_msg, model_msg), tag_msg), ((model_msg, model_msg), model_msg)):
        res = users[0].reconstruct_round(*pair, 1)
        assert not res.verified and res.model is None
        assert res.alarm == (AlarmReason.MALFORMED_PUBLICATION, int(wrong.kind),
                             len(wrong.payload))
        assert users[0].current_model is None and users[0].last_verified_round is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified
