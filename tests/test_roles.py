import random
import struct
from dataclasses import replace

import numpy as np
import pytest

from vsecagg import field, tags
from vsecagg.codec import CodecParams, decode, encode
from vsecagg.field import FieldModulus
from vsecagg.harness import RunConfig, default_params
from vsecagg.prf import KeyMaterial, concat_keys, expand
from vsecagg.roles import (Alarm, CsState, ProtocolError, ProtocolParams, UserState, VsState,
                           init_model_from_seeds, join_new_user, setup)
from vsecagg.wire import (AlarmReason, Message, MessageKind, pack_online_list,
                          pack_publication, unpack_publication)

BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60
MERSENNE_61 = (1 << 61) - 1  # the default modulus
# A word above every residue: an unreduced sum holding it reaches 2^63,
# past the operand bound of the tag's limb dot product.
HIGH_WORD = (1 << 64) - (1 << 61)


def make_params(dim=2, r=BIG_PRIME, n_max=10, delta=1 << 40, bound=10.0, weighted=False):
    return ProtocolParams(dim=dim, codec=CodecParams(delta=delta, r_w=r, n_max=n_max,
                                                     x_min=-bound, x_max=bound),
                          weighted=weighted)


def start(r, *servers):
    """Open round r at each server, as run_round does before any user shares."""
    for server in servers:
        server.start_round(r)


def share_all(users, cs, vs, updates, r, weights=None):
    """Every user's two shares of round r, delivered to both servers; r must be open."""
    for u in users:
        weight = weights[u.uid] if weights else None
        to_cs, to_vs = u.share_round(updates[u.uid], r, weight=weight)
        cs.receive_share(to_cs)
        vs.receive_share(to_vs)


def reshares(cs, vs, r):
    """Each server's answer to the peer's ONLINE_LIST of round r, as run_round
    routes them: the VS's RESHARE_MODEL, then the CS's RESHARE_TAG."""
    _, w_t = vs.model_aggregate(cs.online_list(r))
    _, b_t = cs.tag_aggregate(vs.online_list(r))
    return w_t, b_t


def aggregate(cs, vs, r):
    """Both reshares of round r, then both finalizations; returns the publications."""
    w_t, b_t = reshares(cs, vs, r)
    return cs.finalize(w_t), vs.finalize(b_t)


def run_honest_round(users, cs, vs, updates, r, weights=None):
    """Drive one round directly through the role APIs (no transport).

    Returns the round's two publications.
    """
    start(r, cs, vs)
    share_all(users, cs, vs, updates, r, weights)
    return aggregate(cs, vs, r)


def list_message(ids, r, sender=1):
    return Message(MessageKind.ONLINE_LIST, r, sender, pack_online_list(ids))


def assert_all_verify(users, publications, r, model=None):
    """Every user verifies round r's publications, and decodes ``model`` if given."""
    for u in users:
        res = u.reconstruct_round(*publications, r)
        assert res.verified
        if model is not None:
            assert np.array_equal(res.model, model)


def model_publication(vec, m, r):
    """A PUBLISH_MODEL message carrying ``vec`` and count ``m``, as the CS frames one."""
    return Message(MessageKind.PUBLISH_MODEL, r, 0, pack_publication(m, field.vec_to_raw(vec)))


def read_model(msg):
    """The count and the vector a PUBLISH_MODEL message carries."""
    m, body = unpack_publication(msg.payload)
    return m, field.vec_from_raw(body)


def read_tag(msg):
    """The count and the tag a PUBLISH_TAG message carries."""
    m, body = unpack_publication(msg.payload)
    return m, tags.tag_from_bytes(body)


def reshare_model(vec, r):
    return Message(MessageKind.RESHARE_MODEL, r, 1, field.vec_to_raw(vec))


def weight_sum(user, w1pp, r):
    """The weight-sum coordinate of a weighted round's published aggregate."""
    p = user.params
    w_prime = field.vec_add(w1pp, expand(user.k_vg, r, p.words, p.r), p.r)
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
    with pytest.raises(ProtocolError, match="user id 0 already registered at CS"):
        cs.register_user(0, KeyMaterial.generate())
    with pytest.raises(ProtocolError, match="user id 1 already registered at VS"):
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
    assert all(np.array_equal(u.initial_model, users[0].initial_model)
               for u in users + [joiner])
    for u in (users[0], joiner):
        with pytest.raises(ValueError):
            u.initial_model[0] = 1


def count_expand_calls(monkeypatch):
    """A list that grows by one entry per ``roles.expand`` call."""
    from vsecagg import roles
    calls, inner = [], roles.expand

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(roles, "expand", counting)
    return calls


def test_setup_expands_nothing(monkeypatch):
    calls = count_expand_calls(monkeypatch)
    setup(10, make_params(dim=1000), rng=random.Random(6))
    assert calls == []


def test_every_user_derives_the_initial_model_on_first_read(monkeypatch):
    # A user enrolled at setup and a joiner derive it alike, once each.
    params = make_params(dim=6)
    users, cs, vs = setup(2, params, rng=random.Random(7))
    joiner = join_new_user(cs, vs, rng=random.Random(8))
    expected = init_model_from_seeds(cs.seed, vs.seed, params.dim, params.r)
    calls = count_expand_calls(monkeypatch)
    for count, u in enumerate((users[1], joiner), start=1):
        assert np.array_equal(u.initial_model, expected)
        assert np.array_equal(u.initial_model, expected)
        assert len(calls) == count
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
    with pytest.raises(ProtocolError, match="user 0 already shared round 2; got round 2"):
        users[0].share_round(np.zeros(2), 2)
    with pytest.raises(ProtocolError, match="user 0 already shared round 2; got round 1"):
        users[0].share_round(np.zeros(2), 1)


def test_share_round_rejects_a_bad_weight_or_update_size():
    (plain,), _, _ = setup(1, make_params(dim=2), rng=random.Random(47))
    (weighted,), _, _ = setup(1, make_params(dim=2, weighted=True), rng=random.Random(47))
    for weight in (0.0, -1.0):
        with pytest.raises(ProtocolError, match=f"weight must be positive, got {weight}"):
            weighted.share_round(np.zeros(2), 1, weight=weight)
    # A weight below one quantum encodes to 0, and a weight sum of 0 divides nothing.
    with pytest.raises(ProtocolError, match="weight 1e-300 is below one quantum"):
        weighted.share_round(np.zeros(2), 1, weight=1e-300)
    # An update holds d values in either run: the weight's word is not the caller's.
    for u, weight in ((plain, None), (weighted, 1.0)):
        for size in (1, 3):
            with pytest.raises(ProtocolError, match=f"update has {size} parameters, expected 2"):
                u.share_round(np.zeros(size), 1, weight=weight)
    # The run decides the weighting: a weight in an unweighted run is refused,
    # and so is an update without one in a weighted run.
    for u, weight in ((plain, 1.0), (weighted, None)):
        with pytest.raises(ProtocolError, match=f"an unweighted run none; got weight {weight}"):
            u.share_round(np.zeros(2), 1, weight=weight)
    # A refused update shares nothing: round 1 is still the user's to share.
    assert plain.share_round(np.zeros(2), 1)[0].round_index == 1
    assert weighted.share_round(np.zeros(2), 1, weight=1.0)[0].round_index == 1


def test_vs_model_aggregate_hand_summed():
    r = 17
    params = make_params(dim=1, r=r, n_max=2, delta=1, bound=3.0)
    users, cs, vs = setup(2, params, rng=random.Random(8))
    start(1, cs, vs)
    share_all(users, cs, vs, {0: np.zeros(1), 1: np.ones(1)}, 1)
    ids, msg = vs.model_aggregate(cs.online_list(1))
    assert ids == (0, 1)
    assert (msg.kind, msg.round_index, msg.sender) == (MessageKind.RESHARE_MODEL, 1, 1)
    w_t = field.vec_from_raw(msg.payload)
    expected = (int(expand(vs.user_keys[0], 1, 1, r)[0])
                + int(expand(vs.user_keys[1], 1, 1, r)[0])
                - int(expand(vs.k_vg, 1, 1, r)[0])) % r
    assert int(w_t[0]) == expected


def test_vs_model_aggregate_order_independent():
    # Two VSs with the same keys take the tag shares and the CS's list in
    # different orders; both fix participants (0, 1, 2) and answer alike.
    params = make_params(dim=4)
    users, _, vs_a = setup(3, params, rng=random.Random(9))
    _, _, vs_b = setup(3, params, rng=random.Random(9))
    to_vs = [u.share_round(np.zeros(4), 1)[1] for u in users]
    start(1, vs_a, vs_b)
    for msg in to_vs:
        vs_a.receive_share(msg)
    for msg in reversed(to_vs):
        vs_b.receive_share(msg)
    fixed_a, w_a = vs_a.model_aggregate(list_message([0, 1, 2], 1, sender=0))
    fixed_b, w_b = vs_b.model_aggregate(Message(MessageKind.ONLINE_LIST, 1, 0,
                                                struct.pack("<3I", 2, 0, 1)))
    assert fixed_a == fixed_b == vs_a.rounds[1].participants == (0, 1, 2)
    assert bytes(w_a.payload) == bytes(w_b.payload)


def test_cs_tag_aggregate_single_term():
    params = make_params()
    users, cs, vs = setup(1, params, rng=random.Random(11))
    start(1, cs, vs)
    share_all(users, cs, vs, {0: np.zeros(2)}, 1)
    ids, msg = cs.tag_aggregate(vs.online_list(1))
    assert ids == (0,)
    assert (msg.kind, msg.round_index, msg.sender) == (MessageKind.RESHARE_TAG, 1, 0)
    expected = (int(expand(cs.user_keys[0], 1, 1, params.r)[0])
                - int(expand(cs.k_cg, 1, 1, params.r)[0])) % params.r
    assert tags.tag_from_bytes(msg.payload) == expected


def test_each_server_sends_one_reshare_per_round():
    # A second answer for another participant set would differ from the
    # first by one user's mask, which the peer server could strip from that
    # user's share.  A server answers only the first list of a round.
    params = make_params(dim=3)
    users, cs, vs = setup(3, params, rng=random.Random(36))
    start(1, cs, vs)
    share_all(users, cs, vs, {u.uid: np.full(3, 0.5) for u in users}, 1)
    w_t, b_t = reshares(cs, vs, 1)
    for answer, sender in ((vs.model_aggregate, 0), (cs.tag_aggregate, 1)):
        for ids in ([0, 1, 2], [0, 1]):
            with pytest.raises(ProtocolError, match="round 1: [CV]S already fixed them"):
                answer(list_message(ids, 1, sender))
    assert cs.rounds[1].participants == vs.rounds[1].participants == (0, 1, 2)
    assert_all_verify(users, (cs.finalize(w_t), vs.finalize(b_t)), 1,
                      np.full(3, 0.5))


def test_servers_reshare_only_for_fixed_participants():
    # Both servers hold all three users' shares, but the lists leave user 1
    # out, so each reshare regenerates the masks of users 0 and 2 only.
    params = make_params()
    users, cs, vs = setup(3, params, rng=random.Random(37))
    start(1, cs, vs)
    share_all(users, cs, vs, {u.uid: np.full(2, 0.25 * u.uid) for u in users}, 1)
    vs_ids, w_t = vs.model_aggregate(list_message([0, 2], 1, sender=0))
    cs_ids, b_t = cs.tag_aggregate(list_message([0, 2], 1))
    assert vs_ids == cs_ids == (0, 2)
    masks = [expand(vs.user_keys[uid], 1, 2, params.r) for uid in (0, 2)]
    assert np.array_equal(field.vec_from_raw(w_t.payload), field.vec_sub(
        field.vec_sum(masks, params.r), expand(vs.k_vg, 1, 2, params.r), params.r))
    assert tags.tag_from_bytes(b_t.payload) == (
        sum(int(expand(cs.user_keys[uid], 1, 1, params.r)[0]) for uid in (0, 2))
        - int(expand(cs.k_cg, 1, 1, params.r)[0])) % params.r
    publications = cs.finalize(w_t), vs.finalize(b_t)
    assert read_model(publications[0])[0] == 2
    assert_all_verify([users[0], users[2]], publications, 1, np.full(2, 0.25))


def test_servers_fix_participants_once():
    params = make_params()
    users, cs, vs = setup(3, params, rng=random.Random(38))
    start(1, cs, vs)
    share_all(users, cs, vs, {u.uid: np.full(2, 0.25 * u.uid) for u in users}, 1)
    vs_ids, w_t = vs.model_aggregate(cs.online_list(1))
    assert vs_ids == (0, 1, 2)
    bad = [(vs.model_aggregate, cs.online_list(1)),  # a second list
           (vs.model_aggregate, list_message([2], 1, sender=0)),  # a second list naming one user
           (cs.tag_aggregate, Message(MessageKind.RESHARE_MODEL, 1, 1,
                                      pack_online_list([0, 1, 2]))),
           (cs.tag_aggregate, Message(MessageKind.ONLINE_LIST, 1, 1, b"abc"))]
    for answer, msg in bad:
        with pytest.raises(ProtocolError):
            answer(msg)
    assert vs.rounds[1].participants == (0, 1, 2) and cs.rounds[1].participants is None
    cs_ids, b_t = cs.tag_aggregate(vs.online_list(1))
    assert cs_ids == (0, 1, 2)
    with pytest.raises(ProtocolError):
        cs.tag_aggregate(list_message([0], 1))
    assert cs.rounds[1].participants == (0, 1, 2)
    model_msg, tag_msg = cs.finalize(w_t), vs.finalize(b_t)
    assert read_model(model_msg)[0] == 3
    assert read_tag(tag_msg)[0] == 3
    assert_all_verify(users, (model_msg, tag_msg), 1, np.full(2, 0.25))


def test_empty_intersection_fixes_no_participants():
    params = make_params()
    users, cs, vs = setup(2, params, rng=random.Random(39))
    start(1, cs, vs)
    with pytest.raises(ProtocolError, match="round 1: no user reached both servers"):
        cs.tag_aggregate(list_message([0, 1], 1))  # the CS holds no share yet
    assert cs.rounds[1].shares == {} and cs.rounds[1].participants is None
    share_all(users, cs, vs, {u.uid: np.zeros(2) for u in users}, 1)
    for ids in ([], [5]):
        with pytest.raises(ProtocolError, match="round 1: no user reached both servers"):
            cs.tag_aggregate(list_message(ids, 1))
    assert cs.rounds[1].participants is None
    assert_all_verify(users, aggregate(cs, vs, 1), 1, np.zeros(2))


def test_a_round_abandoned_at_its_list_exchange_leaves_when_the_next_round_starts():
    params = make_params()
    users, cs, vs = setup(2, params, rng=random.Random(43))
    start(1, cs, vs)
    share_all(users, cs, vs, {u.uid: np.zeros(2) for u in users}, 1)
    vs.model_aggregate(cs.online_list(1))
    with pytest.raises(ProtocolError, match="round 1: no user reached both servers"):
        cs.tag_aggregate(list_message([5], 1))
    # Round 1 is abandoned: its book leaves both servers when round 2 starts.
    start(2, cs, vs)
    assert list(cs.rounds) == list(vs.rounds) == [2]
    assert cs.rounds[2].shares == vs.rounds[2].shares == {}
    share_all(users, cs, vs, {u.uid: np.full(2, 0.5) for u in users}, 2)
    publications = aggregate(cs, vs, 2)
    assert cs.rounds == vs.rounds == {}
    assert_all_verify(users, publications, 2, np.full(2, 0.5))


def test_start_round_refuses_the_round_it_last_started_and_every_earlier_one():
    params = make_params()
    users, cs, vs = setup(2, params, rng=random.Random(48))
    start(5, cs, vs)
    for server, name in ((cs, "CS"), (vs, "VS")):
        for r in (5, 4, 1, 0):
            with pytest.raises(ProtocolError,
                               match=f"{name} already started round 5; got round {r}$"):
                server.start_round(r)
        assert list(server.rounds) == [5]
    share_all(users, cs, vs, {u.uid: np.zeros(2) for u in users}, 5)
    publications = aggregate(cs, vs, 5)
    # A finalized round stays started: it cannot open again.
    for server in (cs, vs):
        with pytest.raises(ProtocolError, match="already started round 5; got round 5$"):
            server.start_round(5)
    assert cs.rounds == vs.rounds == {}
    assert_all_verify(users, publications, 5, np.zeros(2))
    # Round indices may skip, as they do after an aborted round.
    assert_all_verify(users, run_honest_round(users, cs, vs, {u.uid: np.ones(2) for u in users},
                                              7), 7, np.ones(2))


def test_a_round_abandoned_after_its_reshares_never_answers_a_second_list():
    # Both servers answered round 1's lists, and neither finalized.  A second
    # answer for another participant set would differ from the first by one
    # user's mask, so once round 2 starts, round 1 takes no list, no reshare
    # and no share, and cannot open again.
    params = make_params()
    users, cs, vs = setup(3, params, rng=random.Random(49))
    start(1, cs, vs)
    share_all(users, cs, vs, {u.uid: np.zeros(2) for u in users}, 1)
    w_t, b_t = reshares(cs, vs, 1)
    start(2, cs, vs)
    assert list(cs.rounds) == list(vs.rounds) == [2]
    to_cs, to_vs = users[0].share_round(np.zeros(2), 2)
    cs.receive_share(to_cs)
    vs.receive_share(to_vs)
    for name, call, msg in (("VS", vs.model_aggregate, list_message([0, 1], 1, sender=0)),
                            ("CS", cs.tag_aggregate, list_message([0, 1], 1)),
                            ("CS", cs.finalize, w_t), ("VS", vs.finalize, b_t)):
        with pytest.raises(ProtocolError, match=f"{name} has no round 1 open"):
            call(msg)
    for server in (cs, vs):
        with pytest.raises(ProtocolError, match="already started round 2; got round 1"):
            server.start_round(1)
    # Round 2 runs on with user 0 alone.
    assert list(cs.rounds[2].shares) == list(vs.rounds[2].shares) == [0]
    assert_all_verify(users[:1], aggregate(cs, vs, 2), 2, np.zeros(2))


def test_a_message_for_a_round_that_is_not_open_is_refused():
    params = make_params()
    users, cs, vs = setup(2, params, rng=random.Random(50))
    start(2, cs, vs)
    share_all(users, cs, vs, {u.uid: np.zeros(2) for u in users}, 2)
    _, w_t = vs.model_aggregate(cs.online_list(2))
    _, b_t = cs.tag_aggregate(vs.online_list(2))
    to_cs, to_vs = users[0].share_round(np.zeros(2), 3)
    for r in (1, 3):
        for name, call, msg in (
                ("CS", cs.receive_share, replace(to_cs, round_index=r)),
                ("VS", vs.receive_share, replace(to_vs, round_index=r)),
                ("CS", cs.tag_aggregate, list_message([0, 1], r)),
                ("VS", vs.model_aggregate, list_message([0, 1], r, sender=0)),
                ("CS", cs.finalize, replace(w_t, round_index=r)),
                ("VS", vs.finalize, replace(b_t, round_index=r))):
            with pytest.raises(ProtocolError, match=f"^{name} has no round {r} open$"):
                call(msg)
    assert list(cs.rounds) == list(vs.rounds) == [2]
    assert_all_verify(users, (cs.finalize(w_t), vs.finalize(b_t)), 2, np.zeros(2))


@pytest.mark.parametrize("server", ["cs", "vs"])
def test_a_server_finalizes_only_after_sending_its_own_reshare(server):
    # Finalizing drops the round, so a server that finalized before it
    # answered would leave its peer's round unable to finish.  A server that
    # has not answered the peer's list has fixed no participants, and so
    # refuses to finalize.
    params = make_params()
    users, cs, vs = setup(2, params, rng=random.Random(44))
    start(1, cs, vs)
    share_all(users, cs, vs, {u.uid: np.full(2, 0.25) for u in users}, 1)
    if server == "cs":
        _, w_t = vs.model_aggregate(cs.online_list(1))
        with pytest.raises(ProtocolError, match="round 1: CS has fixed no participants"):
            cs.finalize(w_t)
        _, b_t = cs.tag_aggregate(vs.online_list(1))
    else:
        _, b_t = cs.tag_aggregate(vs.online_list(1))
        with pytest.raises(ProtocolError, match="round 1: VS has fixed no participants"):
            vs.finalize(b_t)
        _, w_t = vs.model_aggregate(cs.online_list(1))
    assert list(cs.rounds) == list(vs.rounds) == [1]
    publications = cs.finalize(w_t), vs.finalize(b_t)
    assert cs.rounds == vs.rounds == {}
    assert_all_verify(users, publications, 1, np.full(2, 0.25))


def test_a_finalized_round_takes_no_second_finalize_or_reshare_request():
    params = make_params()
    users, cs, vs = setup(2, params, rng=random.Random(45))
    start(1, cs, vs)
    share_all(users, cs, vs, {u.uid: np.zeros(2) for u in users}, 1)
    w_t, b_t = reshares(cs, vs, 1)
    publications = cs.finalize(w_t), vs.finalize(b_t)
    for finalize_again, reshare in ((cs.finalize, w_t), (vs.finalize, b_t)):
        with pytest.raises(ProtocolError, match="[CV]S has no round 1 open"):
            finalize_again(reshare)
    # A server reshares only in answer to a list, and takes none for the round.
    for answer, sender in ((vs.model_aggregate, 0), (cs.tag_aggregate, 1)):
        with pytest.raises(ProtocolError, match="[CV]S has no round 1 open"):
            answer(list_message([0, 1], 1, sender))
    assert cs.rounds == vs.rounds == {}
    assert_all_verify(users, publications, 1, np.zeros(2))


@pytest.mark.parametrize("server", ["cs", "vs"])
def test_server_rejects_a_share_after_fixing_participants(server):
    params = make_params()
    users, cs, vs = setup(3, params, rng=random.Random(40))
    start(1, cs, vs)
    share_all(users[:2], cs, vs, {0: np.zeros(2), 1: np.ones(2)}, 1)
    w_t, b_t = reshares(cs, vs, 1)
    to_cs, to_vs = users[2].share_round(np.full(2, 0.5), 1)
    target, receive, late = ((cs, cs.receive_share, to_cs) if server == "cs"
                             else (vs, vs.receive_share, to_vs))
    with pytest.raises(ProtocolError, match="late share from user 2"):
        receive(late)
    assert list(target.rounds[1].shares) == [0, 1]
    assert target.rounds[1].participants == (0, 1)
    assert_all_verify(users[:2], (cs.finalize(w_t), vs.finalize(b_t)), 1,
                      np.full(2, 0.5))


def test_cs_rejects_duplicate_share():
    params = make_params()
    users, cs, _ = setup(2, params, rng=random.Random(12))
    to_cs, _ = users[0].share_round(np.zeros(2), 1)
    start(1, cs)
    cs.receive_share(to_cs)
    with pytest.raises(ProtocolError, match="round 1: duplicate share from user 0"):
        cs.receive_share(to_cs)
    assert list(cs.rounds[1].shares) == [0]


def test_finalize_reconstructs_encoded_sum():
    params = make_params(dim=2)
    users, cs, vs = setup(3, params, rng=random.Random(13))
    rng = np.random.default_rng(0)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m_cs, w1pp = read_model(model_msg)
    assert m_cs == read_tag(tag_msg)[0] == 3
    # Oracle: sum of plaintext encodings.
    expected = field.vec_sum([encode(updates[u.uid], params.codec) for u in users],
                             params.r)
    unmasked = field.vec_add(w1pp, expand(vs.k_vg, 1, 2, params.r), params.r)
    assert np.array_equal(unmasked, expected)
    assert cs.rounds == vs.rounds == {}


def test_tag_shares_reconstruct_tag_sum():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(14))
    rng = np.random.default_rng(1)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    _, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    _, b2p = read_tag(tag_msg)
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
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
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
    model_msg, tag_msg = run_honest_round(users, cs, vs, {0: update}, 1)
    res = users[0].reconstruct_round(model_msg, tag_msg, 1)
    assert res.verified
    assert np.max(np.abs(res.model - update)) <= 0.5 / params.codec.delta


def test_user_reconstruct_detects_flipped_coordinate():
    params = make_params(dim=4)
    users, cs, vs = setup(3, params, rng=random.Random(17))
    rng = np.random.default_rng(3)
    updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m, w1pp = read_model(model_msg)
    _, b2p = read_tag(tag_msg)
    tampered = w1pp.copy()
    tampered[2] = (tampered[2] + np.uint64(1)) % np.uint64(params.r)
    res = users[0].reconstruct_round(model_publication(tampered, m, 1), tag_msg, 1)
    assert not res.verified
    assert res.model is None
    assert users[0].current_model is None  # state unchanged on alarm
    # The expected tag is the one the publications vouch for.
    b1p = int(expand(users[0].k_cg, 1, 1, params.r)[0])
    expected = (b1p + b2p) % params.r
    assert res.alarm == Alarm(1, 0, AlarmReason.TAG_MISMATCH, expected, res.alarm.second)
    assert res.alarm.second != expected


def test_user_reconstruct_rejects_m_mismatch():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(18))
    rng = np.random.default_rng(4)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified
    model = users[0].current_model
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 2)
    m, w1pp = read_model(model_msg)
    # Everything but the CS's count is honest, so only the count check can fire.
    res = users[0].reconstruct_round(model_publication(w1pp, m + 1, 2), tag_msg, 2)
    assert not res.verified
    assert res.model is None
    assert res.alarm == Alarm(2, 0, AlarmReason.COUNT_MISMATCH, m + 1, m)
    assert users[0].current_model is model and users[0].last_verified_round == 1


def test_shares_differ_across_rounds():
    params = make_params(dim=2)
    users, _, _ = setup(1, params, rng=random.Random(19))
    update = np.array([0.5, 0.5])
    to_cs_1, _ = users[0].share_round(update, 1)
    to_cs_2, _ = users[0].share_round(update, 2)
    assert to_cs_1.payload != to_cs_2.payload


def test_enrolment_past_n_max_is_refused_before_a_round_can_wrap_the_sum():
    # At n_max = 3, four users sending 10.0 would sum past (R - 1)/2 and
    # wrap, and every participant would verify the mean -6.
    params = default_params(RunConfig(users=3, dim=2, prime_bits=45, delta_exp=40))
    assert params.codec.n_max == 3
    users, cs, vs = setup(3, params, rng=random.Random(22))
    with pytest.raises(ProtocolError):
        join_new_user(cs, vs, rng=random.Random(23))
    assert len(cs.user_keys) == len(vs.user_keys) == 3
    with pytest.raises(ProtocolError):
        setup(4, params, rng=random.Random(22))


def test_join_new_user_keys_and_participation():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(20))
    assert [u.uid for u in users] == [0, 1]
    rng = np.random.default_rng(5)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)

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
    model_msg2, tag_msg2 = run_honest_round(everyone, cs, vs, updates2, 2)
    mean = np.mean([updates2[u.uid] for u in everyone], axis=0)
    res2 = joiner.reconstruct_round(model_msg2, tag_msg2, 2)
    assert res2.verified
    assert np.max(np.abs(res2.model - mean)) <= 0.5 / params.codec.delta
    # Ids continue in enrolment order.
    assert join_new_user(cs, vs, rng=random.Random(22)).uid == 3


def test_join_rejects_duplicate_id():
    params = make_params()
    _, cs, vs = setup(1, params, rng=random.Random(22))
    with pytest.raises(ProtocolError, match="user id 0 already registered at CS"):
        cs.register_user(0, KeyMaterial.generate())


def test_weighted_round_matches_weighted_oracle():
    params = make_params(dim=2, weighted=True)
    users, cs, vs = setup(2, params, rng=random.Random(23))
    weights = {0: 1.0, 1: 3.0}
    updates = {0: np.array([0.5, -0.5]), 1: np.array([0.25, 0.75])}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1, weights=weights)
    res = users[0].reconstruct_round(model_msg, tag_msg, 1)
    assert res.verified
    expected = (updates[0] * 1.0 + updates[1] * 3.0) / 4.0
    assert np.max(np.abs(res.model - expected)) <= 0.5 / params.codec.delta
    # Integral weights recover exactly.
    assert weight_sum(users[0], read_model(model_msg)[1], 1) == 4.0


def test_a_joiner_decodes_a_weighted_round_as_its_participants_do():
    # The run, not a user's last share, decides the weighting, so a user
    # that joins after a weighted round decodes its publications alike.
    params = make_params(dim=2, weighted=True)
    users, cs, vs = setup(2, params, rng=random.Random(46))
    updates = {0: np.array([0.5, -0.25]), 1: np.array([0.75, 0.125])}
    publications = run_honest_round(users, cs, vs, updates, 1, weights={0: 1.0, 1: 3.0})
    joiner = join_new_user(cs, vs, rng=random.Random(47))
    everyone = users + [joiner]
    assert_all_verify(everyone, publications, 1, model=[0.6875, 0.03125])
    # The initial model has d coordinates, as every decoded model has.
    assert all(u.initial_model.shape == (2,) for u in everyone)


def test_weighted_unit_weights_match_unweighted():
    params = make_params(dim=2, weighted=True)
    users_w, cs_w, vs_w = setup(2, params, rng=random.Random(24))
    users_p, cs_p, vs_p = setup(2, make_params(dim=3), rng=random.Random(24))
    # Weighted path with all weights 1 shares [w || 1]; compare against the
    # unweighted path on the padded vector, which sends the same words.
    updates = {0: np.array([0.5, -0.25]), 1: np.array([0.125, 0.875])}
    weights = {0: 1.0, 1: 1.0}
    model_w, tag_w = run_honest_round(users_w, cs_w, vs_w, updates, 1, weights=weights)
    res_w = users_w[0].reconstruct_round(model_w, tag_w, 1)
    padded = {uid: np.append(v, 1.0) for uid, v in updates.items()}
    model_p, tag_p = run_honest_round(users_p, cs_p, vs_p, padded, 1)
    res_p = users_p[0].reconstruct_round(model_p, tag_p, 1)
    assert (model_w.payload, tag_w.payload) == (model_p.payload, tag_p.payload)
    assert res_w.verified and res_p.verified
    assert np.allclose(res_w.model, res_p.model[:-1], atol=0.5 / params.codec.delta)


def test_server_state_stays_within_one_round_over_many_rounds():
    params = make_params(dim=8)
    users, cs, vs = setup(3, params, rng=random.Random(25))
    rng = np.random.default_rng(5)
    for r in range(1, 61):
        start(r, cs, vs)
        share_all(users, cs, vs, {u.uid: rng.uniform(-1, 1, 8) for u in users}, r)
        # An open round is the one book each server holds.
        assert list(cs.rounds) == list(vs.rounds) == [r]
        model_msg, tag_msg = aggregate(cs, vs, r)
        # A finalized round leaves the book: both servers hold no round.
        assert cs.rounds == vs.rounds == {}
        for u in users:
            assert u.reconstruct_round(model_msg, tag_msg, r).verified
    for server in (cs, vs):
        with pytest.raises(ProtocolError, match="already started round 60; got round 60"):
            server.start_round(60)


def test_servers_reject_shares_for_finalized_rounds():
    params = make_params()
    users, cs, vs = setup(3, params, rng=random.Random(26))
    late = {}
    start(1, cs, vs)
    for u in users:
        to_cs, to_vs = u.share_round(np.zeros(2), 1)
        if u.uid == 2:
            late = {"cs": to_cs, "vs": to_vs}
            continue
        cs.receive_share(to_cs)
        vs.receive_share(to_vs)
    w_t, b_t = reshares(cs, vs, 1)
    cs.finalize(w_t)
    vs.finalize(b_t)
    stale = "has no round 1 open"
    with pytest.raises(ProtocolError, match=f"CS {stale}"):
        cs.receive_share(late["cs"])
    with pytest.raises(ProtocolError, match=f"VS {stale}"):
        vs.receive_share(late["vs"])
    with pytest.raises(ProtocolError, match=f"CS {stale}"):
        cs.finalize(w_t)
    with pytest.raises(ProtocolError, match=f"VS {stale}"):
        vs.finalize(b_t)
    # The next round takes shares once it is open.
    to_cs, to_vs = users[2].share_round(np.zeros(2), 2)
    with pytest.raises(ProtocolError, match="CS has no round 2 open"):
        cs.receive_share(to_cs)
    start(2, cs, vs)
    cs.receive_share(to_cs)
    vs.receive_share(to_vs)
    assert list(cs.rounds[2].shares) == list(vs.rounds[2].shares) == [2]


def test_cs_rejects_non_canonical_share():
    params = make_params()
    users, cs, _ = setup(1, params, rng=random.Random(27))
    to_cs, _ = users[0].share_round(np.zeros(2), 1)
    bad = field.vec_from_raw(to_cs.payload).copy()
    bad[1] = np.uint64(params.r)
    start(1, cs)
    with pytest.raises(ProtocolError, match="non-canonical"):
        cs.receive_share(Message(to_cs.kind, 1, 0, field.vec_to_raw(bad)))
    assert cs.rounds[1].shares == {}


def test_rejected_shares_open_no_round():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(41))
    rng = np.random.default_rng(12)
    run_honest_round(users, cs, vs, {u.uid: rng.uniform(-1, 1, 2) for u in users}, 1)
    # Round 2 is open and holds user 0's shares; round 3 is open at neither server.
    start(2, cs, vs)
    to_cs, to_vs = users[0].share_round(np.zeros(2), 2)
    cs.receive_share(to_cs)
    vs.receive_share(to_vs)
    non_canonical = field.vec_from_raw(to_cs.payload).copy()
    non_canonical[0] = np.uint64(params.r)
    model, tag = MessageKind.MODEL_SHARE, MessageKind.TAG_SHARE
    bad = [(cs.receive_share, to_cs), (vs.receive_share, to_vs),  # duplicates
           (cs.receive_share, Message(model, 1, 1, to_cs.payload)),  # a finalized round
           (vs.receive_share, Message(tag, 1, 1, to_vs.payload))]
    for r in (2, 3):
        bad += [(cs.receive_share, Message(tag, r, 1, to_vs.payload)),
                (cs.receive_share, Message(model, r, 1, to_cs.payload[:-8])),
                (cs.receive_share, Message(model, r, 1, b"abc")),
                (cs.receive_share, Message(model, r, 1, field.vec_to_raw(non_canonical))),
                (vs.receive_share, Message(model, r, 1, to_cs.payload)),
                (vs.receive_share, Message(tag, r, 1, b"abc")),
                (vs.receive_share, Message(tag, r, 1, to_vs.payload + b"\0")),
                (cs.receive_share, Message(model, r, 999, to_cs.payload)),  # unregistered
                (vs.receive_share, Message(tag, r, 999, to_vs.payload))]

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
    vs.receive_share(to_vs)
    assert_all_verify(users, aggregate(cs, vs, 2), 2, np.zeros(2))


def test_hostile_messages_are_refused_and_leave_at_most_one_round_book():
    # A seeded stream of messages fed to every server entry point, between
    # honest rounds and during them: forged ones of every kind a server
    # takes, for every round but the open one, and replays of delivered
    # ones.  Each is a ProtocolError that leaves both servers' books as they
    # were, and every honest round still verifies.
    gen = random.Random(52)
    params = make_params(dim=3)
    users, cs, vs = setup(4, params, rng=random.Random(53))
    entries = (cs.receive_share, vs.receive_share, cs.tag_aggregate, vs.model_aggregate,
               cs.finalize, vs.finalize)
    delivered = []  # every message a server took, for replay
    last = 0  # the last round started

    def right_payload(kind):
        if kind is MessageKind.ONLINE_LIST:
            return pack_online_list(gen.sample(range(6), gen.randint(0, 6)))
        if kind in (MessageKind.MODEL_SHARE, MessageKind.RESHARE_MODEL):
            words = [gen.randrange(params.r) for _ in range(params.words)]
            return field.vec_to_raw(np.array(words, dtype=np.uint64))
        return tags.tag_to_bytes(gen.randrange(params.r))

    def forged(open_round):
        kind = gen.choice([MessageKind.MODEL_SHARE, MessageKind.TAG_SHARE,
                           MessageKind.ONLINE_LIST, MessageKind.RESHARE_MODEL,
                           MessageKind.RESHARE_TAG])
        past = gen.randint(0, last)
        r = gen.choice([x for x in (past, last, last + 1, 10**6, 2**40) if x != open_round])
        sender = gen.choice([gen.randrange(len(users)), len(users), 999, 2**32 - 1])
        right = right_payload(kind)
        payload = right if gen.random() < 0.5 else gen.randbytes(
            gen.choice([0, 3, abs(len(right) - 1), len(right) + 8]))
        return Message(kind, r, sender, payload)

    def books():
        return [{r: (sorted(book.shares), book.participants)
                 for r, book in server.rounds.items()} for server in (cs, vs)]

    def feed(open_round):
        before = books()
        replays = gen.sample(delivered, min(len(delivered), 10))
        for msg in [forged(open_round) for _ in range(25)] + replays:
            for entry in entries:
                with pytest.raises(ProtocolError):
                    entry(msg)
                assert len(cs.rounds) <= 1 and len(vs.rounds) <= 1
                assert books() == before

    # Rounds 3, 6 and 7 are skipped, as rounds nobody is online for are.
    for r in (1, 2, 4, 5, 8):
        feed(None)
        start(r, cs, vs)
        last = r
        feed(r)
        online = [u for u in users if gen.random() < 0.75] or users[:1]
        updates = {u.uid: np.array([gen.uniform(-1, 1) for _ in range(3)]) for u in online}
        for u in online:
            for server, msg in zip((cs, vs), u.share_round(updates[u.uid], r)):
                server.receive_share(msg)
                delivered.append(msg)
        feed(r)
        lists = cs.online_list(r), vs.online_list(r)
        (_, w_t), (_, b_t) = vs.model_aggregate(lists[0]), cs.tag_aggregate(lists[1])
        delivered += lists
        feed(r)
        publications = cs.finalize(w_t), vs.finalize(b_t)
        delivered += [w_t, b_t]
        mean = np.mean(list(updates.values()), axis=0)
        for u in online:
            res = u.reconstruct_round(*publications, r)
            assert res.verified and np.allclose(res.model, mean, atol=1e-9)
    feed(None)
    assert cs.rounds == vs.rounds == {}


@pytest.mark.parametrize("r", [BIG_PRIME, MERSENNE_61])
def test_user_fails_closed_on_non_canonical_aggregate(r):
    params = make_params(dim=4, r=r)
    users, cs, vs = setup(3, params, rng=random.Random(29))
    rng = np.random.default_rng(7)
    updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m, w1pp = read_model(model_msg)
    one_high = w1pp.copy()
    one_high[2] = np.uint64(r)
    everywhere = np.full(4, HIGH_WORD, dtype=np.uint64)
    for published, index, value in ((one_high, 2, r), (everywhere, 0, HIGH_WORD)):
        res = users[0].reconstruct_round(model_publication(published, m, 1), tag_msg, 1)
        assert not res.verified and res.model is None
        assert res.alarm == Alarm(1, 0, AlarmReason.NON_CANONICAL, index, value)
    assert users[0].current_model is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified


def test_user_fails_closed_on_wrong_length_aggregate():
    params = make_params(dim=4, r=MERSENNE_61)
    users, cs, vs = setup(3, params, rng=random.Random(31))
    rng = np.random.default_rng(8)
    updates = {u.uid: rng.uniform(-1, 1, 4) for u in users}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    m, w1pp = read_model(model_msg)
    for published in (w1pp[:3], np.append(w1pp, w1pp[:1]), w1pp[:0]):
        res = users[0].reconstruct_round(model_publication(published, m, 1), tag_msg, 1)
        assert not res.verified and res.model is None
        assert res.alarm == Alarm(1, 0, AlarmReason.LENGTH_MISMATCH, 4, published.size)
    assert users[0].current_model is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified


def test_cs_rejects_non_canonical_reshare():
    params = make_params(dim=3, r=MERSENNE_61)
    users, cs, vs = setup(2, params, rng=random.Random(30))
    start(1, cs, vs)
    for u in users:
        to_cs, to_vs = u.share_round(np.zeros(3), 1)
        cs.receive_share(to_cs)
        vs.receive_share(to_vs)
    w_t, _ = reshares(cs, vs, 1)  # the CS finalizes only once its own reshare is sent
    one_high = field.vec_from_raw(w_t.payload).copy()
    one_high[1] = np.uint64(MERSENNE_61)
    for bad in (one_high, np.full(3, HIGH_WORD, dtype=np.uint64)):
        with pytest.raises(ProtocolError, match="non-canonical"):
            cs.finalize(reshare_model(bad, 1))
    assert cs.rounds[1].participants == (0, 1)  # still open
    model_msg = cs.finalize(w_t)
    m, w1pp = read_model(model_msg)
    assert (model_msg.kind, model_msg.round_index, model_msg.sender) == (
        MessageKind.PUBLISH_MODEL, 1, 0)
    assert m == 2 and int(w1pp.max()) < MERSENNE_61 and cs.rounds == {}


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
        model_msg, tag_msg = run_honest_round(users, cs, vs, updates, r)
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
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    short = Message(kind, 1, 0, b"\x00" * 3)
    pair = (short, tag_msg) if kind is MessageKind.PUBLISH_MODEL else (model_msg, short)
    res = users[0].reconstruct_round(*pair, 1)
    assert not res.verified and res.model is None
    assert res.alarm == Alarm(1, 0, AlarmReason.MALFORMED_PUBLICATION, int(kind), 3)
    assert users[0].current_model is None and users[0].last_verified_round is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified


def test_finalize_rejects_a_reshare_of_the_wrong_kind_or_round():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(33))
    start(2, cs, vs)
    for u in users:
        to_cs, to_vs = u.share_round(np.zeros(2), 2)
        cs.receive_share(to_cs)
        vs.receive_share(to_vs)
    w_t, b_t = reshares(cs, vs, 2)
    for bad in (b_t, replace(w_t, round_index=1), replace(w_t, round_index=3),
                replace(w_t, payload=b"abc"), replace(w_t, payload=w_t.payload[:-8])):
        with pytest.raises(ProtocolError):
            cs.finalize(bad)
    for bad in (w_t, replace(b_t, round_index=1), replace(b_t, round_index=3),
                replace(b_t, payload=b"abc")):
        with pytest.raises(ProtocolError):
            vs.finalize(bad)
    assert list(cs.rounds) == list(vs.rounds) == [2]
    publications = cs.finalize(w_t), vs.finalize(b_t)
    assert cs.rounds == vs.rounds == {}
    assert_all_verify(users, publications, 2, np.zeros(2))


def test_user_rejects_a_publication_of_another_round():
    params = make_params(dim=2)
    users, cs, vs = setup(2, params, rng=random.Random(34))
    rng = np.random.default_rng(10)
    updates = {u.uid: rng.uniform(-1, 1, 2) for u in users}
    model_1, tag_1 = run_honest_round(users, cs, vs, updates, 1)
    assert users[0].reconstruct_round(model_1, tag_1, 1).verified
    model = users[0].current_model
    model_2, tag_2 = run_honest_round(users, cs, vs, updates, 2)
    # Round 1's publications replayed at round 2, both or one of them.
    for pair in ((model_1, tag_1), (model_1, tag_2), (model_2, tag_1)):
        res = users[0].reconstruct_round(*pair, 2)
        assert not res.verified and res.model is None
        assert res.alarm == Alarm(2, 0, AlarmReason.ROUND_MISMATCH, 2, 1)
        assert users[0].current_model is model and users[0].last_verified_round == 1
    assert users[0].reconstruct_round(model_2, tag_2, 2).verified


def test_user_rejects_publications_of_the_wrong_kind():
    # At d = 1 both publications are 16 bytes, so swapped they would parse.
    params = make_params(dim=1)
    users, cs, vs = setup(2, params, rng=random.Random(35))
    rng = np.random.default_rng(11)
    updates = {u.uid: rng.uniform(-1, 1, 1) for u in users}
    model_msg, tag_msg = run_honest_round(users, cs, vs, updates, 1)
    assert len(model_msg.payload) == len(tag_msg.payload)
    for pair, wrong in (((tag_msg, model_msg), tag_msg), ((model_msg, model_msg), model_msg)):
        res = users[0].reconstruct_round(*pair, 1)
        assert not res.verified and res.model is None
        assert res.alarm == Alarm(1, 0, AlarmReason.MALFORMED_PUBLICATION, int(wrong.kind),
                                  len(wrong.payload))
        assert users[0].current_model is None and users[0].last_verified_round is None
    assert users[0].reconstruct_round(model_msg, tag_msg, 1).verified
