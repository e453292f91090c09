"""Walk through one honest aggregation round, printing each stage.

Three users hold small float update vectors.  Each one fixed-point
encodes its update, splits it into two additive shares over the prime
field (the verification-server share is PRF-compressed, so the user
only uploads the computation-server share plus an 8-byte tag share),
and the servers, which each opened round 1, exchange their partial
aggregates.  Every user then unmasks the published result, checks the
homomorphic tag, and decodes the mean.
"""

import random

import numpy as np

from vsecagg import field, tags
from vsecagg.harness import RunConfig, default_params, plaintext_oracle
from vsecagg.roles import setup
from vsecagg.wire import unpack_publication

params = default_params(RunConfig(users=3, dim=4))
r = params.r
print(f"field modulus R = {r} (the Mersenne prime 2^61 - 1)")

users, cs, vs = setup(3, params, rng=random.Random(7))
print(f"setup: {len(users)} users; each derives the initial model from both servers' "
      "seeds when it first reads it")

updates = {
    0: np.array([0.5, -1.0, 0.25, 2.0]),
    1: np.array([1.5, 0.0, -0.75, 1.0]),
    2: np.array([-2.0, 3.0, 0.5, 0.0]),
}

# --- Each server opens round 1, the one round it holds until it publishes
# it; a message for any other round is refused.
cs.start_round(1)
vs.start_round(1)

# --- Share stage: each user uploads one share to CS and a tag share to VS.
for u in users:
    to_cs, to_vs = u.share_round(updates[u.uid], round_index=1)
    print(f"user {u.uid}: model share {len(to_cs.payload)} B -> CS, "
          f"tag share {len(to_vs.payload)} B -> VS")
    cs.receive_share(to_cs)
    vs.receive_share(to_vs)
for name, server in (("CS", cs), ("VS", vs)):
    print(f"{name} holds {len(server.rounds)} round book: round 1, shares from users "
          f"{sorted(server.rounds[1].shares)}")

# --- Aggregate stage: each server answers the peer's online list with its
# reshare.  It fixes its participants as the peer's list intersected with
# the users it holds a share from, then sums over them; VS regenerates the
# second model shares from user keys.
_, w_t = vs.model_aggregate(cs.online_list(1))  # RESHARE_MODEL: VS partial, global mask removed
participants, b_t = cs.tag_aggregate(vs.online_list(1))  # RESHARE_TAG: CS tag partial
print(f"participant intersection: {participants} (m = {len(participants)})")

# Finalizing returns the round's publication and drops the round from the
# server's state.
model_msg = cs.finalize(w_t)  # PUBLISH_MODEL: masked aggregate w''_1 and m
tag_msg = vs.finalize(b_t)    # PUBLISH_TAG: tag aggregate b'_2 and m
m, body = unpack_publication(model_msg.payload)  # both: the count m, then the words
w1pp = field.vec_from_raw(body)
b2p = tags.tag_from_bytes(unpack_publication(tag_msg.payload)[1])
print(f"CS publishes w''_1 (first coords: {w1pp[:2]}) with m = {m}, "
      f"VS publishes b'_2 = {b2p}")
print(f"rounds held after publication: CS {cs.rounds}, VS {vs.rounds}")

# --- Reconstruct stage: every user reads both publications, unmasks,
# verifies, decodes.
for u in users:
    result = u.reconstruct_round(model_msg, tag_msg, round_index=1)
    print(f"user {u.uid}: verified={result.verified} model={np.round(result.model, 6)}")

oracle = plaintext_oracle(updates, participants, params.codec)
print(f"plaintext oracle mean:      {oracle}")
print(f"max deviation from oracle:  {np.max(np.abs(result.model - oracle)):.3e}")
