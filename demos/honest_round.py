"""Walk through one honest aggregation round, printing each stage.

Three users hold small float update vectors.  Each one fixed-point
encodes its update, splits it into two additive shares over the prime
field (the verification-server share is PRF-compressed, so the user
only uploads the computation-server share plus an 8-byte tag share),
and the servers exchange their partial aggregates.  Every user then
unmasks the published result, checks the homomorphic tag, and decodes
the mean.
"""

import random

import numpy as np

from vsecagg.harness import RunConfig, default_params, plaintext_oracle
from vsecagg.roles import intersect_online, setup

params = default_params(RunConfig(users=3, dim=4))
r = params.r
print(f"field modulus R = {r} (the Mersenne prime 2^61 - 1)")

users, cs, vs = setup(3, params, rng=random.Random(7))
print(f"setup: {len(users)} users, shared initial model derived from both servers' seeds")

updates = {
    0: np.array([0.5, -1.0, 0.25, 2.0]),
    1: np.array([1.5, 0.0, -0.75, 1.0]),
    2: np.array([-2.0, 3.0, 0.5, 0.0]),
}

# --- Share stage: each user uploads one share to CS and a tag share to VS.
for u in users:
    to_cs, to_vs = u.share_round(updates[u.uid], round_index=1)
    print(f"user {u.uid}: model share {len(to_cs.payload)} B -> CS, "
          f"tag share {len(to_vs.payload)} B -> VS")
    cs.receive_share(to_cs)
    vs.receive_tag_share(to_vs)

# --- Aggregate stage: servers agree on who participated, then each sums
# its own shares.  VS regenerates the second model shares from user keys.
ctx = intersect_online(cs.online_ids(1), vs.online_ids(1), 1)
print(f"participant intersection: {ctx.participants} (m = {ctx.m})")

w_t = vs.model_aggregate(ctx)      # RESHARE_MODEL: VS partial, global mask removed
cs.finalize_model(ctx, w_t)        # masked aggregate w''_1
b_t = cs.tag_aggregate(ctx)        # RESHARE_TAG: CS tag partial
vs.finalize_tag(ctx, b_t)          # tag aggregate b'_2
model_msg = cs.publish_model_message(1)
tag_msg = vs.publish_tag_message(1)
print(f"CS publishes w''_1 (first coords: {cs.rounds[1].published[:2]}), "
      f"VS publishes b'_2 = {vs.rounds[1].published}")

# --- Reconstruct stage: every user reads both publications, unmasks,
# verifies, decodes.
for u in users:
    result = u.reconstruct_round(model_msg, tag_msg, round_index=1)
    print(f"user {u.uid}: verified={result.verified} model={np.round(result.model, 6)}")

oracle = plaintext_oracle(updates, list(ctx.participants), params.codec)
print(f"plaintext oracle mean:      {oracle}")
print(f"max deviation from oracle:  {np.max(np.abs(result.model - oracle)):.3e}")
