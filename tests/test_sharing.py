import numpy as np
from scipy import stats

from vsecagg import field
from vsecagg.prf import KeyMaterial, expand
from vsecagg.sharing import share_with_prf

R17 = 17
R97 = 97


def key(byte: int) -> KeyMaterial:
    return KeyMaterial(bytes([byte]) * 16)


def vec(values, r=R17):
    return np.array([v % r for v in values], dtype=np.uint64)


def test_share_with_prf_round_trip():
    secret = vec([10, 3, 0, 16])
    share = share_with_prf(secret, key(1), 5, R17)
    assert share.dtype == np.uint64
    mask = expand(key(1), 5, 4, R17)
    assert np.array_equal(field.vec_add(share, mask, R17), secret)


def test_share_with_prf_hand_values():
    # With a known PRF output p, the share is secret - p mod R.
    mask = expand(key(2), 1, 1, R17)
    share = share_with_prf(vec([10]), key(2), 1, R17)
    assert int(share[0]) == (10 - int(mask[0])) % R17
    share = share_with_prf(vec([3]), key(2), 1, R17)
    assert int(share[0]) == (3 - int(mask[0])) % R17


def test_homomorphism_randomized_r97():
    # The sum of the shares plus the sum of the regenerated masks is the
    # sum of the secrets.
    rng = np.random.default_rng(4)
    for trial in range(25):
        secrets = [rng.integers(0, R97, 6, dtype=np.uint64) for _ in range(5)]
        keys = [key(10 + i) for i in range(5)]
        shares = field.vec_sum([share_with_prf(s, k, trial + 1, R97)
                                for s, k in zip(secrets, keys)], R97)
        masks = field.vec_sum([expand(k, trial + 1, 6, R97) for k in keys], R97)
        assert np.array_equal(field.vec_add(shares, masks, R97),
                              field.vec_sum(secrets, R97))


def test_share_marginal_uniformity_chi_squared():
    # Fresh uniform key per trial: a single share coordinate should be
    # uniform over Z_17.
    import random
    rng = random.Random(7)
    secret = vec([5])
    counts = np.zeros(R17, dtype=np.int64)
    for _ in range(100_000):
        share = share_with_prf(secret, KeyMaterial.generate(rng), 1, R17)
        counts[int(share[0])] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.001
