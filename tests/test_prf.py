import hashlib

import numpy as np
import pytest
from scipy import stats

from vsecagg import prf
from vsecagg.field import FieldModulus
from vsecagg.prf import KeyMaterial, PrfError, concat_keys, derive_cipher_key, expand
from vsecagg.tags import derive_tag_key

BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60
MERSENNE_61 = FieldModulus((1 << 61) - 1)  # the protocol's prime


def key(byte: int) -> KeyMaterial:
    return KeyMaterial(bytes([byte]) * 16)


def test_key_material_rejects_empty():
    with pytest.raises(PrfError):
        KeyMaterial(b"")


def test_key_generate_seeded_is_reproducible():
    import random
    a = KeyMaterial.generate(random.Random(42))
    b = KeyMaterial.generate(random.Random(42))
    assert a == b
    assert len(a.data) == 16


def test_derive_cipher_key_is_sha256():
    master = b"\x01\x02\x03"
    assert derive_cipher_key(KeyMaterial(master)) == hashlib.sha256(master).digest()


def test_derive_cipher_key_deterministic_and_sensitive():
    assert derive_cipher_key(key(1)) == derive_cipher_key(key(1))
    flipped = KeyMaterial(bytes([0x01 ^ 0x80]) + key(1).data[1:])
    assert derive_cipher_key(flipped) != derive_cipher_key(key(1))


def test_concat_keys():
    a, b = key(1), key(2)
    assert concat_keys(a, b).data == a.data + b.data
    assert len(concat_keys(a, b).data) == 32
    assert concat_keys(a, b) != concat_keys(b, a)
    assert derive_cipher_key(concat_keys(a, b)) == derive_cipher_key(concat_keys(a, b))


def test_expand_deterministic():
    a = expand(key(3), 7, 100, BIG_PRIME)
    b = expand(key(3), 7, 100, BIG_PRIME)
    assert np.array_equal(a, b)


def test_expand_round_sensitivity():
    a = expand(key(3), 7, 64, BIG_PRIME)
    b = expand(key(3), 8, 64, BIG_PRIME)
    assert not np.array_equal(a, b)


def test_expand_key_sensitivity():
    a = expand(key(3), 7, 64, BIG_PRIME)
    b = expand(key(4), 7, 64, BIG_PRIME)
    assert not np.array_equal(a, b)


def test_expand_range_contract():
    out = expand(key(5), 1, 10_000, BIG_PRIME)
    assert int(out.max()) < BIG_PRIME


def test_expand_prefix_stability():
    long = expand(key(6), 2, 5_000, BIG_PRIME)
    for length in (1, 7, 100, 4_999):
        short = expand(key(6), 2, length, BIG_PRIME)
        assert np.array_equal(short, long[:length])


def test_expand_length_validation():
    with pytest.raises(PrfError):
        expand(key(1), 0, 0, BIG_PRIME)
    with pytest.raises(PrfError):
        expand(key(1), 0, 1 << 32, BIG_PRIME)
    with pytest.raises(PrfError):
        expand(key(1), 0, 1, 1)


def test_expand_uniformity_chi_squared_r17():
    out = expand(key(7), 1, 100_000, 17)
    counts = np.bincount(out.astype(np.int64), minlength=17)
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_independent_keys_decorrelated():
    a = expand(key(8), 1, 100_000, 17).astype(np.float64)
    b = expand(key(9), 1, 100_000, 17).astype(np.float64)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


# The unit-group expansion (expand over r - 1, shifted by one) lives in
# tags.derive_tag_key; these pin it with this module's keys.
def test_expand_unit_never_zero():
    out = derive_tag_key(key(10), 3, 10_000, BIG_PRIME)
    assert int(out.min()) >= 1
    assert int(out.max()) <= BIG_PRIME - 1
    assert np.array_equal(out, expand(key(10), 3, 10_000, BIG_PRIME - 1) + np.uint64(1))


def test_expand_unit_deterministic():
    assert np.array_equal(derive_tag_key(key(12), 5, 50, 97),
                          derive_tag_key(key(12), 5, 50, 97))


@pytest.mark.parametrize("modulus", [MERSENNE_61, MERSENNE_61 - 1])
@pytest.mark.parametrize("length", [1, 1000, (1 << 15) + 1, 100_000])
def test_expand_draws_exactly_the_words_it_returns(monkeypatch, modulus, length):
    # The protocol's prime and its unit-group modulus reject a word with
    # probability at most 2^-60, so no draw here is rejected and none may
    # overshoot the output.
    drawn = []
    keystream = prf._keystream

    class Counting:
        def __init__(self, enc):
            self.enc = enc

        def update_into(self, data, buf):
            drawn.append(len(data))
            return self.enc.update_into(data, buf)

    monkeypatch.setattr(prf, "_keystream", lambda k, v0: Counting(keystream(k, v0)))
    out = expand(key(13), 2, length, modulus)
    assert out.shape == (length,)
    assert sum(drawn) == 8 * length
