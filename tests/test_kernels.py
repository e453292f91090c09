"""Fixed-width round kernels checked against arbitrary-precision references.

The reference functions below compute ``field.dot``, ``field.vec_sum``
and ``prf.expand`` the plain way: Python-int products, one reduction per
addition, and a keystream drawn with ``update`` in fixed 25 % overdraws.
The signed lifts are checked element by element against the scalar
``to_signed``/``from_signed``.  The fast kernels must agree with their
references bit for bit.
"""

import numpy as np
import pytest

from vsecagg import field, prf, tags
from vsecagg.field import FieldError, find_prime_above
from vsecagg.prf import KeyMaterial

R97 = 97
BIG_PRIME = find_prime_above(1 << 60)
MERSENNE_61 = (1 << 61) - 1  # the largest admissible prime modulus


def reference_dot(a, b, r):
    return int((a.astype(object) * b.astype(object)).sum() % r)


def reference_vec_sum(vectors, r):
    acc = vectors[0].copy()
    for v in vectors[1:]:
        acc = field.vec_add(acc, v, r)
    return acc


def reference_expand(key, v0, length, modulus):
    mask = np.uint64((1 << modulus.bit_length()) - 1)
    bound = np.uint64(modulus)
    enc = prf._keystream(key, v0)
    out = np.empty(length, dtype=np.uint64)
    filled = 0
    while filled < length:
        want = length - filled
        nwords = max(64, want + (want >> 2) + 16)
        words = np.frombuffer(enc.update(bytes(8 * nwords)), dtype="<u8") & mask
        accepted = words[words < bound]
        take = min(accepted.size, want)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def full(value, size):
    return np.full(size, value, dtype=np.uint64)


@pytest.mark.parametrize("r", [R97, BIG_PRIME, MERSENNE_61])
def test_dot_matches_reference_on_random_vectors(r):
    rng = np.random.default_rng(1)
    for size in (1, 2, 7, 1000, field._DOT_BLOCK - 1, field._DOT_BLOCK + 3, 50_000):
        a = rng.integers(0, r, size, dtype=np.uint64)
        b = rng.integers(0, r, size, dtype=np.uint64)
        assert field.dot(a, b, r) == reference_dot(a, b, r)


@pytest.mark.parametrize("r", [R97, BIG_PRIME, MERSENNE_61])
def test_dot_all_max_residues(r):
    # At r = 2^61 - 1 every limb of r - 1 is at or next to its largest value.
    for size in (1, 3, field._DOT_BLOCK, 3 * field._DOT_BLOCK + 1):
        a = full(r - 1, size)
        assert field.dot(a, a, r) == reference_dot(a, a, r) == size % r


def test_dot_beyond_the_limb_block_bound():
    # (r - 1)^2 = 1 mod r, so the dot of two all-(r - 1) vectors is d mod r.
    # d exceeds the 2^22-element bound on one exact uint64 limb sum.
    size = (1 << 22) + 5
    a = full(BIG_PRIME - 1, size)
    assert field.dot(a, a, BIG_PRIME) == size % BIG_PRIME
    assert field._DOT_BLOCK < 1 << 22


def test_dot_rejects_operands_beyond_three_limbs():
    a = np.array([1 << 63], dtype=np.uint64)
    with pytest.raises(FieldError):
        field.dot(a, np.ones(1, dtype=np.uint64), BIG_PRIME)
    below = np.array([(1 << 63) - 1], dtype=np.uint64)
    assert field.dot(below, below, BIG_PRIME) == reference_dot(below, below, BIG_PRIME)


@pytest.mark.parametrize("r_b", [R97, find_prime_above(1 << 45), MERSENNE_61])
def test_gen_tag_cross_field_lift_matches_reference(r_b):
    # R_w != R_b: residues mod R_w lift to signed integers, then reduce mod R_b.
    r_w = BIG_PRIME
    rng = np.random.default_rng(2)
    half = (r_w - 1) // 2
    w = np.concatenate([rng.integers(0, r_w, 997, dtype=np.uint64),
                        np.array([0, 1, half, half + 1, r_w - 1], dtype=np.uint64)])
    key_vec = rng.integers(1, r_b, w.size, dtype=np.uint64)
    lifted = np.array([field.to_signed(int(x), r_w) % r_b for x in w], dtype=object)
    expected = int((lifted * key_vec.astype(object)).sum() % r_b)
    assert tags.gen_tag(w, key_vec, r_w, r_b) == expected


def test_gen_tag_same_field_matches_reference():
    rng = np.random.default_rng(3)
    w = rng.integers(0, BIG_PRIME, 20_000, dtype=np.uint64)
    key_vec = tags.derive_tag_key(KeyMaterial(b"\x05" * 32), 1, w.size, BIG_PRIME)
    assert tags.gen_tag(w, key_vec, BIG_PRIME, BIG_PRIME) == reference_dot(w, key_vec, BIG_PRIME)


@pytest.mark.parametrize("r", [R97, BIG_PRIME, MERSENNE_61])
def test_signed_lifts_match_scalar_reference(r):
    rng = np.random.default_rng(5)
    half = (r - 1) // 2
    a = np.concatenate([rng.integers(0, r, 500, dtype=np.uint64),
                        np.array([0, 1, half, half + 1, r - 1], dtype=np.uint64)])
    signed = field.vec_to_signed(a, r)
    assert signed.dtype == np.int64
    assert signed.tolist() == [field.to_signed(int(x), r) for x in a]
    back = field.vec_from_signed(signed, r)
    assert back.dtype == np.uint64
    assert back.tolist() == [field.from_signed(int(x), r) for x in signed]


@pytest.mark.parametrize("r", [R97, BIG_PRIME, MERSENNE_61])
def test_lazy_vec_sum_matches_repeated_add(r):
    for count in range(1, 21):
        vectors = [full(r - 1, 5) for _ in range(count)]
        expected = reference_vec_sum(vectors, r)
        assert np.array_equal(field.vec_sum(vectors, r), expected)
        assert np.array_equal(field.vec_sum(iter(vectors), r), expected)
        assert int(expected[0]) == (count * (r - 1)) % r


def test_lazy_vec_sum_random_and_inputs_untouched():
    rng = np.random.default_rng(4)
    vectors = [rng.integers(0, MERSENNE_61, 64, dtype=np.uint64) for _ in range(17)]
    copies = [v.copy() for v in vectors]
    assert np.array_equal(field.vec_sum(vectors, MERSENNE_61),
                          reference_vec_sum(vectors, MERSENNE_61))
    assert all(np.array_equal(v, c) for v, c in zip(vectors, copies))


def test_vec_sum_rejects_length_mismatch():
    with pytest.raises(FieldError):
        field.vec_sum([np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.uint64)], R97)


@pytest.mark.parametrize("modulus", [R97, BIG_PRIME, BIG_PRIME - 1, 1 << 61])
@pytest.mark.parametrize("length", [1, 63, 64, 65, 1000, 100_000])
def test_expand_bit_identical_to_reference(modulus, length):
    key = KeyMaterial(b"\x09" * 16)
    for v0 in (0, 7):
        assert np.array_equal(prf.expand(key, v0, length, modulus),
                              reference_expand(key, v0, length, modulus))
