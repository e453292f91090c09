import numpy as np
import pytest

from vsecagg import field
from vsecagg.codec import CodecParams, encode
from vsecagg.field import FieldModulus
from vsecagg.harness import _lifted_tag
from vsecagg.prf import KeyMaterial
from vsecagg.tags import TAG_BYTES, derive_tag_key, gen_tag, tag_from_bytes, tag_to_bytes

R97 = 97
BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60


def key(byte: int) -> KeyMaterial:
    return KeyMaterial(bytes([byte]) * 32)


def test_derive_tag_key_shared_and_round_sensitive():
    a = derive_tag_key(key(1), 3, 50, R97)
    b = derive_tag_key(key(1), 3, 50, R97)
    assert np.array_equal(a, b)
    c = derive_tag_key(key(1), 4, 50, R97)
    assert not np.array_equal(a, c)


def test_derive_tag_key_elements_are_units():
    kv = derive_tag_key(key(2), 1, 10_000, BIG_PRIME)
    assert int(kv.min()) >= 1
    assert int(kv.max()) <= BIG_PRIME - 1


def test_derive_tag_key_smallest_modulus():
    kv = derive_tag_key(key(11), 1, 1_000, 3)
    assert set(np.unique(kv)) == {1, 2}


def test_gen_tag_dot_product_example():
    w = np.array([2, 3], dtype=np.uint64)
    kv = np.array([5, 7], dtype=np.uint64)
    assert gen_tag(w, kv, R97) == 31
    zero = np.array([0, 0], dtype=np.uint64)
    assert gen_tag(zero, kv, R97) == 0


def test_gen_tag_length_mismatch():
    with pytest.raises(field.FieldError):
        gen_tag(np.array([1], dtype=np.uint64), np.array([1, 2], dtype=np.uint64), R97)


def test_gen_tag_linearity_without_wrap():
    # Integer sums small enough not to wrap: tag of the sum equals the
    # modular sum of the tags.
    rng = np.random.default_rng(1)
    kv = rng.integers(1, R97, 16, dtype=np.uint64)
    w1 = rng.integers(0, 5, 16, dtype=np.uint64)
    w2 = rng.integers(0, 5, 16, dtype=np.uint64)
    lhs = (gen_tag(w1, kv, R97) + gen_tag(w2, kv, R97)) % R97
    assert gen_tag(w1 + w2, kv, R97) == lhs


def test_completeness_under_capacity():
    # Sum of encoded user vectors within capacity: aggregated tag matches.
    p = CodecParams(delta=1 << 40, r_w=BIG_PRIME, n_max=5)
    rng = np.random.default_rng(2)
    kv = derive_tag_key(key(3), 1, 20, BIG_PRIME)
    encs = [encode(rng.uniform(-10, 10, 20), p) for _ in range(5)]
    total = field.vec_sum(encs, BIG_PRIME)
    tag_sum = sum(gen_tag(e, kv, BIG_PRIME) for e in encs) % BIG_PRIME
    assert gen_tag(total, kv, BIG_PRIME) == tag_sum


def test_cross_field_lift_completeness():
    # R_w != R_b, as in the forgery calibration: tags act on the signed
    # integer lift, so aggregated verification still holds while sums
    # stay within capacity.
    r_w = BIG_PRIME
    r_b = FieldModulus((1 << 45) + 59)  # the smallest prime above 2^45
    rng = np.random.default_rng(3)
    kv = derive_tag_key(key(4), 1, 10, r_b)
    p = CodecParams(delta=1 << 20, r_w=r_w, n_max=4)
    encs = [encode(rng.uniform(-10, 10, 10), p) for _ in range(4)]
    total = field.vec_sum(encs, r_w)
    tag_sum = sum(_lifted_tag(e, kv, r_w, r_b) for e in encs) % r_b
    assert _lifted_tag(total, kv, r_w, r_b) == tag_sum


def test_same_field_tampering_never_passes():
    # Over one prime R, a nonzero single-coordinate offset times a unit key
    # element can never be 0 mod R: detection is certain.
    rng = np.random.default_rng(5)
    w = rng.integers(0, R97, 8, dtype=np.uint64)
    kv = rng.integers(1, R97, 8, dtype=np.uint64)
    b = gen_tag(w, kv, R97)
    for _ in range(500):
        v = w.copy()
        j = rng.integers(0, 8)
        v[j] = (v[j] + rng.integers(1, R97, dtype=np.uint64)) % np.uint64(R97)
        assert gen_tag(v, kv, R97) != b


def test_independent_keys_give_different_tags():
    rng = np.random.default_rng(6)
    w = rng.integers(0, BIG_PRIME, 32, dtype=np.uint64)
    kv1 = derive_tag_key(key(7), 1, 32, BIG_PRIME)
    kv2 = derive_tag_key(key(8), 1, 32, BIG_PRIME)
    assert gen_tag(w, kv1, BIG_PRIME) != gen_tag(w, kv2, BIG_PRIME)


def test_tag_serialization_is_8_bytes():
    for t in (0, 31, 0x0102, BIG_PRIME - 1):
        data = tag_to_bytes(t)
        assert len(data) == TAG_BYTES == 8
        assert tag_from_bytes(data) == t
    assert tag_to_bytes(0x0102) == b"\x02\x01" + bytes(6)  # little-endian
    with pytest.raises(field.FieldError):
        tag_from_bytes(b"\x00" * 7)
