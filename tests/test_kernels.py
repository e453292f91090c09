"""Fixed-width round kernels checked against arbitrary-precision references.

The reference functions below compute ``field.dot``, ``field.vec_sum``,
``field.vec_add``/``vec_sub``, ``codec.encode`` and
``prf.expand``/``expand_one`` the plain way: Python-int products, one
``%`` reduction per addition, exact rational rounding, and a
keystream drawn with ``update`` in fixed 25 % overdraws from a fresh
AES-CTR cipher built from the specification in ``prf``'s docstring, not
from ``prf``'s own context.
The signed lifts are checked element by element against the scalar
``reference_to_signed`` below.  The fast kernels must agree with their
references bit for bit.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from vsecagg import codec, field, harness, prf, tags, wire
from vsecagg.field import FieldError, FieldModulus
from vsecagg.prf import KeyMaterial

R97 = 97
BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60
MERSENNE_61 = (1 << 61) - 1  # the largest admissible prime modulus


def reference_dot(a, b, r):
    return int((a.astype(object) * b.astype(object)).sum() % r)


def reference_to_signed(a, r):
    """The residue's absolute-minimum representative, in [-(r-1)/2, (r-1)/2]."""
    return a if a <= (r - 1) // 2 else a - r


def reference_vec_add(a, b, r):
    return (a + b) % np.uint64(r)


def reference_vec_sub(a, b, r):
    return (a + (np.uint64(r) - b)) % np.uint64(r)


def reference_vec_sum(vectors, r):
    acc = vectors[0].copy()
    for v in vectors[1:]:
        acc = reference_vec_add(acc, v, r)
    return acc


def reference_encode(values, params):
    """Each value's exact scaled Fraction, rounded half away from zero, mod r_w."""
    out = []
    for v in values:
        s = Fraction(float(v)) * params.delta
        q = math.floor(abs(s) + Fraction(1, 2))
        out.append((q if s >= 0 else -q) % params.r_w)
    return np.array(out, dtype=np.uint64)


def reference_expand(key, v0, length, modulus):
    mask = np.uint64((1 << modulus.bit_length()) - 1)
    bound = np.uint64(modulus)
    counter = v0.to_bytes(8, "little") + bytes(8)
    enc = Cipher(algorithms.AES(hashlib.sha256(key.data).digest()), modes.CTR(counter)).encryptor()
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
    # d exceeds the 2^21 elements of one exact float64 limb-pair sum.
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


@pytest.mark.parametrize("size", [field._DOT_BLOCK - 1, field._DOT_BLOCK + 1,
                                  (1 << 21) - 1, 1 << 21, (1 << 21) + 1])
def test_dot_worst_admissible_limbs_at_block_and_sum_edges(size):
    # Every 16-bit limb of 2^63 - 1 is at its largest, so each limb-pair
    # sum is as large as its length allows, here at the edges of a block
    # and of one exact float64 sum.
    c = (1 << 63) - 1
    a = full(c, size)
    for r in (BIG_PRIME, MERSENNE_61):
        assert field.dot(a, a, r) == c * c * size % r


def test_dot_folds_its_float64_sums_before_they_pass_2_53():
    # Uniform words give block sums divisible by 2^14, which float64 adds
    # exactly far beyond 2^53.  One word per block one below the rest
    # makes every block sum odd, so a sum kept past 2^21 words would round.
    c = (1 << 63) - 1
    size = (1 << 22) + 1
    a = full(c, size)
    b = a.copy()
    b[::field._DOT_BLOCK] = c - 1
    lowered = len(range(0, size, field._DOT_BLOCK))
    assert field.dot(a, b, MERSENNE_61) == (c * c * size - c * lowered) % MERSENNE_61


def test_dot_reads_strided_big_endian_and_read_only_operands():
    rng = np.random.default_rng(7)
    wide = rng.integers(0, MERSENNE_61, 2 * 20_001, dtype=np.uint64)
    b = rng.integers(0, MERSENNE_61, 20_001, dtype=np.uint64)
    strided = wide[::2]
    big_endian = strided.astype(">u8")
    read_only = strided.copy()
    read_only.setflags(write=False)
    expected = reference_dot(strided, b, MERSENNE_61)
    for a in (strided, big_endian, read_only):
        assert field.dot(a, b, MERSENNE_61) == expected
        assert field.dot(b, a, MERSENNE_61) == expected


@pytest.mark.parametrize("r_b", [R97, FieldModulus((1 << 45) + 59), MERSENNE_61])
def test_gen_tag_cross_field_lift_matches_reference(r_b):
    # The forgery calibration's R_w != R_b: residues mod R_w lift to
    # signed integers, then reduce mod R_b.
    r_w = BIG_PRIME
    rng = np.random.default_rng(2)
    half = (r_w - 1) // 2
    w = np.concatenate([rng.integers(0, r_w, 997, dtype=np.uint64),
                        np.array([0, 1, half, half + 1, r_w - 1], dtype=np.uint64)])
    key_vec = rng.integers(1, r_b, w.size, dtype=np.uint64)
    lifted = np.array([reference_to_signed(int(x), r_w) % r_b for x in w], dtype=object)
    expected = int((lifted * key_vec.astype(object)).sum() % r_b)
    assert harness._lifted_tag(w, key_vec, r_w, r_b) == expected


def test_gen_tag_same_field_matches_reference():
    rng = np.random.default_rng(3)
    w = rng.integers(0, BIG_PRIME, 20_000, dtype=np.uint64)
    key_vec = tags.derive_tag_key(KeyMaterial(b"\x05" * 32), 1, w.size, BIG_PRIME)
    assert tags.gen_tag(w, key_vec, BIG_PRIME) == reference_dot(w, key_vec, BIG_PRIME)


@pytest.mark.parametrize("r", [R97, BIG_PRIME, MERSENNE_61])
def test_signed_lifts_match_scalar_reference(r):
    rng = np.random.default_rng(5)
    half = (r - 1) // 2
    a = np.concatenate([rng.integers(0, r, 500, dtype=np.uint64),
                        np.array([0, 1, half, half + 1, r - 1], dtype=np.uint64)])
    signed = field.vec_to_signed(a, r)
    assert signed.dtype == np.int64
    assert signed.tolist() == [reference_to_signed(int(x), r) for x in a]
    assert [int(x) % r for x in signed] == a.tolist()


@pytest.mark.parametrize("r", [R97, BIG_PRIME, MERSENNE_61])
def test_lazy_vec_sum_matches_repeated_add(r):
    # Every count through the steps at 9, 13 and 17 terms, and many more.
    for count in (*range(1, 21), 50):
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


@pytest.mark.parametrize("params", [
    codec.CodecParams(delta=4, r_w=R97, n_max=2, x_min=-4.0, x_max=4.0),
    codec.CodecParams(delta=1 << 40, r_w=BIG_PRIME, n_max=10),
    codec.CodecParams(delta=1 << 40, r_w=MERSENNE_61, n_max=100, x_min=-10.0, x_max=7.5),
])
def test_encode_bounds_and_exact_ties_match_fraction_reference(params):
    # (k + 1/2) / delta is exact in float64, and each one rounds away from zero.
    top = int(min(params.x_max, -params.x_min) * params.delta)
    rng = np.random.default_rng(8)
    k = np.concatenate([np.arange(min(top, 64)), rng.integers(0, top, 500), [top - 1]])
    ties = (k + 0.5) / params.delta
    values = np.concatenate([[params.x_max, params.x_min, 0.0, -0.0], ties, -ties])
    assert np.array_equal(codec.encode(values, params), reference_encode(values, params))


@pytest.mark.parametrize("m", [1, 3, 10, 1000])
def test_decode_bit_equal_to_dividing_by_delta_then_m(m):
    r = MERSENNE_61
    params = codec.CodecParams(delta=1 << 40, r_w=r, n_max=1000)
    half = (r - 1) // 2
    rng = np.random.default_rng(9)
    # The sums of m honest encodings, then uniform residues, then the edges.
    sums = field.vec_to_signed(codec.encode(rng.uniform(-10, 10, 2000), params), r) * m
    vec = np.concatenate([np.where(sums < 0, sums + r, sums).astype(np.uint64),
                          rng.integers(0, r, 2000, dtype=np.uint64),
                          np.array([0, 1, 2, half - 1, half, half + 1, r - 2, r - 1],
                                   dtype=np.uint64)])
    expected = field.vec_to_signed(vec, r).astype(np.float64) / params.delta / m
    assert codec.decode(vec, params, m).tobytes() == expected.tobytes()


@pytest.mark.parametrize("r", [R97, BIG_PRIME, MERSENNE_61])
def test_vec_add_sub_match_modulo_reference(r):
    # Every pair of boundary residues, plus random canonical vectors.
    edges = np.array([0, 1, 2, r // 2, r // 2 + 1, r - 2, r - 1], dtype=np.uint64)
    rng = np.random.default_rng(6)
    a = np.concatenate([np.repeat(edges, edges.size), rng.integers(0, r, 5000, dtype=np.uint64)])
    b = np.concatenate([np.tile(edges, edges.size), rng.integers(0, r, 5000, dtype=np.uint64)])
    a_copy, b_copy = a.copy(), b.copy()
    for fast, reference in ((field.vec_add, reference_vec_add),
                            (field.vec_sub, reference_vec_sub)):
        out = fast(a, b, r)
        assert out.dtype == np.uint64
        assert np.array_equal(out, reference(a, b, r))
        assert int(out.max()) < r
    assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)


def test_vec_sum_rejects_length_mismatch():
    a, b = np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.uint64)
    with pytest.raises(FieldError):
        field.vec_sum([a, b], R97)
    # So do the pairwise kernels.
    for pairwise in (field.vec_add, field.vec_sub):
        with pytest.raises(FieldError):
            pairwise(a, b, R97)


# 2^61 - 1 (the default) and 2^61 - 2 (its unit-group expansion) accept
# almost every word, so their chunks are kept in place.  97, the 2^60
# prime, that prime - 1 and 2^61 reject a quarter to a half of the words
# and 127 one in 128, so chunks there are compacted and some last draws
# fall short.
@pytest.mark.parametrize("modulus", [R97, 127, BIG_PRIME, BIG_PRIME - 1, 1 << 61,
                                     MERSENNE_61, MERSENNE_61 - 1])
@pytest.mark.parametrize("length", [1, 63, 64, 65, 1000, 8191, 8193, prf._DRAW_WORDS - 1,
                                    prf._DRAW_WORDS + 1, 2 * prf._DRAW_WORDS + 1,
                                    100_000])
def test_expand_bit_identical_to_reference(modulus, length):
    key = KeyMaterial(b"\x09" * 16)
    for v0 in (0, 7):
        out = prf.expand(key, v0, length, modulus)
        assert out.dtype == np.uint64 and out.shape == (length,)
        assert np.array_equal(out, reference_expand(key, v0, length, modulus))


def test_derive_tag_key_at_default_modulus_matches_reference():
    key = KeyMaterial(b"\x0a" * 16)
    out = tags.derive_tag_key(key, 3, 10_000, MERSENNE_61)
    assert np.array_equal(out, reference_expand(key, 3, 10_000, MERSENNE_61 - 1) + np.uint64(1))
    assert int(out.min()) >= 1 and int(out.max()) < MERSENNE_61


@pytest.mark.parametrize("modulus", [BIG_PRIME, MERSENNE_61])
def test_interleaved_expansions_match_reference(modulus):
    # Each expansion re-points its key's kept context.  Odd lengths leave
    # half a counter block of keystream behind, which must not carry over.
    a, b = KeyMaterial(b"\x0b" * 16), KeyMaterial(b"\x0c" * 16)
    for key, v0, length in ((a, 7, 1001), (b, 7, 999), (a, 3, 1), (a, 7, 333)):
        assert np.array_equal(prf.expand(key, v0, length, modulus),
                              reference_expand(key, v0, length, modulus))
    assert np.array_equal(tags.derive_tag_key(a, 7, 65, modulus),
                          reference_expand(a, 7, 65, modulus - 1) + np.uint64(1))


def test_cipher_context_made_once_per_key(monkeypatch):
    made = []

    def counting_cipher(*args, **kwargs):
        made.append(args)
        return Cipher(*args, **kwargs)

    monkeypatch.setattr(prf, "Cipher", counting_cipher)
    k = KeyMaterial(b"\x05" * 16)
    assert k.cipher is k.cipher and k.cipher.key == hashlib.sha256(k.data).digest()
    for v0, length in ((4, 1), (4, 9000), (2, 100), (4, 1)):
        assert np.array_equal(prf.expand(k, v0, length, BIG_PRIME),
                              reference_expand(k, v0, length, BIG_PRIME))
    assert len(made) == 1
    assert prf._keystream(k, 9) is k.encryptor
    # The cached cipher objects take no part in key equality.
    assert k == KeyMaterial(k.data)


@pytest.mark.parametrize("modulus", [MERSENNE_61, MERSENNE_61 - 1, R97, 127, BIG_PRIME])
def test_expand_one_matches_reference(modulus):
    key = KeyMaterial(b"\x0d" * 16)
    for v0 in range(1, 300):
        assert prf.expand_one(key, v0, modulus) == int(reference_expand(key, v0, 1, modulus)[0])


@pytest.mark.parametrize("modulus", [MERSENNE_61, MERSENNE_61 - 1, R97, 127, BIG_PRIME])
def test_expand_one_interleaved_with_array_expansions(modulus):
    # A scalar draw leaves half a counter block of keystream behind; the
    # array expansion after it, and the scalar draw after that, must not
    # see it.
    key = KeyMaterial(b"\x0e" * 16)
    for v0 in range(1, 300, 7):
        one = int(reference_expand(key, v0, 1, modulus)[0])
        assert prf.expand_one(key, v0, modulus) == one
        assert np.array_equal(prf.expand(key, v0 + 1, 1001, modulus),
                              reference_expand(key, v0 + 1, 1001, modulus))
        assert prf.expand_one(key, v0, modulus) == one
        assert np.array_equal(prf.expand(key, v0, 65, modulus),
                              reference_expand(key, v0, 65, modulus))


def test_sent_payload_view_is_read_only_and_the_frame_a_copy():
    share = np.arange(5, dtype=np.uint64)
    raw = field.vec_to_raw(share)
    assert raw.readonly and len(raw) == 40
    with pytest.raises(TypeError):
        raw[0] = 1
    sent = share.copy()
    memory = wire.MemoryLink("user0->cs", wire.TrafficLedger())
    sender, receiver = wire.socket_link_pair("user0->vs")
    try:
        for out, into in ((memory, memory), (sender, receiver)):
            out.send(wire.Message(wire.MessageKind.MODEL_SHARE, 1, 0, field.vec_to_raw(share)))
            share[:] = 99
            assert np.array_equal(field.vec_from_raw(into.recv().payload), sent)
            share[:] = sent
    finally:
        sender.close()
        receiver.close()
