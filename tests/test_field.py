import random

import numpy as np
import pytest

from vsecagg import field
from vsecagg.field import (FieldError, FieldModulus, dot, find_prime_below,
                           first_non_canonical, is_prime, vec_add, vec_sub, vec_sum,
                           vec_to_signed)

R17 = 17
R97 = 97
# Computed once with an incremental search over the deterministic
# Miller-Rabin test and cross-checked against sympy.nextprime(2**60).
PRIME_ABOVE_2_60 = FieldModulus(1152921504606847009)


def vec(values):
    return np.array(values, dtype=np.uint64)


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        k = 2
        while k * k <= n:
            if n % k == 0:
                return False
            k += 1
        return True

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_find_prime_below():
    assert find_prime_below(1 << 61) == (1 << 61) - 1
    assert find_prime_below(4) == 3
    assert find_prime_below(10) == 7
    assert find_prime_below(12) == 11
    assert find_prime_below(14) == 13
    assert find_prime_below(99) == 97  # an odd bound
    assert find_prime_below(1 << 20) == (1 << 20) - 3
    for bound in (10, 16, 100, 1 << 20):
        p = find_prime_below(bound)
        assert find_prime_below(p + 1) == p
        assert not any(is_prime(n) for n in range(p + 1, bound))


def test_find_prime_below_lies_above_the_next_lower_power_of_two():
    for bits in range(2, 61):
        p = find_prime_below(1 << (bits + 1))
        assert 1 << bits < p < 1 << (bits + 1)
        assert is_prime(p)


def test_find_prime_below_rejects_out_of_range():
    for bound in (3, 2, 0, -5, (1 << 61) + 1, 1 << 62):
        with pytest.raises(FieldError):
            find_prime_below(bound)


def test_first_non_canonical():
    r = (1 << 61) - 1
    assert first_non_canonical(np.array([], dtype=np.uint64), r) is None
    assert first_non_canonical(np.array([0, 1, r - 1], dtype=np.uint64), r) is None
    assert first_non_canonical(np.array([0, r, 1, r + 5], dtype=np.uint64), r) == 1
    assert first_non_canonical(np.full(5, (1 << 64) - 1, dtype=np.uint64), r) == 0
    assert first_non_canonical(np.array([3, 96, 97], dtype=np.uint64), 97) == 2


def test_modulus_validation():
    assert FieldModulus(17) == 17
    with pytest.raises(FieldError):
        FieldModulus(15)
    with pytest.raises(FieldError):
        FieldModulus(2)
    with pytest.raises(FieldError):
        FieldModulus((1 << 61) + 9)  # prime but too wide


def test_field_axioms_exhaustive_r17():
    # Every pair of residues at once: a runs down the rows, b along the columns.
    a, b = (vec(x) for x in np.indices((R17, R17)).reshape(2, -1))
    total = vec_add(a, b, R17)
    assert [int(x) for x in total] == [(int(x) + int(y)) % R17 for x, y in zip(a, b)]
    assert np.array_equal(total, vec_add(b, a, R17))
    assert np.array_equal(vec_sub(total, b, R17), a)
    for c in range(0, R17, 5):
        cs = np.full(a.size, c, dtype=np.uint64)
        assert np.array_equal(vec_add(total, cs, R17), vec_add(a, vec_add(b, cs, R17), R17))


def test_to_signed_examples():
    assert vec_to_signed(vec([16, 8, 9, 0]), R17).tolist() == [-1, 8, -8, 0]  # (R-1)/2 = 8
    assert vec_to_signed(vec([0, 48, 49, 96]), R97).tolist() == [0, 48, -48, -1]


def test_signed_round_trips():
    for r in (R17, R97, PRIME_ABOVE_2_60):
        half = (r - 1) // 2
        residues = vec([0, 1, half, half + 1, r - 1])
        signed = vec_to_signed(residues, r).tolist()
        assert signed == [0, 1, half, -half, -1]
        assert [s % r for s in signed] == residues.tolist()


def test_dot_example():
    a = vec([2, 3])
    b = vec([5, 7])
    assert dot(a, b, R97) == 31
    zero = vec([0, 0])
    assert dot(zero, b, R97) == 0
    assert dot(vec([]), vec([]), R97) == 0


def test_dot_length_mismatch():
    with pytest.raises(FieldError):
        dot(vec([1]), vec([1, 2]), R97)


def test_dot_linearity_randomized():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.integers(0, R97, 8, dtype=np.uint64)
        a2 = rng.integers(0, R97, 8, dtype=np.uint64)
        b = rng.integers(0, R97, 8, dtype=np.uint64)
        assert dot(vec_add(a, a2, R97), b, R97) == (dot(a, b, R97) + dot(a2, b, R97)) % R97


def test_vector_ops_stay_canonical_at_large_modulus():
    r = PRIME_ABOVE_2_60
    rng = np.random.default_rng(9)
    a = rng.integers(0, r, 100, dtype=np.uint64)
    b = rng.integers(0, r, 100, dtype=np.uint64)
    for out in (vec_add(a, b, r), vec_sub(a, b, r)):
        assert int(out.max()) < r
    # Oracle: elementwise Python-int arithmetic.
    assert [int(x) for x in vec_add(a, b, r)] == [(int(x) + int(y)) % r for x, y in zip(a, b)]
    assert [int(x) for x in vec_sub(a, b, r)] == [(int(x) - int(y)) % r for x, y in zip(a, b)]


def test_vec_signed_round_trip():
    r = R97
    rng = np.random.default_rng(3)
    a = rng.integers(0, r, 64, dtype=np.uint64)
    assert [int(s) % r for s in vec_to_signed(a, r)] == a.tolist()


def test_vec_sum_matches_sequential_add():
    rng = np.random.default_rng(11)
    vecs = [rng.integers(0, R97, 5, dtype=np.uint64) for _ in range(7)]
    expected = [sum(int(v[i]) for v in vecs) % R97 for i in range(5)]
    assert [int(x) for x in vec_sum(vecs, R97)] == expected
    with pytest.raises(FieldError):
        vec_sum([], R97)


def test_serialization_round_trips():
    rng = random.Random(2)
    values = vec([rng.randrange(PRIME_ABOVE_2_60) for _ in range(10)])
    raw = field.vec_to_raw(values)
    assert len(raw) == 8 * len(values)
    assert np.array_equal(field.vec_from_raw(raw), values)
    with pytest.raises(FieldError):
        field.vec_from_raw(raw[:-1])


def test_element_bytes_are_little_endian():
    vec = np.array([1, 0x0102], dtype=np.uint64)
    assert field.vec_to_raw(vec) == b"\x01" + bytes(7) + b"\x02\x01" + bytes(6)
