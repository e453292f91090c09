import numpy as np
import pytest

from vsecagg import field
from vsecagg.codec import CodecError, CodecParams, check_capacity, decode, encode
from vsecagg.field import FieldModulus

BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60


def params97(delta=1, n_max=1, x_min=-4.0, x_max=4.0):
    return CodecParams(delta=delta, r_w=97, n_max=n_max, x_min=x_min, x_max=x_max)


def big_params(delta=1 << 40, n_max=10):
    return CodecParams(delta=delta, r_w=BIG_PRIME, n_max=n_max)


def test_encode_positive_value():
    p = CodecParams(delta=4, r_w=97, n_max=1, x_min=-2.0, x_max=2.0)
    assert int(encode([1.25], p)[0]) == 5  # 1.25 * 4


def test_encode_negative_value():
    p = CodecParams(delta=16, r_w=97, n_max=1, x_min=-0.5, x_max=0.5)
    # -0.3 * 16 = -4.8 rounds to -5; -5 mod 97 = 92
    assert int(encode([-0.3], p)[0]) == 92


def test_encode_zero():
    assert int(encode([0.0], big_params())[0]) == 0


def test_encode_ties_away_from_zero():
    p = CodecParams(delta=2, r_w=97, n_max=1, x_min=-4.0, x_max=4.0)
    assert int(encode([0.25], p)[0]) == 1    # 0.5 -> 1
    assert int(encode([-0.25], p)[0]) == 96  # -0.5 -> -1


def test_encode_rejects_out_of_bounds_with_index():
    p = big_params()
    with pytest.raises(CodecError, match="index 2"):
        encode([0.0, 1.0, 11.0], p)
    with pytest.raises(CodecError):
        encode([float("nan")], p)


def reference_encode(values, params):
    """The sign(s) * floor(|s| + 0.5) rounding, checked element-wise."""
    v = np.asarray(values, dtype=np.float64)
    assert np.all((v >= params.x_min) & (v <= params.x_max))
    scaled = v * params.delta
    quantized = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return np.array([int(q) % params.r_w for q in quantized], dtype=np.uint64)


def test_encode_matches_sign_floor_reference():
    p = big_params()
    rng = np.random.default_rng(11)
    ties = (rng.integers(-(1 << 30), 1 << 30, 2000) + 0.5) / p.delta
    edges = [0.0, -0.0, 10.0, -10.0, 5e-324, -5e-324, 0.5 / p.delta, -0.5 / p.delta,
             np.nextafter(0.5 / p.delta, 1.0), np.nextafter(-0.5 / p.delta, -1.0),
             np.nextafter(10.0, 0.0), np.nextafter(-10.0, 0.0)]
    for values in (rng.uniform(-10, 10, 20_000), ties, np.array(edges)):
        assert np.array_equal(encode(values, p), reference_encode(values, p))
    small = params97(delta=2)
    grid = np.arange(-16, 17) / 4.0  # every multiple of a quarter in [-4, 4]
    assert np.array_equal(encode(grid, small), reference_encode(grid, small))


@pytest.mark.parametrize("bad,index", [
    ([0.0, float("nan")], 1),
    ([float("inf")], 0),
    ([1.0, 2.0, float("-inf")], 2),
    ([np.nextafter(10.0, 11.0)], 0),
    ([0.0, -10.5, 11.0], 1),
])
def test_encode_rejects_first_bad_value_with_index(bad, index):
    with pytest.raises(CodecError, match=rf"at index {index} outside \[-10.0, 10.0\]"):
        encode(bad, big_params())


def test_decode_inverts_encode_examples():
    p = CodecParams(delta=4, r_w=97, n_max=1, x_min=-2.0, x_max=2.0)
    assert decode(np.array([5], dtype=np.uint64), p, 1)[0] == pytest.approx(1.25)
    p2 = CodecParams(delta=16, r_w=97, n_max=1, x_min=-0.5, x_max=0.5)
    assert decode(np.array([92], dtype=np.uint64), p2, 1)[0] == pytest.approx(-5 / 16)


def test_decode_rejects_zero_participants():
    # A weight sum divides a weighted round, so no divisor but a positive one passes.
    for m in (0, -1, float("nan")):
        with pytest.raises(CodecError, match="divisor must be positive"):
            decode(np.array([0], dtype=np.uint64), big_params(), m)


def test_round_trip_within_half_ulp():
    p = big_params()
    rng = np.random.default_rng(1)
    x = rng.uniform(-10, 10, 500)
    back = decode(encode(x, p), p, 1)
    assert np.max(np.abs(back - x)) <= 0.5 / p.delta


def test_check_capacity_examples():
    p = params97(delta=1, x_min=-4.0, x_max=4.0, n_max=1)
    assert check_capacity(p, 10)       # 40 < 48
    assert not check_capacity(p, 13)   # 52 > 48
    assert check_capacity(p, 1)


def test_params_reject_capacity_violation():
    with pytest.raises(CodecError):
        CodecParams(delta=1, r_w=97, n_max=13, x_min=-4.0, x_max=4.0)
    with pytest.raises(CodecError):
        CodecParams(delta=3, r_w=97, n_max=1)  # not a power of two
    for x_min, x_max in ((1.0, 1.0), (2.0, -2.0)):
        with pytest.raises(CodecError, match="x_min must be below x_max"):
            CodecParams(delta=1, r_w=97, n_max=1, x_min=x_min, x_max=x_max)
    for n_max in (0, -1):
        with pytest.raises(CodecError, match="n_max must be at least 1"):
            CodecParams(delta=1, r_w=97, n_max=n_max)


def test_additivity_without_wrap():
    # Within capacity, the modular sum of encodings equals the exact
    # integer sum of signed encodings: no wrap occurs.
    p = big_params(n_max=8)
    rng = np.random.default_rng(2)
    vecs = [rng.uniform(-10, 10, 50) for _ in range(8)]
    encoded = [encode(v, p) for v in vecs]
    modular = field.vec_sum(encoded, p.r_w)
    integer = sum(field.vec_to_signed(e, p.r_w).astype(object) for e in encoded)
    assert [int(s) for s in field.vec_to_signed(modular, p.r_w)] == [int(s) for s in integer]


def test_mean_decoding_error_bound():
    p = big_params(n_max=8)
    rng = np.random.default_rng(3)
    vecs = [rng.uniform(-10, 10, 50) for _ in range(8)]
    total = field.vec_sum([encode(v, p) for v in vecs], p.r_w)
    mean = decode(total, p, len(vecs))
    true_mean = np.mean(vecs, axis=0)
    assert np.max(np.abs(mean - true_mean)) <= 0.5 / p.delta
