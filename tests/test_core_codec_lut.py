"""Table-lookup MANT dequantization == Eq. 2 evaluated per element, bit for bit.

``MantCodec.decode`` gathers each code's level from the stacked tables'
level rows and ``MantCodec.qdq`` gathers signed levels straight from
merged-ladder positions.  Both are claimed bitwise equal to the closed
form ``sign·(a·i + 2^i)·s`` (``sign·i·s`` for INT groups).  These
properties check that over the canonical 16-type set and an exotic
coefficient set, every code width, ragged widths, all-zero groups and
magnitudes across (and beyond) fp16's range.  They also pin the
bucketized ladder lookup to a plain binary search, the literal NF4
grid to its SciPy construction, and ``import repro`` to not loading
SciPy at all.
"""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.core.codec import (
    INT_A,
    MantCodec,
    _CANONICAL_CANDIDATES,
    _ladder_from_boundaries,
    _merged_ladder,
)
from repro.core.fused import combined_weight_terms
from repro.datatypes.normalfloat import NormalFloatType, _DELTA, nf4

EXOTIC = (1.5, 7.25, 33.0, 99.5, float(INT_A))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def closed_form_levels(enc):
    """``sign·(a·i + 2^i)`` (``sign·i`` for INT) per element, unscaled."""
    sgn = enc.sign.astype(np.float64)
    mag = enc.magnitude.astype(np.float64)
    a = enc.a_coeff[..., None]
    return np.where(a == INT_A, sgn * mag, sgn * (a * mag + 2.0**mag))


def closed_form_decode(enc):
    vals = closed_form_levels(enc) * enc.scale[..., None]
    rows, cols = enc.original_shape
    return vals.reshape(rows, -1)[:, :cols]


@st.composite
def weights_and_coeffs(draw):
    """A ragged 2-D weight, per-group coefficients and a codec."""
    n_bits = draw(st.sampled_from([2, 3, 4]))
    group_size = draw(st.sampled_from([1, 4, 16, 64]))
    rows = draw(st.integers(1, 4))
    n_groups = draw(st.integers(1, 4))
    cols = n_groups * group_size - draw(st.integers(0, group_size - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # 1e-10 .. 1e7: below fp16's smallest subnormal scale to above its max.
    w = rng.normal(size=(rows, cols)) * 10.0 ** draw(st.integers(-10, 7))
    if draw(st.booleans()):
        w[rng.integers(rows), : min(cols, group_size)] = 0.0   # all-zero group
    pool = draw(st.sampled_from([_CANONICAL_CANDIDATES, EXOTIC]))
    if draw(st.booleans()):
        a = rng.choice(pool, size=(rows, n_groups))
    else:
        a = np.full((rows, n_groups), draw(st.sampled_from(pool)))
    codec = MantCodec(bits=n_bits, group_size=group_size,
                      fp16_scales=draw(st.booleans()))
    return codec, w, a


@settings(max_examples=150, deadline=None)
@given(weights_and_coeffs())
def test_decode_bitwise_equals_closed_form(case):
    codec, w, a = case
    enc = codec.encode(w, a)
    out = codec.decode(enc)
    assert out.shape == w.shape
    assert np.array_equal(bits(out), bits(closed_form_decode(enc)))


@settings(max_examples=150, deadline=None)
@given(weights_and_coeffs())
def test_qdq_bitwise_equals_closed_form(case):
    codec, w, a = case
    out = codec.qdq(w, a)
    assert out.shape == w.shape
    assert np.array_equal(bits(out), bits(closed_form_decode(codec.encode(w, a))))


@settings(max_examples=60, deadline=None)
@given(weights_and_coeffs())
def test_combined_weight_terms_bitwise_equal_closed_form(case):
    codec, w, a = case
    enc = codec.encode(w, a)
    assert np.array_equal(bits(combined_weight_terms(enc)),
                          bits(closed_form_levels(enc)))


def test_decode_covers_every_stored_magnitude_code():
    """The level table spans all uint8 codes, so decode stays the closed
    form even for codes no well-formed encoding produces."""
    codec = MantCodec(bits=4, group_size=4, fp16_scales=False)
    enc = codec.encode(np.ones((2, 8)), np.array([[17.0, INT_A], [0.0, 120.0]]))
    mag = np.arange(16, dtype=np.uint8).reshape(enc.magnitude.shape) * 17
    forged = type(enc)(enc.sign, mag, enc.scale, enc.a_coeff, enc.bits,
                       enc.group_size, enc.original_shape, enc.pad)
    assert np.array_equal(bits(codec.decode(forged)), bits(closed_form_decode(forged)))


def test_integer_coefficients_encode_and_qdq_as_floats():
    codec = MantCodec(bits=4, group_size=8)
    w = np.random.default_rng(3).normal(size=(3, 16))
    a_int = np.array([[17, -1], [0, 120], [17, 17]])
    enc = codec.encode(w, a_int)
    assert enc.a_coeff.dtype == np.float64
    assert np.array_equal(bits(codec.qdq(w, a_int)),
                          bits(codec.qdq(w, a_int.astype(np.float64))))
    assert np.array_equal(bits(codec.decode(enc)), bits(closed_form_decode(enc)))


@settings(max_examples=60, deadline=None)
@given(
    n_bits=st.sampled_from([2, 3, 4]),
    pool=st.sampled_from([_CANONICAL_CANDIDATES, EXOTIC]),
    seed=st.integers(0, 2**31 - 1),
)
def test_ladder_positions_equal_searchsorted(n_bits, pool, seed):
    ladder = _merged_ladder(pool, n_bits)
    b = ladder.boundaries
    edges = -1.0 + np.arange(ladder.n_buckets + 1) * (2.0 / ladder.n_buckets)
    rng = np.random.default_rng(seed)
    v = np.concatenate([
        b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),   # on / beside
        [-1.0, 1.0, -0.0, 0.0, np.nextafter(-1.0, 0), np.nextafter(1.0, 0)],
        rng.choice(edges, 256), rng.uniform(-1.0, 1.0, 4096),
    ])
    expect = np.searchsorted(b, v, side="left")
    assert np.array_equal(ladder.positions(v), expect)
    assert np.array_equal(ladder.positions(v[None, :]), expect[None, :])


def test_ladder_exact_with_boundaries_beside_bucket_edges():
    """Boundaries one ulp beside bucket edges, where ``(v + 1)·K/2``
    rounds a value into the neighbouring bucket: the case the
    margin-extended ambiguity test exists for."""
    probe = _merged_ladder(_CANONICAL_CANDIDATES, 4)
    k = probe.n_buckets
    edges = -1.0 + np.arange(k + 1) * (2.0 / k)
    rng = np.random.default_rng(0)
    # Near zero, v's ulp is far finer than (v + 1)'s, so rounding is coarse.
    picks = np.concatenate([edges[k // 2 - 40: k // 2 + 40],
                            rng.choice(edges[1:-1], 40, replace=False)])
    below, above = np.nextafter(picks[::2], -2), np.nextafter(picks[1::2], 2)
    b = np.unique(np.concatenate([below, above]))
    ladder = _ladder_from_boundaries(b)
    near = np.concatenate([b, picks])
    v = np.concatenate([near, np.nextafter(near, -2), np.nextafter(near, 2)])
    assert np.array_equal(ladder.positions(v), np.searchsorted(b, v, side="left"))


def test_nf4_literal_grid_equals_scipy_construction():
    from scipy.stats import norm

    pos = norm.ppf(np.linspace(0.5, 1.0 - _DELTA, 9))
    neg_src = norm.ppf(np.linspace(_DELTA, 0.5, 8))
    grid = np.unique(np.concatenate([neg_src / np.abs(neg_src[0]), pos / pos[-1]]))
    assert np.array_equal(bits(nf4.grid), bits(grid))
    assert np.array_equal(bits(NormalFloatType(4).grid), bits(grid))


def test_other_nf_widths_match_scipy_construction():
    from scipy.stats import norm

    for n_bits in (2, 3, 5):
        n = 2**n_bits
        pos = norm.ppf(np.linspace(0.5, 1.0 - _DELTA, n // 2 + 1))
        neg_src = norm.ppf(np.linspace(_DELTA, 0.5, n // 2))
        grid = np.unique(np.concatenate([neg_src / np.abs(neg_src[0]), pos / pos[-1]]))
        assert np.array_equal(bits(NormalFloatType(n_bits).grid), bits(grid))


def test_import_repro_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, repro; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
