"""Decode-path shortcuts that must not change a bit.

* ``cached_attention_fwd`` skips the causal mask for a decode row at the
  cache's last position (the mask is all true there): the result must
  be bitwise equal to the masked computation.
* ``VarianceSelector.same_policy`` compares a key captured when the
  policy is installed: its truth table must match comparing the
  coefficient and threshold arrays.
"""

import numpy as np
import pytest

from repro.core.mant import MANT_WEIGHT_A_SET
from repro.core.selection import VarianceSelector
from repro.model import layers as L


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def masked_attention(q, keys, values, offset):
    """The attention with the causal mask always applied."""
    t, s = q.shape[-2], keys.shape[-2]
    scores = q @ np.swapaxes(keys, -1, -2) / np.sqrt(q.shape[-1])
    qpos = offset + np.arange(t)[:, None]
    scores = np.where(np.arange(s)[None, :] <= qpos, scores, -np.inf)
    return L.softmax(scores, axis=-1) @ values


class _Paged:
    """Minimal paged-view stand-in: anything exposing ``gather()``."""

    def __init__(self, arr):
        self.arr = arr

    def gather(self):
        return self.arr


@pytest.mark.parametrize("heads,s,d_head", [(1, 1, 4), (2, 7, 8), (8, 65, 64)])
@pytest.mark.parametrize("paged", [False, True])
def test_unmasked_decode_row_bitwise_equals_masked(heads, s, d_head, paged):
    rng = np.random.default_rng(s)
    q = rng.normal(size=(heads, 1, d_head))
    k = rng.normal(size=(heads, s, d_head))
    v = rng.normal(size=(heads, s, d_head))
    keys, values = (_Paged(k), _Paged(v)) if paged else (k, v)
    out = L.cached_attention_fwd(q, keys, values, offset=s - 1)
    assert np.array_equal(bits(out), bits(masked_attention(q, k, v, s - 1)))


@pytest.mark.parametrize("t,s,offset", [(1, 9, 4), (1, 9, 0), (3, 9, 6), (4, 4, 0)])
def test_masked_rows_unchanged(t, s, offset):
    rng = np.random.default_rng(t * 100 + offset)
    q = rng.normal(size=(2, t, 8))
    k = rng.normal(size=(2, s, 8))
    v = rng.normal(size=(2, s, 8))
    out = L.cached_attention_fwd(q, k, v, offset=offset)
    assert np.array_equal(bits(out), bits(masked_attention(q, k, v, offset)))


def _arrays_equal(a, b):
    """The pre-key definition of ``same_policy``."""
    return a is b or (
        isinstance(b, VarianceSelector)
        and np.array_equal(a._sorted_a, b._sorted_a)
        and np.array_equal(a._thresholds, b._thresholds)
    )


def _selectors():
    rng = np.random.default_rng(0)
    calib = rng.normal(size=(200, 64)) * rng.uniform(0.1, 3.0, size=(200, 1))
    calib[::3] = rng.laplace(size=(67, 64))
    other = rng.uniform(-1, 1, size=(200, 64))
    return [
        VarianceSelector(),
        VarianceSelector(),
        VarianceSelector().fit(calib),
        VarianceSelector().fit(calib),
        VarianceSelector().fit(other),
        VarianceSelector(include_int=False),
        VarianceSelector(a_candidates=MANT_WEIGHT_A_SET[:8]),
        VarianceSelector(bits=3),
        VarianceSelector().fit(np.ones((20, 16))),   # degenerate: keeps defaults
    ]


def test_same_policy_truth_table_unchanged():
    sels = _selectors()
    table = [[a.same_policy(b) for b in sels] for a in sels]
    expect = [[_arrays_equal(a, b) for b in sels] for a in sels]
    assert table == expect
    # The table is not trivial: equal-but-distinct and different pairs.
    assert table[0][1] and table[2][3] and table[0][8]
    assert not table[0][2] and not table[2][4] and not table[0][5]
    assert not sels[0].same_policy(object())


def test_same_policy_follows_refit():
    a, b = VarianceSelector(), VarianceSelector()
    assert a.same_policy(b)
    a.fit(np.random.default_rng(1).normal(size=(200, 64)))
    assert not a.same_policy(b) and not b.same_policy(a)
