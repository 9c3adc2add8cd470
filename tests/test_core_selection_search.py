"""The chunked MSE search == the whole-tensor ``bincount`` search, bit for bit.

``MseSearchSelector._search`` normalizes, locates and histograms one
chunk of groups at a time, accumulating both position histograms with
``np.add.at`` into buffers every chunk reuses.  The errors it returns
pick every weight's coefficients, so they must equal the straightforward
formulation (whole-tensor normalization, ``np.bincount`` histograms per
chunk) exactly — including a ragged last chunk and calibration-weighted
columns.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import selection
from repro.core.codec import _group_absmax
from repro.core.groups import to_groups
from repro.core.selection import MseSearchSelector, _candidate_tables


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def reference_search(sel, groups, col_weight):
    """Whole-tensor positions, ``bincount`` histograms, same chunking."""
    candidates = list(sel._all_candidates())
    tab = _candidate_tables(tuple(candidates), sel.bits)
    amax = _group_absmax(groups)
    vnorm = groups / amax[..., None]
    pos = tab.ladder.positions(vnorm)
    g = groups.shape[-1]
    m = groups.size // g
    n_bins = tab.ladder.boundaries.size + 1
    flat_vn = vnorm.reshape(m, g)
    flat_pos = pos.reshape(m, g)
    flat_w = None
    if col_weight is not None:
        flat_w = np.broadcast_to(col_weight, groups.shape).reshape(m, g)
        const = (flat_w * flat_vn * flat_vn).sum(axis=-1)
    else:
        const = (flat_vn * flat_vn).sum(axis=-1)
    errs = np.empty((len(candidates), m))
    block = max(1, selection._SEARCH_CHUNK_BINS // n_bins)
    for s in range(0, m, block):
        e = min(m, s + block)
        n = (e - s) * n_bins
        keys = (flat_pos[s:e] + np.arange(e - s)[:, None] * n_bins).ravel()
        if flat_w is None:
            hist_w = np.bincount(keys, minlength=n)
            hist_wv = np.bincount(keys, weights=flat_vn[s:e].ravel(), minlength=n)
        else:
            wchunk = flat_w[s:e].ravel()
            hist_w = np.bincount(keys, weights=wchunk, minlength=n)
            hist_wv = np.bincount(keys, weights=wchunk * flat_vn[s:e].ravel(),
                                  minlength=n)
        hist_w = hist_w.reshape(e - s, n_bins)
        hist_wv = hist_wv.reshape(e - s, n_bins)
        quad = hist_w @ tab.recon_sq_table.T - 2.0 * (hist_wv @ tab.recon_table.T)
        errs[:, s:e] = quad.T + const[s:e]
    errs *= (amax.reshape(m) ** 2 / g)[None, :]
    return errs.reshape((len(candidates),) + groups.shape[:-1]), pos, amax


@pytest.fixture(params=[None, 3], ids=["default-chunks", "3-group-chunks"])
def chunk_groups(request, monkeypatch):
    """Optionally shrink the chunk so small tensors span several chunks."""
    if request.param is not None:
        n_bins = _candidate_tables(
            tuple(MseSearchSelector(4, 8)._all_candidates()), 4
        ).ladder.boundaries.size + 1
        monkeypatch.setattr(selection, "_SEARCH_CHUNK_BINS",
                            request.param * n_bins)
    return request.param


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(1, 9),
    n_groups=st.integers(1, 3),
    group_size=st.sampled_from([8, 64]),
    n_bits=st.sampled_from([2, 4]),
    weighted=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_search_bitwise_equals_bincount_reference(
        chunk_groups, rows, n_groups, group_size, n_bits, weighted, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(rows, n_groups * group_size - 1)) * 10.0 ** rng.integers(-4, 4)
    w[0, :group_size] = 0.0                              # an all-zero group
    sel = MseSearchSelector(bits=n_bits, group_size=group_size)
    h = rng.random(w.shape[1]) * 3 if weighted else None
    groups = to_groups(w, group_size, axis=-1).groups
    cw = sel._col_weight(w, h)
    errs, _, pos, amax = sel._search(groups, cw)
    ref_errs, ref_pos, ref_amax = reference_search(sel, groups, cw)
    assert np.array_equal(bits(errs), bits(ref_errs))
    assert np.array_equal(pos, ref_pos)
    assert np.array_equal(bits(amax), bits(ref_amax))


def test_search_bitwise_over_several_default_chunks():
    """A perf-m-width weight: 2816 groups, two default-size chunks."""
    rng = np.random.default_rng(7)
    w = rng.normal(size=(352, 512)) * 0.02
    sel = MseSearchSelector(bits=4, group_size=64)
    groups = to_groups(w, 64, axis=-1).groups
    errs, _, pos, _ = sel._search(groups, None)
    ref_errs, ref_pos, _ = reference_search(sel, groups, None)
    assert np.array_equal(bits(errs), bits(ref_errs))
    assert np.array_equal(pos, ref_pos)

