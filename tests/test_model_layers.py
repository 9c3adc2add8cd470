"""Gradient checks and behaviour tests for every NN layer."""

import numpy as np
import pytest

from repro.model import layers as L


def num_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


class TestLinear:
    def test_forward(self, rng):
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(5, 4))
        y, _ = L.linear_fwd(x, w)
        assert y.shape == (2, 3, 5)
        assert np.allclose(y, x @ w.T)

    def test_backward(self, rng):
        x = rng.normal(size=(2, 4))
        w = rng.normal(size=(3, 4))
        y, cache = L.linear_fwd(x, w)
        dy = rng.normal(size=y.shape)
        dx, dw = L.linear_bwd(dy, cache)

        def loss():
            return float(np.sum(L.linear_fwd(x, w)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)
        assert np.allclose(dw, num_grad(loss, w), atol=1e-5)


def _bits(a):
    """Raw float64 bit patterns: a stricter equality than ``array_equal``
    (``-0.0`` and ``+0.0`` differ)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _slice_spy(w):
    """``w`` as a view that records every row slice taken from it — the
    tiled path slices the weight, the untiled ``x @ w.T`` never does."""
    taken = []

    class Spy(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice):
                taken.append(key)
            return np.asarray(self)[key]

    return w.view(Spy), taken


class TestLinearWeightStationary:
    """Decode batches ``(B, 1, in)`` stream large weights in row tiles;
    every row must stay bitwise equal to its own single-row GEMV."""

    # (out, in): above TILE_BYTES with out a multiple of the tile rows
    # (512 rows of 512 -> tiles of 128), not a multiple (1088 -> 8 full
    # tiles + 64), a one-row remainder merged into the last tile (704 in
    # -> tiles of 80; 161 = 80 + 81), and an FFN down projection (512 x
    # 1408 -> tiles of 32).
    ABOVE = [(512, 512), (1088, 512), (161, 704), (512, 1408)]

    @pytest.mark.parametrize("bsz", [2, 8, 16])
    @pytest.mark.parametrize("shape", ABOVE)
    def test_tiled_rows_bitwise_equal_per_row_gemv(self, rng, bsz, shape):
        w = rng.normal(size=shape)
        assert w.nbytes > L.TILE_BYTES
        x = rng.normal(size=(bsz, 1, shape[1]))
        spy, taken = _slice_spy(w)
        y, cache = L.linear_fwd(x, spy)
        assert len(taken) > 1                       # the tiled path ran
        assert all(s.stop - s.start > 1 for s in taken)
        assert y.shape == (bsz, 1, shape[0])
        for b in range(bsz):
            assert np.array_equal(_bits(y[b]), _bits(x[b] @ w.T))
        assert cache[0] is x

    @pytest.mark.parametrize("bsz", [2, 8, 16])
    def test_below_budget_untiled(self, rng, bsz):
        w = rng.normal(size=(256, 256))              # exactly TILE_BYTES
        assert w.nbytes == L.TILE_BYTES
        x = rng.normal(size=(bsz, 1, 256))
        spy, taken = _slice_spy(w)
        y, _ = L.linear_fwd(x, spy)
        assert taken == []
        assert np.array_equal(_bits(y), _bits(x @ w.T))

    @pytest.mark.parametrize("x_shape", [(1, 1, 512), (1, 7, 512), (3, 2, 512),
                                         (4, 512)])
    def test_other_shapes_untiled(self, rng, x_shape):
        """Single-stream decode, prefill / packed rows, 2-D inputs."""
        w = rng.normal(size=(1024, 512))
        x = rng.normal(size=x_shape)
        spy, taken = _slice_spy(w)
        y, _ = L.linear_fwd(x, spy)
        assert taken == []
        assert np.array_equal(_bits(y), _bits(x @ w.T))

    def test_f_order_weight_untiled(self, rng):
        w = np.asfortranarray(rng.normal(size=(1024, 512)))
        x = rng.normal(size=(8, 1, 512))
        spy, taken = _slice_spy(w)
        y, _ = L.linear_fwd(x, spy)
        assert taken == []
        assert np.array_equal(_bits(y), _bits(x @ w.T))


class TestNorms:
    def test_rmsnorm_grad(self, rng):
        x = rng.normal(size=(2, 3, 6))
        g = rng.normal(size=6) + 1.0
        y, cache = L.rmsnorm_fwd(x, g)
        dy = rng.normal(size=y.shape)
        dx, dg = L.rmsnorm_bwd(dy, cache)

        def loss():
            return float(np.sum(L.rmsnorm_fwd(x, g)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)
        assert np.allclose(dg, num_grad(loss, g), atol=1e-5)

    def test_layernorm_grad(self, rng):
        x = rng.normal(size=(2, 4))
        g = rng.normal(size=4) + 1.0
        b = rng.normal(size=4)
        y, cache = L.layernorm_fwd(x, g, b)
        dy = rng.normal(size=y.shape)
        dx, dg, db = L.layernorm_bwd(dy, cache)

        def loss():
            return float(np.sum(L.layernorm_fwd(x, g, b)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)
        assert np.allclose(dg, num_grad(loss, g), atol=1e-5)
        assert np.allclose(db, num_grad(loss, b), atol=1e-5)

    def test_rmsnorm_unit_rms(self, rng):
        x = rng.normal(size=(8, 16)) * 5
        y, _ = L.rmsnorm_fwd(x, np.ones(16))
        rms = np.sqrt(np.mean(y * y, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)


class TestRope:
    def test_norm_preserving(self, rng):
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(2, 5, 8))
        y = L.apply_rope(x, cos, sin)
        assert np.allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1))

    def test_position_zero_is_identity(self, rng):
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(1, 1, 8))
        assert np.allclose(L.apply_rope(x, cos, sin), x)

    def test_offset_consistency(self, rng):
        # Rotating token t with offset o == rotating at position o + t.
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(1, 4, 8))
        full = L.apply_rope(x, cos, sin)
        tail = L.apply_rope(x[:, 2:], cos, sin, offset=2)
        assert np.allclose(full[:, 2:], tail)

    def test_relative_property(self, rng):
        # q.k depends only on relative distance — the RoPE property.
        cos, sin = L.rope_tables(16, 64)
        q = rng.normal(size=16)
        k = rng.normal(size=16)

        def score(i, j):
            qr = L.apply_rope(q[None, None], cos, sin, offset=i)[0, 0]
            kr = L.apply_rope(k[None, None], cos, sin, offset=j)[0, 0]
            return float(qr @ kr)

        assert score(3, 1) == pytest.approx(score(10, 8), abs=1e-9)

    def test_backward_is_inverse_rotation(self, rng):
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(2, 5, 8))
        y, cache = L.rope_fwd(x, cos, sin)
        dy = rng.normal(size=y.shape)
        dx = L.rope_bwd(dy, cache)
        # <dx, x> must equal <dy, y> for a rotation (orthogonality).
        assert np.sum(dx * x) == pytest.approx(np.sum(dy * y))


class TestActivationsAndAttention:
    def test_silu_grad(self, rng):
        x = rng.normal(size=(3, 4))
        y, cache = L.silu_fwd(x)
        dy = rng.normal(size=y.shape)
        dx = L.silu_bwd(dy, cache)

        def loss():
            return float(np.sum(L.silu_fwd(x)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)

    def test_relu(self, rng):
        x = np.array([-1.0, 0.0, 2.0])
        y, cache = L.relu_fwd(x)
        assert list(y) == [0, 0, 2]
        assert list(L.relu_bwd(np.ones(3), cache)) == [0, 0, 1]

    def test_attention_causality(self, rng):
        q = rng.normal(size=(1, 1, 4, 8))
        k = rng.normal(size=(1, 1, 4, 8))
        v = rng.normal(size=(1, 1, 4, 8))
        out1, _ = L.causal_attention_fwd(q, k, v)
        # Changing the future must not change earlier outputs.
        k2, v2 = k.copy(), v.copy()
        k2[..., 3, :] += 100
        v2[..., 3, :] += 100
        out2, _ = L.causal_attention_fwd(q, k2, v2)
        assert np.allclose(out1[..., :3, :], out2[..., :3, :])

    def test_attention_grad(self, rng):
        q = rng.normal(size=(1, 2, 3, 4))
        k = rng.normal(size=(1, 2, 3, 4))
        v = rng.normal(size=(1, 2, 3, 4))
        out, cache = L.causal_attention_fwd(q, k, v)
        dout = rng.normal(size=out.shape)
        dq, dk, dv = L.causal_attention_bwd(dout, cache)

        def loss():
            return float(np.sum(L.causal_attention_fwd(q, k, v)[0] * dout))

        assert np.allclose(dq, num_grad(loss, q), atol=1e-5)
        assert np.allclose(dk, num_grad(loss, k), atol=1e-5)
        assert np.allclose(dv, num_grad(loss, v), atol=1e-5)

    def test_softmax_rows_sum_to_one(self, rng):
        p = L.softmax(rng.normal(size=(4, 7)))
        assert np.allclose(p.sum(axis=-1), 1.0)


class TestCrossEntropy:
    def test_uniform_logits_log_v(self):
        logits = np.zeros((1, 2, 10))
        targets = np.array([[3, 7]])
        loss, _ = L.cross_entropy_fwd(logits, targets)
        assert loss == pytest.approx(np.log(10))

    def test_gradient(self, rng):
        logits = rng.normal(size=(2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        _, cache = L.cross_entropy_fwd(logits, targets)
        dlogits = L.cross_entropy_bwd(cache)

        def loss():
            return L.cross_entropy_fwd(logits, targets)[0]

        assert np.allclose(dlogits, num_grad(loss, logits), atol=1e-5)
