"""Tests for the served Eq. 5 kernel (the served half of repro.core.fused).

The load-bearing properties: a served weight's float32 partial sums are
exact integers, so a decode row's result depends neither on the rows
sharing the call nor on the BLAS thread count; rows off the INT grid get
exactly their single-row dense product; and a row-local activation hook
may quantize a whole batch in one call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import INT_A, MantCodec
from repro.core.fused import (
    MantLevelWeight,
    QuantizedActivations,
    deferred_scaling,
    integer_partial_sums,
    level_table_weight,
    quantize_activations_int8,
    recover_int_rows,
    served_group_gemm,
)
from repro.core.mant import MANT_WEIGHT_A_SET
from repro.datatypes.floats import fp16_scale
from repro.model import layers as L
from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache

A_ALL = (*MANT_WEIGHT_A_SET, INT_A)
PROBE = Path(__file__).resolve().parents[1] / "benchmarks" / "eq5_probe.py"


def bits(x):
    return np.asarray(x).view(np.uint64)


def served(rng, out=24, k=128, group=64, act_bits=8, fp16_scales=True):
    """``(encoding, dense, served weight)`` of a random MANT W4 weight."""
    codec = MantCodec(group_size=group, fp16_scales=fp16_scales)
    a = rng.choice(A_ALL, size=(out, -(-k // group)))
    enc = codec.encode(rng.normal(size=(out, k)), a)
    dense = codec.decode(enc)
    return enc, dense, level_table_weight(dense, enc, act_bits)


class TestLevelTable:
    def test_levels_times_scales_are_the_dense_weight(self, rng):
        _, dense, w = served(rng, out=40, k=192)
        assert isinstance(w, MantLevelWeight) and w.levels.dtype == np.float32
        assert np.array_equal(w.levels, np.rint(w.levels))
        assert np.abs(w.levels).max() <= 968
        rebuilt = (w.levels * w.scale[:, None, :]).transpose(2, 0, 1).reshape(dense.shape)
        assert np.array_equal(bits(rebuilt), bits(dense))
        assert w.dense is dense and np.asarray(w) is dense
        assert w.shape == dense.shape and w.nbytes == dense.nbytes

    @pytest.mark.parametrize("group, built", [(136, True), (137, False), (256, False)])
    def test_built_only_while_group_sums_stay_below_2_24(self, rng, group, built):
        """``g · 127 · 968 < 2^24`` holds up to g = 136 at A8."""
        _, dense, w = served(rng, out=8, k=2 * group, group=group)
        assert isinstance(w, MantLevelWeight) is built
        if not built:
            assert w is dense

    def test_a4_allows_wider_groups(self, rng):
        _, _, w = served(rng, out=8, k=512, group=256, act_bits=4)
        assert isinstance(w, MantLevelWeight) and w.act_qmax == 7

    def test_not_built_without_fp16_scales(self, rng):
        _, dense, w = served(rng, fp16_scales=False)
        assert w is dense

    @pytest.mark.parametrize("group, served_type", [(16, MantLevelWeight),
                                                    (256, np.ndarray)])
    def test_build_ptq_pairs_weights_with_the_act_quantizer(self, group, served_type):
        model = TransformerLM(ModelConfig(vocab_size=32, d_model=256, n_heads=2,
                                          n_layers=1, d_ff=256, max_seq=16))
        setup = build_ptq(model, PTQConfig(method="mant", w_bits=4, a_bits=8,
                                           group_size=group))
        mq = setup.artifacts["mant_weights"]
        for name in model.config.linear_names():
            w = setup.weights[name]
            assert type(w) is served_type
            assert np.array_equal(bits(np.asarray(w)), bits(mq.results[name].dequantized))
            # A level table replaces the codes; the Fig. 15 coefficients stay.
            assert (mq.results[name].encoded is None) == (served_type is MantLevelWeight)
            assert mq.results[name].a_coeff.shape == (w.shape[0], -(-256 // group))
        assert sum(mq.datatype_ratio_table()[name].values()) == pytest.approx(1.0)

    def test_weights_only_ptq_keeps_dense_arrays(self):
        model = TransformerLM(ModelConfig(vocab_size=32, d_model=64, n_heads=2,
                                          n_layers=1, d_ff=64, max_seq=16))
        setup = build_ptq(model, PTQConfig(method="mant", w_bits=4, a_bits=16))
        assert setup.act_quant is None
        assert all(type(setup.weights[n]) is np.ndarray
                   for n in model.config.linear_names())


class TestServedKernel:
    def test_worst_case_sums_are_exact(self, rng):
        """Every code ±127 against every level ±968: the largest group
        sum, 64·127·968 = 7,867,904, is still exact in float32."""
        out, k, group = 8, 256, 64
        codec = MantCodec(group_size=group)
        w_sign = rng.choice([-1.0, 1.0], size=(out, k))
        w_sign[0] = 1.0
        enc = codec.encode(w_sign, np.full((out, k // group), 120.0))
        w = level_table_weight(codec.decode(enc), enc, 8)
        assert np.array_equal(np.abs(w.levels), np.full(w.levels.shape, 968.0))
        x_sign = rng.choice([-1.0, 1.0], size=(3, k))
        x_sign[0] = 1.0
        rows = recover_int_rows(127 * 2.0**-7 * x_sign, group, 127)
        assert rows.on.all() and np.array_equal(np.abs(rows.codes), np.full((4, 3, 64), 127.0))

        psums = np.matmul(rows.codes, w.levels)
        exact = np.einsum("tGg,oGg->Gto",
                          (127 * x_sign).astype(np.int64).reshape(3, 4, group),
                          (968 * w_sign).astype(np.int64).reshape(out, 4, group))
        assert np.array_equal(psums.astype(np.int64), exact)
        assert psums[:, 0, 0].tolist() == [64 * 127 * 968] * 4
        y = served_group_gemm(rows, w)
        assert np.array_equal(bits(y), bits(deferred_scaling(exact.astype(np.float64),
                                                             rows.scale, w.scale)))
        assert y[0, 0] == 4 * 64 * 127 * 968 * 2.0**-7 * w.scale[0, 0]

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 9), out=st.integers(1, 40), groups=st.integers(1, 4),
           group=st.sampled_from([8, 32, 64]), tail=st.integers(0, 7),
           scale_exp=st.integers(-12, 12), seed=st.integers(0, 2**32 - 1))
    def test_kernel_equals_int64_partial_sums(self, m, out, groups, group, tail,
                                              scale_exp, seed):
        """The float32 batched matmul gives the int64 partial sums of
        :func:`integer_partial_sums` exactly, so under the same
        fixed-order epilogue the kernel is bitwise the integer path."""
        rng = np.random.default_rng(seed)
        k = groups * group - tail
        enc, _, w = served(rng, out, k, group)
        pad = groups * group - k
        # Activation codes and fp16 scales as the INT8 group quantizer
        # leaves them: |code| <= 127 with 127 reached in every group.
        codes = rng.integers(-127, 128, size=(m, groups, group))
        codes[:, :, 0] = rng.choice([-127, 127], size=(m, groups))
        if pad:
            codes[:, -1, group - pad:] = 0
        scale = fp16_scale(2.0**scale_exp * rng.uniform(0.5, 2.0, size=(m, groups)))
        xq = QuantizedActivations(codes, scale, group, (m, k), pad)
        rows = recover_int_rows(xq.dequantize(), group, 127)
        assert rows.on.all()
        assert np.array_equal(rows.codes.transpose(1, 0, 2), codes)
        assert np.array_equal(rows.scale, scale)

        p1, p2 = integer_partial_sums(xq, enc)                     # (m, out, G)
        a = enc.a_coeff[None]
        psums = np.where(a == INT_A, p1, a.astype(np.int64) * p1 + p2)
        ref = deferred_scaling(psums.transpose(2, 0, 1).astype(np.float64), scale, w.scale)
        assert np.array_equal(bits(served_group_gemm(rows, w)), bits(ref))

    def test_mixed_batch_rows_get_their_single_row_result(self, rng):
        """On- and off-grid rows in one call: each row is bitwise what it
        gives alone — Eq. 5 on the grid, the dense GEMV off it."""
        _, dense, w = served(rng, out=40, k=192)
        on_grid = quantize_activations_int8(rng.normal(size=(5, 192)), 64).dequantize()
        x = on_grid.copy()
        x[[1, 3]] = rng.normal(size=(2, 192))
        x = x[:, None, :]
        rows = recover_int_rows(x, 64, 127)
        assert rows.on.tolist() == [True, False, True, False, True]
        y, _ = L.linear_fwd(rows, w)
        assert y.shape == (5, 1, 40)
        for t in range(5):
            alone, _ = L.linear_fwd(recover_int_rows(x[t : t + 1], 64, 127), w)
            assert np.array_equal(bits(y[t]), bits(alone[0]))
        for t in (1, 3):
            assert np.array_equal(bits(y[t]), bits(x[t] @ dense.T))
        np.testing.assert_allclose(y[0, 0], on_grid[0] @ dense.T, rtol=1e-13, atol=1e-15)

    def test_other_inputs_use_the_dense_weight(self, rng):
        """Packed/prefill inputs, and recovered rows meeting a raw
        weight or another pairing, multiply the dense forms."""
        _, dense, w = served(rng, out=16, k=128)
        x = rng.normal(size=(1, 7, 128))
        assert np.array_equal(bits(L.linear_fwd(x, w)[0]), bits(x @ dense.T))
        rows = recover_int_rows(x[0][:, None, :], 32, 127)      # other group size
        assert np.array_equal(bits(L.linear_fwd(rows, w)[0]), bits(x[0][:, None, :] @ dense.T))
        assert np.array_equal(bits(L.linear_fwd(rows, dense)[0]),
                              bits(x[0][:, None, :] @ dense.T))


class TestRowLocalActQuant:
    def test_one_call_equals_per_row_calls(self, wide_w4a8, rng):
        hook = wide_w4a8[1].act_quant
        assert hook.row_local
        x = rng.normal(size=(8, 1, 256)) * 3
        per_row = np.concatenate([hook("n", x[b : b + 1]) for b in range(8)])
        assert np.array_equal(bits(hook("n", x)), bits(per_row))

    def test_forward_mixed_calls_a_row_local_hook_once_per_input(self, wide_w4a8):
        model, ptq = wide_w4a8
        hook = ptq.act_quant
        calls = {"row_local": 0, "plain": 0}

        def counting(kind):
            def wrapped(name, x):
                calls[kind] += 1
                return hook(name, x)
            wrapped.row_local = kind == "row_local"
            return wrapped

        rng = np.random.default_rng(3)
        prompts = [rng.integers(0, 512, size=n) for n in (3, 8, 5, 11)]
        logits = {}
        for kind in calls:
            aq = counting(kind)
            caches = []
            for p in prompts:
                cs = [FP16KVCache() for _ in range(model.config.n_layers)]
                model.prefill(p, cs, weights=ptq.weights, act_quant=aq)
                caches.append(cs)
            calls[kind] = 0
            logits[kind] = model.decode_step_batch(
                [1, 2, 3, 4], caches, [p.size for p in prompts],
                weights=ptq.weights, act_quant=aq)
        points = 4 * model.config.n_layers             # wq, wo, wgate, wdown
        assert calls == {"row_local": points, "plain": points * len(prompts)}
        assert np.array_equal(bits(logits["row_local"]), bits(logits["plain"]))


def test_decode_rows_bitwise_at_one_and_two_blas_threads(tmp_path):
    """``benchmarks/eq5_probe.py`` under 1 and 2 BLAS threads: batched
    rows (B = 2, 8, 16) equal per-row steps, none falls back to the
    dense GEMV, and the logits agree bitwise across thread counts."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    logits = []
    for threads in (1, 2):
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        path = tmp_path / f"logits{threads}.npy"
        out = subprocess.run([sys.executable, str(PROBE), str(path)], env=env,
                             capture_output=True, text=True, check=True)
        summary = json.loads(out.stdout.splitlines()[-1])
        assert summary["rows_equal"] and summary["fallback_rows"] == 0
        assert summary["eq5_rows"] > 0
        logits.append(np.load(path))
    assert np.array_equal(bits(logits[0]), bits(logits[1]))
