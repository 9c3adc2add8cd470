"""Integration tests: the full pipeline on a briefly-trained model.

These exercise calibration → PTQ → perplexity → generation and the
algorithm/hardware agreement (the fused kernel computing a real model
layer), using the session-cached ``unit-test`` zoo model.
"""

import numpy as np
import pytest

from repro.core.fused import (
    MantLevelWeight,
    fused_group_gemm,
    quantize_activations_int8,
    reference_group_gemm,
)
from repro.model.calibrate import calibrate_model
from repro.model.perplexity import perplexity_from_rows
from repro.model.quantized import PTQConfig, build_ptq
from repro.model.tasks import RecallTask
from repro.quant.kvcache import FP16KVCache, MantKVCache
from repro.quant.mant_framework import MantQuantizer


@pytest.fixture(scope="module")
def calibrated(unit_model):
    model, corpus = unit_model
    calib = calibrate_model(model, corpus, n_batches=2, batch_size=2, seq_len=64)
    rows = corpus.eval_tokens(768, 64)
    return model, corpus, calib, rows


class TestCalibration:
    def test_act_stats_cover_linears(self, calibrated):
        model, _, calib, _ = calibrated
        assert set(calib.act_sq_means) == set(model.config.linear_names())

    def test_kv_selector_fitted(self, calibrated):
        _, _, calib, _ = calibrated
        assert calib.kv_selector is not None
        assert len(calib.kv_selector._thresholds) >= 1


class TestPTQPipeline:
    @pytest.mark.parametrize(
        "method,w,a",
        [("mant", 4, 8), ("int", 4, 8), ("ant", 4, 4), ("tender", 4, 4)],
    )
    def test_ptq_ppl_finite_and_bounded(self, calibrated, method, w, a):
        model, _, calib, rows = calibrated
        fp16 = perplexity_from_rows(model, rows)
        setup = build_ptq(model, PTQConfig(method=method, w_bits=w, a_bits=a), calib)
        ppl = setup.ppl(model, rows)
        assert np.isfinite(ppl)
        assert ppl < fp16 * 50  # quantized model is degraded, not broken

    def test_mant_w4a8_close_to_fp16(self, calibrated):
        model, _, calib, rows = calibrated
        fp16 = perplexity_from_rows(model, rows)
        setup = build_ptq(model, PTQConfig(method="mant", w_bits=4, a_bits=8), calib)
        assert setup.ppl(model, rows) < fp16 * 1.25

    def test_kv_quantized_row_runs(self, calibrated):
        model, _, calib, rows = calibrated
        cfg = PTQConfig(method="mant", w_bits=4, a_bits=8,
                        kv_method="mant", kv_bits=4, attn_act_bits=8)
        setup = build_ptq(model, cfg, calib)
        assert np.isfinite(setup.ppl(model, rows))

    def test_weights_only_quantizes_linears(self, calibrated):
        model, _, calib, _ = calibrated
        setup = build_ptq(model, PTQConfig(method="mant"), calib)
        assert np.array_equal(setup.weights["embed"], model.params["embed"])
        name = model.config.linear_names()[0]
        served = setup.weights[name]
        assert isinstance(served, MantLevelWeight)
        assert not np.array_equal(served.dense, model.params[name])


class TestAlgorithmHardwareAgreement:
    def test_fused_kernel_on_real_layer(self, calibrated):
        # Quantize a real trained projection and verify Eq. 5 exactly.
        model, corpus, calib, _ = calibrated
        name = model.config.linear_names()[0]
        w = model.params[name]
        mq = MantQuantizer(group_size=32, fp16_scales=False)
        enc = mq.encode(w, calib.act_sq_means[name])
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, w.shape[1]))
        xq = quantize_activations_int8(x, 32, fp16_scales=False)
        np.testing.assert_allclose(
            fused_group_gemm(xq, enc), reference_group_gemm(xq, enc),
            rtol=1e-9, atol=1e-9,
        )


class TestGeneration:
    def test_recall_with_quantized_kv_runs(self, calibrated):
        model, _, calib, _ = calibrated
        task = RecallTask(vocab_size=model.config.vocab_size,
                          prompt_len=48, n_episodes=3, n_pairs=2)
        fp16 = task.evaluate(model, FP16KVCache)
        mant = task.evaluate(
            model,
            lambda: MantKVCache(selector=calib.kv_selector, group_size=32, window=32),
        )
        assert 0.0 <= fp16 <= 1.0 and 0.0 <= mant <= 1.0

    def test_decode_with_mant_cache_stays_finite(self, calibrated):
        model, _, calib, _ = calibrated
        caches = [
            MantKVCache(selector=calib.kv_selector, group_size=32, window=8)
            for _ in range(model.config.n_layers)
        ]
        prompt = np.arange(20) % model.config.vocab_size
        logits = model.prefill(prompt, caches)
        for pos in range(20, 40):
            tok = int(np.argmax(logits))
            logits = model.decode_step(tok, caches, pos)
            assert np.all(np.isfinite(logits))
