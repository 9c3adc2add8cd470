"""Tests for the transformer model: shapes, backprop, decode paths."""

import functools

import numpy as np
import pytest

from repro.model import layers as L
from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import (
    MixedSegment,
    ModelConfig,
    TransformerLM,
    init_params,
    param_count,
)
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache


def tiny(arch="llama", **kw):
    defaults = dict(vocab_size=23, d_model=16, n_heads=2, n_layers=2,
                    d_ff=24, max_seq=32, arch=arch, seed=1)
    defaults.update(kw)
    return ModelConfig(**defaults)


def bits(x):
    return np.asarray(x).view(np.uint64)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, n_heads=3)

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            ModelConfig(arch="gpt5")

    def test_rope_even_head(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=6, n_heads=2, arch="llama")

    def test_linear_names(self):
        assert len(tiny("llama").linear_names()) == 2 * 7
        assert len(tiny("opt").linear_names()) == 2 * 6


class TestForward:
    @pytest.mark.parametrize("arch", ["llama", "opt"])
    def test_logits_shape(self, arch, rng):
        m = TransformerLM(tiny(arch))
        ids = rng.integers(0, 23, size=(3, 8))
        assert m.forward_logits(ids).shape == (3, 8, 23)

    def test_deterministic(self, rng):
        m = TransformerLM(tiny())
        ids = rng.integers(0, 23, size=(1, 8))
        assert np.array_equal(m.forward_logits(ids), m.forward_logits(ids))

    def test_weight_substitution(self, rng):
        m = TransformerLM(tiny())
        ids = rng.integers(0, 23, size=(1, 8))
        base = m.forward_logits(ids)
        w2 = {k: v.copy() for k, v in m.params.items()}
        w2["layers.0.attn.wq"] = w2["layers.0.attn.wq"] * 0
        changed = m.forward_logits(ids, weights=w2)
        assert not np.allclose(base, changed)

    def test_act_quant_hook_called_per_linear(self, rng):
        m = TransformerLM(tiny())
        seen = []

        def hook(name, x):
            seen.append(name)
            return x

        m.forward_logits(rng.integers(0, 23, size=(1, 4)), act_quant=hook)
        # 2 layers x (attn input, wo input, ffn gate input, ffn down input)
        assert len(seen) == 2 * 4

    def test_kv_quant_hook_shapes(self, rng):
        m = TransformerLM(tiny())
        shapes = []

        def hook(layer, q, k, v):
            shapes.append((q.shape, k.shape, v.shape))
            return q, k, v

        m.forward_logits(rng.integers(0, 23, size=(2, 6)), act_quant=None, kv_quant=hook)
        assert shapes[0][0] == (2, 2, 6, 8)


class TestBackprop:
    @pytest.mark.parametrize("arch", ["llama", "opt"])
    def test_gradcheck_sampled(self, arch, rng):
        cfg = tiny(arch, d_model=8, d_ff=12, vocab_size=11)
        m = TransformerLM(cfg)
        ids = rng.integers(0, 11, size=(2, 5))
        tgt = rng.integers(0, 11, size=(2, 5))
        loss, grads = m.loss_and_grads(ids, tgt)
        eps = 1e-5
        for name in ["embed", "layers.0.attn.wv", "layers.1.norm1.g"]:
            p = m.params[name]
            flat = p.ravel()
            for i in rng.choice(flat.size, size=3, replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = m.loss_and_grads(ids, tgt)
                flat[i] = orig - eps
                lm, _ = m.loss_and_grads(ids, tgt)
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                ana = grads[name].ravel()[i]
                assert num == pytest.approx(ana, abs=1e-4, rel=1e-3), name

    def test_grads_cover_all_params(self, rng):
        m = TransformerLM(tiny())
        _, grads = m.loss_and_grads(
            rng.integers(0, 23, size=(2, 6)), rng.integers(0, 23, size=(2, 6))
        )
        assert set(grads) == set(m.params)


class TestDecodePath:
    @pytest.mark.parametrize("arch", ["llama", "opt"])
    def test_decode_matches_teacher_forcing(self, arch, rng):
        m = TransformerLM(tiny(arch))
        ids = rng.integers(0, 23, size=17)
        tf = m.forward_logits(ids[None, :])[0]
        caches = [FP16KVCache() for _ in range(2)]
        out = [m.prefill(ids[:9], caches)]
        for j in range(9, 17):
            out.append(m.decode_step(int(ids[j]), caches, pos=j))
        dec = np.stack(out)
        assert np.allclose(dec[:-1], tf[8:16], atol=1e-10)

    def test_param_count(self):
        m = TransformerLM(tiny())
        assert param_count(m.params) == sum(p.size for p in m.params.values())

    def test_init_deterministic(self):
        a = init_params(tiny())
        b = init_params(tiny())
        assert all(np.array_equal(a[k], b[k]) for k in a)


# The cached faces are thin calls of forward_mixed; these pin what each
# face promises about bits and operand layout.
KV_CACHES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=8),
    "mant4": functools.partial(MantKVCache, bits=4, group_size=8, window=8),
}


@functools.lru_cache(maxsize=None)
def faces_model(arch):
    """A tiny model and its MANT W4A8 weights + act_quant hooks."""
    m = TransformerLM(tiny(arch, vocab_size=41, max_seq=64))
    ptq = build_ptq(m, PTQConfig(method="mant", w_bits=4, a_bits=8, group_size=8))
    return m, {"weights": ptq.weights, "act_quant": ptq.act_quant}


class TestInferenceFaces:
    def caches(self, m, kv):
        return [KV_CACHES[kv]() for _ in range(m.config.n_layers)]

    def prefilled(self, m, kv, prompt, hooks):
        caches = self.caches(m, kv)
        m.prefill(prompt, caches, **hooks)
        return caches

    @pytest.mark.parametrize("w4a8", [False, True])
    @pytest.mark.parametrize("kv", list(KV_CACHES))
    @pytest.mark.parametrize("arch", ["llama", "opt"])
    def test_prefill_is_final_prefill_chunk(self, arch, kv, w4a8, rng):
        m, ptq = faces_model(arch)
        hooks = ptq if w4a8 else {}
        ids = rng.integers(0, 41, size=21)
        a, b = self.caches(m, kv), self.caches(m, kv)
        la = m.prefill(ids, a, **hooks)
        lb = m.prefill_chunk(ids, b, final=True, **hooks)
        assert la.shape == (41,)
        assert np.array_equal(bits(la), bits(lb))
        for ca, cb in zip(a, b):
            assert np.array_equal(bits(ca.keys()), bits(cb.keys()))
            assert np.array_equal(bits(ca.values()), bits(cb.values()))

    @pytest.mark.parametrize("w4a8", [False, True])
    @pytest.mark.parametrize("kv", list(KV_CACHES))
    @pytest.mark.parametrize("arch", ["llama", "opt"])
    def test_all_decode_forward_mixed_is_per_row_decode_step(self, arch, kv, w4a8, rng):
        m, ptq = faces_model(arch)
        hooks = ptq if w4a8 else {}
        prompts = [rng.integers(0, 41, size=n) for n in (3, 11, 6)]
        single = [self.prefilled(m, kv, p, hooks) for p in prompts]
        mixed = [self.prefilled(m, kv, p, hooks) for p in prompts]
        toks, poss = [5, 17, 40], [p.size for p in prompts]
        for _ in range(3):
            outs = m.forward_mixed(
                [MixedSegment([t], cs, pos, MixedSegment.DECODE)
                 for t, cs, pos in zip(toks, mixed, poss)], **hooks)
            for b in range(len(prompts)):
                ref = m.decode_step(toks[b], single[b], poss[b], **hooks)
                assert np.array_equal(bits(outs[b]), bits(ref))
            toks = [int(np.argmax(o)) for o in outs]
            poss = [pos + 1 for pos in poss]
        for cs, cm in zip(single, mixed):
            for a, b in zip(cs, cm):
                assert np.array_equal(bits(a.keys()), bits(b.keys()))
                assert np.array_equal(bits(a.values()), bits(b.values()))

    def shapes_of_linear(self, monkeypatch):
        seen = []
        real = L.linear_fwd

        def spy(x, w):
            seen.append(x.shape)
            return real(x, w)

        monkeypatch.setattr(L, "linear_fwd", spy)
        return seen

    def test_all_decode_takes_per_row_layout(self, monkeypatch, rng):
        m, _ = faces_model("llama")
        caches = [self.prefilled(m, "fp16", rng.integers(0, 41, size=n), {})
                  for n in (4, 9)]
        seen = self.shapes_of_linear(monkeypatch)
        m.forward_mixed([MixedSegment([1], caches[0], 4, MixedSegment.DECODE),
                         MixedSegment([2], caches[1], 9, MixedSegment.DECODE)])
        d = m.config.d_model
        assert seen[0] == (2, 1, d)                  # per-row GEMVs
        assert seen[-1] == (2, 1, d)                 # LM head, per row
        assert all(shape[:2] == (2, 1) for shape in seen)

    def test_decode_and_chunk_mix_takes_packed_layout(self, monkeypatch, rng):
        m, _ = faces_model("llama")
        dec = self.prefilled(m, "fp16", rng.integers(0, 41, size=5), {})
        chunk = rng.integers(0, 41, size=8)
        seen = self.shapes_of_linear(monkeypatch)
        outs = m.forward_mixed([
            MixedSegment([3], dec, 5, MixedSegment.DECODE),
            MixedSegment(chunk, self.caches(m, "fp16"), 0, MixedSegment.CHUNK),
        ])
        d = m.config.d_model
        assert seen[0] == (1, 9, d)                  # one packed time axis
        assert all(shape[:2] == (1, 9) for shape in seen[:-1])
        assert seen[-1] == (1, d)                    # LM head: the decode row only
        assert outs[0].shape == (41,) and outs[1] is None
