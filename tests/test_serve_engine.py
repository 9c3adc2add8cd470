"""Tests for the continuous-batching engine (repro.serve.engine).

The load-bearing property: greedy engine output is token-for-token
identical to the single-stream ``prefill``/``decode_step`` loop for
every KV-cache type, regardless of batch composition.
"""

import functools

import numpy as np
import pytest

from repro.model import layers as L
from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import (
    FINISH_LENGTH,
    FINISH_STOP,
    GenerationEngine,
    GenerationRequest,
    QueueFullError,
    SamplingParams,
    ServeConfig,
)

VOCAB = 64

CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=16),
    "mant4": functools.partial(MantKVCache, group_size=16, window=16),
}


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=128, seed=5)
    return TransformerLM(cfg)


@pytest.fixture(scope="module")
def opt_model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=128, arch="opt", seed=6)
    return TransformerLM(cfg)


def prompts(n, seed=0, lo=3, hi=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi))) for _ in range(n)]


def single_stream(model, cache_factory, prompt, n_tokens, **hooks):
    """The pre-serving generation loop (mirrors model/tasks._generate)."""
    caches = [cache_factory() for _ in range(model.config.n_layers)]
    logits = model.prefill(prompt, caches, **hooks)
    out, pos, token = [], len(prompt), int(np.argmax(logits))
    for _ in range(n_tokens):
        out.append(token)
        logits = model.decode_step(token, caches, pos, **hooks)
        token = int(np.argmax(logits))
        pos += 1
    return out


# ======================================================================
# Batched-vs-single equivalence (the acceptance criterion)
# ======================================================================
class TestGreedyEquivalence:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_batched_equals_single_stream(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        ps = prompts(6, seed=3)
        engine = GenerationEngine(model, factory, ServeConfig(max_batch_size=3))
        results = engine.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=8) for i, p in enumerate(ps)]
        )
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(model, factory, p, 8)

    def test_opt_arch_equivalence(self, opt_model):
        ps = prompts(4, seed=4)
        engine = GenerationEngine(opt_model, FP16KVCache, ServeConfig(max_batch_size=4))
        results = engine.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=6) for i, p in enumerate(ps)]
        )
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(opt_model, FP16KVCache, p, 6)

    def test_decode_step_batch_bitwise(self, model):
        """Transformer-level: batched logits row == single-stream logits."""
        ps = prompts(3, seed=7)
        single_caches, batch_caches, toks, poss = [], [], [], []
        for p in ps:
            cs = [FP16KVCache() for _ in range(model.config.n_layers)]
            cb = [FP16KVCache() for _ in range(model.config.n_layers)]
            toks.append(int(np.argmax(model.prefill(p, cs))))
            model.prefill(p, cb)
            single_caches.append(cs)
            batch_caches.append(cb)
            poss.append(len(p))
        batched = model.decode_step_batch(toks, batch_caches, poss)
        for b, p in enumerate(ps):
            ref = model.decode_step(toks[b], single_caches[b], poss[b])
            assert np.array_equal(batched[b], ref)

    @pytest.mark.parametrize("bsz", [2, 8, 16])
    def test_decode_step_batch_bitwise_eq5_w4a8(self, wide_w4a8, monkeypatch, bsz):
        """Served MANT W4A8 projections run Eq. 5 on every decode row and
        keep batched rows bitwise equal to the single-stream step, with
        the MANT KV cache, step after step."""
        model, ptq = wide_w4a8
        kernel, rows = L.served_group_gemm, []

        def spy(x, w):
            rows.append((int(x.on.sum()), int((~x.on).sum())))
            return kernel(x, w)

        monkeypatch.setattr(L, "served_group_gemm", spy)
        d_head = model.config.d_head

        def caches():
            return [MantKVCache(bits=4, group_size=d_head, window=d_head)
                    for _ in range(model.config.n_layers)]

        rng = np.random.default_rng(13)
        ps = [rng.integers(0, 512, size=int(n)) for n in rng.integers(2, 65, bsz)]
        single_caches, batch_caches, toks, poss = [], [], [], []
        for p in ps:
            cs, cb = caches(), caches()
            toks.append(int(np.argmax(model.prefill(
                p, cs, weights=ptq.weights, act_quant=ptq.act_quant))))
            model.prefill(p, cb, weights=ptq.weights, act_quant=ptq.act_quant)
            single_caches.append(cs)
            batch_caches.append(cb)
            poss.append(len(p))
        for _ in range(10):
            batched = model.decode_step_batch(toks, batch_caches, poss,
                                              weights=ptq.weights,
                                              act_quant=ptq.act_quant)
            for b in range(len(ps)):
                ref = model.decode_step(toks[b], single_caches[b], poss[b],
                                        weights=ptq.weights,
                                        act_quant=ptq.act_quant)
                assert np.array_equal(batched[b].view(np.uint64),
                                      ref.view(np.uint64))
            toks = [int(np.argmax(row)) for row in batched]
            poss = [pos + 1 for pos in poss]
        # Every step: one batched forward plus one per row, each with 7
        # projections a layer; no row ever falls back to the dense GEMV.
        calls = 7 * model.config.n_layers
        assert len(rows) == 10 * calls * (1 + bsz)
        assert sum(on for on, _ in rows) == 10 * calls * 2 * bsz
        assert all(off == 0 for _, off in rows)

    def test_act_quant_applied_per_sequence(self, model):
        """Tensor-granularity activation scales must not couple batch rows."""

        def tensor_act_quant(name, x):
            # Worst case for batching: one scale over the whole tensor.
            scale = np.max(np.abs(x)) / 127.0 or 1.0
            return np.round(x / scale) * scale

        ps = prompts(3, seed=21)
        single_caches, batch_caches, toks, poss = [], [], [], []
        for p in ps:
            cs = [FP16KVCache() for _ in range(model.config.n_layers)]
            cb = [FP16KVCache() for _ in range(model.config.n_layers)]
            toks.append(int(np.argmax(model.prefill(p, cs, act_quant=tensor_act_quant))))
            model.prefill(p, cb, act_quant=tensor_act_quant)
            single_caches.append(cs)
            batch_caches.append(cb)
            poss.append(len(p))
        batched = model.decode_step_batch(toks, batch_caches, poss,
                                          act_quant=tensor_act_quant)
        for b in range(len(ps)):
            ref = model.decode_step(toks[b], single_caches[b], poss[b],
                                    act_quant=tensor_act_quant)
            assert np.array_equal(batched[b], ref)

    def test_row_local_declaration_read_at_construction(self, wide_w4a8):
        """The engine reads ``act_quant.row_local`` where the hook enters
        it: a plain wrapper installed afterwards, as a tracer does, is
        still called once per decode projection input, not once per row,
        and tokens stay the single-stream loop's."""
        model, ptq = wide_w4a8
        hook = ptq.act_quant
        factory = functools.partial(MantKVCache, bits=4, group_size=64, window=64)
        engine = GenerationEngine(model, factory, ServeConfig(max_batch_size=4),
                                  weights=ptq.weights, act_quant=hook)
        rows_per_call = []

        def wrapped(name, x):
            rows_per_call.append(x.shape[0])
            return hook(name, x)

        engine.act_quant = wrapped
        rng = np.random.default_rng(5)
        ps = [rng.integers(0, 512, size=n) for n in (4, 9, 6, 12)]
        results = engine.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=4) for i, p in enumerate(ps)]
        )
        assert max(rows_per_call) == 4
        hooks = {"weights": ptq.weights, "act_quant": hook}
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(model, factory, p, 4, **hooks)

    def test_over_budget_request_rejected_not_wedged(self, model):
        """A request that can never fit must not stall the queue forever."""
        engine = GenerationEngine(
            model, FP16KVCache,
            ServeConfig(max_batch_size=4, max_tokens_in_flight=20),
        )
        good = prompts(2, seed=22, lo=4, hi=5)
        engine.submit(GenerationRequest("ok-0", good[0], max_tokens=4))
        with pytest.raises(ValueError, match="max_tokens_in_flight"):
            engine.submit(GenerationRequest("big", np.zeros(30, dtype=np.int64),
                                            max_tokens=4))
        engine.submit(GenerationRequest("ok-1", good[1], max_tokens=4))
        results = engine.generate()
        assert set(results) == {"ok-0", "ok-1"}
        # The rejected id was never registered, so it is reusable.
        engine.submit(GenerationRequest("big", good[0], max_tokens=4))
        while engine.has_work():
            engine.step()
        assert engine.result("big").finish_reason == FINISH_LENGTH

    def test_seeded_sampling_batch_invariant(self, model):
        """A request's sampled tokens must not depend on batch peers."""
        sp = SamplingParams(temperature=0.9, top_k=16, seed=11)
        p = prompts(1, seed=9)[0]
        solo = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=1))
        ref = solo.generate([GenerationRequest("x", p, max_tokens=10, sampling=sp)])
        others = prompts(3, seed=10)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=4))
        res = eng.generate(
            [GenerationRequest("x", p, max_tokens=10, sampling=sp)]
            + [GenerationRequest(f"o{i}", q, max_tokens=4) for i, q in enumerate(others)]
        )
        assert res["x"].tokens == ref["x"].tokens


# ======================================================================
# Scheduling edge cases
# ======================================================================
class TestSchedulingEdgeCases:
    def test_finish_mid_batch_admits_queued(self, model):
        """Short requests finishing mid-batch free lanes for queued ones."""
        ps = prompts(5, seed=12)
        lengths = [2, 9, 2, 5, 3]
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        results = engine.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=n)
             for i, (p, n) in enumerate(zip(ps, lengths))]
        )
        assert len(results) == 5
        for i, (p, n) in enumerate(zip(ps, lengths)):
            assert results[f"r{i}"].tokens == single_stream(model, FP16KVCache, p, n)
            assert results[f"r{i}"].finish_reason == FINISH_LENGTH
        st = engine.stats()
        assert st.requests_completed == 5
        assert st.cache_slots_high_water <= 2
        assert engine.arena.total_leases == 5        # slots recycled
        assert engine.arena.slots_free == 2          # all returned

    def test_admission_while_full_queues(self, model):
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=1))
        for i, p in enumerate(prompts(3, seed=13)):
            engine.submit(GenerationRequest(f"r{i}", p, max_tokens=4))
        engine.step()
        assert engine.scheduler.n_running == 1
        assert engine.scheduler.queue_depth == 2
        while engine.has_work():
            engine.step()
        assert all(len(engine.result(f"r{i}").tokens) == 4 for i in range(3))

    def test_max_tokens_1_finishes_on_prefill(self, model):
        p = prompts(1, seed=14)[0]
        engine = GenerationEngine(model, FP16KVCache)
        res = engine.generate([GenerationRequest("r", p, max_tokens=1)])["r"]
        assert res.tokens == single_stream(model, FP16KVCache, p, 1)
        assert res.finish_reason == FINISH_LENGTH
        assert res.decode_steps == 0

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError, match="empty prompt"):
            GenerationRequest("r", np.array([], dtype=np.int64))

    def test_zero_max_tokens_rejected(self):
        with pytest.raises(ValueError, match="max_tokens"):
            GenerationRequest("r", np.arange(4), max_tokens=0)

    def test_stop_token_finishes_early(self, model):
        p = prompts(1, seed=15)[0]
        ref = single_stream(model, FP16KVCache, p, 8)
        stop = ref[3]
        engine = GenerationEngine(model, FP16KVCache)
        res = engine.generate(
            [GenerationRequest("r", p, max_tokens=8, stop_tokens={stop})]
        )["r"]
        assert res.finish_reason == FINISH_STOP
        assert res.tokens == ref[: ref.index(stop)]   # stop token not emitted

    def test_token_budget_respected(self, model):
        ps = prompts(4, seed=16, lo=6, hi=7)          # footprint 6 + 4 = 10 each
        engine = GenerationEngine(
            model, FP16KVCache,
            ServeConfig(max_batch_size=8, max_tokens_in_flight=20),
        )
        for i, p in enumerate(ps):
            engine.submit(GenerationRequest(f"r{i}", p, max_tokens=4))
        engine.step()
        assert engine.scheduler.n_running == 2        # 2 × 10 fills the budget
        while engine.has_work():
            engine.step()
        assert engine.stats().requests_completed == 4

    def test_duplicate_request_id_rejected(self, model):
        engine = GenerationEngine(model, FP16KVCache)
        p = prompts(1, seed=17)[0]
        engine.submit(GenerationRequest("dup", p))
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(GenerationRequest("dup", p))

    def test_pop_result_evicts_and_frees_id(self, model):
        """Long-lived engines consume results via pop_result: memory is
        released and the request id becomes reusable."""
        p = prompts(1, seed=24)[0]
        engine = GenerationEngine(model, FP16KVCache)
        first = engine.generate([GenerationRequest("r", p, max_tokens=3)])["r"]
        assert engine.pop_result("r").tokens == first.tokens
        with pytest.raises(KeyError):
            engine.result("r")
        # Id reusable after eviction; aggregate stats survive it.
        second = engine.generate([GenerationRequest("r", p, max_tokens=3)])["r"]
        assert second.tokens == first.tokens
        st = engine.stats()
        assert st.requests_completed == 2
        assert st.tokens_generated == 6

    def test_prompt_over_max_seq_rejected(self, model):
        too_long = np.zeros(model.config.max_seq, dtype=np.int64)
        engine = GenerationEngine(model, FP16KVCache)
        with pytest.raises(ValueError, match="max_seq"):
            engine.submit(GenerationRequest("r", too_long, max_tokens=1))


# ======================================================================
# Streaming and stats
# ======================================================================
class TestStreaming:
    def test_iterator_streams_every_token_in_order(self, model):
        ps = prompts(3, seed=18)
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        reqs = [GenerationRequest(f"r{i}", p, max_tokens=5) for i, p in enumerate(ps)]
        seen: dict[str, list[int]] = {r.request_id: [] for r in reqs}
        for event in engine.run(reqs):
            if event.token is not None:
                assert event.index == len(seen[event.request_id])
                seen[event.request_id].append(event.token)
        for i in range(3):
            assert seen[f"r{i}"] == engine.result(f"r{i}").tokens

    def test_callback_api(self, model):
        p = prompts(1, seed=19)[0]
        engine = GenerationEngine(model, FP16KVCache)
        got = []
        engine.submit(GenerationRequest("r", p, max_tokens=4), on_token=got.append)
        while engine.has_work():
            engine.step()
        assert [e.token for e in got] == engine.result("r").tokens
        assert got[-1].finished and got[-1].finish_reason == FINISH_LENGTH

    def test_generate_accepts_generator(self, model):
        ps = prompts(3, seed=23)
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        results = engine.generate(
            GenerationRequest(f"r{i}", p, max_tokens=3) for i, p in enumerate(ps)
        )
        assert set(results) == {"r0", "r1", "r2"}
        assert all(len(r.tokens) == 3 for r in results.values())

    def test_generate_no_args_returns_only_newly_drained(self, model):
        ps = prompts(2, seed=25)
        engine = GenerationEngine(model, FP16KVCache)
        engine.generate([GenerationRequest("old", ps[0], max_tokens=2)])
        engine.submit(GenerationRequest("new", ps[1], max_tokens=2))
        results = engine.generate()
        assert set(results) == {"new"}          # retained "old" not re-reported
        assert engine.result("old").tokens      # but still retrievable

    def test_throughput_excludes_idle_gaps(self, model):
        fake = {"t": 0.0}

        def clock():
            fake["t"] += 0.01       # every clock read advances 10 ms
            return fake["t"]

        p = prompts(1, seed=26)[0]
        engine = GenerationEngine(model, FP16KVCache, clock=clock)
        engine.generate([GenerationRequest("a", p, max_tokens=3)])
        busy_after_first = engine.stats().elapsed_s
        fake["t"] += 1000.0          # a long idle gap between bursts
        engine.generate([GenerationRequest("b", p, max_tokens=3)])
        st = engine.stats()
        assert st.elapsed_s < busy_after_first * 3   # gap not counted
        assert st.tokens_per_s > 1.0

    def test_mixed_cache_types_fall_back_per_cache(self, model):
        """append_batch dispatch must stay correct when sequences use
        different cache types (no engine path does this, but the model
        API allows it)."""
        ps = prompts(2, seed=27)
        factories = [CACHE_FACTORIES["mant4"], CACHE_FACTORIES["fp16"]]
        single_caches, batch_caches, toks, poss = [], [], [], []
        for p, fac in zip(ps, factories):
            cs = [fac() for _ in range(model.config.n_layers)]
            cb = [fac() for _ in range(model.config.n_layers)]
            toks.append(int(np.argmax(model.prefill(p, cs))))
            model.prefill(p, cb)
            single_caches.append(cs)
            batch_caches.append(cb)
            poss.append(len(p))
        batched = model.decode_step_batch(toks, batch_caches, poss)
        for b in range(2):
            ref = model.decode_step(toks[b], single_caches[b], poss[b])
            assert np.array_equal(batched[b], ref)

    def test_detokenize_streams_incremental_text(self, model):
        """Events carry the new text suffix; concatenation == full detok."""
        detok = lambda toks: "".join(chr(65 + t % 26) for t in toks)
        p = prompts(1, seed=28)[0]
        engine = GenerationEngine(model, FP16KVCache, detokenize=detok)
        texts = []
        for event in engine.run([GenerationRequest("r", p, max_tokens=6)]):
            if event.token is not None:
                assert event.text is not None
                texts.append(event.text)
        assert "".join(texts) == detok(engine.result("r").tokens)

    def test_no_detokenize_leaves_text_none(self, model):
        p = prompts(1, seed=29)[0]
        engine = GenerationEngine(model, FP16KVCache)
        events = list(engine.run([GenerationRequest("r", p, max_tokens=3)]))
        assert all(e.text is None for e in events)

    def test_queue_full_rejected_and_counted(self, model):
        """max_queue_len backpressure: explicit rejection, id reusable."""
        engine = GenerationEngine(
            model, FP16KVCache,
            ServeConfig(max_batch_size=1, max_queue_len=2),
        )
        ps = prompts(3, seed=30)
        engine.submit(GenerationRequest("r0", ps[0], max_tokens=2))
        engine.submit(GenerationRequest("r1", ps[1], max_tokens=2))
        with pytest.raises(QueueFullError, match="max_queue_len"):
            engine.submit(GenerationRequest("r2", ps[2], max_tokens=2))
        st = engine.stats()
        assert st.requests_rejected == 1
        assert st.requests_submitted == 2
        engine.generate()                      # queue drains ...
        engine.submit(GenerationRequest("r2", ps[2], max_tokens=2))
        engine.generate()                      # ... and the id was never taken
        assert engine.result("r2").finish_reason == FINISH_LENGTH

    def test_stats_accounting(self, model):
        ps = prompts(4, seed=20)
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        engine.generate([GenerationRequest(f"r{i}", p, max_tokens=6)
                         for i, p in enumerate(ps)])
        st = engine.stats()
        assert st.requests_submitted == st.requests_completed == 4
        assert st.tokens_generated == 4 * 6
        assert 1.0 <= st.mean_batch_occupancy <= 2.0
        assert st.tokens_per_s > 0
        assert st.mean_queue_latency_s >= 0
        assert st.cache_slots == 2
