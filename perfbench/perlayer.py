"""Metric catalogue and the per-layer trace of the serving benchmark.

Layers are named after the program's modules.  Each wrapped function is
a public entry point of its layer; nested calls subtract from their
caller's self time, so the per-layer self times partition the traced
time spent inside the engine.
"""

from __future__ import annotations

import numpy as np

import repro.model.layers as L
from repro.core.codec import MantCodec
from repro.core.selection import VarianceSelector
from repro.model.transformer import TransformerLM
from repro.quant.kvcache import MantKVCache
from repro.sampling import Sampler
from repro.serve.engine import GenerationEngine
from repro.serve.paging import BlockPool, PagedTokenBuffer, PagedView
from repro.serve.scheduler import Scheduler

__all__ = ["END_TO_END", "PER_LAYER", "patch_layers", "layer_metrics", "layer_table",
           "percentile"]

END_TO_END = {
    "setup_s": "s",
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "itl_p50_ms": "ms",
    "itl_p95_ms": "ms",
    "slo_attainment": "fraction",
    "output_tok_s": "tok/s",
    "prompt_tok_s": "tok/s",
    "kv_bytes_per_token": "B",
    "peak_rss_mb": "MB",
    "token_match": "fraction",
}

PER_LAYER = {
    "quant.act_ms": "ms",
    "quant.act_calls": "count",
    "model.forward_self_ms": "ms",
    "model.linear_ms": "ms",
    "model.linear_calls": "count",
    "model.linear_mb": "MB",
    "model.attention_ms": "ms",
    "model.attention_calls": "count",
    "model.attention_kv_mb": "MB",
    "model.other_ms": "ms",
    "model.prefill_tokens_per_prompt_token": "ratio",
    "kvcache.append_batch_ms": "ms",
    "kvcache.append_batch_calls": "count",
    "kvcache.prefill_chunk_ms": "ms",
    "kvcache.prefill_chunk_calls": "count",
    "core.select_ms": "ms",
    "core.qdq_ms": "ms",
    "core.calls": "count",
    "core.weight_ptq_s": "s",
    "paging.self_ms": "ms",
    "paging.prefix_hit_share": "fraction",
    "paging.blocks_high_water_share": "fraction",
    "paging.recompute_tokens": "count",
    "scheduler.self_ms": "ms",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.queue_wait_p95_ms": "ms",
    "scheduler.preemptions": "count",
    "engine.self_ms": "ms",
    "engine.ticks": "count",
    "engine.decode_rows_mean": "count",
    "engine.busy_share": "fraction",
    "sampling.sample_ms": "ms",
    "sampling.calls": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_share": "fraction",
    "calib.gemm_ms": "ms",
    "calib.py_ms": "ms",
}


def _nbytes(x) -> int:
    """Operand bytes; paged KV views expose only a shape, and their
    pages hold float64 today."""
    if hasattr(x, "nbytes"):
        return int(x.nbytes)
    return int(np.prod(x.shape)) * 8


def _linear_bytes(args, out) -> int:
    x, w = args[0], args[1]
    return _nbytes(x) + _nbytes(w) + _nbytes(out[0])


def _attention_kv_bytes(args, out) -> int:
    return _nbytes(args[1]) + _nbytes(args[2])


# (owner, attribute, span name[, computed bytes]) for every traced entry.
_TARGETS = [
    (TransformerLM, "decode_step_batch", "model.forward"),
    (TransformerLM, "forward_mixed", "model.forward"),
    (L, "linear_fwd", "model.linear", _linear_bytes),
    (L, "cached_attention_fwd", "model.attention", _attention_kv_bytes),
    (L, "apply_rope_at", "model.other"),
    (L, "apply_rope_ragged", "model.other"),
    (L, "rmsnorm_fwd", "model.other"),
    (L, "embedding_fwd", "model.other"),
    (L, "silu_fwd", "model.other"),
    (MantKVCache, "append_batch", "kvcache.append_batch"),
    (MantKVCache, "prefill_chunk", "kvcache.prefill_chunk"),
    (VarianceSelector, "select_batch", "core.select"),
    (VarianceSelector, "select_from_variances", "core.select"),
    (MantCodec, "qdq", "core.qdq"),
    (BlockPool, "acquire", "paging"),
    (BlockPool, "allocate", "paging"),
    (PagedTokenBuffer, "append", "paging"),
    (PagedView, "gather", "paging"),
    (Scheduler, "admit_one", "scheduler"),
    (Scheduler, "plan_chunks", "scheduler"),
    (GenerationEngine, "step", "engine.step"),
    (GenerationEngine, "submit", "engine.submit"),
    (Sampler, "sample", "sampling"),
]


def patch_layers(tracer, engine) -> None:
    """Wrap every layer entry point, plus the act_quant callable this
    benchmark handed to ``engine`` (the engine reads it every tick)."""
    for owner, attr, name, *nbytes in _TARGETS:
        tracer.patch(owner, attr, name, *nbytes)
    engine.act_quant = tracer.wrap("quant.act", engine.act_quant)


def percentile(values, q: float, scale: float = 1.0) -> tuple[float, int, int]:
    """``(value × scale, samples, samples beyond)``: the sample rule asks
    for at least ten samples beyond a reported percentile."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return float("nan"), 0, 0
    p = float(np.percentile(v, q))
    return scale * p, int(v.size), int(np.sum(v > p))


def layer_metrics(tracer, passes, base, before, after, engine, ptq_s,
                  gemm_ms, py_ms) -> dict:
    """Per-layer metrics of one traced pass set.

    ``base`` is the same request set served untraced (the overhead
    denominator and the generator-lateness sample); ``before``/
    ``after`` are engine stats around the traced passes.
    """
    s = tracer.summary()

    def ms(*names):
        return 1e3 * sum(s.get(n, (0.0, 0))[0] for n in names)

    def calls(*names):
        return sum(s.get(n, (0.0, 0))[1] for n in names)

    prompt_tokens = sum(req.prompt.size for p in passes for _, req in p.sent)
    prefilled = after.prefill_tokens - before.prefill_tokens
    decode_ticks = after.decode_ticks - before.decode_ticks
    lane_ticks = (after.mean_batch_occupancy * after.decode_ticks
                  - before.mean_batch_occupancy * before.decode_ticks)
    queue = [r.queue_latency_s for p in passes for r in p.results.values()]
    late = [x for p in base for x in p.late]
    busy = sum(p.busy_s for p in passes)
    active = sum(p.wall_s - p.idle_s for p in passes)
    accounted = sum(v[0] for v in s.values())
    pool = engine.pool

    def count(v):
        return float(v), None, None

    return {
        "quant.act_ms": count(ms("quant.act")),
        "quant.act_calls": count(calls("quant.act")),
        "model.forward_self_ms": count(ms("model.forward")),
        "model.linear_ms": count(ms("model.linear")),
        "model.linear_calls": count(calls("model.linear")),
        "model.linear_mb": count(tracer.bytes.get("model.linear", 0.0) / 1e6),
        "model.attention_ms": count(ms("model.attention")),
        "model.attention_calls": count(calls("model.attention")),
        "model.attention_kv_mb": count(tracer.bytes.get("model.attention", 0.0) / 1e6),
        "model.other_ms": count(ms("model.other")),
        "model.prefill_tokens_per_prompt_token": count(prefilled / prompt_tokens),
        "kvcache.append_batch_ms": count(ms("kvcache.append_batch")),
        "kvcache.append_batch_calls": count(calls("kvcache.append_batch")),
        "kvcache.prefill_chunk_ms": count(ms("kvcache.prefill_chunk")),
        "kvcache.prefill_chunk_calls": count(calls("kvcache.prefill_chunk")),
        "core.select_ms": count(ms("core.select")),
        "core.qdq_ms": count(ms("core.qdq")),
        "core.calls": count(calls("core.select", "core.qdq")),
        "core.weight_ptq_s": count(ptq_s),
        "paging.self_ms": count(ms("paging")),
        "paging.prefix_hit_share": count(
            (after.prefix_hit_tokens - before.prefix_hit_tokens) / prompt_tokens),
        "paging.blocks_high_water_share": count(pool.high_water / pool.num_blocks),
        "paging.recompute_tokens": count(prefilled - prompt_tokens),
        "scheduler.self_ms": count(ms("scheduler")),
        "scheduler.queue_wait_p50_ms": percentile(queue, 50, 1e3),
        "scheduler.queue_wait_p95_ms": percentile(queue, 95, 1e3),
        "scheduler.preemptions": count(after.preemptions - before.preemptions),
        "engine.self_ms": count(ms("engine.step", "engine.submit")),
        "engine.ticks": count(calls("engine.step")),
        "engine.decode_rows_mean": count(lane_ticks / max(decode_ticks, 1)),
        "engine.busy_share": count(busy / sum(p.wall_s for p in passes)),
        "sampling.sample_ms": count(ms("sampling")),
        "sampling.calls": count(calls("sampling")),
        "loadgen.late_p99_ms": percentile(late, 99, 1e3),
        "trace.overhead_ratio": count(busy / sum(p.busy_s for p in base)),
        "trace.accounted_share": count(accounted / active),
        "calib.gemm_ms": count(gemm_ms),
        "calib.py_ms": count(py_ms),
    }


def layer_table(tracer) -> list[tuple[str, float, int, float]]:
    """``(span, self ms, calls, share of all self time)``, largest first."""
    s = tracer.summary()
    total = sum(v[0] for v in s.values()) or 1.0
    rows = [(name, 1e3 * v[0], v[1], v[0] / total) for name, v in s.items()]
    return sorted(rows, key=lambda r: -r[1])
