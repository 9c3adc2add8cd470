"""Workloads, engine set-up and the load generator of the serving benchmark.

Every workload serves the paper's configuration: MANT W4A8 weights and
activations from ``build_ptq(PTQConfig(method="mant", w_bits=4,
a_bits=8, group_size=64))`` plus a 4-bit :class:`MantKVCache` (group =
window = ``d_head``) on the ``ServeConfig.chunked`` engine path (paged
pool, prefix cache, chunked prefill).

* ``chat_prefix`` — open loop on the ``unit-test`` zoo model, where
  Python dispatch sets the cost: Poisson arrivals at 5 req/s, a
  third of the ~15 req/s at which the engine saturates on a 2-core
  x86 host (about 40% busy), low enough that queueing does not
  amplify host speed swings into the latency figures; every prompt is one of four shared
  96-token system prompts plus 8-40 unique tokens, so most prompt
  tokens sit on shared pages.
* ``decode_batch`` — closed batches on the random-init ``perf-m``
  model: 16 short unique prompts, ~72 output tokens, all submitted at
  once to 8 lanes.  Decode GEMVs and per-token KV writes set the cost;
  no prefix sharing and almost no prefill.
* ``long_prompt`` — closed batches on ``perf-m`` with unique 256-512
  token prompts under a fixed KV *byte* budget, so pool blocks rather
  than lanes bound concurrency and bulk KV writes plus long-context
  attention set the cost.

Inputs come from the seed alone.  The program sees only the generated
requests.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import ModelConfig, TransformerLM, init_params
from repro.model.zoo import get_model
from repro.quant.kvcache import MantKVCache
from repro.serve import GenerationEngine, GenerationRequest, ServeConfig

__all__ = ["WORKLOADS", "Workload", "Served", "load_model", "build_served",
           "make_engine", "warm_up", "settle", "requests_open", "requests_batch",
           "drive", "PERF_M"]

# A realistic-width model: GEMMs matter at this size.  Random init is
# enough for throughput; quality is probed on the trained zoo model.
PERF_M = ModelConfig(vocab_size=256, d_model=512, n_heads=8, n_layers=6,
                     d_ff=1408, max_seq=1024, arch="llama", seed=20250)

PTQ = PTQConfig(method="mant", w_bits=4, a_bits=8, group_size=64)

# long_prompt's pool is a fixed byte budget: 1.5 of the longest
# (512-token) prompts at today's float64 storage.  Converted to blocks
# through the *measured* bytes per token, so a cheaper storage format
# raises capacity with no benchmark edit.
KV_BUDGET_BYTES = 36 * 2**20

_NORMAL = NormalDist()


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                 # "unit-test" or "perf-m"
    lanes: int
    open_loop: bool
    rate: float = 0.0          # open loop: requests per second
    batch: int = 0             # closed loop: requests per batch
    prompt_len: tuple = (0, 0)  # closed loop: uniform range, tokens
    output_len: tuple = (0, 0)
    kv_budget_bytes: int | None = None
    ttft_limit_ms: float = 0.0  # SLO: first token, from scheduled arrival
    gap_limit_ms: float = 0.0   # SLO: every inter-token gap
    check_every: int = 1       # reference-check every k-th request


WORKLOADS = {
    w.name: w for w in (
        Workload("chat_prefix", "unit-test", lanes=8, open_loop=True,
                 rate=5.0, ttft_limit_ms=150.0, gap_limit_ms=60.0,
                 check_every=16),
        Workload("decode_batch", "perf-m", lanes=8, open_loop=False,
                 batch=16, prompt_len=(32, 32), output_len=(64, 80),
                 ttft_limit_ms=30000.0, gap_limit_ms=1000.0, check_every=16),
        Workload("long_prompt", "perf-m", lanes=16, open_loop=False,
                 batch=10, prompt_len=(256, 512), output_len=(16, 64),
                 kv_budget_bytes=KV_BUDGET_BYTES, ttft_limit_ms=40000.0,
                 gap_limit_ms=5000.0, check_every=10),
    )
}


def stratified(rng, n: int) -> np.ndarray:
    """``n`` uniforms on (0, 1), one in each ``1/n`` stratum, shuffled.

    Each request's length keeps its stated distribution, while the mix
    within one run barely changes from seed to seed, so run-to-run
    spread measures the program rather than the draw.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def _ints(u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Map uniforms to integers in ``[lo, hi]``."""
    return lo + np.floor(u * (hi - lo + 1)).astype(np.int64)


def requests_open(w: Workload, rng, horizon_s: float, tag: str):
    """chat_prefix: ``[(scheduled arrival s, request)]`` over the horizon.

    Poisson arrivals conditioned on their count: ``rate × horizon``
    arrival times drawn uniformly over the horizon.
    """
    vocab, n = 256, round(w.rate * horizon_s)
    system = [rng.integers(0, vocab, 96) for _ in range(4)]
    times = np.sort(rng.uniform(0.0, horizon_s, n))
    suffix = _ints(stratified(rng, n), 8, 40)
    z = np.array([_NORMAL.inv_cdf(u) for u in stratified(rng, n)])
    n_out = np.clip(np.round(32 * np.exp(0.5 * z)), 8, 96).astype(int)
    out = []
    for i in range(n):
        prompt = np.concatenate(
            [system[rng.integers(4)], rng.integers(0, vocab, suffix[i])])
        out.append((float(times[i]),
                    GenerationRequest(f"{tag}{i}", prompt, max_tokens=int(n_out[i]))))
    return out


def requests_batch(w: Workload, rng, tag: str):
    """One closed batch, every request due at t=0.

    Shapes are fixed: lengths evenly spread over the stated ranges, in
    one fixed order; the seed draws only the token ids.  Greedy decoding
    without stop tokens emits exactly ``max_tokens``, so admission,
    co-residence and preemption follow the same schedule for every
    seed, and run-to-run spread measures the program and the host.
    """
    n = w.batch
    order = np.random.default_rng(0)
    mid = (np.arange(n) + 0.5) / n
    prompt_len = _ints(mid, *w.prompt_len)[order.permutation(n)]
    n_out = _ints(mid, *w.output_len)[order.permutation(n)]
    return [(0.0, GenerationRequest(f"{tag}{i}", rng.integers(0, 256, prompt_len[i]),
                                    max_tokens=int(n_out[i])))
            for i in range(n)]


# ----------------------------------------------------------------------
# Model, PTQ and engine
# ----------------------------------------------------------------------
@dataclass
class Served:
    """One warm W4A8KV4 serving stack."""

    workload: Workload
    model: TransformerLM
    ptq: object
    block: int
    num_blocks: int | None

    def cache_factory(self):
        return MantKVCache(bits=4, group_size=self.block, window=self.block)


def load_model(kind: str) -> TransformerLM:
    if kind == "unit-test":
        return get_model("unit-test")[0]
    return TransformerLM(PERF_M, init_params(PERF_M))


def pool_blocks(w: Workload, kv_bytes_per_token: float, block: int) -> int | None:
    """Pool size: the byte budget over measured bytes per block, or the
    engine's default (worst case for every lane) without a budget."""
    if w.kv_budget_bytes is None:
        return None
    return max(1, round(w.kv_budget_bytes / (kv_bytes_per_token * block)))


def make_engine(served: Served, weights="ptq", act_quant="ptq",
                cache_factory=None) -> GenerationEngine:
    """The engine under test (``ServeConfig.chunked``, tracing off).
    ``weights``/``act_quant``/``cache_factory`` override the served
    W4A8KV4 hooks, for the quality probe's unquantized reference."""
    config = ServeConfig.chunked(
        max_batch_size=served.workload.lanes, block_tokens=served.block,
        num_blocks=served.num_blocks, observe=False)
    return GenerationEngine(
        served.model, cache_factory or served.cache_factory, config,
        weights=served.ptq.weights if weights == "ptq" else weights,
        act_quant=served.ptq.act_quant if act_quant == "ptq" else act_quant)


def settle(engine: GenerationEngine) -> None:
    """Untimed, before a measured pass: a few lanes' worth of short
    requests so every batched shape has run once, then a full
    collection and a freeze, so set-up's long-lived objects are not
    rescanned by a collection inside the measured window."""
    rng = np.random.default_rng(0)
    reqs = [GenerationRequest(f"settle{i}", rng.integers(0, 256, 40), max_tokens=8)
            for i in range(min(engine.config.max_batch_size, 8))]
    engine.generate(reqs)
    for r in reqs:
        engine.pop_result(r.request_id)
    gc.collect()
    gc.freeze()


def warm_up(engine: GenerationEngine) -> None:
    """One request through every tick kind (prefill chunks, decode)."""
    prompt = np.arange(40, dtype=np.int64) % 256
    engine.generate([GenerationRequest("warm-up", prompt, max_tokens=4)])
    engine.pop_result("warm-up")


def build_served(w: Workload, kv_bytes_per_token: float):
    """Set-up as a user pays it: model build, MANT W4 weight PTQ,
    engine build and one warm-up request.  Returns ``(served, engine)``."""
    model = load_model(w.model)
    ptq = build_ptq(model, PTQ)
    block = model.config.d_head
    served = Served(w, model, ptq, block,
                    pool_blocks(w, kv_bytes_per_token, block))
    engine = make_engine(served)
    warm_up(engine)
    return served, engine


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one served request set produced, on the load generator's clock."""

    sent: list              # [(scheduled arrival s, request)]
    origin: float           # clock value of scheduled time 0
    stamps: dict            # request id -> token arrival times
    late: list              # submit time - scheduled time, seconds
    refused: int
    busy_s: float           # time inside engine.step()
    idle_s: float           # time spent asleep waiting for arrivals
    wall_s: float
    results: dict           # request id -> GenerationResult


def drive(engine: GenerationEngine, schedule, clock=time.perf_counter) -> Pass:
    """Submit each request at its scheduled time and step the engine.

    Open loop: later requests arrive on schedule whatever the engine
    is doing.  A closed batch is the same schedule with every arrival
    at 0.  Token times are stamped when ``step()`` returns them.
    """
    stamps = {req.request_id: [] for _, req in schedule}
    late, refused, busy, idle = [], 0, 0.0, 0.0
    origin = clock()
    i, n = 0, len(schedule)
    while i < n or engine.has_work():
        now = clock()
        while i < n and origin + schedule[i][0] <= now:
            try:
                engine.submit(schedule[i][1])
            except (ValueError, RuntimeError):   # refused: counts as failed
                refused += 1
            late.append(clock() - origin - schedule[i][0])
            i += 1
        if engine.has_work():
            t0 = clock()
            events = engine.step()
            t1 = clock()
            busy += t1 - t0
            for ev in events:
                if ev.token is not None:
                    stamps[ev.request_id].append(t1)
        elif i < n:
            t0 = clock()
            wait = origin + schedule[i][0] - t0
            if wait > 0:
                time.sleep(wait)
                idle += clock() - t0
    wall = clock() - origin
    results = {req.request_id: engine.pop_result(req.request_id)
               for _, req in schedule if engine.has_result(req.request_id)}
    return Pass(list(schedule), origin, stamps, late, refused, busy, idle,
                wall, results)
