"""Serving benchmark of the MANT W4A8KV4 engine.

Run from the repository root::

    python3 perfbench/run.py --workload decode_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` serves the same request set twice, untraced then traced
with every layer's public entry points wrapped from here, and reports
per-layer self times and counts (see ``perfbench/README.md``).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# One process; BLAS computes on the calling thread only (set before numpy loads).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SETUP_REPEATS = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    fail(f"no source tree at {os.path.join(ROOT, 'src')}; run from a repository checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from perlayer import (END_TO_END, PER_LAYER, layer_metrics,  # noqa: E402
                      layer_table, patch_layers, percentile)
from workloads import (WORKLOADS, Served, build_served, drive,  # noqa: E402
                       load_model, make_engine, requests_batch, requests_open,
                       settle, warm_up)
from repro.model.zoo import get_corpus  # noqa: E402
from repro.quant.kvcache import FP16KVCache  # noqa: E402
from repro.quant.mant_framework import MantModelQuantizer  # noqa: E402
from repro.sampling import greedy_sample  # noqa: E402
from repro.serve import GenerationRequest  # noqa: E402
from repro.serve.request import FINISH_LENGTH  # noqa: E402
from tracing import SpanTracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


# ----------------------------------------------------------------------
# Set-up measurements
# ----------------------------------------------------------------------
def kv_bytes_per_token(workload) -> float:
    """Pool bytes per token, from allocations: traced-memory growth of
    an engine whose pool holds ``extra`` more blocks, per token."""
    model = load_model(workload.model)
    block = model.config.d_head

    def grown(num_blocks: int) -> int:
        served = Served(workload, model, None, block, num_blocks)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        engine = make_engine(served, weights=None, act_quant=None)
        engine.generate([GenerationRequest("kv", np.zeros(1, np.int64), max_tokens=1)])
        used = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.stop()
        del engine
        gc.collect()
        return used

    small, extra = 2, 8
    grown(small)                 # first use fills process-wide memo tables
    return (grown(small + extra) - grown(small)) / (extra * block)


def calibrate() -> tuple[float, float]:
    """Fixed host kernels, one per cost regime: a BLAS GEMM and a
    pure-Python loop (median ms).  Recorded beside every run so host
    drift shows; never used to normalize a metric."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    gemm = []
    for _ in range(15):
        t0 = time.perf_counter()
        a @ a
        gemm.append(time.perf_counter() - t0)
    py = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        py.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(gemm), 1e3 * statistics.median(py)


def run_record(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Serving passes
# ----------------------------------------------------------------------
def serve(engine, workload, rng, seconds: float, batches=None):
    """Drive ``engine`` for ``seconds``: one open-loop trace, or whole
    closed batches — the first always, another only while it should
    end within ``seconds`` (or exactly ``batches`` of them)."""
    if workload.open_loop:
        return [drive(engine, requests_open(workload, rng, seconds, "r"))]
    passes, spent = [], 0.0
    while (not passes or spent + passes[-1].wall_s <= seconds) if batches is None \
            else len(passes) < batches:
        passes.append(drive(engine, requests_batch(workload, rng, f"b{len(passes)}-")))
        spent += passes[-1].wall_s
    return passes


def reference_tokens(served, prompt, n: int) -> list[int]:
    """The single-stream ``prefill``/``decode_step`` loop under the same
    weights, act_quant and cache factory (the ladder's root rung)."""
    model, ptq = served.model, served.ptq
    caches = [served.cache_factory() for _ in range(model.config.n_layers)]
    logits = model.prefill(prompt, caches, weights=ptq.weights, act_quant=ptq.act_quant)
    out, pos = [greedy_sample(logits)], prompt.size
    while len(out) < n:
        logits = model.decode_step(out[-1], caches, pos, weights=ptq.weights,
                                   act_quant=ptq.act_quant)
        out.append(greedy_sample(logits))
        pos += 1
    return out


def check(served, passes) -> tuple[int, int, int, list]:
    """Output checks.  Returns ``(sent, failed, checked, ok_ids)``.

    A request fails when it was refused, did not finish with all its
    tokens, or — for every ``check_every``-th request — differs from
    the single-stream reference.  A request that was preempted
    (prefill ran more chunks than its prompt needs) only has to
    complete: recompute re-quantizes decode-staged MANT windows, the
    documented trade.
    """
    sent = failed = checked = 0
    ok = []
    every = served.workload.check_every
    for p in passes:
        for _, req in p.sent:
            res = p.results.get(req.request_id)
            done = (res is not None and res.finish_reason == FINISH_LENGTH
                    and len(res.tokens) == req.max_tokens
                    and len(p.stamps[req.request_id]) == req.max_tokens)
            if done and sent % every == 0:
                preempted = res.prefill_chunks > -(-req.prompt.size // served.block)
                if not preempted:
                    checked += 1
                    done = reference_tokens(served, req.prompt, req.max_tokens) == res.tokens
            if done:
                ok.append(req.request_id)
            else:
                failed += 1
            sent += 1
    return sent, failed, checked, ok


def token_match() -> float:
    """Share of greedy output positions on 16 fixed 32-token corpus
    prompts that equal the unquantized reference (raw weights, no
    act_quant, ``FP16KVCache``).  Run on the trained ``unit-test``
    model for every workload: random-init perf-m has no quality."""
    served, _ = build_served(WORKLOADS["chat_prefix"], 0.0)
    rows = get_corpus().eval_tokens(16 * 32, 32, seed=777)[:, :32]

    def outputs(engine):
        reqs = [GenerationRequest(f"q{i}", row, max_tokens=32) for i, row in enumerate(rows)]
        res = engine.generate(reqs)
        return np.array([res[r.request_id].tokens for r in reqs])

    quant = outputs(make_engine(served))
    ref = outputs(make_engine(served, weights=None, act_quant=None,
                              cache_factory=FP16KVCache))
    return float(np.mean(quant == ref))


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(workload, passes, ok_ids) -> dict:
    ok = set(ok_ids)
    ttft, gaps, meets, sent = [], [], 0, 0
    out_tok = prompt_tok = 0
    wall = 0.0
    for p in passes:
        wall += p.wall_s
        for t_sched, req in p.sent:
            sent += 1
            rid = req.request_id
            if rid not in ok:
                continue
            st = np.asarray(p.stamps[rid])
            first = 1e3 * (st[0] - p.origin - t_sched)
            g = 1e3 * np.diff(st)
            ttft.append(first)
            gaps.extend(g.tolist())
            out_tok += st.size
            prompt_tok += req.prompt.size
            if first <= workload.ttft_limit_ms and (g.size == 0 or g.max() <= workload.gap_limit_ms):
                meets += 1
    m = {}
    for name, values, q in (("ttft_p50_ms", ttft, 50), ("ttft_p90_ms", ttft, 90),
                            ("itl_p50_ms", gaps, 50), ("itl_p95_ms", gaps, 95)):
        m[name] = percentile(values, q)
    m["slo_attainment"] = (meets / sent, sent, None)
    m["output_tok_s"] = (out_tok / wall, out_tok, None)
    m["prompt_tok_s"] = (prompt_tok / wall, prompt_tok, None)
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
def untraced(workload, args):
    kv = kv_bytes_per_token(workload)
    times = []
    for _ in range(SETUP_REPEATS):
        served = engine = None           # free the previous stack first
        gc.collect()
        t0 = time.perf_counter()
        served, engine = build_served(workload, kv)
        times.append(time.perf_counter() - t0)
    rng = np.random.default_rng([args.seed, list(WORKLOADS).index(workload.name)])
    settle(engine)
    passes = serve(engine, workload, rng, args.seconds)
    sent, failed, checked, ok = check(served, passes)
    m = end_to_end(workload, passes, ok)
    m["setup_s"] = (IMPORT_S + statistics.median(times), SETUP_REPEATS, None)
    m["kv_bytes_per_token"] = (kv, None, None)
    m["token_match"] = (token_match(), 16 * 32, None)
    m["peak_rss_mb"] = (peak_rss_mb(), None, None)
    extra = {"refused": sum(p.refused for p in passes), "reference_checked": checked,
             "setup_runs_s": times, "import_s": IMPORT_S}
    return m, sent, failed, extra


def traced(workload, args, gemm_ms, py_ms):
    kv = kv_bytes_per_token(workload)
    setup_tracer = SpanTracer()
    setup_tracer.patch(MantModelQuantizer, "quantize_weights", "core.weight_ptq")
    try:
        served, engine = build_served(workload, kv)
    finally:
        setup_tracer.unpatch()
    half = args.seconds / 2
    seed = [args.seed, list(WORKLOADS).index(workload.name)]
    settle(engine)
    base = serve(engine, workload, np.random.default_rng(seed), half)
    n_batches = None if workload.open_loop else len(base)
    engine = make_engine(served)
    warm_up(engine)
    settle(engine)
    tracer = SpanTracer()
    before = engine.stats()
    patch_layers(tracer, engine)
    try:
        passes = serve(engine, workload, np.random.default_rng(seed), half, n_batches)
    finally:
        tracer.unpatch()
    after = engine.stats()
    sent, failed, checked, ok = check(served, passes)
    m = layer_metrics(tracer, passes, base, before, after, engine,
                      float(setup_tracer.durations("core.weight_ptq").sum()),
                      gemm_ms, py_ms)
    print("traced self time by span:")
    for name, self_ms, n, share in layer_table(tracer):
        print(f"  {name:24s} {self_ms:12.2f} ms {n:9d} calls {100 * share:6.2f}%")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.npz"))
    return m, sent, failed, {"reference_checked": checked}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = run_record(args)
    gemm_ms, py_ms = calibrate()
    record["calib_gemm_ms"], record["calib_py_ms"] = gemm_ms, py_ms
    if args.trace:
        m, sent, failed, extra = traced(workload, args, gemm_ms, py_ms)
        names = PER_LAYER
    else:
        m, sent, failed, extra = untraced(workload, args)
        names = END_TO_END
    record.update(extra)
    print("run record:", json.dumps(record))
    print(f"requests: sent {sent}, succeeded {sent - failed}, failed {failed}")
    metrics = {}
    for name, unit in names.items():
        value, n, beyond = m[name]
        if not np.isfinite(value):
            fail(f"metric {name} has no samples")
        note = "" if n is None else f"  n={n}"
        if beyond is not None:
            note += f" beyond={beyond}" + ("" if beyond >= 10 else " (fewer than 10 beyond)")
        print(f"  {name:38s} {value:14.4f} {unit}{note}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": sent, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
