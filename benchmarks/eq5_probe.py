"""Eq. 5 decode-row probe: served MANT W4A8 decode rows at width 256.

Builds a random-init llama (d_model 256, d_ff 704, vocab 512, 2 layers)
with MANT W4 weights and group-INT8 activations (``build_ptq``), prefills
16 prompts into MANT KV caches and runs three decode steps two ways:
per-row ``decode_step`` and batched ``forward_mixed`` over the first 2,
8 and 16 sequences.  Prints one JSON line:

* ``rows_equal`` — every batched row bitwise equals its per-row step;
* ``eq5_rows`` / ``fallback_rows`` — decode rows the served projections
  ran through Eq. 5's integer partial sums / through the dense GEMV.

With an output path it also saves the per-row logits (``.npy``), so runs
under different BLAS thread counts can be compared bit for bit::

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python benchmarks/eq5_probe.py out.npy
"""

import json
import sys

import numpy as np

from repro.model import layers as L
from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import MixedSegment, ModelConfig, TransformerLM
from repro.quant.kvcache import MantKVCache

CONFIG = ModelConfig(vocab_size=512, d_model=256, n_heads=4, n_layers=2,
                     d_ff=704, max_seq=128, seed=11)
BATCHES = (2, 8, 16)
STEPS = 3


def probe() -> tuple[dict, np.ndarray]:
    """``(summary, per-row logits (STEPS, 16, vocab))``."""
    model = TransformerLM(CONFIG)
    ptq = build_ptq(model, PTQConfig(method="mant", w_bits=4, a_bits=8, group_size=64))
    hooks = {"weights": ptq.weights, "act_quant": ptq.act_quant}
    d_head = CONFIG.d_head
    rng = np.random.default_rng(13)
    prompts = [rng.integers(0, CONFIG.vocab_size, int(n))
               for n in rng.integers(2, 64, max(BATCHES))]

    def prefilled(n):
        out = []
        for p in prompts[:n]:
            caches = [MantKVCache(bits=4, group_size=d_head, window=d_head)
                      for _ in range(CONFIG.n_layers)]
            model.prefill(p, caches, **hooks)
            out.append(caches)
        return out

    rows = {"on": 0, "off": 0}
    kernel = L.served_group_gemm

    def counted(x, w):
        rows["on"] += int(x.on.sum())
        rows["off"] += int((~x.on).sum())
        return kernel(x, w)

    single = prefilled(max(BATCHES))
    batched = {b: prefilled(b) for b in BATCHES}
    tokens = [int(p[-1]) for p in prompts]
    pos = [p.size for p in prompts]
    logits, equal = [], True
    L.served_group_gemm = counted
    try:
        for _ in range(STEPS):
            ref = np.stack([model.decode_step(t, c, q, **hooks)
                            for t, c, q in zip(tokens, single, pos)])
            for b, caches in batched.items():
                out = model.forward_mixed(
                    [MixedSegment([t], c, q, MixedSegment.DECODE)
                     for t, c, q in zip(tokens, caches, pos)], **hooks)
                equal &= np.array_equal(np.stack(out).view(np.uint64),
                                        ref[:b].view(np.uint64))
            logits.append(ref)
            tokens = [int(np.argmax(r)) for r in ref]
            pos = [q + 1 for q in pos]
    finally:
        L.served_group_gemm = kernel
    summary = {"rows_equal": bool(equal), "eq5_rows": rows["on"],
               "fallback_rows": rows["off"]}
    return summary, np.stack(logits)


if __name__ == "__main__":
    summary, logits = probe()
    if len(sys.argv) > 1:
        np.save(sys.argv[1], logits)
    print(json.dumps(summary))
