"""End-to-end LLM post-training quantization (the Tbl. II workflow).

Loads a trained stand-in model from the zoo (training on first run,
~2 min), calibrates on held-out data, then compares perplexity across
methods: FP16, INT4, ANT, OliVe, Tender and MANT at several settings —
including the full MANT configuration with the 4-bit KV cache.

Run:  python examples/llm_quantization.py [model]
"""

import sys

from repro.analysis.reporting import render_table
from repro.model import (
    PTQConfig,
    build_ptq,
    calibrate_model,
    get_model,
    perplexity_from_rows,
)
from repro.quant import QuantConfig

model_name = sys.argv[1] if len(sys.argv) > 1 else "tinyllama-s"
print(f"loading {model_name} (trains and caches on first use)...")
model, corpus = get_model(model_name)

print("calibrating (activation E[x^2] + KV variance ranges)...")
calibration = calibrate_model(model, corpus, n_batches=3, batch_size=4, seq_len=128)
rows = corpus.eval_tokens(2048, 128)

configs = [
    PTQConfig(method="int", w_bits=4, a_bits=8, label="INT4 group weights, A8"),
    PTQConfig(method="ant", w_bits=4, a_bits=4, label="ANT W4A4"),
    PTQConfig(method="olive", w_bits=4, a_bits=4, label="OliVe W4A4"),
    PTQConfig(method="tender", w_bits=4, a_bits=4, label="Tender W4A4"),
    PTQConfig(method="mant", w_bits=4, a_bits=4, label="MANT W4A4"),
    PTQConfig(method="mant", w_bits=4, a_bits=8, label="MANT W4A8"),
    PTQConfig(method="mant", w_bits=4, a_bits=8, kv_method="mant", kv_bits=4,
              attn_act_bits=8, label="MANT W4A8 + KV 8/4"),
]

fp16 = perplexity_from_rows(model, rows)
table = [["FP16", fp16, 0.0, 16.0]]
for cfg in configs:
    setup = build_ptq(model, cfg, calibration)
    ppl = setup.ppl(model, rows)
    w_bits = QuantConfig(bits=cfg.w_bits, method=cfg.method,
                         group_size=cfg.group_size).bits_per_element()
    table.append([cfg.label, ppl, ppl - fp16, w_bits])

print()
print(render_table(
    ["configuration", "perplexity", "ppl loss", "weight bits/elem"],
    table, title=f"PTQ comparison on {model_name}", ndigits=3,
))
print("\nShape to expect (paper Tbl. II): MANT W4A4 best of the 4-bit rows;")
print("MANT W4A8 near-lossless; the KV-quantized row only slightly worse.")
