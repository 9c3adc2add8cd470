"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest

from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import ModelConfig, TransformerLM
from repro.model.zoo import get_model

# Every serving engine built under the test suite runs its invariant
# checker (pool refcounts, arena slot accounting, lane bookkeeping)
# after every tick — resource-hygiene bugs fail loudly at the tick that
# introduced them, not as a flaky assertion three suites later.
os.environ.setdefault("REPRO_SERVE_STRICT", "1")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def unit_model():
    """A briefly-trained tiny model, cached in artifacts/ across runs."""
    model, corpus = get_model("unit-test")
    return model, corpus


@pytest.fixture(scope="session")
def unit_model_plain():
    """Same model without outlier injection."""
    model, corpus = get_model("unit-test", outliers=False)
    return model, corpus


@pytest.fixture(scope="session")
def wide_w4a8():
    """A random-init llama at a width where decode GEMVs stream weights
    from memory (FFN weights of 1.4 MB), served MANT W4A8: every
    projection a :class:`~repro.core.fused.MantLevelWeight`."""
    cfg = ModelConfig(vocab_size=512, d_model=256, n_heads=4, n_layers=2,
                      d_ff=704, max_seq=128, seed=11)
    model = TransformerLM(cfg)
    ptq = build_ptq(model, PTQConfig(method="mant", w_bits=4, a_bits=8,
                                     group_size=64))
    return model, ptq
