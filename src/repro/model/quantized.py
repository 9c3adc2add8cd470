"""PTQ harness: bind quantization methods to the transformer's hooks.

This module encodes the paper's evaluation setup (Sec. VII-A):

* **MANT** — group-wise everywhere: weights 4-bit MANT (MSE-searched
  per group), activations group-wise INT8 (or INT4 in the W4A4 row),
  KV cache 4-bit MANT with variance selection.
* **ANT** — channel-wise adaptive weights, *tensor-wise* adaptive
  activations (ANT has no real-time type selection).  8-bit ANT is the
  non-adaptive "ANT*" INT8 configuration.
* **OliVe** — channel-wise outlier-victim weights, tensor-wise OVP
  activations.
* **Tender** — per-channel-chunk decomposition with 2^k scales for
  both weights and activations.
* **INT / NF / FP / MXFP / cluster** — plain data-type paths at a
  configurable granularity (Fig. 1/2, Tbl. V).

None of the baselines quantize the attention layer (the paper keeps
them FP16 there); only MANT configs carry a KV spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fused import MantLevelWeight, level_table_weight
from repro.core.groups import to_groups, from_groups
from repro.core.selection import VarianceSelector
from repro.datatypes.int_type import IntType
from repro.datatypes.mxfp import mxfp4_qdq
from repro.model.transformer import TransformerLM
from repro.quant.ant import AntQuantizer
from repro.quant.clustering import PerGroupClusterQuantizer
from repro.quant.config import Granularity
from repro.quant.mant_framework import MantModelQuantizer
from repro.quant.olive import OliveQuantizer
from repro.quant.quantizer import GroupQuantizer
from repro.quant.tender import TenderQuantizer
from repro.quant.calibration import CalibrationResult

__all__ = ["PTQConfig", "PTQSetup", "build_ptq", "mant_kv_prefill_qdq", "int_kv_prefill_qdq"]


@dataclass(frozen=True)
class PTQConfig:
    """One row of the paper's accuracy tables.

    ``w_granularity``/``a_granularity`` default to each method's paper
    setting when None.  ``kv_method`` of ``"fp16"`` leaves the
    attention layer unquantized (all baselines); ``"mant"``/``"int"``
    enable 4-bit KV with 8-bit attention activations (Tbl. II last row,
    Tbl. III).
    """

    method: str = "mant"
    w_bits: int = 4
    a_bits: int = 8
    group_size: int = 64
    w_granularity: Granularity | None = None
    a_granularity: Granularity | None = None
    kv_method: str = "fp16"
    kv_bits: int = 4
    attn_act_bits: int = 16
    label: str | None = None

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        kv = "" if self.kv_method == "fp16" else f"+KV{self.kv_method}{self.kv_bits}"
        return f"{self.method}-W{self.w_bits}A{self.a_bits}{kv}"


@dataclass
class PTQSetup:
    """Ready-to-run quantized model: weights + hooks for the forward.

    A MANT weight fed by group-INT activations of its group size is a
    :class:`~repro.core.fused.MantLevelWeight` (the dense fake-quantized
    array plus the level table decode rows run Eq. 5 on); every other
    weight is a plain array.
    """

    config: PTQConfig
    weights: dict[str, np.ndarray | MantLevelWeight]
    act_quant: object | None
    kv_quant: object | None
    artifacts: dict = field(default_factory=dict)

    def ppl(self, model: TransformerLM, rows: np.ndarray, batch_size: int = 8) -> float:
        from repro.model.perplexity import perplexity_from_rows

        return perplexity_from_rows(
            model,
            rows,
            weights=self.weights,
            act_quant=self.act_quant,
            kv_quant=self.kv_quant,
            batch_size=batch_size,
        )


# ----------------------------------------------------------------------
# Weight quantization per method
# ----------------------------------------------------------------------
def _quantize_weights(model: TransformerLM, cfg: PTQConfig,
                      calibration: CalibrationResult | None, artifacts: dict):
    params = model.params
    names = set(model.config.linear_names())
    out = dict(params)
    if cfg.method == "fp16" or cfg.w_bits >= 16:
        return out

    gran = cfg.w_granularity
    if cfg.method == "mant":
        mq = MantModelQuantizer(bits=cfg.w_bits, group_size=cfg.group_size)
        stats = calibration.act_sq_means if calibration else None
        # Fed by _make_act_quant's group-INT activations, each weight is
        # served with its Eq. 5 level table, which carries everything the
        # codes did for serving.  Weights go one at a time, so released
        # codes make room for the next weight's, and the tables share one
        # buffer: allocated one by one between the search's multi-MB
        # temporaries, they fragmented the heap (~10 MB more resident on
        # perf-m).
        paired = cfg.a_bits < 16 and (cfg.a_granularity or Granularity.GROUP) is Granularity.GROUP
        g = cfg.group_size
        size = {n: params[n].shape[0] * -(-params[n].shape[1] // g) * g for n in names}
        tables = np.empty(sum(size.values()), dtype=np.float32) if paired else None
        start = 0
        for n in sorted(names):
            out.update(mq.quantize_weights({n: params[n]}, act_sq_means=stats))
            if paired:
                out[n] = level_table_weight(out[n], mq.results[n].encoded, cfg.a_bits,
                                            tables[start : start + size[n]])
                start += size[n]
                if isinstance(out[n], MantLevelWeight):
                    mq.results[n].encoded = None
        artifacts["mant_weights"] = mq
        return out

    for n in names:
        w = params[n]
        if cfg.method == "ant":
            q = AntQuantizer(
                bits=cfg.w_bits,
                granularity=gran or Granularity.CHANNEL,
                group_size=cfg.group_size,
            ).qdq(w, axis=-1)
        elif cfg.method == "olive":
            q = OliveQuantizer(
                bits=cfg.w_bits,
                granularity=gran or Granularity.CHANNEL,
                group_size=cfg.group_size,
            ).qdq(w, axis=-1)
        elif cfg.method == "tender":
            q = TenderQuantizer(bits=cfg.w_bits).qdq(w, axis=-1)
        elif cfg.method == "int":
            q = GroupQuantizer(
                IntType(cfg.w_bits), gran or Granularity.GROUP, cfg.group_size
            ).qdq(w, axis=-1)
        elif cfg.method == "cluster":
            q = PerGroupClusterQuantizer(
                bits=cfg.w_bits, group_size=cfg.group_size
            ).qdq(w, axis=-1)
        elif cfg.method == "mxfp":
            q = mxfp4_qdq(_pad_to_multiple(w, 32), 32)[..., : w.shape[-1]]
        elif cfg.method in ("nf", "fp", "pot", "flint"):
            from repro.quant.quantizer import _dtype_for
            from repro.quant.config import QuantConfig

            dt = _dtype_for(QuantConfig(bits=cfg.w_bits, method=cfg.method,
                                        group_size=cfg.group_size))
            q = GroupQuantizer(dt, gran or Granularity.GROUP, cfg.group_size).qdq(w, axis=-1)
        else:
            raise ValueError(f"unknown weight method {cfg.method!r}")
        out[n] = q
    return out


def _pad_to_multiple(x: np.ndarray, m: int) -> np.ndarray:
    pad = (-x.shape[-1]) % m
    if not pad:
        return x
    width = [(0, 0)] * (x.ndim - 1) + [(0, pad)]
    return np.pad(x, width)


# ----------------------------------------------------------------------
# Activation quantization per method
# ----------------------------------------------------------------------
def _row_local_hook(gq: GroupQuantizer):
    """``act_quant`` quantizing the last axis with ``gq``.  Group and
    channel scales are per row, so such a hook declares itself
    row-local (``hook.row_local``): a batch of rows may be quantized in
    one call."""
    def hook(name, x):
        return gq.qdq(x, axis=-1)

    hook.row_local = gq.granularity is not Granularity.TENSOR
    return hook


def _make_act_quant(cfg: PTQConfig):
    if cfg.method == "fp16" or cfg.a_bits >= 16:
        return None
    if cfg.method in ("mant", "int", "cluster", "nf", "fp", "pot", "flint"):
        # MANT framework: activations are plain group-wise INT (Sec. V-B),
        # and the plain data-type rows quantize activations the same way.
        return _row_local_hook(GroupQuantizer(
            IntType(cfg.a_bits), cfg.a_granularity or Granularity.GROUP, cfg.group_size
        ))
    if cfg.method == "ant":
        aq = AntQuantizer(
            bits=cfg.a_bits,
            granularity=cfg.a_granularity or Granularity.TENSOR,
            group_size=cfg.group_size,
            per_unit_type=False,
        )
        return lambda name, x: aq.qdq(x, axis=-1)
    if cfg.method == "olive":
        oq = OliveQuantizer(
            bits=cfg.a_bits,
            granularity=cfg.a_granularity or Granularity.TENSOR,
            group_size=cfg.group_size,
        )
        return lambda name, x: oq.qdq(x, axis=-1)
    if cfg.method == "tender":
        tq = TenderQuantizer(bits=cfg.a_bits)
        return lambda name, x: tq.qdq(x, axis=-1)
    if cfg.method in ("mxfp",):
        return lambda name, x: mxfp4_qdq(_pad_to_multiple(x, 32), 32)[..., : x.shape[-1]]
    raise ValueError(f"unknown activation method {cfg.method!r}")


# ----------------------------------------------------------------------
# Prefill-style KV quantization (Tbl. II attention rows)
# ----------------------------------------------------------------------
def mant_kv_prefill_qdq(
    k: np.ndarray,
    v: np.ndarray,
    selector: VarianceSelector,
    bits: int = 4,
    group_size: int = 64,
    window: int | None = None,
):
    """Vectorised prefill-stage MANT KV quantization.

    K groups run along ``d_head`` (spatial); V groups along the
    sequence in ``window``-sized chunks, with the tail kept at INT8
    using channel scales — matching :class:`MantKVCache` semantics on
    ``(B, H, T, d_head)`` tensors.
    """
    from repro.core.codec import MantCodec

    window = window or group_size
    b, h, t, dh = k.shape

    gk = min(group_size, dh)
    codec_k = MantCodec(bits, gk)
    flat_k = k.reshape(-1, dh)
    a_k = selector.select_batch(to_groups(flat_k, gk, axis=-1).groups)
    k_q = codec_k.qdq(flat_k, a_k).reshape(k.shape)

    full = (t // window) * window
    v_q = np.empty_like(v)
    if full:
        body = v[:, :, :full, :].reshape(b, h, full // window, window, dh)
        per_channel = np.moveaxis(body, 3, -1)          # (b,h,W,dh,window)
        flat_v = per_channel.reshape(-1, window)
        codec_v = MantCodec(bits, window)
        a_v = selector.select_batch(flat_v)
        out = codec_v.qdq(flat_v, a_v[:, None])
        v_q[:, :, :full, :] = np.moveaxis(
            out.reshape(b, h, full // window, dh, window), -1, 3
        ).reshape(b, h, full, dh)
    if full < t:
        tail = v[:, :, full:, :]
        itype = IntType(8)
        ch_max = np.max(np.abs(v), axis=2, keepdims=True)   # prefill channel scales
        ch_max = np.where(ch_max <= 0, 1.0, ch_max)
        scale = ch_max / itype.qmax
        v_q[:, :, full:, :] = itype.round_clip(tail / scale) * scale
    return k_q, v_q


def int_kv_prefill_qdq(k: np.ndarray, v: np.ndarray, bits: int = 4, group_size: int = 64):
    """Baseline INT KV: per-token groups along ``d_head`` for both."""
    def q(x):
        g = min(group_size, x.shape[-1])
        itype = IntType(bits)
        view = to_groups(x, g, axis=-1)
        amax = np.max(np.abs(view.groups), axis=-1, keepdims=True)
        amax = np.where(amax <= 0, itype.qmax, amax)
        scale = amax / itype.qmax
        return from_groups(view, itype.round_clip(view.groups / scale) * scale)

    return q(k), q(v)


def _make_kv_quant(cfg: PTQConfig, selector: VarianceSelector | None):
    if cfg.kv_method == "fp16":
        return None
    q_quant = None
    if cfg.attn_act_bits < 16:
        gq = GroupQuantizer(IntType(cfg.attn_act_bits), Granularity.GROUP, cfg.group_size)
        q_quant = lambda x: gq.qdq(x, axis=-1)

    if cfg.kv_method == "mant":
        sel = selector or VarianceSelector(bits=cfg.kv_bits, group_size=cfg.group_size)

        def hook(layer, qh, kh, vh):
            k_q, v_q = mant_kv_prefill_qdq(
                kh, vh, sel, bits=cfg.kv_bits, group_size=cfg.group_size
            )
            return (q_quant(qh) if q_quant else qh), k_q, v_q

        return hook
    if cfg.kv_method == "int":

        def hook(layer, qh, kh, vh):
            k_q, v_q = int_kv_prefill_qdq(kh, vh, bits=cfg.kv_bits,
                                          group_size=cfg.group_size)
            return (q_quant(qh) if q_quant else qh), k_q, v_q

        return hook
    raise ValueError(f"unknown KV method {cfg.kv_method!r}")


# ----------------------------------------------------------------------
def build_ptq(
    model: TransformerLM,
    cfg: PTQConfig,
    calibration: CalibrationResult | None = None,
) -> PTQSetup:
    """Assemble quantized weights and hooks for one table row."""
    artifacts: dict = {}
    weights = _quantize_weights(model, cfg, calibration, artifacts)
    act_quant = _make_act_quant(cfg)
    selector = calibration.kv_selector if calibration else None
    kv_quant = _make_kv_quant(cfg, selector)
    return PTQSetup(
        config=cfg,
        weights=weights,
        act_quant=act_quant,
        kv_quant=kv_quant,
        artifacts=artifacts,
    )
