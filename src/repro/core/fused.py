"""Decode-compute fusion (paper Eq. 5).

The whole point of MANT's grid being affine in ``(i, 2^i)`` is that a
dot product against integer activations splits into two *integer*
partial sums::

    X · W_grid = a · Σ x·(±i)      (psum1 — multiply-accumulate)
              +     Σ (x·±1) << i  (psum2 — shift-accumulate)

so no per-element dequantization happens before the MAC array.  This
module implements that kernel with numpy integer arithmetic (bit-exact
with what the MAC+SAC PE computes) and a float reference path
(dequantize-then-matmul) used to validate it.

Conventions
-----------
Activations ``X`` are group-quantized INT8 along the accumulation axis
``K``; weights are a :class:`~repro.core.codec.MantEncoded` with groups
along the same axis.  The activation and weight group sizes must match
so each (activation-group x weight-group) product shares one combined
scale ``s_X · s_W``, which is exactly the condition the systolic array
exploits to defer scaling until after accumulation (Sec. VI-E).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.codec import MantEncoded, INT_A, _signed_levels
from repro.core.groups import to_groups
from repro.datatypes.floats import fp16_scale
from repro.datatypes.int_type import IntType

__all__ = [
    "QuantizedActivations",
    "quantize_activations_int8",
    "combined_weight_terms",
    "fused_group_gemm",
    "fused_group_gemm_two_psum",
    "reference_group_gemm",
    "integer_partial_sums",
]


@dataclass
class QuantizedActivations:
    """Group-wise INT8 activations: codes + per-group scales.

    ``codes`` has grouped shape ``(m, n_groups, group_size)`` (int64 to
    keep numpy accumulation exact); ``scale`` is ``(m, n_groups)``.
    """

    codes: np.ndarray
    scale: np.ndarray
    group_size: int
    original_shape: tuple
    pad: int

    def dequantize(self) -> np.ndarray:
        from repro.core.groups import GroupView, from_groups

        vals = self.codes.astype(np.float64) * self.scale[..., None]
        view = GroupView(
            groups=vals,
            original_shape=self.original_shape,
            axis=len(self.original_shape) - 1,
            pad=self.pad,
        )
        return from_groups(view)


def quantize_activations_int8(
    x: np.ndarray, group_size: int = 64, bits: int = 8, fp16_scales: bool = True
) -> QuantizedActivations:
    """Group-wise symmetric INT quantization of activations (Eq. 4).

    The scale uses the group absmax over ``max(INT8) = 127``; the
    hardware derives the max with the streaming comparator of Sec. VI-C.
    """
    x = np.asarray(x, dtype=np.float64)
    itype = IntType(bits)
    view = to_groups(x, group_size, axis=-1)
    groups = view.groups
    amax = np.max(np.abs(groups), axis=-1)
    amax = np.where(amax <= 0, 1.0, amax)
    scale = amax / itype.qmax
    if fp16_scales:
        scale = fp16_scale(scale)
    codes = itype.round_clip(groups / scale[..., None]).astype(np.int64)
    return QuantizedActivations(
        codes=codes,
        scale=scale,
        group_size=group_size,
        original_shape=x.shape,
        pad=view.pad,
    )


def _check_compatible(xq: QuantizedActivations, enc: MantEncoded) -> None:
    if xq.group_size != enc.group_size:
        raise ValueError(
            f"activation group {xq.group_size} != weight group {enc.group_size}"
        )
    if xq.codes.shape[1:] != enc.sign.shape[1:]:
        raise ValueError(
            f"grouped K mismatch: activations {xq.codes.shape[1:]}, "
            f"weights {enc.sign.shape[1:]}"
        )


def integer_partial_sums(xq: QuantizedActivations, enc: MantEncoded):
    """The two integer partial sums of Eq. 5, before any scaling.

    Returns ``(psum1, psum2)`` with shape ``(m, rows, n_groups)`` where
    ``psum1[m, n, G] = Σ_g x[m,G,g] · (±i)[n,G,g]`` (the MAC lane) and
    ``psum2[m, n, G] = Σ_g (x·±1)[m,G,g] << i[n,G,g]`` (the SAC lane).
    All arithmetic is int64 and exact.
    """
    _check_compatible(xq, enc)
    x = xq.codes  # (m, G, g) int64
    w_signed_mag = enc.sign.astype(np.int64) * enc.magnitude.astype(np.int64)
    w_signed_pow = enc.sign.astype(np.int64) * (
        np.int64(1) << enc.magnitude.astype(np.int64)
    )
    psum1 = np.einsum("mGg,nGg->mnG", x, w_signed_mag)
    psum2 = np.einsum("mGg,nGg->mnG", x, w_signed_pow)
    return psum1, psum2


def combined_weight_terms(enc: MantEncoded) -> np.ndarray:
    """Per-element combined integer terms ``±(a·i + 2^i)`` (``±i`` for INT).

    Folding the coefficient into the weight terms collapses the MAC and
    SAC einsums of Eq. 5 into a single contraction: ``a·Σx·(±i) +
    Σx·(±2^i) = Σ x·(a·(±i) + (±2^i))``.  Every entry is an exact
    integer-valued float64 (``a ≤ 128``, ``i ≤ 7``), so the contraction
    stays bit-exact with the two-lane integer path while halving the
    einsum work.  The result is cached against the encoding — safe
    because :class:`MantEncoded` is immutable (frozen fields, read-only
    arrays) — so repeated GEMMs against the same encoding (e.g. every
    decode step) pay the precombine once.
    """
    cached = getattr(enc, "_combined_terms", None)
    if cached is not None:
        return cached
    terms = _signed_levels(enc)  # the codec's level-table gather
    object.__setattr__(enc, "_combined_terms", terms)  # frozen dataclass
    return terms


def fused_group_gemm(xq: QuantizedActivations, enc: MantEncoded) -> np.ndarray:
    """Compute ``X_hat @ W_hat.T`` without dequantizing the weights.

    Implements Eq. 5 with the coefficient precombined into the weight
    terms (:func:`combined_weight_terms`), so the whole integer compute
    is one einsum followed by the per-group scale contraction.
    Bit-exact with :func:`fused_group_gemm_two_psum`, the MAC+SAC
    two-lane formulation the PE array actually implements.  Output
    shape ``(m, rows)``.
    """
    _check_compatible(xq, enc)
    terms = combined_weight_terms(enc)
    psum = np.einsum("mGg,nGg->mnG", xq.codes.astype(np.float64), terms)
    scale = xq.scale[:, None, :] * enc.scale[None, :, :]
    return np.einsum("mnG,mnG->mn", psum, scale)


def fused_group_gemm_two_psum(xq: QuantizedActivations, enc: MantEncoded) -> np.ndarray:
    """Eq. 5 as the hardware computes it: separate MAC and SAC lanes.

    Kept as the validated integer reference for
    :func:`fused_group_gemm`'s single-einsum formulation — per group,
    ``(a·psum1 + psum2) · s_X · s_W`` for MANT groups and plain
    ``psum1 · s_X · s_W`` for INT groups (the INT option uses only the
    MAC lane).
    """
    psum1, psum2 = integer_partial_sums(xq, enc)
    a = enc.a_coeff[None, :, :]                      # (1, n, G)
    is_int = a == INT_A
    mac_coeff = np.where(is_int, 1.0, a)
    sac_coeff = np.where(is_int, 0.0, 1.0)
    combined = mac_coeff * psum1 + sac_coeff * psum2
    scale = xq.scale[:, None, :] * enc.scale[None, :, :]
    return np.einsum("mnG,mnG->mn", combined, scale)


def reference_group_gemm(xq: QuantizedActivations, enc: MantEncoded) -> np.ndarray:
    """Dequantize-then-matmul reference for validating the fused path."""
    from repro.core.codec import MantCodec

    codec = MantCodec(bits=enc.bits, group_size=enc.group_size)
    w_hat = codec.decode(enc)
    x_hat = xq.dequantize()
    return x_hat @ w_hat.T
