"""Decode-compute fusion (paper Eq. 5).

The whole point of MANT's grid being affine in ``(i, 2^i)`` is that a
dot product against integer activations splits into two *integer*
partial sums::

    X · W_grid = a · Σ x·(±i)      (psum1 — multiply-accumulate)
              +     Σ (x·±1) << i  (psum2 — shift-accumulate)

so no per-element dequantization happens before the MAC array.

Two forms live here:

* **The served kernel** — :func:`served_group_gemm`, which every served
  decode row of a MANT W4A8 model runs (through
  :func:`repro.model.layers.linear_fwd`).  The weight is a
  :class:`MantLevelWeight`: a float32 group-major table of the signed
  levels ``±(a·i + 2^i)`` next to the dense float64 weight.  The rows
  are recovered as INT codes times fp16 scales
  (:func:`recover_int_rows`).  Per group, ``P[g] = codes_g @ levels_g``
  is a float32 batched matmul that is exact whatever BLAS does, because
  every partial sum is an integer below ``2^24``; the float64 epilogue
  (:func:`deferred_scaling`) then forms ``Σ_g s_a·s_w·P[g]`` in a fixed
  order, each product exact.  A row therefore comes out bitwise the
  same whatever rows share the call and however many BLAS threads run.
* **The offline reference** — :func:`fused_group_gemm` and
  :func:`fused_group_gemm_two_psum` on a :class:`MantEncoded`, numpy
  integer arithmetic bit-exact with what the MAC+SAC PE computes, and
  :func:`reference_group_gemm` (dequantize-then-matmul) to validate them.

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
from repro.core.mant import MANT_WEIGHT_A_SET
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
    "IntRows",
    "MantLevelWeight",
    "recover_int_rows",
    "level_table_weight",
    "deferred_scaling",
    "served_group_gemm",
]

# float32 represents every integer of magnitude up to 2^24 exactly.
_F32_EXACT = 2 ** 24


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


# ----------------------------------------------------------------------
# The served kernel
# ----------------------------------------------------------------------
class MantLevelWeight:
    """A MANT weight as the server holds it: dense form plus level table.

    ``dense`` is the ``(out, in)`` float64 fake-quantized weight, bitwise
    what :meth:`~repro.core.codec.MantCodec.decode` returns; packed
    prefill, the no-cache forward and array consumers (``np.asarray``)
    use it, and ``shape``/``nbytes`` describe it.  ``levels`` is the
    float32 ``(G, g, out)`` table of signed levels ``±(a·i + 2^i)``
    (``±i`` for INT groups), group-major so that one batched matmul
    contracts every group; ``scale`` holds the fp16-valued weight scales
    as ``(G, out)``.  ``group_size`` and ``act_qmax`` describe the
    group-INT activation quantizer the weight is paired with.
    """

    __slots__ = ("dense", "levels", "scale", "group_size", "act_qmax")

    def __init__(self, dense, levels, scale, group_size: int, act_qmax: int):
        self.dense = dense
        self.levels = levels
        self.scale = scale
        self.group_size = group_size
        self.act_qmax = act_qmax

    @property
    def shape(self) -> tuple:
        return self.dense.shape

    @property
    def nbytes(self) -> int:
        return self.dense.nbytes

    def __array__(self, dtype=None, copy=None):
        return np.array(self.dense, dtype=dtype, copy=copy)


def level_table_weight(dense: np.ndarray, enc: MantEncoded, act_bits: int,
                       out: np.ndarray | None = None):
    """Pair the decoded weight ``dense`` of ``enc`` with its level table.

    ``act_bits`` is the width of the group-INT activation quantizer that
    feeds the weight, with the weight's group size.  Returns a
    :class:`MantLevelWeight`, or ``dense`` itself when Eq. 5's float32
    partial sums could round: a group of ``g`` codes up to ``qmax``
    against levels up to ``L`` sums to at most ``g·qmax·L``, which must
    stay below ``2^24`` (``g ≤ 136`` at A8 against 4-bit MANT's largest
    level, ``120·7 + 2^7 = 968``), or when the scales are not fp16
    values.  fp16 scales make every ``level·scale`` exact, so the levels
    are recovered as ``dense / scale`` in one float32 pass, into
    ``out`` when given (a float32 buffer of ``G·g·out`` elements).
    """
    qmax = 2 ** (act_bits - 1) - 1
    top = 2 ** (enc.bits - 1) - 1                   # largest magnitude code
    a_max = max(max(MANT_WEIGHT_A_SET), float(np.max(enc.a_coeff)))
    if (enc.group_size * qmax * (a_max * top + 2 ** top) >= _F32_EXACT
            or not np.array_equal(fp16_scale(enc.scale), enc.scale)):
        return dense
    rows, n_groups = enc.scale.shape
    shape = (n_groups, enc.group_size, rows)
    levels = np.empty(shape, dtype=np.float32) if out is None else out.reshape(shape)
    np.divide(to_groups(dense, enc.group_size).groups.transpose(1, 2, 0),
              enc.scale.T[:, None, :], out=levels, casting="same_kind")
    return MantLevelWeight(dense, levels, np.ascontiguousarray(enc.scale.T),
                           enc.group_size, qmax)


class IntRows:
    """Activation rows ``x (..., in)`` with the INT codes they sit on.

    ``on`` marks the rows that are exactly ``codes · scale`` (the output
    of a group-INT quantizer); ``codes`` is their float32 ``(G, n, g)``
    group-major code block and ``scale`` their fp16-valued ``(n, G)``
    scales.  ``shape`` is ``x``'s.
    """

    __slots__ = ("x", "on", "codes", "scale", "group_size", "qmax")

    def __init__(self, x, on, codes, scale, group_size: int, qmax: int):
        self.x = x
        self.on = on
        self.codes = codes
        self.scale = scale
        self.group_size = group_size
        self.qmax = qmax

    @property
    def shape(self) -> tuple:
        return self.x.shape


def recover_int_rows(x: np.ndarray, group_size: int, qmax: int) -> IntRows:
    """Recover the group-INT codes of each row of ``x (..., in)``.

    Per group, ``s = fp16_scale(max|x_g| / qmax)`` and ``c = clip(rint(x_g
    / s), ±qmax)`` — what the group-INT quantizer computes, here applied
    to its output.  A row is on the grid when ``c·s == x`` for all its
    elements; any other row (an unquantized input, another quantizer, a
    clamped scale that no longer reproduces it) is marked off, and
    :func:`served_group_gemm` gives it the dense product instead.
    """
    flat = x.reshape(-1, x.shape[-1])
    groups = to_groups(flat, group_size).groups        # (rows, G, g)
    amax = np.max(np.abs(groups), axis=-1)
    scale = fp16_scale(np.where(amax > 0, amax, qmax) / qmax)
    codes = np.clip(np.rint(groups / scale[..., None]), -qmax, qmax)
    on = np.all((codes * scale[..., None] == groups).reshape(len(flat), -1), axis=1)
    return IntRows(x, on,
                   np.ascontiguousarray(codes[on].transpose(1, 0, 2), dtype=np.float32),
                   scale[on], group_size, qmax)


def deferred_scaling(psums: np.ndarray, s_a: np.ndarray, s_w: np.ndarray) -> np.ndarray:
    """Eq. 5's epilogue: ``y[t, o] = Σ_g s_a[t, g]·s_w[g, o]·psums[g, t, o]``.

    ``psums`` is ``(G, rows, out)``, ``s_a`` ``(rows, G)`` and ``s_w``
    ``(G, out)``.  The groups are added in ascending order, one float64
    add each, so a row's result depends on nothing but its own operands.
    With fp16-valued scales and ``|psums| < 2^24`` every product is exact
    (at most 46 significant bits); only the additions round.
    """
    y = (s_a[:, :1] * s_w[0]) * psums[0]
    term = np.empty_like(y)
    for g in range(1, psums.shape[0]):
        np.multiply(s_a[:, g : g + 1], s_w[g], out=term)
        term *= psums[g]
        y += term
    return y


def served_group_gemm(rows: IntRows, w: MantLevelWeight) -> np.ndarray:
    """``x @ w.T`` for served decode rows, by Eq. 5 where they allow it.

    Rows on the INT grid run the integer partial sums ``P[g] = codes_g @
    levels_g`` as one float32 batched matmul — exact at any BLAS
    summation order or thread count, since every partial sum is an
    integer below ``2^24`` — then :func:`deferred_scaling`.  Off-grid
    rows take the dense float64 product one row at a time (a GEMV each,
    as a single row alone would).  Either way row ``t`` of the result is
    bitwise what ``rows`` holding row ``t`` alone would give.  The
    result has the shape of ``rows.x`` with the last axis ``out``.
    """
    x = rows.x
    flat = x.reshape(-1, x.shape[-1])
    out = w.dense.shape[0]
    y = np.empty((len(flat), out))
    if rows.scale.size:
        psums = np.matmul(rows.codes, w.levels)          # (G, n, out) float32
        y[rows.on] = deferred_scaling(psums, rows.scale, w.scale)
    off = ~rows.on
    if off.any():
        y[off] = (flat[off][:, None, :] @ w.dense.T)[:, 0]
    return y.reshape(*x.shape[:-1], out)
