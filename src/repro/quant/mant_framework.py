"""The MANT quantization framework (paper Sec. V).

* Weights: offline per-group MSE search over the 16-type set, then
  group-wise encode (``MantQuantizer``).
* Activations: group-wise INT8 (Sec. V-B) — handled by
  :func:`repro.core.fused.quantize_activations_int8` /
  :class:`repro.quant.quantizer.GroupQuantizer`.
* KV cache: real-time variance-based selection — in
  :mod:`repro.quant.kvcache`.

``MantModelQuantizer`` applies the weight path to a whole named-weight
collection and records the per-group coefficient choices, which is the
raw data behind the paper's Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.codec import MantCodec, MantEncoded, INT_A
from repro.core.mant import MANT_WEIGHT_A_SET
from repro.core.selection import MseSearchSelector

__all__ = ["MantQuantizer", "MantModelQuantizer", "QuantizedWeight"]


class MantQuantizer:
    """Offline MANT weight quantization: search + encode + decode.

    The fake-quantization entry point used by accuracy experiments is
    :meth:`qdq_tensor`; systems that need the actual codes (the fused
    kernel, the HW simulator) use :meth:`encode`.
    """

    def __init__(
        self,
        bits: int = 4,
        group_size: int = 64,
        a_candidates=MANT_WEIGHT_A_SET,
        include_int: bool = True,
        fp16_scales: bool = True,
    ):
        self.bits = bits
        self.group_size = group_size
        self.selector = MseSearchSelector(
            bits=bits,
            group_size=group_size,
            a_candidates=a_candidates,
            include_int=include_int,
        )
        self.codec = MantCodec(bits=bits, group_size=group_size, fp16_scales=fp16_scales)

    # ------------------------------------------------------------------
    def select(self, w: np.ndarray, act_sq_mean: np.ndarray | None = None) -> np.ndarray:
        """Per-group coefficients for a 2-D weight (Eq. 6 surrogate)."""
        return self.selector.select(w, act_sq_mean)

    def encode(self, w: np.ndarray, act_sq_mean: np.ndarray | None = None) -> MantEncoded:
        # Fused search + encode: the selector keeps the winning
        # candidate's codes from the sweep, so the weights are not
        # nearest-point-searched again after selection.  Bit-identical
        # to ``self.codec.encode(w, self.select(w, act_sq_mean))``.
        return self.selector.select_and_encode(w, act_sq_mean, codec=self.codec)

    def quantize(self, w: np.ndarray, act_sq_mean: np.ndarray | None = None) -> MantEncoded:
        """Alias of :meth:`encode` (paper's terminology)."""
        return self.encode(w, act_sq_mean)

    def dequantize(self, enc: MantEncoded) -> np.ndarray:
        return self.codec.decode(enc)

    # ------------------------------------------------------------------
    def qdq(self, w: np.ndarray, act_sq_mean: np.ndarray | None = None) -> np.ndarray:
        """Fake-quantize a 2-D weight matrix (fused search + encode)."""
        return self.codec.decode(self.encode(w, act_sq_mean))

    def qdq_tensor(
        self,
        x: np.ndarray,
        axis: int = -1,
        act_sq_mean: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fake-quantize an arbitrary-rank tensor along ``axis``."""
        x = np.asarray(x, dtype=np.float64)
        moved = np.moveaxis(x, axis, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        out = self.qdq(flat, act_sq_mean)
        return np.moveaxis(out.reshape(moved.shape), -1, axis)


@dataclass
class QuantizedWeight:
    """One weight's quantization artifacts: codes + fake-quant values.

    ``a_coeff`` keeps the per-group coefficients (Fig. 15's raw data)
    even after ``encoded`` is set to None to release the codes, as
    :func:`repro.model.quantized.build_ptq` does for weights it serves
    from a level table.
    """

    name: str
    encoded: MantEncoded | None
    dequantized: np.ndarray
    a_coeff: np.ndarray = field(init=False)

    def __post_init__(self):
        self.a_coeff = self.encoded.a_coeff

    def a_histogram(self) -> dict[float, float]:
        """Fraction of groups per coefficient (Fig. 15 raw data)."""
        a = self.a_coeff.ravel()
        values, counts = np.unique(a, return_counts=True)
        total = a.size
        return {float(v): float(c) / total for v, c in zip(values, counts)}


@dataclass
class MantModelQuantizer:
    """Quantize a named collection of 2-D weights with MANT.

    ``act_sq_means`` optionally maps weight names to the calibration
    statistic ``E[x_j²]`` of that weight's input features.
    """

    bits: int = 4
    group_size: int = 64
    fp16_scales: bool = True
    results: dict[str, QuantizedWeight] = field(default_factory=dict)

    def __post_init__(self):
        self._quantizer = MantQuantizer(
            bits=self.bits, group_size=self.group_size, fp16_scales=self.fp16_scales
        )

    def quantize_weights(
        self,
        weights: dict[str, np.ndarray],
        act_sq_means: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Return fake-quantized copies; artifacts land in ``results``."""
        out: dict[str, np.ndarray] = {}
        for name, w in weights.items():
            stat = None if act_sq_means is None else act_sq_means.get(name)
            enc = self._quantizer.encode(np.asarray(w, dtype=np.float64), stat)
            deq = self._quantizer.dequantize(enc)
            self.results[name] = QuantizedWeight(name, enc, deq)
            out[name] = deq
        return out

    def datatype_ratio_table(self) -> dict[str, dict[float, float]]:
        """Per-weight coefficient histograms (Fig. 15)."""
        return {name: qw.a_histogram() for name, qw in self.results.items()}

    def int_fraction(self) -> float:
        """Fraction of all groups that chose the plain-INT option."""
        total, ints = 0, 0
        for qw in self.results.values():
            a = qw.a_coeff
            total += a.size
            ints += int(np.sum(a == INT_A))
        return ints / total if total else 0.0
