"""The ANT baseline (MICRO'22): adaptive selection among fixed types.

ANT picks, per quantization unit, the best of a small discrete set of
data types — INT (uniform), PoT (Laplace), flint (Gaussian) — by
quantization MSE.  Framework rules reproduced from the paper:

* Weights: type selected per unit (tensor / channel / group) offline.
* Activations: ANT has no real-time type selection, so under group
  quantization it picks ONE type per tensor (from calibration) and only
  the scaling factor is per group (Sec. VII-D).  This is exactly why
  group-wise ANT underperforms even plain INT at small group sizes
  (paper Tbl. V).
* 8-bit mode ("ANT*"): no adaptive selection, plain INT8.
"""

from __future__ import annotations

import numpy as np

from repro.core.groups import to_groups, from_groups
from repro.datatypes import flint4, pot4_with_zero
from repro.datatypes.base import GridDataType
from repro.datatypes.floats import fp16_scale
from repro.datatypes.int_type import IntType
from repro.quant.config import Granularity

__all__ = ["AntQuantizer", "ANT_TYPE_SET", "select_ant_type"]


def _ant_types(bits: int) -> tuple[GridDataType, ...]:
    if bits == 4:
        return (IntType(4), flint4, pot4_with_zero)
    # ANT's adaptive benefit is a 4-bit story; 8-bit falls back to INT
    # (the paper's ANT* configuration).
    return (IntType(bits),)


ANT_TYPE_SET = _ant_types(4)


def select_ant_type(values: np.ndarray, bits: int = 4) -> GridDataType:
    """MSE-optimal member of the ANT type set for a block of values."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    best, best_err = None, np.inf
    for dt in _ant_types(bits):
        err = dt.mse(flat)
        if err < best_err:
            best, best_err = dt, err
    return best


class AntQuantizer:
    """ANT fake quantization at tensor/channel/group granularity.

    ``per_unit_type`` controls whether the data type adapts at the same
    granularity as the scale (True, ANT's weight path) or is fixed per
    tensor (False, ANT's activation path under group quantization).
    """

    def __init__(
        self,
        bits: int = 4,
        granularity: Granularity = Granularity.TENSOR,
        group_size: int = 64,
        per_unit_type: bool = True,
        fp16_scales: bool = True,
    ):
        self.bits = bits
        self.granularity = granularity
        self.group_size = group_size
        self.per_unit_type = per_unit_type
        self.fp16_scales = fp16_scales

    def _round_scale(self, scale):
        return fp16_scale(scale) if self.fp16_scales else scale

    # ------------------------------------------------------------------
    def _qdq_block(self, block: np.ndarray, dtype: GridDataType) -> np.ndarray:
        amax = float(np.max(np.abs(block))) if block.size else 0.0
        if amax <= 0:
            return np.zeros_like(block)
        scale = self._round_scale(amax / dtype.grid_max)
        return dtype.qdq(block, scale)

    def _qdq_grouped(self, groups: np.ndarray, dtype: GridDataType) -> np.ndarray:
        amax = np.max(np.abs(groups), axis=-1, keepdims=True)
        amax = np.where(amax <= 0, dtype.grid_max, amax)
        scale = self._round_scale(amax / dtype.grid_max)
        return dtype.qdq(groups, scale)

    # ------------------------------------------------------------------
    def qdq(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Fake-quantize ``x`` with ANT's selection rules."""
        x = np.asarray(x, dtype=np.float64)
        if self.bits >= 8:
            # ANT* path: coarse INT8, group/channel scale only.
            from repro.quant.quantizer import GroupQuantizer

            return GroupQuantizer(
                IntType(self.bits), self.granularity, self.group_size,
                fp16_scales=self.fp16_scales,
            ).qdq(x, axis=axis)

        if self.granularity is Granularity.TENSOR:
            return self._qdq_block(x, select_ant_type(x, self.bits))

        if self.granularity is Granularity.CHANNEL:
            moved = np.moveaxis(x, axis, -1)
            flat = moved.reshape(-1, moved.shape[-1])
            out = np.empty_like(flat)
            for i, row in enumerate(flat):
                out[i] = self._qdq_block(row, select_ant_type(row, self.bits))
            return np.moveaxis(out.reshape(moved.shape), -1, axis)

        view = to_groups(x, self.group_size, axis=axis)
        groups = view.groups.reshape(-1, view.group_size)
        if not self.per_unit_type:
            # Activation path: one type for the whole tensor, scales per
            # group.
            dtype = select_ant_type(x, self.bits)
            out = self._qdq_grouped(groups, dtype)
            return from_groups(view, out.reshape(view.groups.shape))

        # Weight path: per-group type selection, vectorised by
        # evaluating each candidate on all groups and taking the argmin.
        candidates = _ant_types(self.bits)
        recons = np.empty((len(candidates),) + groups.shape)
        errs = np.empty((len(candidates), groups.shape[0]))
        for k, dt in enumerate(candidates):
            recons[k] = self._qdq_grouped(groups, dt)
            diff = recons[k] - groups
            errs[k] = np.mean(diff * diff, axis=-1)
        best = np.argmin(errs, axis=0)
        out = recons[best, np.arange(groups.shape[0])]
        return from_groups(view, out.reshape(view.groups.shape))

    def type_histogram(self, x: np.ndarray, axis: int = -1) -> dict[str, float]:
        """Fraction of groups selecting each ANT type (for analysis)."""
        x = np.asarray(x, dtype=np.float64)
        view = to_groups(x, self.group_size, axis=axis)
        groups = view.groups.reshape(-1, view.group_size)
        candidates = _ant_types(self.bits)
        errs = np.empty((len(candidates), groups.shape[0]))
        for k, dt in enumerate(candidates):
            diff = self._qdq_grouped(groups, dt) - groups
            errs[k] = np.mean(diff * diff, axis=-1)
        best = np.argmin(errs, axis=0)
        return {
            dt.name: float(np.mean(best == k)) for k, dt in enumerate(candidates)
        }
