"""NormalFloat (NF4) from QLoRA (Dettmers et al., 2023).

NF4's 16 levels are quantiles of a standard Gaussian, normalised to
[-1, 1], with an exact zero.  Following the QLoRA construction, the
positive and negative halves are built from ``2^(b-1) + 1`` and
``2^(b-1)`` quantile points respectively so that zero appears exactly
once, giving an asymmetric 16-point grid.

The paper's Eq. 3 gives the positive half as ``Φ⁻¹(i·(1-ε)·0.5/7 + 0.5)``
for ``i ∈ [0, 7]``; we implement the full two-sided QLoRA recipe, which
reduces to that formula on the positive side.

The 4-bit grid is stored as exact float literals (bitwise the
Gaussian-quantile construction), so importing this module needs no
SciPy; other widths import ``scipy.special.ndtri`` (``Φ⁻¹``) when they
are first built.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.base import GridDataType

__all__ = ["NormalFloatType", "nf4", "nf_positive_half"]

# QLoRA's offset: quantiles are taken in [1-delta, delta] rather than
# (0, 1) so that Phi^-1 stays finite.  QLoRA uses (1/2)(1/32 + 1/30).
_DELTA = 0.5 * (1 / 32 + 1 / 30)

# The NF4 grid the construction below yields, written out exactly.
_NF4_GRID = (
    -1.0, -0.6961928056323434, -0.5250729594465007, -0.39491742591990725,
    -0.2844413089210822, -0.1847734028004558, -0.09104997598578048, 0.0,
    0.07958031495840909, 0.1609301443802907, 0.2461122513474594,
    0.3379151367131279, 0.44070973186421625, 0.5626168879699849,
    0.7229566441594734, 1.0,
)


def _gaussian_quantiles(probs: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri  # deferred: only non-NF4 widths need it

    return ndtri(probs)


def nf_positive_half(levels: int) -> np.ndarray:
    """``levels`` Gaussian-quantile points spanning [0, 1] (paper Eq. 3)."""
    q = _gaussian_quantiles(np.linspace(0.5, 1.0 - _DELTA, levels))
    return q / q[-1]


class NormalFloatType(GridDataType):
    """b-bit NormalFloat: Gaussian-quantile grid normalised to [-1, 1]."""

    def __init__(self, bits: int = 4):
        if bits == 4:
            grid = np.array(_NF4_GRID)
        else:
            n = 2**bits
            pos = nf_positive_half(n // 2 + 1)           # includes 0 and 1
            neg_src = _gaussian_quantiles(np.linspace(_DELTA, 0.5, n // 2))
            neg = neg_src / np.abs(neg_src[0])           # spans [-1, 0)
            grid = np.unique(np.concatenate([neg, pos]))
        super().__init__(name=f"nf{bits}", bits=bits, grid=grid)


nf4 = NormalFloatType(4)
