"""Zero padding of matrices up to a multiple of the grid dimension.

The algorithms cut the padded matrix into per-core tiles (``gemm._split``)
and strip the padding again when they reassemble it.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Tensor shape incompatible with the requested grid or layout."""


def _pad_to(n: int, parts: int) -> int:
    return -(-n // parts) * parts


def pad_matrix(m: np.ndarray, row_parts: int, col_parts: int) -> np.ndarray:
    """Zero-pad up to the next multiple of the grid dimension in each axis."""
    pr = _pad_to(m.shape[0], row_parts)
    pc = _pad_to(m.shape[1], col_parts)
    if (pr, pc) == m.shape:
        return m.astype(np.float32, copy=False)
    out = np.zeros((pr, pc), dtype=np.float32)
    out[: m.shape[0], : m.shape[1]] = m
    return out
