"""Layout notation for tensors on the mesh, and the zero padding of tiles.

A layout assigns each tensor dimension to a mesh axis either partitioned
(subscript notation, e.g. ``E_x``) or replicated (superscript, e.g. ``L^x``).
Partitioning zero-pads up to the next multiple of the grid dimension
(:func:`pad_matrix`); the algorithms cut the padded matrix into per-core tiles
(``gemm._split``) and strip the padding again when they reassemble it.
Transposes are explicit layout changes, never implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ShapeError(ValueError):
    """Tensor shape incompatible with the requested grid or layout."""


class Axis(Enum):
    X = "x"
    Y = "y"


class Mode(Enum):
    PARTITIONED = "partitioned"
    REPLICATED = "replicated"


@dataclass(frozen=True)
class DimSpec:
    name: str  # dimension letter, e.g. "L", "E", "F"
    axis: Axis
    mode: Mode

    def notation(self) -> str:
        mark = "_" if self.mode is Mode.PARTITIONED else "^"
        return f"{self.name}{mark}{self.axis.value}"


@dataclass(frozen=True)
class Layout:
    """Per-dimension mapping of a tensor onto the mesh axes."""

    dims: tuple[DimSpec, ...]

    def __post_init__(self):
        for axis in Axis:
            parts = [d for d in self.dims if d.axis is axis and d.mode is Mode.PARTITIONED]
            if len(parts) > 1:
                raise ShapeError(
                    f"layout {self.notation()}: more than one dimension partitioned on {axis.value}"
                )

    def notation(self) -> str:
        return "".join(d.notation() for d in self.dims)


def partitioned(name: str, axis: Axis) -> DimSpec:
    return DimSpec(name, axis, Mode.PARTITIONED)


def replicated(name: str, axis: Axis) -> DimSpec:
    return DimSpec(name, axis, Mode.REPLICATED)


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
