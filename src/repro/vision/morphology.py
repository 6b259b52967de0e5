"""Binary morphology used to clean foreground masks.

Background differencing produces speckle noise and small holes; the paper's
upstream pipeline (and essentially every surveillance system) cleans the
mask with a morphological opening followed by a closing before connected
components analysis.

The implementations are **separable**: a ``(2r+1)`` square structuring
element is the Minkowski composition of a horizontal and a vertical
``(2r+1)`` segment, so dilation/erosion run as a row pass followed by a
column pass -- ``O(r)`` shifted in-place OR/AND slice operations instead of
the ``O(r^2)`` full-kernel sweep.  The seed's full-kernel implementations
are kept as parity oracles in ``tests/oracles/vision.py``; the two agree
bit-exactly on every mask and radius, which the property tests and
``scripts/check_vision.py`` enforce.

Border semantics: pixels outside the frame are treated as **background for
dilation** and **foreground for erosion**.  (The seed treated them as
background for both, so an object flush against the frame edge was eroded
from outside the image as well -- a person entering the scene lost an edge
ring of silhouette pixels for no reason.)  With the OR/AND slice form this
costs nothing: out-of-frame contributions are the identity element of each
operation, so no explicit padding is ever materialised.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError


def _validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise DataError(f"expected a 2-D binary mask, got shape {mask.shape}")
    if mask.dtype != np.bool_:
        mask = mask.astype(bool)
    return mask


def _validate_radius(radius: int) -> int:
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    return int(radius)


def _axis_pass(src: np.ndarray, radius: int, axis: int, out: np.ndarray, erode: bool):
    """1-D dilation (OR) or erosion (AND) of ``src`` along ``axis`` into ``out``.

    Out-of-frame pixels contribute the identity element (False for OR,
    True for AND), so the border never needs explicit padding.
    """
    np.copyto(out, src)
    op = np.logical_and if erode else np.logical_or
    for step in range(1, radius + 1):
        if axis == 0:
            op(out[step:], src[:-step], out=out[step:])
            op(out[:-step], src[step:], out=out[:-step])
        else:
            op(out[:, step:], src[:, :-step], out=out[:, step:])
            op(out[:, :-step], src[:, step:], out=out[:, :-step])


def _separable(mask: np.ndarray, radius: int, erode: bool, out: np.ndarray | None):
    """Square-element morphology as a row pass then a column pass."""
    mask = _validate_mask(mask)
    radius = _validate_radius(radius)
    if out is None:
        out = np.empty_like(mask)
    elif out.shape != mask.shape or out.dtype != np.bool_:
        raise DataError(
            f"out must be a boolean array of shape {mask.shape}, got "
            f"{out.dtype} {out.shape}"
        )
    if radius == 0:
        np.copyto(out, mask)
        return out
    rows_done = np.empty_like(mask)
    _axis_pass(mask, radius, 1, rows_done, erode)
    _axis_pass(rows_done, radius, 0, out, erode)
    return out


def binary_dilate(
    mask: np.ndarray, radius: int = 1, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Dilate ``mask`` with a ``(2*radius+1)`` square structuring element.

    ``out`` optionally receives the result (a preallocated boolean buffer of
    the mask's shape), letting per-frame pipelines reuse scratch memory.
    """
    return _separable(mask, radius, erode=False, out=out)


def binary_erode(
    mask: np.ndarray, radius: int = 1, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Erode ``mask`` with a ``(2*radius+1)`` square structuring element.

    Out-of-frame neighbours count as foreground, so silhouettes touching
    the frame edge are not eaten from outside the image.
    """
    return _separable(mask, radius, erode=True, out=out)


def binary_open(
    mask: np.ndarray, radius: int = 1, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Opening (erosion then dilation): removes specks smaller than the element."""
    mask = _validate_mask(mask)
    radius = _validate_radius(radius)
    scratch = np.empty_like(mask)
    _separable(mask, radius, erode=True, out=scratch)
    return _separable(scratch, radius, erode=False, out=out)


def binary_close(
    mask: np.ndarray, radius: int = 1, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Closing (dilation then erosion): fills holes smaller than the element."""
    mask = _validate_mask(mask)
    radius = _validate_radius(radius)
    scratch = np.empty_like(mask)
    _separable(mask, radius, erode=False, out=scratch)
    return _separable(scratch, radius, erode=True, out=out)
