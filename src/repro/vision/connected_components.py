"""Connected-components labelling over the mask's row runs.

Connected components analysis is the second stage of the paper's upstream
pipeline (and the subject of the authors' companion FPGA paper [2]).  The
labeller works on the mask's horizontal runs, a few hundred per camera
frame, rather than on its pixels:

1. one transition scan over a zero-padded int8 copy of the mask finds
   every run's start and end;
2. each run is linked to the runs it touches in the row above with two
   ``np.searchsorted`` calls over the run starts and ends;
3. an array union-find (min-label propagation with pointer jumping)
   resolves the links to one root run per component;
4. the runs are painted into the int64 label image.

Only the scan and the paint touch the whole frame.

Components are numbered by the raster position of their first pixel.  The
seed's two-pass per-pixel labeller with a scalar union-find is kept in
``tests/oracles/vision.py``; the parity tests and
``scripts/check_vision.py`` assert that it produces the identical label
image.

Both 4- and 8-connectivity are supported; the default is 8-connectivity,
which is what silhouette extraction wants (diagonal limb pixels stay part
of the same person).
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


def _resolve_equivalences(
    n_runs: int, edge_a: np.ndarray, edge_b: np.ndarray
) -> np.ndarray:
    """Array union-find: representative (minimum member id) per run.

    ``edge_a``/``edge_b`` are equal-length arrays of equivalent run ids
    (1-based).  Resolution alternates edge relaxation (each endpoint pulls
    the smaller label across the edge with ``np.minimum.at``) with pointer
    jumping (``labels = labels[labels]`` until a fixed point), which
    converges in O(log n) rounds even on adversarial spirals.
    """
    labels = np.arange(n_runs + 1, dtype=np.int64)
    if edge_a.size == 0:
        return labels
    while True:
        before = labels.copy()
        smaller = np.minimum(labels[edge_a], labels[edge_b])
        np.minimum.at(labels, edge_a, smaller)
        np.minimum.at(labels, edge_b, smaller)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def _label_runs(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """Run-list CCL: find row runs, link them, resolve, paint."""
    height, width = mask.shape
    # Zero columns on both sides of every row keep runs from spanning row
    # boundaries in the flattened copy, so one transition scan finds them
    # all; transitions alternate between run starts and run ends.
    stride = width + 2
    padded = np.zeros((height, stride), dtype=np.int8)
    padded[:, 1 : width + 1] = mask
    flat = padded.ravel()
    transitions = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = transitions[0::2], transitions[1::2]
    n_runs = starts.size
    if n_runs == 0:
        return np.zeros((height, width), dtype=np.int64), 0

    # Positions are flat indices into the padded copy.  Run j touches run
    # i from the row above when [starts[j], ends[j]) overlaps run i moved
    # up one row (``- stride``) and, for 8-connectivity, widened by one
    # column each way.  Starts and ends both ascend in raster order, so
    # the runs that run i touches are the slice [lo, hi) of the run list;
    # the padding columns keep every run of another row out of it.
    reach = 1 if connectivity == 8 else 0
    lo = np.searchsorted(ends, starts - (stride + reach), side="right")
    hi = np.searchsorted(starts, ends - (stride - reach), side="left")
    touches = hi - lo
    n_links = int(touches.sum())
    # Links are 1-based run ids: run i against each run in its slice.
    link_a = np.repeat(np.arange(1, n_runs + 1), touches)
    first = np.cumsum(touches) - touches
    link_b = np.arange(1, n_links + 1) + np.repeat(lo - first, touches)
    roots = _resolve_equivalences(n_runs, link_a, link_b)

    # Each component's root is its minimum run id, and run ids follow
    # raster order, so numbering the roots in ascending order numbers the
    # components by the raster position of their first pixels.
    is_root = roots == np.arange(n_runs + 1)
    number = np.cumsum(is_root) - 1
    run_labels = number[roots[1:]]

    # Paint: the mask's pixels in raster order are the runs' pixels in run
    # order.
    labels = np.zeros((height, width), dtype=np.int64)
    labels[mask] = np.repeat(run_labels, ends - starts)
    return labels, int(number[-1])


class ConnectedComponentLabeller:
    """Connected-components labeller.

    Parameters
    ----------
    connectivity:
        4 or 8 (default 8).
    """

    def __init__(self, connectivity: int = 8):
        if connectivity not in (4, 8):
            raise ConfigurationError(
                f"connectivity must be 4 or 8, got {connectivity}"
            )
        self.connectivity = connectivity

    def label(self, mask: np.ndarray) -> tuple[np.ndarray, int]:
        """Label ``mask``; returns ``(labels, count)``.

        ``labels`` has the same shape as ``mask`` with background pixels 0
        and each connected foreground region numbered ``1..count``.
        """
        return _label_runs(_validate_mask(mask), self.connectivity)


def label_components(mask: np.ndarray, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Convenience wrapper: label ``mask`` and return ``(labels, count)``."""
    return ConnectedComponentLabeller(connectivity).label(mask)
