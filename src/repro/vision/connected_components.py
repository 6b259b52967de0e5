"""Connected-components labelling: run-based CCL in array operations.

Connected components analysis is the second stage of the paper's upstream
pipeline (and the subject of the authors' companion FPGA paper [2]).  Row
runs are derived with shifted-array comparisons, inter-row run adjacencies
become edges of an equivalence graph, the graph is resolved with an array
union-find (min-label propagation with pointer jumping), and the final
label image is produced by one ``np.take`` through the run-id image.
Everything is O(pixels) numpy work with no per-pixel Python, which is what
makes the 320x240 many-camera serving path feasible (see
``BENCH_vision.json``).

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
    """Run-based two-pass CCL in pure array operations."""
    height, width = mask.shape
    # A False separator column keeps runs from spanning row boundaries when
    # the mask is flattened.
    separated = np.zeros((height, width + 1), dtype=bool)
    separated[:, :width] = mask
    flat = separated.ravel()
    if flat.size == 0:
        return np.zeros((height, width), dtype=np.int64), 0
    run_starts = np.empty_like(flat)
    run_starts[0] = flat[0]
    np.greater(flat[1:], flat[:-1], out=run_starts[1:])
    n_runs = int(np.count_nonzero(run_starts))
    if n_runs == 0:
        return np.zeros((height, width), dtype=np.int64), 0

    # Per-pixel run ids (1..n_runs, background 0) from one cumulative sum;
    # int32 halves the memory traffic of every pass below and comfortably
    # holds any frame's run count.
    run_image = np.cumsum(run_starts, dtype=np.int32)
    np.multiply(run_image, flat, out=run_image)
    run_image = run_image.reshape(height, width + 1)[:, :width]

    # Inter-row adjacencies: a run in row r is equivalent to every run its
    # pixels touch in row r-1 (directly above for 4-connectivity, plus the
    # two diagonals for 8-connectivity).
    upper, lower = run_image[:-1], run_image[1:]
    aligned_pairs = [(lower, upper)]
    if connectivity == 8 and width > 1:
        aligned_pairs.append((lower[:, 1:], upper[:, :-1]))
        aligned_pairs.append((lower[:, :-1], upper[:, 1:]))
    edges_a, edges_b = [], []
    for a, b in aligned_pairs:
        both = np.logical_and(a, b)
        pair_a = a[both]
        pair_b = b[both]
        # Two runs that overlap along k columns emit k consecutive copies
        # of the same pair; dropping consecutive duplicates removes almost
        # all redundancy in O(E) without a sort (the union-find tolerates
        # the rare repeats that survive).
        if pair_a.size > 1:
            keep = np.empty(pair_a.size, dtype=bool)
            keep[0] = True
            np.logical_or(
                pair_a[1:] != pair_a[:-1], pair_b[1:] != pair_b[:-1], out=keep[1:]
            )
            pair_a = pair_a[keep]
            pair_b = pair_b[keep]
        edges_a.append(pair_a)
        edges_b.append(pair_b)
    edge_a = np.concatenate(edges_a)
    edge_b = np.concatenate(edges_b)

    roots = _resolve_equivalences(n_runs, edge_a, edge_b)

    # Compact representatives to 1..count.  Run ids increase in raster
    # order and each component's root is its minimum run id, so ascending
    # roots number components by the raster order of their first pixels.
    component_roots = np.unique(roots[1:])
    remap = np.zeros(n_runs + 1, dtype=np.int64)
    remap[component_roots] = np.arange(1, component_roots.size + 1)
    run_to_label = remap[roots]
    return run_to_label.take(run_image), int(component_roots.size)


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
