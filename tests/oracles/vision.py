"""Reference implementations of the vision front-end, kept as parity oracles.

Each definition here is a plain version of a stage that
:mod:`repro.vision` implements with array-level numpy; all but the float32
background references are the seed's:

* :func:`label_components_oracle` -- the two-pass per-pixel labeller with a
  scalar union-find.  It numbers components by the raster position of
  their first pixel, as the run-based labeller does, so the two label
  images are identical, not merely equal up to renumbering;
* ``binary_{dilate,erode,open,close}_oracle`` -- ``O(r^2)`` full-kernel
  morphology over shifted copies of the mask, with the production border
  rule (outside the frame is background for dilation, foreground for
  erosion);
* :func:`extract_blobs_oracle` -- one full-frame rescan per label;
* :class:`SeedBackgroundSubtractor` -- a float64 running average updated
  out of place, differenced through a clipped uint8 estimate and int16
  arithmetic;
* :func:`float32_foreground_reference` and :func:`float32_blend_reference`
  -- the production background step's float32 arithmetic written out of
  place, which the in-place model must match bit for bit;
* :class:`SeedRecognitionSystem` -- the figure-1 system assembled from the
  oracles above plus per-blob :func:`repro.signatures.rgb_histogram` and
  :func:`repro.signatures.binarize_histogram`.  It is what the end-to-end
  parity test compares the production system against.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.pipeline import RecognitionSystem
from repro.signatures import BinarySignature, binarize_histogram, rgb_histogram
from repro.vision import BackgroundModel, BackgroundSubtractor, Blob, filter_blobs_by_area


def _as_2d(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    if array.ndim != 2:
        raise DataError(f"expected a 2-D array, got shape {array.shape}")
    return array


# --------------------------------------------------------------------- #
# Connected components
# --------------------------------------------------------------------- #
class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._rank: list[int] = []

    def make_set(self) -> int:
        """Create a new singleton set and return its element id."""
        element = len(self._parent)
        self._parent.append(element)
        self._rank.append(0)
        return element

    def find(self, element: int) -> int:
        """Return the representative of ``element``'s set (with compression)."""
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets containing ``a`` and ``b``; return the new root."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return root_a
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        return root_a

    def __len__(self) -> int:
        return len(self._parent)


def label_components_oracle(
    mask: np.ndarray, connectivity: int = 8
) -> tuple[np.ndarray, int]:
    """Two-pass per-pixel labelling; returns ``(labels, count)``."""
    if connectivity not in (4, 8):
        raise ConfigurationError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = _as_2d(mask).astype(bool)
    height, width = mask.shape
    provisional = np.zeros((height, width), dtype=np.int64)
    uf = UnionFind()
    uf.make_set()  # element 0 is the background label

    if connectivity == 4:
        neighbour_offsets = ((-1, 0), (0, -1))
    else:
        neighbour_offsets = ((-1, -1), (-1, 0), (-1, 1), (0, -1))

    for row in range(height):
        for col in range(width):
            if not mask[row, col]:
                continue
            neighbour_labels = []
            for dy, dx in neighbour_offsets:
                nr, nc = row + dy, col + dx
                if 0 <= nr < height and 0 <= nc < width and provisional[nr, nc]:
                    neighbour_labels.append(provisional[nr, nc])
            if not neighbour_labels:
                provisional[row, col] = uf.make_set()
            else:
                smallest = min(neighbour_labels)
                provisional[row, col] = smallest
                for other in neighbour_labels:
                    uf.union(smallest, other)

    # Second pass: map provisional labels to compact 1..n representatives.
    representative_of: dict[int, int] = {}
    labels = np.zeros((height, width), dtype=np.int64)
    next_label = 0
    rows, cols = np.nonzero(provisional)
    for row, col in zip(rows, cols):
        root = uf.find(int(provisional[row, col]))
        label = representative_of.get(root)
        if label is None:
            next_label += 1
            label = next_label
            representative_of[root] = label
        labels[row, col] = label
    return labels, next_label


# --------------------------------------------------------------------- #
# Morphology
# --------------------------------------------------------------------- #
def _shifted(mask: np.ndarray, dy: int, dx: int, fill: bool) -> np.ndarray:
    """Shift ``mask`` by (dy, dx), padding with ``fill``."""
    result = np.full_like(mask, fill)
    h, w = mask.shape
    if abs(dy) >= h or abs(dx) >= w:
        return result
    src_y = slice(max(0, -dy), min(h, h - dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    result[dst_y, dst_x] = mask[src_y, src_x]
    return result


def _full_kernel(mask: np.ndarray, radius: int, erode: bool) -> np.ndarray:
    mask = _as_2d(mask).astype(bool)
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    result = mask.copy()
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dy == 0 and dx == 0:
                continue
            if erode:
                result &= _shifted(mask, dy, dx, fill=True)
            else:
                result |= _shifted(mask, dy, dx, fill=False)
    return result


def binary_dilate_oracle(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Full-kernel dilation (oracle for :func:`repro.vision.binary_dilate`)."""
    return _full_kernel(mask, radius, erode=False)


def binary_erode_oracle(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Full-kernel erosion (oracle for :func:`repro.vision.binary_erode`)."""
    return _full_kernel(mask, radius, erode=True)


def binary_open_oracle(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Full-kernel opening (oracle for :func:`repro.vision.binary_open`)."""
    return binary_dilate_oracle(binary_erode_oracle(mask, radius), radius)


def binary_close_oracle(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Full-kernel closing (oracle for :func:`repro.vision.binary_close`)."""
    return binary_erode_oracle(binary_dilate_oracle(mask, radius), radius)


# --------------------------------------------------------------------- #
# Blobs
# --------------------------------------------------------------------- #
def extract_blobs_oracle(labels: np.ndarray, count: int | None = None) -> list[Blob]:
    """One full-frame rescan per label (oracle for :func:`repro.vision.extract_blobs`)."""
    labels = _as_2d(labels)
    if count is None:
        count = int(labels.max(initial=0))
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    blobs: list[Blob] = []
    for label in range(1, count + 1):
        mask = labels == label
        area = int(mask.sum())
        if area == 0:
            continue
        rows, cols = np.nonzero(mask)
        top, left = int(rows.min()), int(cols.min())
        bottom, right = int(rows.max()) + 1, int(cols.max()) + 1
        blobs.append(
            Blob(
                label=label,
                area=area,
                bounding_box=(top, left, bottom, right),
                centroid=(float(rows.mean()), float(cols.mean())),
                frame_shape=(int(labels.shape[0]), int(labels.shape[1])),
                cropped=mask[top:bottom, left:right],
            )
        )
    return blobs


# --------------------------------------------------------------------- #
# Background
# --------------------------------------------------------------------- #
class SeedBackgroundModel(BackgroundModel):
    """The running average kept in float64 and replaced on every update."""

    def initialise(self, image: np.ndarray) -> None:
        self._estimate = self._validate(image).astype(np.float64)

    def update(self, image: np.ndarray, foreground: np.ndarray | None = None) -> None:
        image = self._validate(image)
        if self._estimate is None:
            self.initialise(image)
            return
        foreground = self._validate_foreground(foreground, image)
        alpha = self.learning_rate
        if foreground is not None:
            blend = np.where(foreground[..., np.newaxis], 0.0, alpha)
        else:
            blend = alpha
        self._estimate = (1.0 - blend) * self._estimate + blend * image.astype(np.float64)


class SeedBackgroundSubtractor(BackgroundSubtractor):
    """Differencing against the uint8-quantised estimate in int16."""

    def __init__(
        self,
        threshold: float = 28.0,
        *,
        learning_rate: float = 0.02,
        selective: bool = True,
    ):
        super().__init__(threshold, learning_rate=learning_rate, selective=selective)
        self.model = SeedBackgroundModel(learning_rate=learning_rate, selective=selective)

    def apply(self, image: np.ndarray) -> np.ndarray:
        image = BackgroundModel._validate(image)
        if not self.model.initialised:
            self.model.initialise(image)
            return np.zeros(image.shape[:2], dtype=bool)
        difference = np.abs(
            image.astype(np.int16) - self.model.estimate.astype(np.int16)
        ).max(axis=2)
        foreground = difference > self.threshold
        self.model.update(image, foreground)
        return foreground


def float32_foreground_reference(
    estimate: np.ndarray, image: np.ndarray, threshold: float
) -> np.ndarray:
    """Pixels whose largest channel difference from ``estimate`` exceeds
    ``threshold``, in float32."""
    return np.abs(image.astype(np.float32) - estimate).max(axis=2) > threshold


def float32_blend_reference(
    estimate: np.ndarray,
    image: np.ndarray,
    learning_rate: float,
    foreground: np.ndarray,
) -> np.ndarray:
    """``estimate + alpha * (image - estimate)`` in float32, except on
    ``foreground``, where the estimate is kept."""
    step = (image.astype(np.float32) - estimate) * np.float32(learning_rate)
    step[foreground] = 0.0
    return estimate + step


# --------------------------------------------------------------------- #
# End-to-end system
# --------------------------------------------------------------------- #
class SeedRecognitionSystem(RecognitionSystem):
    """:class:`~repro.pipeline.RecognitionSystem` on the seed front-end.

    Segmentation runs the oracles above and every blob is histogrammed
    separately over its full-frame mask; tracking, classification and
    voting are the production system's.  Stage timings are recorded into
    :attr:`metrics` under the production stage names.
    """

    def __init__(self, classifier, config=None, strategy=None):
        super().__init__(classifier, config, strategy)
        self.subtractor = SeedBackgroundSubtractor(
            threshold=self.config.difference_threshold
        )

    def segment(self, image: np.ndarray) -> list[Blob]:
        start = perf_counter()
        foreground = self.subtractor.apply(image)
        tick = perf_counter()
        self.metrics.record_stage("background", tick - start)
        radius = self.config.morphology_radius
        if radius > 0:
            foreground = binary_close_oracle(binary_open_oracle(foreground, radius), radius)
        tock = perf_counter()
        self.metrics.record_stage("morphology", tock - tick)
        labels, count = label_components_oracle(foreground, 8)
        tick = perf_counter()
        self.metrics.record_stage("label", tick - tock)
        blobs = filter_blobs_by_area(
            extract_blobs_oracle(labels, count), self.config.min_blob_area
        )
        self.metrics.record_stage("blobs", perf_counter() - tick)
        return blobs

    def _frame_signatures(
        self, image: np.ndarray, blobs: list[Blob]
    ) -> list[BinarySignature]:
        return [
            BinarySignature(
                bits=binarize_histogram(
                    rgb_histogram(image, blob.mask, self.config.bins_per_channel),
                    self.strategy,
                )
            )
            for blob in blobs
        ]
