"""Blob extraction from labelled masks, and the paper's size filter.

After connected components labelling each foreground region becomes a
*blob*: its silhouette mask, bounding box, centroid and area.  The paper
filters blobs with fewer than 768 pixels as noise -- this "also avoids
values of theta < 1" in the binarisation equation, because a silhouette
with at least as many pixels as histogram bins guarantees a mean bin count
of at least one.

:func:`extract_blobs` derives every blob of a frame from one flat scan of
the label image: ``np.flatnonzero(labels > 0)`` gives the labelled pixels
in raster order, a stable argsort groups them by label, and areas,
bounding boxes and centroids fall out of segment reductions
(``np.minimum/maximum/add.reduceat``) over the grouped rows and columns.
The seed's full-frame rescan per label is kept as a parity oracle in
``tests/oracles/vision.py``.  Blobs store only their *cropped* silhouette;
the full-frame :attr:`Blob.mask` view is materialised lazily on first
access and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError, DataError

#: The paper's noise filter: silhouettes below this many pixels are dropped.
PAPER_MIN_BLOB_AREA = 768


@dataclass(frozen=True)
class Blob:
    """A segmented foreground region.

    Attributes
    ----------
    label:
        The connected-component label this blob came from.
    area:
        Number of foreground pixels.
    bounding_box:
        ``(top, left, bottom, right)`` -- bottom/right are exclusive.
    centroid:
        ``(row, column)`` centre of mass.
    frame_shape:
        ``(height, width)`` of the frame the blob was segmented from.
    cropped:
        Boolean silhouette cropped to the bounding box (the stored
        representation; the full-frame :attr:`mask` is derived from it).
    """

    label: int
    area: int
    bounding_box: tuple[int, int, int, int]
    centroid: tuple[float, float]
    frame_shape: tuple[int, int]
    cropped: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def mask(self) -> np.ndarray:
        """Full-frame boolean silhouette (lazily materialised and cached)."""
        full = np.zeros(self.frame_shape, dtype=bool)
        top, left, bottom, right = self.bounding_box
        full[top:bottom, left:right] = self.cropped
        return full

    @property
    def height(self) -> int:
        top, _, bottom, _ = self.bounding_box
        return bottom - top

    @property
    def width(self) -> int:
        _, left, _, right = self.bounding_box
        return right - left

    def crop(self, image: np.ndarray) -> np.ndarray:
        """Crop ``image`` to this blob's bounding box."""
        top, left, bottom, right = self.bounding_box
        return image[top:bottom, left:right]

    def crop_mask(self) -> np.ndarray:
        """The silhouette cropped to its bounding box."""
        return self.cropped


def _validate_labels(labels: np.ndarray, count: int | None) -> tuple[np.ndarray, int]:
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise DataError(f"expected a 2-D label image, got shape {labels.shape}")
    if labels.dtype.kind not in "biu":
        raise DataError(f"expected an integer label image, got dtype {labels.dtype}")
    if count is None:
        count = int(labels.max(initial=0))
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    return labels, count


def extract_blobs(labels: np.ndarray, count: int | None = None) -> list[Blob]:
    """Build :class:`Blob` objects from a labelled component image.

    One vectorized pass: the flat indices of the labelled pixels are
    grouped by label with a stable argsort (which preserves raster order
    inside each group, so row extrema are the group's first/last elements),
    then areas, bounding boxes and centroid sums all fall out of segment
    reductions.

    Parameters
    ----------
    labels:
        Integer (or boolean) label image from
        :func:`repro.vision.connected_components.label_components`.  Other
        dtypes raise :class:`~repro.errors.DataError`.
    count:
        Number of components; inferred from ``labels.max()`` when omitted.
        Labels below 1 or greater than ``count`` are ignored.
    """
    labels, count = _validate_labels(labels, count)
    if count == 0:
        return []
    pixels = np.flatnonzero(labels > 0)
    if pixels.size == 0:
        return []
    values = labels.ravel()[pixels]
    order = np.argsort(values, kind="stable")
    values = values[order]
    rows, cols = np.divmod(pixels[order], labels.shape[1])

    boundaries = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [values.size]))
    present = values[starts]
    # The reduceat calls run over *every* segment (a reduceat segment spans
    # from one start to the next, so dropping starts first would leak the
    # dropped labels' pixels into the preceding kept segment); labels above
    # ``count`` are filtered afterwards.
    areas = ends - starts
    # Raster order within each segment: rows are non-decreasing, so the
    # vertical extent is just the segment's first and last row.
    tops = rows[starts]
    bottoms = rows[ends - 1] + 1
    lefts = np.minimum.reduceat(cols, starts)
    rights = np.maximum.reduceat(cols, starts) + 1
    row_sums = np.add.reduceat(rows, starts)
    col_sums = np.add.reduceat(cols, starts)
    keep = present <= count
    if not keep.all():
        present, areas = present[keep], areas[keep]
        tops, bottoms = tops[keep], bottoms[keep]
        lefts, rights = lefts[keep], rights[keep]
        row_sums, col_sums = row_sums[keep], col_sums[keep]
    if present.size == 0:
        return []

    frame_shape = (int(labels.shape[0]), int(labels.shape[1]))
    blobs: list[Blob] = []
    for i in range(present.size):
        top, left = int(tops[i]), int(lefts[i])
        bottom, right = int(bottoms[i]), int(rights[i])
        label = int(present[i])
        cropped = labels[top:bottom, left:right] == label
        blobs.append(
            Blob(
                label=label,
                area=int(areas[i]),
                bounding_box=(top, left, bottom, right),
                centroid=(
                    float(row_sums[i] / areas[i]),
                    float(col_sums[i] / areas[i]),
                ),
                frame_shape=frame_shape,
                cropped=cropped,
            )
        )
    return blobs


def filter_blobs_by_area(
    blobs: list[Blob], min_area: int = PAPER_MIN_BLOB_AREA
) -> list[Blob]:
    """Drop blobs smaller than ``min_area`` pixels (the paper's noise rule)."""
    if min_area < 0:
        raise ConfigurationError(f"min_area must be non-negative, got {min_area}")
    return [blob for blob in blobs if blob.area >= min_area]
