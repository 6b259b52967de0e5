"""Unknown-object rejection and novelty detection.

Section III-B: "If the minimum Hamming distance exceeds a threshold value
set during training, the object is classified as unknown."  The paper's
conclusion goes further and proposes using this novelty signal to discover
previously unseen objects and fold them into the map on-line.

This module provides both pieces:

* :func:`calibrate_rejection_threshold` chooses the distance threshold from
  the distribution of best-matching distances seen on the training set, and
* :class:`NoveltyDetector` wraps a trained SOM and flags inputs whose
  best-matching distance exceeds that threshold, keeping a small buffer of
  recent novel signatures for the on-line training extension in
  :mod:`repro.pipeline.online`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from repro.core.som import SelfOrganisingMap, validate_binary_matrix
from repro.errors import ConfigurationError


def calibrate_rejection_threshold(
    som: SelfOrganisingMap,
    X: np.ndarray,
    *,
    percentile: float = 99.0,
    margin: float = 1.0,
) -> float:
    """Choose the "unknown" rejection threshold from training distances.

    The threshold is the given ``percentile`` of the best-matching
    distances of the training set, scaled by ``margin``.  With the paper's
    defaults an input is rejected only when it matches the map worse than
    essentially every training signature did.

    Parameters
    ----------
    som:
        Trained SOM (bSOM or cSOM).
    X:
        Training signatures used for calibration.
    percentile:
        Percentile of the best-matching-distance distribution to use.
    margin:
        Multiplicative safety margin applied on top of the percentile.
    """
    _check_rejection_settings(percentile, margin)
    X = validate_binary_matrix(X, som.n_bits)
    return _rejection_threshold(som, X, percentile, margin)


def _rejection_threshold(
    som: SelfOrganisingMap, X: np.ndarray, percentile: float, margin: float
) -> float:
    """:func:`calibrate_rejection_threshold` on an ``X`` that
    :func:`~repro.core.som.validate_binary_matrix` returned."""
    _check_rejection_settings(percentile, margin)
    best = som.distance_matrix(X, validate=False).min(axis=1)
    return float(np.percentile(best, percentile)) * float(margin)


def _check_rejection_settings(percentile: float, margin: float) -> None:
    if not 0.0 < percentile <= 100.0:
        raise ConfigurationError(
            f"percentile must lie in (0, 100], got {percentile}"
        )
    if margin <= 0.0:
        raise ConfigurationError(f"margin must be positive, got {margin}")


@dataclass
class NoveltyEvent:
    """A signature flagged as novel, with the evidence for the decision."""

    signature: np.ndarray
    best_distance: float
    threshold: float
    winner: int


class NoveltyDetector:
    """Flags inputs that match the trained map poorly.

    Parameters
    ----------
    som:
        Trained SOM used to measure best-matching distances.
    threshold:
        Rejection threshold; inputs with a best-matching distance strictly
        greater than this are novel.  Usually produced by
        :func:`calibrate_rejection_threshold`.
    buffer_size:
        How many recent novel signatures to retain for later on-line
        training (the conclusion's "record the corresponding signatures").
    """

    def __init__(
        self,
        som: SelfOrganisingMap,
        threshold: float,
        *,
        buffer_size: int = 256,
    ):
        if threshold < 0:
            raise ConfigurationError(f"threshold must be non-negative, got {threshold}")
        if buffer_size <= 0:
            raise ConfigurationError(f"buffer_size must be positive, got {buffer_size}")
        self.som = som
        self.threshold = float(threshold)
        self._buffer: Deque[NoveltyEvent] = deque(maxlen=buffer_size)

    def is_novel(self, x: np.ndarray) -> bool:
        """Return ``True`` when ``x`` matches the map worse than the threshold."""
        distances = self.som.distances(x)
        winner = int(np.argmin(distances))
        best = float(distances[winner])
        novel = best > self.threshold
        if novel:
            self._buffer.append(
                NoveltyEvent(
                    signature=np.asarray(x, dtype=np.uint8).copy(),
                    best_distance=best,
                    threshold=self.threshold,
                    winner=winner,
                )
            )
        return novel

    def novel_mask(self, X: np.ndarray) -> np.ndarray:
        """Vectorised novelty decision for every row of ``X``."""
        X = validate_binary_matrix(X, self.som.n_bits)
        best = self.som.distance_matrix(X, validate=False).min(axis=1)
        return best > self.threshold

    @property
    def buffered_events(self) -> list[NoveltyEvent]:
        """Recently observed novelty events (oldest first)."""
        return list(self._buffer)

    def drain(self) -> list[NoveltyEvent]:
        """Return and clear the buffered novelty events."""
        events = list(self._buffer)
        self._buffer.clear()
        return events
