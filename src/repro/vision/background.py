"""Background modelling and foreground segmentation.

The paper's upstream pipeline segments moving objects by *background
differencing* (the companion paper [2] accelerates exactly this stage on
FPGA).  This module provides a classic running-average background model
with a per-pixel difference threshold:

* the background estimate is updated as an exponential moving average of
  the incoming frames, restricted to pixels currently classified as
  background so that slow lighting drift is absorbed but loitering objects
  are not, and
* a pixel is foreground when the maximum absolute difference over the RGB
  channels exceeds ``threshold``.

The estimate is a float32 image updated **in place** through one
preallocated scratch buffer, the differencing path reads the raw float
estimate directly through :attr:`BackgroundModel.estimate_float`, and the
per-pixel channel maximum is taken with two pairwise ``np.maximum`` calls
(a reduction over the tiny contiguous channel axis is ~75x slower in
numpy).  The seed implementation -- a float64 out-of-place EMA and a
differencing path that round-trips the estimate through a clipped uint8
copy and back to int16 every frame -- is kept in
``tests/oracles/vision.py`` as the reference the update-semantics tests
and the throughput benchmark's seed front-end use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError


class BackgroundModel:
    """Exponential running-average background estimate.

    Parameters
    ----------
    learning_rate:
        Fraction of the new frame blended into the background estimate each
        update (``alpha`` in the classic formulation).
    selective:
        When ``True`` (default) only pixels classified as background are
        updated, so stationary foreground objects do not get absorbed.
    """

    def __init__(self, learning_rate: float = 0.02, selective: bool = True):
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError(
                f"learning_rate must lie in (0, 1], got {learning_rate}"
            )
        self.learning_rate = float(learning_rate)
        self.selective = bool(selective)
        self._estimate: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    @property
    def initialised(self) -> bool:
        """Whether at least one frame has been absorbed."""
        return self._estimate is not None

    @property
    def estimate(self) -> np.ndarray:
        """Current background estimate as a uint8 image."""
        if self._estimate is None:
            raise DataError("background model has not seen any frames yet")
        return np.clip(self._estimate, 0, 255).astype(np.uint8)

    @property
    def estimate_float(self) -> np.ndarray:
        """Raw float background estimate (read-only view, no quantisation).

        This is what the differencing hot path consumes; mutate the model
        only through :meth:`update` / :meth:`initialise`.
        """
        if self._estimate is None:
            raise DataError("background model has not seen any frames yet")
        view = self._estimate.view()
        view.flags.writeable = False
        return view

    def initialise(self, image: np.ndarray) -> None:
        """Set the background estimate directly from a clean plate."""
        self._estimate = self._validate(image).astype(np.float32)
        self._scratch = np.empty_like(self._estimate)

    def update(self, image: np.ndarray, foreground: np.ndarray | None = None) -> None:
        """Blend ``image`` into the estimate.

        Parameters
        ----------
        image:
            New frame.
        foreground:
            Optional boolean mask of pixels to exclude from the update
            (only honoured when the model is selective).
        """
        image = self._validate(image)
        if self._estimate is None:
            self.initialise(image)
            return
        foreground = self._validate_foreground(foreground, image)
        # estimate += alpha * (image - estimate), masked, in place.
        scratch = self._scratch
        np.subtract(image, self._estimate, out=scratch, casting="unsafe")
        np.multiply(scratch, np.float32(self.learning_rate), out=scratch)
        if foreground is not None:
            scratch[foreground] = 0.0
        np.add(self._estimate, scratch, out=self._estimate)

    def _validate_foreground(
        self, foreground: np.ndarray | None, image: np.ndarray
    ) -> np.ndarray | None:
        if not self.selective or foreground is None:
            return None
        foreground = np.asarray(foreground, dtype=bool)
        if foreground.shape != image.shape[:2]:
            raise DataError(
                f"foreground mask shape {foreground.shape} does not match frame "
                f"shape {image.shape[:2]}"
            )
        return foreground

    @staticmethod
    def _validate(image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        if image.ndim != 3 or image.shape[2] != 3:
            raise DataError(f"expected an HxWx3 frame, got shape {image.shape}")
        return image


class BackgroundSubtractor:
    """Foreground segmentation by thresholded background differencing.

    Parameters
    ----------
    threshold:
        Minimum per-channel absolute difference (0-255) for a pixel to be
        declared foreground.
    learning_rate, selective:
        Forwarded to the underlying :class:`BackgroundModel`.
    """

    def __init__(
        self,
        threshold: float = 28.0,
        *,
        learning_rate: float = 0.02,
        selective: bool = True,
    ):
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        self.threshold = float(threshold)
        self.model = BackgroundModel(learning_rate=learning_rate, selective=selective)
        self._diff: np.ndarray | None = None
        self._channel_max: np.ndarray | None = None

    def initialise(self, image: np.ndarray) -> None:
        """Initialise the background from a clean plate (no moving objects)."""
        self.model.initialise(image)

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Segment ``image``; returns the boolean foreground mask.

        The model is updated after segmentation (selectively, if enabled),
        so calling :meth:`apply` frame after frame tracks lighting drift.
        """
        image = BackgroundModel._validate(image)
        if not self.model.initialised:
            self.model.initialise(image)
            return np.zeros(image.shape[:2], dtype=bool)
        estimate = self.model.estimate_float
        if self._diff is None or self._diff.shape != image.shape:
            self._diff = np.empty(image.shape, dtype=np.float32)
            self._channel_max = np.empty(image.shape[:2], dtype=np.float32)
        diff, channel_max = self._diff, self._channel_max
        np.subtract(image, estimate, out=diff, casting="unsafe")
        np.abs(diff, out=diff)
        np.maximum(diff[:, :, 0], diff[:, :, 1], out=channel_max)
        np.maximum(channel_max, diff[:, :, 2], out=channel_max)
        foreground = channel_max > self.threshold
        self.model.update(image, foreground)
        return foreground
