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

The estimate is a float32 image updated **in place**, and
:meth:`BackgroundSubtractor.apply` processes a frame in three steps:

1. the signed difference ``frame - estimate`` is computed once, into the
   model's preallocated scratch buffer;
2. its absolute value's per-pixel channel maximum, taken with two pairwise
   ``np.maximum`` calls (a reduction over the tiny contiguous channel axis
   is ~75x slower in numpy), is thresholded into the foreground mask;
3. the same difference, scaled by ``alpha`` and with the foreground
   pixels zeroed by flat index, is added to the estimate.

:meth:`BackgroundModel.update` runs steps 1 and 3 on a caller's mask, and
both paths reject a frame whose shape differs from the estimate's.  The
seed implementation -- a float64 out-of-place EMA and a differencing path
that round-trips the estimate through a clipped uint8 copy and back to
int16 every frame -- is kept in ``tests/oracles/vision.py``, beside a
float32 reference of the steps above that the update-semantics tests pin
this module to bit for bit.
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

        Mutate the model only through :meth:`update` / :meth:`initialise`.
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
        difference = self._difference(image)
        self._blend(difference, self._validate_foreground(foreground, image))

    def _difference(self, image: np.ndarray) -> np.ndarray:
        """Signed float32 ``image - estimate``, in the scratch buffer."""
        if image.shape != self._estimate.shape:
            raise DataError(
                f"frame shape {image.shape} does not match the background "
                f"estimate's {self._estimate.shape}"
            )
        np.subtract(image, self._estimate, out=self._scratch, casting="unsafe")
        return self._scratch

    def _blend(self, difference: np.ndarray, foreground: np.ndarray | None) -> None:
        """``estimate += alpha * difference`` except on ``foreground``.

        Works in place, and overwrites ``difference``.
        """
        np.multiply(difference, np.float32(self.learning_rate), out=difference)
        if self.selective and foreground is not None:
            difference.reshape(-1, 3)[np.flatnonzero(foreground)] = 0.0
        np.add(self._estimate, difference, out=self._estimate)

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
        self._magnitude: np.ndarray | None = None
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
        model = self.model
        if not model.initialised:
            model.initialise(image)
            return np.zeros(image.shape[:2], dtype=bool)
        difference = model._difference(image)
        if self._magnitude is None or self._magnitude.shape != image.shape:
            self._magnitude = np.empty(image.shape, dtype=np.float32)
            self._channel_max = np.empty(image.shape[:2], dtype=np.float32)
        magnitude, channel_max = self._magnitude, self._channel_max
        np.abs(difference, out=magnitude)
        np.maximum(magnitude[:, :, 0], magnitude[:, :, 1], out=channel_max)
        np.maximum(channel_max, magnitude[:, :, 2], out=channel_max)
        foreground = channel_max > self.threshold
        model._blend(difference, foreground)
        return foreground
