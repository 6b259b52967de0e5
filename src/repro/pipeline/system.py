"""The end-to-end object recognition system of figure 1 / figure 6.

The paper's deployment splits the work between a CPU-side tracking system
(segmentation, connected components, histogram extraction) and the FPGA
(the bSOM identification).  :class:`RecognitionSystem` reproduces the whole
chain in one object:

1. background differencing segments moving pixels,
2. morphology cleans the mask,
3. connected-components labelling and the minimum-size filter produce
   candidate silhouettes,
4. the tracker associates silhouettes with persistent track ids,
5. each silhouette's colour histogram is binarised into a 768-bit
   signature, and
6. a trained classifier (software bSOM, cSOM, or the cycle-accurate FPGA
   model through its software-compatible interface) assigns an identity,
   with per-track majority voting to smooth single-frame errors.

Classification is batched per frame: every silhouette of a frame is scored
in one ``predict_batch`` call, and a system can alternatively be attached
to a :class:`repro.serve.StreamingInferenceService` so its frames ride the
shared micro-batching/caching/sharding path alongside other cameras
(:meth:`RecognitionSystem.attach_service`).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from repro.core.classifier import SomClassifier, UNKNOWN_LABEL
from repro.core.snapshot import ModelSnapshot
from repro.errors import (
    ConfigurationError,
    NotFittedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.pipeline.metrics import PipelineMetrics
from repro.signatures.binarize import MeanThreshold, ThresholdStrategy
from repro.signatures.histogram import rgb_histogram_batch
from repro.signatures.signature import BinarySignature
from repro.vision.background import BackgroundSubtractor
from repro.vision.blobs import Blob, extract_blobs, filter_blobs_by_area
from repro.vision.connected_components import ConnectedComponentLabeller
from repro.vision.frame import Frame
from repro.vision.morphology import binary_close, binary_open
from repro.vision.tracker import ObjectTracker


@dataclass
class RecognitionSystemConfig:
    """Configuration of the end-to-end pipeline.

    Attributes
    ----------
    difference_threshold:
        Background-differencing threshold (0-255).
    morphology_radius:
        Radius of the opening/closing applied to the foreground mask.
    min_blob_area:
        Minimum silhouette size in pixels (the paper's rule scaled to the
        frame size; see :mod:`repro.vision.blobs`).
    bins_per_channel:
        Histogram resolution (256 in the paper, 768-bit signatures).
    vote_window:
        Number of recent per-frame identity votes kept per track for the
        majority decision.
    """

    difference_threshold: float = 28.0
    morphology_radius: int = 1
    min_blob_area: int = 150
    bins_per_channel: int = 256
    vote_window: int = 15

    def __post_init__(self) -> None:
        if self.min_blob_area < 0:
            raise ConfigurationError(
                f"min_blob_area must be non-negative, got {self.min_blob_area}"
            )
        if self.vote_window <= 0:
            raise ConfigurationError(
                f"vote_window must be positive, got {self.vote_window}"
            )


@dataclass(frozen=True)
class FrameObservation:
    """One identified object in one frame."""

    frame_index: int
    track_id: int
    label: int
    distance: float
    signature: BinarySignature
    blob: Blob


@dataclass
class TrackIdentity:
    """Accumulated identity evidence for one track."""

    track_id: int
    votes: list[int] = field(default_factory=list)

    def add_vote(self, label: int, window: int) -> None:
        self.votes.append(int(label))
        if len(self.votes) > window:
            del self.votes[: len(self.votes) - window]

    @property
    def label(self) -> int:
        """Majority label over the retained votes (unknown if no votes)."""
        if not self.votes:
            return UNKNOWN_LABEL
        counts = Counter(self.votes)
        label, _ = counts.most_common(1)[0]
        return int(label)


class RecognitionSystem:
    """Figure-1 pipeline: frames in, identified tracks out.

    Parameters
    ----------
    classifier:
        A fitted :class:`~repro.core.classifier.SomClassifier` (its SOM may
        be the software bSOM, the cSOM baseline, or the FPGA model wrapped
        through :meth:`repro.hw.fpga_bsom.FpgaBsomDesign.to_software`), or a
        fitted :class:`~repro.core.snapshot.ModelSnapshot` -- the lifecycle
        currency -- which is materialised into a private classifier here
        (the deployment pattern: cameras consume the same frozen snapshot
        the registry serves).
    config:
        Pipeline configuration.
    strategy:
        Histogram binarisation rule (paper: mean threshold).
    """

    def __init__(
        self,
        classifier: SomClassifier | ModelSnapshot,
        config: RecognitionSystemConfig | None = None,
        strategy: ThresholdStrategy | None = None,
    ):
        if isinstance(classifier, ModelSnapshot):
            classifier = classifier.to_classifier()
        if classifier.labelling is None:
            raise NotFittedError(
                "the classifier must be fitted (or labelled) before building the "
                "recognition system"
            )
        self.classifier = classifier
        self.config = config or RecognitionSystemConfig()
        self.strategy = strategy or MeanThreshold()
        self.subtractor = BackgroundSubtractor(
            threshold=self.config.difference_threshold
        )
        self.labeller = ConnectedComponentLabeller(connectivity=8)
        self.tracker = ObjectTracker()
        self.metrics = PipelineMetrics()
        self._identities: dict[int, TrackIdentity] = defaultdict(
            lambda: TrackIdentity(track_id=-1)
        )
        self.frames_processed = 0
        self._service = None
        self._service_model: Optional[str] = None
        self.stream_id = "camera-0"

    # ------------------------------------------------------------------ #
    # Serving integration
    # ------------------------------------------------------------------ #
    def attach_service(
        self, service, model: str, *, stream_id: Optional[str] = None
    ) -> None:
        """Route this system's classifications through a streaming service.

        Parameters
        ----------
        service:
            A running :class:`repro.serve.StreamingInferenceService`.
        model:
            Registry name of the model to classify with.  The service's
            model does not have to be ``self.classifier`` -- a system can
            segment/track locally while a central registry serves a newer
            map snapshot.
        stream_id:
            Camera name reported with every request; defaults to
            :attr:`stream_id`.
        """
        served = service.registry.classifier(model)  # fail fast on unknown names
        expected_bits = 3 * self.config.bins_per_channel
        if served.som.n_bits != expected_bits:
            raise ConfigurationError(
                f"model {model!r} expects {served.som.n_bits}-bit signatures but "
                f"this system extracts {expected_bits}-bit signatures "
                f"({self.config.bins_per_channel} bins per channel)"
            )
        self._service = service
        self._service_model = model
        if stream_id is not None:
            self.stream_id = stream_id

    def detach_service(self) -> None:
        """Go back to classifying in-process with ``self.classifier``."""
        self._service = None
        self._service_model = None

    @property
    def service_attached(self) -> bool:
        return self._service is not None

    #: Attempts against a saturated service before falling back in-process.
    SERVICE_BACKPRESSURE_RETRIES = 20
    SERVICE_BACKPRESSURE_BACKOFF_S = 0.002

    def _classify_batch(self, signatures: np.ndarray):
        """(labels, distances) for a frame's stacked signatures.

        Backpressure from the attached service (raised by ``submit`` or
        re-raised from a shed batch's futures) is retried with a short
        backoff; any other service failure (model evicted mid-stream,
        service stopped, response timeout) falls back immediately.  Either
        way the frame is ultimately classified in-process with
        ``self.classifier`` so :meth:`process_frame` always completes --
        the tracker has already consumed the frame by the time
        classification runs, so raising here would corrupt track state on a
        retry.
        """
        if self._service is not None:
            for _ in range(self.SERVICE_BACKPRESSURE_RETRIES):
                try:
                    responses = self._service.classify(
                        self._service_model, signatures, stream_id=self.stream_id
                    )
                except ServiceOverloadedError:
                    time.sleep(self.SERVICE_BACKPRESSURE_BACKOFF_S)
                    continue
                except ServiceError:
                    break
                labels = [response.label for response in responses]
                distances = [response.distance for response in responses]
                return labels, distances
        prediction = self.classifier.predict_batch(signatures)
        return prediction.labels.tolist(), prediction.distances.tolist()

    # ------------------------------------------------------------------ #
    # Per-frame processing
    # ------------------------------------------------------------------ #
    def initialise_background(self, image: np.ndarray) -> None:
        """Prime the background model with a clean plate."""
        self.subtractor.initialise(image)

    def segment(self, image: np.ndarray) -> list[Blob]:
        """Segment candidate object silhouettes from one frame.

        Each stage (background differencing, morphology, labelling, blob
        extraction) is timed into :attr:`metrics`.
        """
        start = perf_counter()
        foreground = self.subtractor.apply(image)
        tick = perf_counter()
        self.metrics.record_stage("background", tick - start)
        if self.config.morphology_radius > 0:
            foreground = binary_close(
                binary_open(foreground, self.config.morphology_radius),
                self.config.morphology_radius,
            )
        tock = perf_counter()
        self.metrics.record_stage("morphology", tock - tick)
        labels, count = self.labeller.label(foreground)
        tick = perf_counter()
        self.metrics.record_stage("label", tick - tock)
        blobs = filter_blobs_by_area(
            extract_blobs(labels, count), self.config.min_blob_area
        )
        self.metrics.record_stage("blobs", perf_counter() - tick)
        return blobs

    def _frame_signatures(self, image: np.ndarray, blobs: list[Blob]) -> list[BinarySignature]:
        """Signatures for all of a frame's blobs.

        Every silhouette is histogrammed in one offset-``bincount`` call
        over the blobs' cropped masks, then binarised as one batch.
        """
        histograms = rgb_histogram_batch(
            image,
            [(blob.bounding_box, blob.crop_mask()) for blob in blobs],
            self.config.bins_per_channel,
        )
        return [
            BinarySignature(bits=bits)
            for bits in self.strategy.binarize_batch(histograms)
        ]

    def process_frame(self, frame: Frame) -> list[FrameObservation]:
        """Run the full pipeline on one frame and return the identifications.

        All of a frame's silhouettes are classified in one batch -- either
        through the attached streaming service or directly via
        :meth:`~repro.core.SomClassifier.predict_batch`.
        """
        frame_start = perf_counter()
        blobs = self.segment(frame.image)
        tick = perf_counter()
        assignments = self.tracker.update(frame.index, blobs)
        tock = perf_counter()
        self.metrics.record_stage("track", tock - tick)
        observations: list[FrameObservation] = []
        if assignments:
            tracked = list(assignments.items())
            signatures = self._frame_signatures(
                frame.image, [blob for _, blob in tracked]
            )
            stacked = np.vstack([signature.bits for signature in signatures])
            tick = perf_counter()
            self.metrics.record_stage("signature", tick - tock)
            labels, distances = self._classify_batch(stacked)
            self.metrics.record_stage("classify", perf_counter() - tick)
            for (track_id, blob), signature, label, distance in zip(
                tracked, signatures, labels, distances
            ):
                identity = self._identities[track_id]
                identity.track_id = track_id
                identity.add_vote(label, self.config.vote_window)
                observations.append(
                    FrameObservation(
                        frame_index=frame.index,
                        track_id=track_id,
                        label=int(label),
                        distance=float(distance),
                        signature=signature,
                        blob=blob,
                    )
                )
        self.frames_processed += 1
        self.metrics.record_frame(perf_counter() - frame_start)
        return observations

    def process_sequence(self, frames) -> list[FrameObservation]:
        """Process an iterable of frames and return all observations."""
        observations: list[FrameObservation] = []
        for frame in frames:
            observations.extend(self.process_frame(frame))
        return observations

    # ------------------------------------------------------------------ #
    # Track-level results
    # ------------------------------------------------------------------ #
    def track_identity(self, track_id: int) -> int:
        """Majority-vote identity of a track (unknown if never observed)."""
        if track_id not in self._identities:
            return UNKNOWN_LABEL
        return self._identities[track_id].label

    def track_identities(self) -> dict[int, int]:
        """Majority-vote identity of every track seen so far."""
        return {
            track_id: identity.label
            for track_id, identity in self._identities.items()
        }
