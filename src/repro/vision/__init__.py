"""Video segmentation and tracking substrate (the CPU side of figure 1).

The paper's identification stage sits downstream of a conventional
segmentation-and-tracking pipeline (background differencing, connected
components analysis and a model-free tracker) that runs on a PC and emits a
colour histogram for every moving object in every frame.  This subpackage
implements that substrate from scratch:

* :mod:`repro.vision.frame` -- frame and video-sequence containers,
* :mod:`repro.vision.synthetic` -- a deterministic synthetic surveillance
  scene generator standing in for the paper's two-hour indoor recording,
* :mod:`repro.vision.background` -- running-average background model
  (float32, updated in place) and frame differencing,
* :mod:`repro.vision.morphology` -- separable binary erosion / dilation /
  opening / closing used to clean the foreground mask,
* :mod:`repro.vision.connected_components` -- run-based
  connected-components labelling in array operations,
* :mod:`repro.vision.blobs` -- single-pass blob extraction (silhouettes,
  bounding boxes, centroids) and the paper's minimum-size noise filter,
* :mod:`repro.vision.tracker` -- a nearest-neighbour frame-to-frame tracker
  that maintains persistent object identities.

Each stage has one implementation.  The seed implementations of the
background, morphology, labelling and blob stages are kept as parity
oracles in ``tests/oracles/vision.py``, outside the package.
"""

from repro.vision.frame import Frame, VideoSequence
from repro.vision.synthetic import (
    ActorSpec,
    SceneConfig,
    SyntheticSurveillanceScene,
    default_actor_palette,
)
from repro.vision.background import BackgroundModel, BackgroundSubtractor
from repro.vision.morphology import (
    binary_dilate,
    binary_erode,
    binary_open,
    binary_close,
)
from repro.vision.connected_components import ConnectedComponentLabeller, label_components
from repro.vision.blobs import Blob, extract_blobs, filter_blobs_by_area
from repro.vision.tracker import ObjectTracker, Track, TrackState

__all__ = [
    "Frame",
    "VideoSequence",
    "ActorSpec",
    "SceneConfig",
    "SyntheticSurveillanceScene",
    "default_actor_palette",
    "BackgroundModel",
    "BackgroundSubtractor",
    "binary_dilate",
    "binary_erode",
    "binary_open",
    "binary_close",
    "ConnectedComponentLabeller",
    "label_components",
    "Blob",
    "extract_blobs",
    "filter_blobs_by_area",
    "ObjectTracker",
    "Track",
    "TrackState",
]
