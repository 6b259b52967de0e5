"""The paper's primary contribution: the tri-state binary SOM and baselines.

This subpackage contains everything needed to train and use the binary
Self-Organising Map (bSOM) described in the paper, alongside the
conventional Kohonen SOM (cSOM) it is benchmarked against in Table I:

* :mod:`repro.core.tristate` -- the {0, 1, #} weight representation,
* :mod:`repro.core.distance` -- Hamming distances with don't-care masking,
* :mod:`repro.core.backends` -- the distance kernel: masked Hamming
  distance over packed ``uint64`` care/value words, with
  version-invalidated operand caching,
* :mod:`repro.core.topology` -- neuron topologies and the shrinking
  neighbourhood schedule of section V-D,
* :mod:`repro.core.bsom` -- the tri-state training rules,
* :mod:`repro.core.csom` -- the real-valued Kohonen baseline,
* :mod:`repro.core.labelling` -- win-frequency node labelling,
* :mod:`repro.core.classifier` -- the identification wrapper with unknown
  rejection (section III-B),
* :mod:`repro.core.novelty` -- rejection-threshold calibration and novelty
  detection (used by the on-line extension),
* :mod:`repro.core.snapshot` -- the immutable :class:`ModelSnapshot`, the
  single currency persistence and serving exchange, and
* :mod:`repro.core.serialization` -- the codec registry turning models into
  snapshots and snapshots into self-describing ``.npz`` archives
  (format v2; v1 archives remain loadable).
"""

from repro.core.tristate import (
    DONT_CARE,
    TriStateWeights,
    random_tristate,
    tristate_from_binary,
)
from repro.core.distance import hamming_distance, masked_hamming_distance
from repro.core.backends import DistanceBackend, PackedBackend, PreparedOperandCache
from repro.core.topology import (
    Topology,
    LinearTopology,
    RingTopology,
    Grid2DTopology,
    NeighbourhoodSchedule,
    StepwiseNeighbourhoodSchedule,
    ConstantNeighbourhoodSchedule,
)
from repro.core.som import SelfOrganisingMap, TrainingHistory
from repro.core.bsom import BinarySom, BsomUpdateRule
from repro.core.csom import KohonenSom, LearningRateSchedule
from repro.core.labelling import NodeLabeller, LabelledMap
from repro.core.classifier import (
    SomClassifier,
    PredictionResult,
    BatchPrediction,
    UNKNOWN_LABEL,
)
from repro.core.novelty import NoveltyDetector, calibrate_rejection_threshold
from repro.core.snapshot import DeltaSnapshot, ModelSnapshot, SnapshotLabelling
from repro.core.serialization import (
    LossySerializationWarning,
    build_model,
    load_delta,
    load_model,
    load_snapshot,
    register_schedule_codec,
    register_som_codec,
    register_topology_codec,
    save_delta,
    save_model,
    snapshot_model,
)

__all__ = [
    "DONT_CARE",
    "TriStateWeights",
    "random_tristate",
    "tristate_from_binary",
    "hamming_distance",
    "masked_hamming_distance",
    "DistanceBackend",
    "PackedBackend",
    "PreparedOperandCache",
    "Topology",
    "LinearTopology",
    "RingTopology",
    "Grid2DTopology",
    "NeighbourhoodSchedule",
    "StepwiseNeighbourhoodSchedule",
    "ConstantNeighbourhoodSchedule",
    "SelfOrganisingMap",
    "TrainingHistory",
    "BinarySom",
    "BsomUpdateRule",
    "KohonenSom",
    "LearningRateSchedule",
    "NodeLabeller",
    "LabelledMap",
    "SomClassifier",
    "PredictionResult",
    "BatchPrediction",
    "UNKNOWN_LABEL",
    "NoveltyDetector",
    "calibrate_rejection_threshold",
    "DeltaSnapshot",
    "ModelSnapshot",
    "SnapshotLabelling",
    "LossySerializationWarning",
    "snapshot_model",
    "build_model",
    "save_model",
    "load_model",
    "load_snapshot",
    "save_delta",
    "load_delta",
    "register_som_codec",
    "register_topology_codec",
    "register_schedule_codec",
]
