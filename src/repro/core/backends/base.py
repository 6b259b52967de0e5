"""The distance-kernel interface.

A *distance kernel* computes masked Hamming distances between tri-state
neuron weights and binary inputs (equation 3 of the paper) over operands
it derives from the weights.  The split mirrors the paper's hardware
design: the FPGA stores each neuron as two BlockRAM bit-planes and a
dedicated Hamming unit consumes them bit-parallel.  The production kernel
(:class:`~repro.core.backends.packed.PackedBackend`) and the naive oracle
it is tested against (``tests/oracles/distance.py``) share this surface,
so a test runs either through the same calls and compares the integers:

* :meth:`DistanceBackend.prepare` -- derive the kernel's operands from a
  tri-state weight matrix.  Preparation is the expensive, per-weights step
  that the SOM caches keyed on its weights-version counter.
* :meth:`DistanceBackend.pairwise` -- ``(n_samples, n_neurons)`` distances
  for a whole input batch.
* :meth:`DistanceBackend.batch_one` -- ``(n_neurons,)`` distances for a
  single input.

Prepared operands are a snapshot of one weights version: training runs on
its own packed planes and, at the end of each pass, drops the cached
snapshot, so the next query prepares afresh.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np


class DistanceBackend(ABC):
    """Abstract masked-Hamming distance kernel over prepared weight operands.

    Kernels are stateless: all per-weights state lives in the prepared
    operands returned by :meth:`prepare`, so one kernel instance can serve
    any number of maps.
    """

    @abstractmethod
    def prepare(self, weights: np.ndarray) -> Any:
        """Derive this kernel's operands from a tri-state weight matrix.

        Parameters
        ----------
        weights:
            ``(n_neurons, n_bits)`` ``int8`` matrix over ``{0, 1, DONT_CARE}``.
        """

    @abstractmethod
    def pairwise(self, prepared: Any, inputs: np.ndarray) -> np.ndarray:
        """``(n_samples, n_neurons)`` ``int64`` distances for a binary batch.

        ``inputs`` is trusted to be a validated ``(n_samples, n_bits)``
        binary matrix -- validation happens once at the API boundary
        (:func:`repro.core.som.validate_binary_matrix`), not per call.
        """

    @abstractmethod
    def batch_one(self, prepared: Any, x: np.ndarray) -> np.ndarray:
        """``(n_neurons,)`` ``int64`` distances for one binary input vector."""
