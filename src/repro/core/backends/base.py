"""The pluggable distance-backend interface.

A *distance backend* computes masked Hamming distances between tri-state
neuron weights and binary inputs (equation 3 of the paper) in one of several
internal representations.  The split mirrors the paper's hardware design:
the FPGA stores each neuron as two BlockRAM bit-planes and a dedicated
Hamming unit consumes them bit-parallel, while the software reproduction
can choose between a float32 GEMM, a packed-``uint64`` popcount kernel, or
a naive comparison oracle, all producing bit-identical integers.

Every backend exposes the same three-operation surface:

* :meth:`DistanceBackend.prepare` -- derive the backend's internal operands
  from a tri-state weight matrix (GEMM operand matrices, packed bit-planes,
  or a plain reference).  Preparation is the expensive, per-weights step
  that the SOM caches keyed on its weights-version counter.
* :meth:`DistanceBackend.pairwise` -- ``(n_samples, n_neurons)`` distances
  for a whole input batch (the serving layer's hot path).
* :meth:`DistanceBackend.batch_one` -- ``(n_neurons,)`` distances for a
  single input.

Prepared operands are a snapshot of one weights version: training runs on
its own packed planes and, at the end of each pass, drops every cached
snapshot, so the next query prepares afresh.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np


class DistanceBackend(ABC):
    """Abstract masked-Hamming distance kernel over prepared weight operands.

    Concrete backends are stateless: all per-weights state lives in the
    prepared-operand object returned by :meth:`prepare`, so one backend
    instance can serve any number of maps and the SOM-side cache can key
    entries on :attr:`name` alone.
    """

    #: Stable identifier used for selection and operand-cache keys.
    name: str = "abstract"

    @abstractmethod
    def prepare(self, weights: np.ndarray) -> Any:
        """Derive this backend's operands from a tri-state weight matrix.

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
