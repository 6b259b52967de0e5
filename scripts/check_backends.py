#!/usr/bin/env python
"""CI gate: distance-kernel and training parity smoke.

Run by ``scripts/ci_check.sh`` after the test suite.

* Kernel: randomized tri-state weights x binary inputs across a few shapes
  (including an all-``#`` neuron and a non-word-aligned bit width); the
  packed kernel, on native and lookup-table popcount, must agree
  bit-exactly with the naive oracle in ``tests/oracles/distance.py``.  Its
  speed is the benchmark's ``core.kernel_us_per_row`` per-layer metric
  (``scripts/bench_pairs.py``).
* Training: where ``cc`` is on ``PATH`` the compiled training pass
  (``repro.core.native``) must have built and loaded -- a broken build
  would otherwise only show as a slower set-up -- and on a few shapes it
  and the NumPy pass must train the map of the int8 oracle in
  ``tests/oracles/bsom.py``: weights, weights version, winners and the
  random stream's end state.  One shape starts all ``#`` at
  ``neighbour_strength=1.0``, where every draw the compiled pass takes
  selects its bit.

Exit code 0 on success, 1 on any failure.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from oracles import bsom as bsom_oracle  # noqa: E402
from oracles.distance import NaiveBackend  # noqa: E402
from repro.core import native  # noqa: E402
from repro.core.backends import PackedBackend  # noqa: E402
from repro.core.bsom import BinarySom, BsomUpdateRule  # noqa: E402
from repro.core.topology import Grid2DTopology, RingTopology  # noqa: E402
from repro.core.tristate import DONT_CARE  # noqa: E402


def parity_smoke() -> None:
    rng = np.random.default_rng(1234)
    oracle = NaiveBackend()
    kernels = {
        "packed": PackedBackend(),
        "packed (lookup-table popcount)": PackedBackend(use_native_popcount=False),
    }
    for n_neurons, n_samples, n_bits in ((40, 64, 768), (17, 33, 100), (8, 200, 64)):
        weights = rng.integers(0, 3, size=(n_neurons, n_bits), dtype=np.int8)
        weights[0] = DONT_CARE  # the paper's all-# edge case
        inputs = rng.integers(0, 2, size=(n_samples, n_bits), dtype=np.int8)
        expected = oracle.pairwise(oracle.prepare(weights), inputs)
        assert not expected[:, 0].any(), "all-# neuron must be distance 0"
        for name, kernel in kernels.items():
            prepared = kernel.prepare(weights)
            got = kernel.pairwise(prepared, inputs)
            if not np.array_equal(got, expected):
                raise SystemExit(
                    f"parity FAILED: {name} kernel disagrees with the "
                    f"naive oracle on {n_neurons}x{n_bits}, batch {n_samples}"
                )
            got_one = kernel.batch_one(prepared, inputs[0])
            if not np.array_equal(got_one, expected[0]):
                raise SystemExit(
                    f"parity FAILED: {name} kernel batch_one disagrees "
                    f"on {n_neurons}x{n_bits}"
                )
    print("kernel parity smoke: OK")


def _trained_as_oracle(som: BinarySom, X: np.ndarray) -> bool:
    """Whether a fit and a ``partial_fit`` block on ``som`` match the oracle."""
    reference = copy.deepcopy(som)
    som.fit(X, 3, seed=5, record_history=False)
    bsom_oracle.fit(reference, X, 3, seed=5)
    winners = som.partial_fit(X, 0, 2)
    expected = [bsom_oracle.train_one(reference, x, 0, 2) for x in X]
    return (
        np.array_equal(winners, expected)
        and np.array_equal(som.weights.values, reference.weights.values)
        and som.weights_version == reference.weights_version
        and som._update_rng.bit_generator.state
        == reference._update_rng.bit_generator.state
    )


def training_parity_smoke() -> None:
    compiled = native.training_pass()
    if compiled is None and shutil.which("cc") is not None:
        raise SystemExit(
            "training parity FAILED: cc is on PATH but the compiled training "
            "pass did not build or load (repro.core.native)"
        )
    passes = {"numpy": None} if compiled is None else {"compiled": compiled, "numpy": None}
    rng = np.random.default_rng(4321)
    shapes = (
        (40, 768, None, BsomUpdateRule(), 0.2),
        (12, 100, RingTopology(12), BsomUpdateRule("commit", "stochastic", 0.3), 0.2),
        (12, 130, Grid2DTopology(3, 4), BsomUpdateRule("full", "commit"), 0.2),
        (9, 64, None, BsomUpdateRule("commit", "full"), 0.2),
        (12, 200, None, BsomUpdateRule(neighbour_strength=1.0), 1.0),
    )
    for n_neurons, n_bits, topology, rule, dont_care in shapes:
        X = rng.integers(0, 2, size=(30, n_bits), dtype=np.int8)
        for name, handle in passes.items():
            native._training_pass = handle
            som = BinarySom(
                n_neurons,
                n_bits,
                topology=topology,
                update_rule=rule,
                dont_care_probability=dont_care,
                seed=n_bits,
            )
            if not _trained_as_oracle(som, X):
                raise SystemExit(
                    f"training parity FAILED: the {name} pass disagrees with the "
                    f"int8 oracle on {n_neurons}x{n_bits} ({rule})"
                )
    native._training_pass = compiled
    print(f"training parity smoke: OK ({' and '.join(passes)} pass)")


if __name__ == "__main__":
    parity_smoke()
    training_parity_smoke()
