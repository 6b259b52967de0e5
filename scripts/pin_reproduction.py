#!/usr/bin/env python
"""Pin the paper reproduction's training bit for bit.

Writes ``tests/golden/training.json``, which Tier-1 compares for exact
equality:

* the SHA-256 and weights version of a trained 40 x 768 bSOM, one per
  winner x neighbour rule pair, on the reduced surveillance dataset
  (scale 0.1, seed 2010) at 10 epochs;
* the same for one :class:`~repro.pipeline.OnlineLearner` run that learns
  a held-out identity, and for one :class:`~repro.hw.FpgaBsomDesign`
  training run;
* the ``bsom_scores`` of every row of the reduced Table I that
  ``benchmarks/test_table1_accuracy.py`` computes (cSOM scores stay out:
  their float BLAS sums may differ between hosts, while the bSOM's
  distances are integer popcounts of packed care/value words, exact
  everywhere).

``tests/test_golden_training.py`` recomputes everything but Table I, whose
check reuses the benchmark's module fixture.  A change that is meant to
alter a trained map regenerates the file and says so in CHANGES.md::

    python scripts/pin_reproduction.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import BinarySom, SomClassifier  # noqa: E402
from repro.core.bsom import BsomUpdateRule  # noqa: E402
from repro.datasets import make_surveillance_dataset  # noqa: E402
from repro.eval import run_table1  # noqa: E402
from repro.eval.experiments import Table1Config  # noqa: E402
from repro.hw import FpgaBsomConfig, FpgaBsomDesign  # noqa: E402
from repro.pipeline import OnlineLearner, OnlineLearnerConfig  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "training.json"

DATASET_SCALE = 0.1
DATASET_SEED = 2010
N_NEURONS = 40
EPOCHS = 10
FPGA_EPOCHS = 2
SOM_SEED = 0
ORDER_SEED = 1
RULE_PAIRS = [
    (winner, neighbour)
    for winner in ("full", "commit")
    for neighbour in ("stochastic", "full", "commit")
]
#: The identity the on-line learner has not seen before it starts.
HELD_OUT_LABEL = 8
#: The reduced Table I protocol of benchmarks/test_table1_accuracy.py.
TABLE1_CONFIG = {"iterations": [10, 40, 120], "repetitions": 3, "n_neurons": 40}


def weights_sha256(weights: np.ndarray) -> str:
    """SHA-256 of an ``int8`` tri-state weight matrix."""
    data = np.ascontiguousarray(weights, dtype=np.int8).tobytes()
    return hashlib.sha256(data).hexdigest()


def map_pin(som: BinarySom) -> dict:
    """A software map's weights digest and weights version."""
    return {
        "sha256": weights_sha256(som.weights.values),
        "weights_version": som.weights_version,
    }


def rule_pins(dataset) -> dict:
    """One trained map per winner x neighbour rule pair."""
    pins = {}
    for winner, neighbour in RULE_PAIRS:
        som = BinarySom(
            N_NEURONS,
            dataset.n_bits,
            update_rule=BsomUpdateRule(winner_rule=winner, neighbour_rule=neighbour),
            seed=SOM_SEED,
        )
        som.fit(
            dataset.train_signatures, EPOCHS, seed=ORDER_SEED, record_history=False
        )
        pins[f"{winner}/{neighbour}"] = map_pin(som)
    return pins


def online_pin(dataset) -> dict:
    """A map fitted without one identity, then taught it on-line."""
    known = dataset.train_labels != HELD_OUT_LABEL
    X, y = dataset.train_signatures[known], dataset.train_labels[known]
    classifier = SomClassifier(
        BinarySom(N_NEURONS, dataset.n_bits, seed=SOM_SEED),
        rejection_percentile=99.0,
        rejection_margin=1.1,
    ).fit(X, y, epochs=EPOCHS, seed=ORDER_SEED, record_history=False)
    learner = OnlineLearner(
        classifier, X, y, OnlineLearnerConfig(min_signatures=12, online_epochs=3)
    )
    novel = dataset.test_signatures[dataset.test_labels == HELD_OUT_LABEL]
    for signature in novel:
        learner.observe(track_id=1, signature=signature)
    if not learner.updates:
        raise RuntimeError("the on-line learner never learned the held-out identity")
    pin = map_pin(classifier.som)
    pin["updates"] = len(learner.updates)
    pin["node_labels"] = classifier.labelling.node_labels.tolist()
    return pin


def fpga_pin(dataset) -> dict:
    """The cycle-accurate design trained on the same signatures."""
    design = FpgaBsomDesign(FpgaBsomConfig(seed=SOM_SEED))
    design.initialise()
    cycles = design.train(dataset.train_signatures, FPGA_EPOCHS, seed=ORDER_SEED)
    return {
        "sha256": weights_sha256(design.export_weights().values),
        "patterns_trained": design.patterns_trained,
        "cycles": int(cycles),
    }


def training_pins(dataset) -> dict:
    """Every pin except Table I's, which the benchmark fixture supplies."""
    return {
        "dataset": {"scale": DATASET_SCALE, "seed": DATASET_SEED},
        "bsom": rule_pins(dataset),
        "online_learner": online_pin(dataset),
        "fpga": fpga_pin(dataset),
    }


def table1_pins(result) -> dict:
    """The protocol and ``bsom_scores`` of a reduced Table I result."""
    config = result.config
    return {
        "iterations": [int(i) for i in config.iterations],
        "repetitions": int(config.repetitions),
        "n_neurons": int(config.n_neurons),
        "bsom_scores": {
            str(row.iterations): list(row.bsom_scores) for row in result.rows
        },
    }


def main() -> int:
    dataset = make_surveillance_dataset(scale=DATASET_SCALE, seed=DATASET_SEED)
    golden = training_pins(dataset)
    golden["table1"] = table1_pins(run_table1(dataset, Table1Config(**TABLE1_CONFIG)))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
