"""Training is pinned bit for bit: trained maps equal ``tests/golden/training.json``,
on the compiled training pass and on the NumPy pass.

The golden file is written by ``scripts/pin_reproduction.py``; a change
meant to alter a trained map regenerates it and says so in CHANGES.md.
The reduced Table I half of the file is checked in
``benchmarks/test_table1_accuracy.py``, against that module's fixture.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "pin_reproduction.py"
_spec = importlib.util.spec_from_file_location("pin_reproduction", _PATH)
pin_reproduction = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = pin_reproduction
_spec.loader.exec_module(pin_reproduction)


def test_trained_maps_match_golden(training_pass):
    golden = json.loads(pin_reproduction.GOLDEN_PATH.read_text())
    dataset = pin_reproduction.make_surveillance_dataset(
        scale=pin_reproduction.DATASET_SCALE, seed=pin_reproduction.DATASET_SEED
    )
    pins = pin_reproduction.training_pins(dataset)
    golden.pop("table1")
    assert pins == golden
