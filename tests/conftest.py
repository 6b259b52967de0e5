"""Shared fixtures for the test suite.

The fixtures keep the expensive artefacts (synthetic surveillance dataset,
trained classifiers) session-scoped so the suite stays fast while many test
modules can exercise realistic data.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# The reference oracles live in tests/oracles/; put this directory on the
# path so test modules import them as `oracles.<module>` under pytest's
# importlib import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core import BinarySom, KohonenSom, SomClassifier
from repro.datasets import make_signature_clusters, make_surveillance_dataset


@pytest.fixture(scope="session")
def cluster_data():
    """Small, well-separated signature clusters (fast, no video rendering)."""
    X, y = make_signature_clusters(
        n_identities=5, samples_per_identity=40, n_bits=128, core_bits=20, shared_bits=15, seed=42
    )
    return X, y


@pytest.fixture(scope="session")
def tiny_surveillance():
    """A miniature surveillance dataset built through the full front end."""
    return make_surveillance_dataset(scale=0.05, seed=123)


@pytest.fixture(scope="session")
def trained_bsom_classifier(cluster_data):
    """A bSOM classifier fitted on the cluster data."""
    X, y = cluster_data
    classifier = SomClassifier(BinarySom(16, X.shape[1], seed=1))
    return classifier.fit(X, y, epochs=8, seed=2)


@pytest.fixture(scope="session")
def trained_csom_classifier(cluster_data):
    """A cSOM classifier fitted on the cluster data."""
    X, y = cluster_data
    classifier = SomClassifier(KohonenSom(16, X.shape[1], seed=1))
    return classifier.fit(X, y, epochs=8, seed=2)


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0)
