"""repro -- Binary object recognition with a tri-state binary SOM (bSOM).

A from-scratch Python reproduction of *"Binary Object Recognition System on
FPGA with bSOM"* (Appiah, Hunter, Dickinson, Meng -- SOCC 2010), grown into
a streaming multi-camera serving system.

The library is organised in layers that mirror the paper's figure 1:

* :mod:`repro.vision` -- the CPU-side substrate: synthetic surveillance
  video, background differencing, connected-components labelling and a
  frame-to-frame object tracker,
* :mod:`repro.signatures` -- 768-bin colour histograms and their
  mean-threshold binarisation into 768-bit binary signatures,
* :mod:`repro.core` -- the tri-state binary SOM (bSOM), the Kohonen SOM
  baseline (cSOM), node labelling, classification, novelty detection and
  the :class:`~repro.core.snapshot.ModelSnapshot` persistence/serving
  currency,
* :mod:`repro.hw` -- a cycle-accurate behavioural model of the paper's FPGA
  architecture (Virtex-4 XC4VLX160) with a resource and throughput model,
* :mod:`repro.datasets` -- paper-scale dataset construction (nine
  identities, ~2,248 training / ~1,139 test signatures),
* :mod:`repro.eval` -- metrics, the Wilcoxon rank-sum analysis of Table II
  and runnable reproductions of every table and figure,
* :mod:`repro.pipeline` -- the end-to-end identification system and the
  on-line learning extension sketched in the paper's conclusion,
* :mod:`repro.serve` -- the streaming inference service: micro-batching,
  sharded model registry with zero-drop hot-reload, signature cache,
  cross-request dedup, backpressure and telemetry, and
* :mod:`repro.api` -- the documented model-lifecycle facade
  (``train`` / ``save`` / ``load`` / ``serve`` / ``swap``).

Quick start (the lifecycle facade)
----------------------------------
>>> from repro import api
>>> from repro.datasets import make_surveillance_dataset
>>> data = make_surveillance_dataset(scale=0.1, seed=0)
>>> clf = api.train(data.train_signatures, data.train_labels, epochs=10, seed=0)
>>> path = api.save(clf, "/tmp/hall.npz")                   # doctest: +SKIP
>>> service = api.serve({"hall": api.load(path)})           # doctest: +SKIP
>>> api.swap(service, "hall", api.snapshot(clf))            # doctest: +SKIP

The convenience names ``train``/``snapshot``/``save``/``load``/``swap`` and
:class:`ModelSnapshot` are re-exported here lazily; ``api.serve`` stays
under :mod:`repro.api` because ``repro.serve`` names the serving package.
"""

from repro.errors import (
    ConfigurationError,
    DataError,
    DeviceCapacityError,
    DimensionMismatchError,
    HardwareModelError,
    ModelEvictedError,
    NotFittedError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    TrackingError,
    UnknownModelError,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "DataError",
    "DimensionMismatchError",
    "NotFittedError",
    "HardwareModelError",
    "DeviceCapacityError",
    "TrackingError",
    "ServiceError",
    "ServiceOverloadedError",
    "UnknownModelError",
    "ModelEvictedError",
    # Lifecycle facade (lazily re-exported; `serve` lives at repro.api.serve).
    "api",
    "ModelSnapshot",
    "train",
    "snapshot",
    "save",
    "load",
    "swap",
]

# Lazy facade re-exports (PEP 562): keep `import repro` light while making
# `repro.train(...)` / `repro.ModelSnapshot` work without a second import.
_LAZY_EXPORTS = {
    "api": ("repro.api", None),
    "ModelSnapshot": ("repro.core.snapshot", "ModelSnapshot"),
    "train": ("repro.api", "train"),
    "snapshot": ("repro.api", "snapshot"),
    "save": ("repro.api", "save"),
    "load": ("repro.api", "load"),
    "swap": ("repro.api", "swap"),
}


def __getattr__(name):
    import importlib

    if name in _LAZY_EXPORTS:
        module_name, attribute = _LAZY_EXPORTS[name]
        module = importlib.import_module(module_name)
        value = module if attribute is None else getattr(module, attribute)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(globals()))
