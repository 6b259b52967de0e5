"""Vision front-end throughput: vectorized pipeline vs the seed oracle path.

End-to-end ``RecognitionSystem.process_frame`` frames/sec on a 320x240
synthetic entrance scene with five actors, comparing the vectorized
front-end (run-based CCL, separable morphology, single-pass blob
extraction, float32 in-place background, batched histograms) against the
seed implementation, assembled from the oracles in
``tests/oracles/vision.py`` as ``SeedRecognitionSystem`` (per-pixel
two-pass CCL, full-kernel morphology, per-label full-frame blob rescans,
uint8-round-trip background differencing, per-blob histograms).  Before
timing, the first frames are segmented through *both* systems and the
resulting blobs asserted bit-exact (mask, bounding box, centroid, area), so
the speedup is measured between interchangeable implementations.

Results go to ``BENCH_vision.json`` at the repository root.  That file is
committed: ``scripts/ci_check.sh`` uses its recorded vectorized frames/sec
as the baseline for the frame-rate regression guard
(``scripts/check_vision.py``, fail at >2x slower).  To keep that baseline
an actual *baseline*, a plain test run only writes the file when it is
missing; regenerate it deliberately (after front-end changes) with::

    REPRO_WRITE_BENCH=1 python -m pytest benchmarks/test_vision_throughput.py

Thread counts are pinned to 1 by ``benchmarks/conftest.py`` so the numbers
are host-core-count independent.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import BinarySom, SomClassifier
from repro.pipeline import RecognitionSystem, RecognitionSystemConfig
from repro.signatures import extract_signature
from repro.vision import (
    ActorSpec,
    BackgroundSubtractor,
    SceneConfig,
    SyntheticSurveillanceScene,
)

from oracles.vision import SeedRecognitionSystem

#: The paper-scale camera resolution the acceptance criterion names.
SCENE_HEIGHT, SCENE_WIDTH = 240, 320

TRAIN_SCENE_SEED = 11
LIVE_SCENE_SEED = 23
SOM_SEED = 0
TRAIN_SEED = 1
TRAIN_FRAMES = 40
MIN_BLOB_AREA = 300
MIN_TRAIN_MASK_PIXELS = 300

#: Frames timed per measurement (both paths process the same prefix of the
#: same pre-rendered sequence; the oracle gets a shorter prefix because it
#: is orders of magnitude slower).
VECTORIZED_FRAMES = 10
ORACLE_FRAMES = 5
PARITY_FRAMES = 5
TIMED_REPEATS = 5
ORACLE_REPEATS = 2

#: Acceptance floor: the vectorized front-end must deliver at least this
#: many times the seed implementation's frames/sec.  The measured ratio is
#: ~11.6x (BENCH_vision.json), but the vectorized side's timed run is only
#: a few tens of milliseconds, so scheduler noise has been seen to squeeze
#: the best-of ratio below 10x on a busy host; the floor leaves headroom
#: for that while still catching any real regression (check_vision.py's
#: 2x wall-clock guard against the committed baseline is the tight bound).
SPEEDUP_FLOOR = 8.0

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_vision.json"


def bench_actors() -> list[ActorSpec]:
    """Five actors sized for the 320x240 scene (the paper's busy entrance)."""
    return [
        ActorSpec(0, torso_colour=(210, 40, 40), legs_colour=(40, 40, 60),
                  height=60, width=26, speed=2.0, entry_row=60, colour_jitter=3.0),
        ActorSpec(1, torso_colour=(40, 70, 210), legs_colour=(90, 90, 100),
                  height=64, width=28, speed=-2.4, entry_row=90, colour_jitter=3.0),
        ActorSpec(2, torso_colour=(60, 180, 70), legs_colour=(40, 40, 45),
                  height=62, width=27, speed=2.8, entry_row=130, colour_jitter=3.0),
        ActorSpec(3, torso_colour=(230, 200, 60), legs_colour=(60, 50, 40),
                  height=58, width=25, speed=-2.0, entry_row=40, colour_jitter=3.0),
        ActorSpec(4, torso_colour=(150, 60, 170), legs_colour=(30, 30, 50),
                  height=66, width=28, speed=2.4, entry_row=170, colour_jitter=3.0),
    ]


def bench_scene(seed: int) -> SyntheticSurveillanceScene:
    """A deterministic 320x240 scene (no jitter/occluders: stable blobs)."""
    config = SceneConfig(
        height=SCENE_HEIGHT, width=SCENE_WIDTH, lighting_amplitude=4.0,
        camera_jitter_pixels=0, pixel_noise_std=2.0, furniture_occluders=0,
        initial_pause_max_frames=0,
    )
    return SyntheticSurveillanceScene(actors=bench_actors(), config=config, seed=seed)


def train_bench_classifier() -> SomClassifier:
    """Fit a small bSOM on ground-truth silhouette signatures."""
    scene = bench_scene(TRAIN_SCENE_SEED)
    signatures, labels = [], []
    for frame in scene.frames(TRAIN_FRAMES):
        for identity, mask in frame.truth_masks.items():
            if mask.sum() < MIN_TRAIN_MASK_PIXELS:
                continue
            signatures.append(extract_signature(frame.image, mask).bits)
            labels.append(identity)
    X = np.array(signatures, dtype=np.uint8)
    y = np.array(labels, dtype=np.int64)
    return SomClassifier(BinarySom(16, 768, seed=SOM_SEED)).fit(
        X, y, epochs=6, seed=TRAIN_SEED
    )


def build_system(
    classifier: SomClassifier, system_class: type = RecognitionSystem
) -> RecognitionSystem:
    """A fresh recognition system primed with the live scene's clean plate.

    ``system_class`` is :class:`RecognitionSystem` or the seed
    :class:`SeedRecognitionSystem`.
    """
    system = system_class(
        classifier, RecognitionSystemConfig(min_blob_area=MIN_BLOB_AREA)
    )
    system.initialise_background(bench_scene(LIVE_SCENE_SEED).background)
    return system


def live_frames(n_frames: int):
    """Pre-rendered live frames so rendering never pollutes the timings."""
    return list(bench_scene(LIVE_SCENE_SEED).frames(n_frames))


def time_pipeline(
    classifier, frames, system_class: type = RecognitionSystem,
    repeats: int = TIMED_REPEATS,
):
    """Best-of-``repeats`` frames/sec plus the last run's metrics snapshot.

    Each repeat processes the sequence through a fresh system (background
    model and tracker state evolve frame to frame, so reusing one system
    would change the work measured).
    """
    best = float("inf")
    snapshot = None
    for _ in range(repeats):
        system = build_system(classifier, system_class)
        start = time.perf_counter()
        for frame in frames:
            system.process_frame(frame)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        snapshot = system.metrics.snapshot()
    return len(frames) / best, snapshot


def assert_segmentation_parity(classifier, frames) -> int:
    """Both systems must produce bit-identical blobs; returns blobs compared.

    The float background differencing intentionally changes which
    near-threshold pixels segment as foreground, so the seed system is
    given the production subtractor here: the bit-exactness claim is for
    the morphology/CCL/blob stages on identical foreground masks.  (The
    timing runs below keep the seed subtractor in the seed system.)
    """
    fast = build_system(classifier)
    oracle = build_system(classifier, SeedRecognitionSystem)
    oracle.subtractor = BackgroundSubtractor(
        threshold=oracle.config.difference_threshold
    )
    oracle.subtractor.initialise(bench_scene(LIVE_SCENE_SEED).background)
    compared = 0
    for frame in frames:
        fast_blobs = fast.segment(frame.image)
        oracle_blobs = oracle.segment(frame.image)
        assert len(fast_blobs) == len(oracle_blobs)
        for a, b in zip(fast_blobs, oracle_blobs):
            assert a.label == b.label
            assert a.area == b.area
            assert a.bounding_box == b.bounding_box
            assert a.centroid == b.centroid
            assert np.array_equal(a.mask, b.mask)
            compared += 1
    return compared


def test_vision_throughput_and_emit_bench():
    classifier = train_bench_classifier()
    frames = live_frames(VECTORIZED_FRAMES)

    blobs_compared = assert_segmentation_parity(classifier, frames[:PARITY_FRAMES])
    assert blobs_compared > 0, "parity frames segmented no blobs; scene misconfigured"

    vectorized_fps, vectorized_snap = time_pipeline(
        classifier, frames, repeats=TIMED_REPEATS
    )
    oracle_fps, oracle_snap = time_pipeline(
        classifier, frames[:ORACLE_FRAMES], SeedRecognitionSystem,
        repeats=ORACLE_REPEATS,
    )
    speedup = vectorized_fps / oracle_fps

    def stage_table(snapshot):
        return {
            name: round(stats.mean_ms, 4)
            for name, stats in snapshot.stages.items()
        }

    report = {
        "meta": {
            "scene": f"{SCENE_WIDTH}x{SCENE_HEIGHT}",
            "actors": len(bench_actors()),
            "min_blob_area": MIN_BLOB_AREA,
            "vectorized_frames": VECTORIZED_FRAMES,
            "oracle_frames": ORACLE_FRAMES,
            "timed_repeats": TIMED_REPEATS,
            "parity_blobs_compared": blobs_compared,
            "numpy": np.__version__,
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        },
        "fps_vectorized": round(vectorized_fps, 2),
        "fps_seed": round(oracle_fps, 2),
        "speedup": round(speedup, 2),
        "stage_mean_ms_vectorized": stage_table(vectorized_snap),
        "stage_mean_ms_seed": stage_table(oracle_snap),
        "baseline": {
            "frames": VECTORIZED_FRAMES,
            "fps_vectorized": round(vectorized_fps, 2),
        },
    }
    if os.environ.get("REPRO_WRITE_BENCH") or not BENCH_PATH.exists():
        BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    # Acceptance: the vectorized front-end must beat the seed implementation
    # by at least SPEEDUP_FLOOR end to end.  Both sides are pure CPU work
    # timed in the same single-threaded regime, so the ratio is a property
    # of the kernels, not of the host.
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized front-end only {speedup:.1f}x over the seed pipeline "
        f"({vectorized_fps:.1f} vs {oracle_fps:.1f} fps); floor is "
        f"{SPEEDUP_FLOOR}x"
    )
