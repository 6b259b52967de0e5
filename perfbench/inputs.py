"""Seeded inputs of both workloads, built before any set-up is timed.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical frames, signature pools and arrival schedules, and
:func:`digest` hashes them so two runs can prove they saw the same inputs.
The program under test receives only these arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.serve import ServiceConfig
from repro.signatures import extract_signature
from repro.vision import ActorSpec, Frame, SceneConfig, SyntheticSurveillanceScene

FRAME_HEIGHT, FRAME_WIDTH = 240, 320
N_CAMERAS = 4
N_ACTORS = 5
#: Frames pre-rendered per camera; the camera loop replays them (with
#: ever-increasing frame indices) so memory stays bounded on long runs.
FRAMES_PER_CAMERA = 100
TRAIN_PER_ACTOR = 40
TRAIN_FRAMES_PER_SCENE = 15
MAX_TRAIN_SCENES = 20
MIN_SILHOUETTE_PIXELS = 300

N_BITS = 768
N_IDENTITIES = 9
TRAIN_PER_IDENTITY = 30
BIT_DENSITY = 0.35
BIT_FLIP = 0.06
CACHE_ENTRIES = ServiceConfig().cache_capacity
POOL = 12 * CACHE_ENTRIES


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _actors() -> list[ActorSpec]:
    """Five actors sized for a 320x240 entrance scene."""
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


def _scene(seed: int) -> SyntheticSurveillanceScene:
    config = SceneConfig(
        height=FRAME_HEIGHT, width=FRAME_WIDTH, lighting_amplitude=4.0,
        camera_jitter_pixels=0, pixel_noise_std=2.0, furniture_occluders=0,
        initial_pause_max_frames=0,
    )
    return SyntheticSurveillanceScene(actors=_actors(), config=config, seed=seed)


@dataclass
class Camera:
    """One pre-rendered camera: clean plate, frames and ground truth.

    The frames carry no annotations.  ``truth[k]`` labels frame ``k``'s
    pixels with ``identity + 1`` (0 is background); the scene's
    silhouettes are disjoint, so one map holds them all.
    """

    background: np.ndarray
    frames: list[Frame]
    truth: list[np.ndarray]


@dataclass
class CameraInputs:
    cameras: list[Camera]
    train_X: np.ndarray
    train_y: np.ndarray


@dataclass
class ServeInputs:
    """Signature pool, the model's training set and both phase schedules.

    ``rate_offsets`` are Poisson arrival times (s) from the rate phase's
    start; ``rate_keys`` and ``sat_keys`` index ``pool`` in send order.
    """

    pool: np.ndarray
    pool_identity: np.ndarray
    train_X: np.ndarray
    train_y: np.ndarray
    rate_offsets: np.ndarray
    rate_keys: np.ndarray
    sat_keys: np.ndarray
    warm_keys: np.ndarray


def camera_inputs(seed: int) -> CameraInputs:
    cameras = []
    for index in range(N_CAMERAS):
        scene = _scene(_sub_seed(seed, 1, index))
        frames, truth = [], []
        for frame in scene.frames(FRAMES_PER_CAMERA):
            labels = np.zeros(frame.image.shape[:2], dtype=np.uint8)
            for identity, mask in frame.truth_masks.items():
                labels[mask] = identity + 1
            frames.append(Frame(index=frame.index, image=frame.image))
            truth.append(labels)
        cameras.append(Camera(scene.background, frames, truth))
    # Training silhouettes come from fresh scenes, where every actor is
    # walking, until each actor has TRAIN_PER_ACTOR of them: every seed
    # trains on a balanced set of the same size.
    signatures, identities = [], []
    seen = np.zeros(N_ACTORS, dtype=np.int64)
    for scene_index in range(MAX_TRAIN_SCENES):
        if seen.min() >= TRAIN_PER_ACTOR:
            break
        for frame in _scene(_sub_seed(seed, 2, scene_index)).frames(TRAIN_FRAMES_PER_SCENE):
            for identity, mask in frame.truth_masks.items():
                if seen[identity] < TRAIN_PER_ACTOR and mask.sum() >= MIN_SILHOUETTE_PIXELS:
                    signatures.append(extract_signature(frame.image, mask).bits)
                    identities.append(identity)
                    seen[identity] += 1
    return CameraInputs(
        cameras,
        np.array(signatures, dtype=np.uint8),
        np.array(identities, dtype=np.int64),
    )


def _signatures(rng, prototypes, identities) -> np.ndarray:
    """Each identity's prototype with BIT_FLIP of its bits flipped."""
    rows = np.empty((len(identities), N_BITS), dtype=np.uint8)
    for begin in range(0, len(identities), 4096):  # bounds the float temporaries
        chunk = identities[begin : begin + 4096]
        flips = rng.random((len(chunk), N_BITS)) < BIT_FLIP
        rows[begin : begin + len(chunk)] = prototypes[chunk] ^ flips
    return rows


def _unique_pool(rng, prototypes, size):
    identities = rng.integers(0, N_IDENTITIES, size)
    pool = _signatures(rng, prototypes, identities)
    _, first = np.unique(np.packbits(pool, axis=1), axis=0, return_index=True)
    if len(first) != size:  # astronomically unlikely at 6% flips of 768 bits
        raise RuntimeError("signature pool has duplicate rows; pick another seed")
    return pool, identities


def serve_inputs(seed: int, *, rate_rps: float,
                 rate_seconds: float, sat_requests: int) -> ServeInputs:
    rng = np.random.default_rng(_sub_seed(seed, 3))
    prototypes = rng.random((N_IDENTITIES, N_BITS)) < BIT_DENSITY
    train_y = np.repeat(np.arange(N_IDENTITIES), TRAIN_PER_IDENTITY)
    train_X = _signatures(rng, prototypes, train_y)
    pool, identity = _unique_pool(rng, prototypes, POOL)
    n_rate = int(rate_rps * rate_seconds * 1.2) + 100
    offsets = np.cumsum(rng.exponential(1.0 / rate_rps, n_rate))
    offsets = offsets[offsets < rate_seconds]
    keys = rng.integers(0, len(pool), len(offsets) + sat_requests)
    return ServeInputs(
        pool=pool,
        pool_identity=identity,
        train_X=train_X,
        train_y=train_y,
        rate_offsets=offsets,
        rate_keys=keys[: len(offsets)],
        sat_keys=keys[len(offsets):],
        # Warm-up replays the head of the same key distribution.
        warm_keys=keys[: min(len(keys), CACHE_ENTRIES)],
    )


def digest(inputs) -> str:
    """SHA-256 over every array of the inputs, in a fixed order."""
    sha = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            sha.update(str((value.dtype.str, value.shape)).encode())
            sha.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        elif hasattr(value, "__dataclass_fields__"):
            for name in value.__dataclass_fields__:
                feed(getattr(value, name))

    feed(inputs)
    return sha.hexdigest()
