"""Parity and property tests for the vectorized vision front-end.

Every array-level stage of :mod:`repro.vision` is checked against the seed
implementation kept in ``tests/oracles/vision.py``, on randomized inputs:

* run-based CCL vs the two-pass union-find labeller (both connectivities),
* separable morphology vs the full-kernel shift oracle,
* single-pass blob extraction vs the per-label full-frame rescan,
* the batched offset-``bincount`` histogram vs per-blob ``rgb_histogram``,
* the float32 in-place background model vs the seed's float64 semantics,
  and bit for bit vs the float32 reference step,
* the end-to-end ``RecognitionSystem`` vs ``SeedRecognitionSystem``, the
  same system assembled from the oracles, on a small two-actor scene and
  on the 320x240 five-actor entrance scene.

Plus the erosion border-semantics regression (edge-touching silhouettes
survive ``binary_open``) and the per-stage pipeline telemetry.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.errors import ConfigurationError, DataError
from repro.pipeline import PIPELINE_STAGES, PipelineMetrics
from repro.signatures import (
    MeanThreshold,
    MedianThreshold,
    rgb_histogram,
    rgb_histogram_batch,
)
from repro.vision import (
    ActorSpec,
    BackgroundModel,
    BackgroundSubtractor,
    SceneConfig,
    SyntheticSurveillanceScene,
    binary_close,
    binary_dilate,
    binary_erode,
    binary_open,
    extract_blobs,
    label_components,
)

from oracles.vision import (
    SeedBackgroundModel,
    SeedBackgroundSubtractor,
    SeedRecognitionSystem,
    binary_close_oracle,
    binary_dilate_oracle,
    binary_erode_oracle,
    binary_open_oracle,
    extract_blobs_oracle,
    float32_blend_reference,
    float32_foreground_reference,
    label_components_oracle,
)


def _two_actor_scene(seed: int) -> SyntheticSurveillanceScene:
    actors = [
        ActorSpec(0, torso_colour=(220, 30, 30), legs_colour=(40, 40, 60),
                  height=40, width=18, speed=1.5, entry_row=25, colour_jitter=3.0),
        ActorSpec(1, torso_colour=(30, 60, 220), legs_colour=(90, 90, 100),
                  height=44, width=20, speed=-1.8, entry_row=30, colour_jitter=3.0),
    ]
    config = SceneConfig(
        height=96, width=128, lighting_amplitude=3.0, camera_jitter_pixels=0,
        pixel_noise_std=2.0, furniture_occluders=0, initial_pause_max_frames=0,
    )
    return SyntheticSurveillanceScene(actors=actors, config=config, seed=seed)


def _entrance_scene(seed: int) -> SyntheticSurveillanceScene:
    """The paper-scale 320x240 entrance with five actors."""
    actors = [
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
    config = SceneConfig(
        height=240, width=320, lighting_amplitude=4.0, camera_jitter_pixels=0,
        pixel_noise_std=2.0, furniture_occluders=0, initial_pause_max_frames=0,
    )
    return SyntheticSurveillanceScene(actors=actors, config=config, seed=seed)


@pytest.fixture(scope="module")
def entrance_frames():
    """The clean plate and 50 frames of a seeded entrance scene."""
    scene = _entrance_scene(seed=5)
    return scene.background, list(scene.frames(50))


def _random_masks(seed: int, n: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        height = int(rng.integers(1, 48))
        width = int(rng.integers(1, 48))
        yield rng.random((height, width)) < rng.random()


def _dense_mask(shape, seed: int, density: float) -> np.ndarray:
    return np.random.default_rng(seed).random(shape) < density


def _assert_blobs_match(fast, oracle) -> None:
    assert len(fast) == len(oracle)
    for a, b in zip(fast, oracle):
        assert a.label == b.label
        assert a.area == b.area
        assert a.bounding_box == b.bounding_box
        assert a.centroid == b.centroid
        assert a.frame_shape == b.frame_shape
        assert np.array_equal(a.crop_mask(), b.crop_mask())
        assert np.array_equal(a.mask, b.mask)


_mask_shapes = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)
#: Hypothesis picks pixels itself (sparse, shrinkable masks) or draws a
#: dense random mask from a seed and a density.
masks = st.one_of(
    arrays(np.bool_, _mask_shapes),
    st.builds(_dense_mask, _mask_shapes, st.integers(0, 2**32 - 1), st.floats(0, 1)),
)


class TestConnectedComponentsParity:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @settings(max_examples=60, deadline=None)
    @given(mask=masks)
    @example(mask=np.zeros((40, 40), dtype=bool))
    @example(mask=np.ones((40, 40), dtype=bool))
    @example(mask=np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool))
    @example(mask=np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool).T)
    @example(mask=np.eye(40, dtype=bool) | np.eye(40, dtype=bool)[::-1])
    def test_random_masks_match_oracle(self, connectivity, mask):
        fast, n_fast = label_components(mask, connectivity)
        oracle, n_oracle = label_components_oracle(mask, connectivity)
        # Bit-exact, not merely equal up to renumbering: both paths number
        # components by first-pixel raster order.
        assert n_fast == n_oracle
        assert fast.dtype == oracle.dtype
        assert np.array_equal(fast, oracle)
        _assert_blobs_match(
            extract_blobs(fast, n_fast), extract_blobs_oracle(fast, n_fast)
        )

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_spiral_equivalence_chains(self, connectivity):
        """A spiral maximises label-equivalence chain depth."""
        mask = np.zeros((41, 41), dtype=bool)
        top, left, bottom, right = 0, 0, 40, 40
        while top <= bottom and left <= right:
            mask[top, left : right + 1] = True
            mask[top : bottom + 1, right] = True
            top += 2
            right -= 2
        fast, n_fast = label_components(mask, connectivity)
        oracle, n_oracle = label_components_oracle(mask, connectivity)
        assert n_fast == n_oracle
        assert np.array_equal(fast, oracle)

    def test_single_row_and_column(self):
        row = np.array([[1, 1, 0, 1, 0, 1, 1, 1]], dtype=bool)
        for shaped in (row, row.T):
            for connectivity in (4, 8):
                fast, n = label_components(shaped, connectivity)
                oracle, m = label_components_oracle(shaped, connectivity)
                assert n == m == 3
                assert np.array_equal(fast, oracle)

    def test_vectorized_labels_are_compact_int(self):
        rng = np.random.default_rng(7)
        mask = rng.random((30, 30)) > 0.6
        labels, count = label_components(mask)
        present = set(np.unique(labels).tolist()) - {0}
        assert present == set(range(1, count + 1))
        assert np.issubdtype(labels.dtype, np.integer)


class TestMorphologyParity:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_separable_matches_full_kernel(self, radius):
        pairs = (
            (binary_erode, binary_erode_oracle),
            (binary_dilate, binary_dilate_oracle),
            (binary_open, binary_open_oracle),
            (binary_close, binary_close_oracle),
        )
        for mask in _random_masks(seed=100 + radius, n=40):
            for fast, oracle in pairs:
                assert np.array_equal(fast(mask, radius), oracle(mask, radius))

    def test_out_buffer_reuse(self):
        rng = np.random.default_rng(3)
        mask = rng.random((20, 25)) > 0.5
        out = np.empty_like(mask)
        result = binary_dilate(mask, 1, out=out)
        assert result is out
        assert np.array_equal(out, binary_dilate_oracle(mask, 1))
        with pytest.raises(DataError):
            binary_erode(mask, 1, out=np.empty((3, 3), dtype=bool))

    def test_edge_touching_silhouette_survives_open(self):
        """Erosion border regression: out-of-frame counts as foreground.

        The seed eroded objects flush against the frame edge as if the
        world outside the image were background, so a person entering the
        scene lost an edge ring of silhouette pixels to ``binary_open``.
        """
        mask = np.zeros((24, 32), dtype=bool)
        mask[0:12, 0:9] = True  # silhouette touching the top-left corner
        opened = binary_open(mask, 1)
        assert np.array_equal(opened, mask)
        assert np.array_equal(binary_open_oracle(mask, 1), mask)
        # Same object away from the border still loses its outline ring
        # under plain erosion -- only the frame edge behaves differently.
        interior = np.zeros((24, 32), dtype=bool)
        interior[6:18, 10:19] = True
        assert binary_erode(interior, 1).sum() < interior.sum()

    def test_erosion_treats_frame_edge_as_foreground(self):
        mask = np.ones((5, 7), dtype=bool)
        assert binary_erode(mask, 1).all()
        assert binary_erode_oracle(mask, 1).all()


class TestBlobParity:
    def test_random_label_images_match_oracle(self):
        for mask in _random_masks(seed=200, n=40):
            labels, count = label_components(mask)
            _assert_blobs_match(
                extract_blobs(labels, count), extract_blobs_oracle(labels, count)
            )

    def test_labels_below_one_are_ignored_like_oracle(self):
        labels = np.array([[0, -1, -1, 0], [0, 0, 2, 2], [1, 0, 0, 0]])
        fast = extract_blobs(labels)
        _assert_blobs_match(fast, extract_blobs_oracle(labels))
        assert [blob.label for blob in fast] == [1, 2]

    def test_non_integer_label_image_is_rejected(self):
        with pytest.raises(DataError):
            extract_blobs(np.array([[0, 1.5, 1.5], [2.0, 0, 0]]))

    def test_count_caps_labels_like_oracle(self):
        labels = np.zeros((6, 6), dtype=np.int64)
        labels[0, 0] = 1
        labels[2, 2] = 2
        labels[4, 4] = 5  # above count: both paths must ignore it
        fast = extract_blobs(labels, count=2)
        oracle = extract_blobs_oracle(labels, count=2)
        assert [b.label for b in fast] == [b.label for b in oracle] == [1, 2]
        # The dropped label's pixels must not leak into the kept blobs'
        # geometry (regression: reduceat segments span start-to-next-start,
        # so filtering starts before reducing corrupted the last kept blob).
        for a, b in zip(fast, oracle):
            assert a.area == b.area
            assert a.bounding_box == b.bounding_box
            assert a.centroid == b.centroid
            assert np.array_equal(a.mask, b.mask)
        single = extract_blobs(np.array([[1, 0, 3], [0, 0, 0]]), count=1)
        assert len(single) == 1
        assert single[0].bounding_box == (0, 0, 1, 1)
        assert single[0].centroid == (0.0, 0.0)

    def test_lazy_mask_materialisation(self):
        mask = np.zeros((10, 12), dtype=bool)
        mask[2:5, 3:7] = True
        labels, count = label_components(mask)
        blob = extract_blobs(labels, count)[0]
        assert "mask" not in blob.__dict__  # not materialised yet
        full = blob.mask
        assert full.shape == (10, 12)
        assert np.array_equal(full, mask)
        assert blob.mask is full  # cached after first access


class TestBatchedHistogramParity:
    def test_full_masks_match_single_histograms(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(24, 31, 3), dtype=np.uint8)
        masks = [rng.random((24, 31)) < 0.3 for _ in range(5)]
        masks.append(np.zeros((24, 31), dtype=bool))  # empty silhouette
        for bins in (256, 64, 16):
            batch = rgb_histogram_batch(image, masks, bins)
            assert batch.shape == (len(masks), 3 * bins)
            for i, mask in enumerate(masks):
                assert np.array_equal(batch[i], rgb_histogram(image, mask, bins))

    def test_cropped_regions_match_full_masks(self):
        rng = np.random.default_rng(6)
        image = rng.integers(0, 256, size=(32, 40, 3), dtype=np.uint8)
        mask = rng.random((32, 40)) < 0.4
        labels, count = label_components(mask)
        blobs = extract_blobs(labels, count)
        regions = [(blob.bounding_box, blob.crop_mask()) for blob in blobs]
        batch = rgb_histogram_batch(image, regions)
        for i, blob in enumerate(blobs):
            assert np.array_equal(batch[i], rgb_histogram(image, blob.mask))

    def test_empty_batch_and_validation(self):
        image = np.zeros((8, 8, 3), dtype=np.uint8)
        assert rgb_histogram_batch(image, []).shape == (0, 768)
        with pytest.raises(DataError):
            rgb_histogram_batch(image, [np.zeros((4, 4), dtype=bool)])
        with pytest.raises(DataError):
            rgb_histogram_batch(
                image, [((0, 0, 4, 4), np.zeros((3, 3), dtype=bool))]
            )

    def test_binarize_batch_matches_per_row(self):
        rng = np.random.default_rng(8)
        histograms = rng.integers(0, 50, size=(6, 96)).astype(np.int64)
        for strategy in (MeanThreshold(), MedianThreshold()):
            batch = strategy.binarize_batch(histograms)
            for i in range(histograms.shape[0]):
                assert np.array_equal(batch[i], strategy.binarize(histograms[i]))


class TestBackgroundFloatPath:
    def test_estimate_float_view_is_read_only(self):
        model = BackgroundModel()
        with pytest.raises(DataError):
            _ = model.estimate_float
        model.initialise(np.full((6, 6, 3), 10, dtype=np.uint8))
        view = model.estimate_float
        assert view.dtype == np.float32
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0
        assert model.estimate.dtype == np.uint8

    def test_vectorized_update_tracks_seed_semantics(self):
        rng = np.random.default_rng(9)
        fast = BackgroundModel(learning_rate=0.1)
        seed = SeedBackgroundModel(learning_rate=0.1)
        plate = rng.integers(0, 256, size=(12, 14, 3), dtype=np.uint8)
        fast.initialise(plate)
        seed.initialise(plate)
        for _ in range(25):
            frame = rng.integers(0, 256, size=(12, 14, 3), dtype=np.uint8)
            foreground = rng.random((12, 14)) < 0.2
            fast.update(frame, foreground)
            seed.update(frame, foreground)
        np.testing.assert_allclose(
            fast.estimate_float, seed.estimate_float, rtol=0, atol=0.05
        )

    def test_apply_matches_float32_reference_bit_for_bit(self, entrance_frames):
        plate, frames = entrance_frames
        subtractor = BackgroundSubtractor(threshold=28.0, learning_rate=0.02)
        subtractor.initialise(plate)
        estimate = plate.astype(np.float32)
        for frame in frames:
            foreground = float32_foreground_reference(estimate, frame.image, 28.0)
            estimate = float32_blend_reference(estimate, frame.image, 0.02, foreground)
            assert np.array_equal(subtractor.apply(frame.image), foreground)
            assert np.array_equal(subtractor.model.estimate_float, estimate)

    @pytest.mark.parametrize("selective", [True, False])
    def test_update_matches_float32_reference_bit_for_bit(
        self, entrance_frames, selective
    ):
        plate, frames = entrance_frames
        model = BackgroundModel(learning_rate=0.1, selective=selective)
        model.initialise(plate)
        estimate = plate.astype(np.float32)
        for frame in frames:
            foreground = np.zeros(plate.shape[:2], dtype=bool)
            for mask in frame.truth_masks.values():
                foreground |= mask
            model.update(frame.image, foreground)
            kept = foreground if selective else np.zeros_like(foreground)
            estimate = float32_blend_reference(estimate, frame.image, 0.1, kept)
            assert np.array_equal(model.estimate_float, estimate)

    def test_subtractor_paths_agree_on_clear_scenes(self):
        """Far from the threshold boundary, both paths segment identically."""
        background = np.full((20, 24, 3), 90, dtype=np.uint8)
        frame = background.copy()
        frame[4:12, 6:14] = (220, 40, 40)
        for subtractor in (
            BackgroundSubtractor(threshold=25),
            SeedBackgroundSubtractor(threshold=25),
        ):
            subtractor.initialise(background)
            mask = subtractor.apply(frame)
            expected = np.zeros((20, 24), dtype=bool)
            expected[4:12, 6:14] = True
            assert np.array_equal(mask, expected)


class TestPipelineParityAndTelemetry:
    @pytest.fixture(
        scope="class",
        params=[
            pytest.param((_two_actor_scene, 120), id="128x96-two-actors"),
            pytest.param((_entrance_scene, 300), id="320x240-five-actors"),
        ],
    )
    def pipeline_setup(self, request):
        """Classifier trained on one scene, the live scene, min blob area."""
        from repro.core import BinarySom, SomClassifier
        from repro.signatures import extract_signature

        make_scene, min_area = request.param
        signatures, labels = [], []
        for frame in make_scene(1).frames(50):
            for identity, mask in frame.truth_masks.items():
                if mask.sum() < min_area:
                    continue
                signatures.append(extract_signature(frame.image, mask).bits)
                labels.append(identity)
        classifier = SomClassifier(BinarySom(12, 768, seed=0)).fit(
            np.array(signatures, dtype=np.uint8),
            np.array(labels, dtype=np.int64),
            epochs=6,
            seed=1,
        )
        return classifier, make_scene(2), min_area

    def test_vectorized_system_matches_oracle_system(self, pipeline_setup):
        from repro.pipeline import RecognitionSystem, RecognitionSystemConfig

        classifier, live, min_area = pipeline_setup
        frames = list(live.frames(12))
        observations = []
        for system_class in (RecognitionSystem, SeedRecognitionSystem):
            system = system_class(
                classifier, RecognitionSystemConfig(min_blob_area=min_area)
            )
            # The float background differencing intentionally changes
            # threshold quantisation (vs the seed's uint8 round trip), so
            # pin both systems to the same subtractor semantics: this test
            # asserts the morphology/CCL/blob/signature stages are
            # bit-exact given identical foreground masks.
            system.subtractor = BackgroundSubtractor(
                threshold=system.config.difference_threshold
            )
            system.initialise_background(live.background)
            observations.append(system.process_sequence(frames))
        fast, oracle = observations
        assert len(fast) > 0
        assert len(fast) == len(oracle)
        for a, b in zip(fast, oracle):
            assert a.frame_index == b.frame_index
            assert a.track_id == b.track_id
            assert a.label == b.label
            _assert_blobs_match([a.blob], [b.blob])
            assert np.array_equal(a.signature.bits, b.signature.bits)

    def test_per_stage_telemetry_recorded(self, pipeline_setup):
        from repro.pipeline import RecognitionSystem, RecognitionSystemConfig

        classifier, live, min_area = pipeline_setup
        system = RecognitionSystem(
            classifier, RecognitionSystemConfig(min_blob_area=min_area)
        )
        system.initialise_background(live.background)
        frames = list(live.frames(6))
        system.process_sequence(frames)
        snapshot = system.metrics.snapshot()
        assert snapshot.frames_total == len(frames)
        assert snapshot.mean_frame_ms > 0
        assert snapshot.frames_per_second > 0
        for stage in ("background", "morphology", "label", "blobs", "track"):
            assert snapshot.stages[stage].calls == len(frames)
            assert snapshot.stages[stage].total_ms >= 0
        # Stage ordering in the snapshot follows the pipeline order.
        listed = [s for s in snapshot.stages if s in PIPELINE_STAGES]
        assert listed == [s for s in PIPELINE_STAGES if s in snapshot.stages]


class TestPipelineMetricsUnit:
    def test_accumulation_and_reset(self):
        metrics = PipelineMetrics()
        metrics.record_stage("label", 0.002)
        metrics.record_stage("label", 0.004)
        metrics.record_frame(0.01)
        snapshot = metrics.snapshot()
        assert snapshot.stages["label"].calls == 2
        assert snapshot.stages["label"].mean_ms == pytest.approx(3.0)
        assert snapshot.stages["label"].last_ms == pytest.approx(4.0)
        assert snapshot.frames_total == 1
        assert snapshot.frames_per_second == pytest.approx(100.0)
        metrics.reset()
        empty = metrics.snapshot()
        assert empty.frames_total == 0
        assert empty.stages == {}
        assert empty.frames_per_second == 0.0

    def test_negative_durations_rejected(self):
        metrics = PipelineMetrics()
        with pytest.raises(ConfigurationError):
            metrics.record_stage("label", -1.0)
        with pytest.raises(ConfigurationError):
            metrics.record_frame(-0.1)
