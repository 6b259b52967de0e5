"""Unit tests for the video segmentation and tracking substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, TrackingError
from repro.vision import (
    BackgroundSubtractor,
    Blob,
    ConnectedComponentLabeller,
    Frame,
    ObjectTracker,
    SceneConfig,
    SyntheticSurveillanceScene,
    TrackState,
    VideoSequence,
    binary_close,
    binary_dilate,
    binary_erode,
    binary_open,
    default_actor_palette,
    extract_blobs,
    filter_blobs_by_area,
    label_components,
)
from repro.vision.background import BackgroundModel

from oracles.vision import UnionFind


class TestFrameAndSequence:
    def test_frame_validates_shape(self):
        with pytest.raises(DataError):
            Frame(0, np.zeros((4, 4), dtype=np.uint8))

    def test_sequence_checks_resolution(self):
        seq = VideoSequence(fps=30)
        seq.append(Frame(0, np.zeros((4, 4, 3), dtype=np.uint8)))
        with pytest.raises(DataError):
            seq.append(Frame(1, np.zeros((5, 5, 3), dtype=np.uint8)))

    def test_sequence_duration(self):
        frames = [Frame(i, np.zeros((4, 4, 3), dtype=np.uint8)) for i in range(60)]
        seq = VideoSequence(frames, fps=30)
        assert seq.duration_seconds == pytest.approx(2.0)
        assert seq.resolution == (4, 4)
        assert len(seq) == 60
        assert seq[10].index == 10


class TestSyntheticScene:
    def test_default_palette_has_nine_actors(self):
        actors = default_actor_palette()
        assert len(actors) == 9
        assert len({a.identity for a in actors}) == 9

    def test_frames_have_truth_masks(self):
        scene = SyntheticSurveillanceScene(seed=0)
        frames = list(scene.frames(30))
        assert len(frames) == 30
        identities = set()
        for frame in frames:
            assert frame.image.dtype == np.uint8
            for identity, mask in frame.truth_masks.items():
                assert mask.shape == frame.image.shape[:2]
                assert mask.any()
                identities.add(identity)
        assert identities  # at least someone walked through

    def test_determinism(self):
        a = SyntheticSurveillanceScene(seed=42).render_frame(5)
        b = SyntheticSurveillanceScene(seed=42).render_frame(5)
        assert np.array_equal(a.image, b.image)

    def test_masks_do_not_overlap(self):
        """Z-ordering: two actors' ground-truth silhouettes never share pixels."""
        scene = SyntheticSurveillanceScene(seed=3)
        for frame in scene.frames(40):
            masks = list(frame.truth_masks.values())
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    assert not (masks[i] & masks[j]).any()

    def test_scene_config_validation(self):
        with pytest.raises(ConfigurationError):
            SceneConfig(height=10, width=10)
        with pytest.raises(ConfigurationError):
            SceneConfig(pixel_noise_std=-1)

    def test_requires_actors(self):
        with pytest.raises(ConfigurationError):
            SyntheticSurveillanceScene(actors=[], seed=0)

    def test_background_is_static(self):
        scene = SyntheticSurveillanceScene(seed=0)
        assert np.array_equal(scene.background, scene.background)


class TestBackground:
    def test_first_frame_initialises(self):
        subtractor = BackgroundSubtractor()
        frame = np.full((10, 10, 3), 100, dtype=np.uint8)
        assert not subtractor.apply(frame).any()

    def test_detects_new_object(self):
        subtractor = BackgroundSubtractor(threshold=20)
        background = np.full((20, 20, 3), 100, dtype=np.uint8)
        subtractor.initialise(background)
        frame = background.copy()
        frame[5:10, 5:10] = (220, 30, 30)
        mask = subtractor.apply(frame)
        assert mask[6, 6]
        assert not mask[0, 0]

    def test_adapts_to_lighting_drift(self):
        subtractor = BackgroundSubtractor(threshold=25, learning_rate=0.2)
        base = np.full((10, 10, 3), 100, dtype=np.uint8)
        subtractor.initialise(base)
        for step in range(30):
            drifted = np.clip(base.astype(int) + step, 0, 255).astype(np.uint8)
            mask = subtractor.apply(drifted)
        assert not mask.any()

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            BackgroundModel(learning_rate=0.0)
        model = BackgroundModel()
        with pytest.raises(DataError):
            _ = model.estimate
        with pytest.raises(ConfigurationError):
            BackgroundSubtractor(threshold=0)


class TestMorphology:
    def test_erode_removes_single_pixels(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        assert not binary_erode(mask, 1).any()

    def test_dilate_grows_regions(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        assert binary_dilate(mask, 1).sum() == 9

    def test_open_removes_specks_keeps_blocks(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[1, 1] = True                 # speck
        mask[5:15, 5:15] = True           # block
        opened = binary_open(mask, 1)
        assert not opened[1, 1]
        assert opened[10, 10]

    def test_close_fills_holes(self):
        mask = np.ones((11, 11), dtype=bool)
        mask[5, 5] = False
        assert binary_close(mask, 1)[5, 5]

    def test_radius_zero_is_identity(self):
        mask = np.random.default_rng(0).random((8, 8)) > 0.5
        assert np.array_equal(binary_erode(mask, 0), mask)
        assert np.array_equal(binary_dilate(mask, 0), mask)

    def test_validation(self):
        with pytest.raises(DataError):
            binary_erode(np.zeros((3, 3, 3), dtype=bool))
        with pytest.raises(ConfigurationError):
            binary_dilate(np.zeros((3, 3), dtype=bool), -1)


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(5)]
        uf.union(ids[0], ids[1])
        uf.union(ids[1], ids[2])
        assert uf.find(ids[0]) == uf.find(ids[2])
        assert uf.find(ids[3]) != uf.find(ids[0])
        assert len(uf) == 5


class TestConnectedComponents:
    def test_two_separate_blocks(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:3, 1:3] = True
        mask[6:9, 6:9] = True
        labels, count = label_components(mask)
        assert count == 2
        assert labels[1, 1] != labels[7, 7]
        assert labels[0, 0] == 0

    def test_diagonal_connectivity(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        mask[1, 1] = True
        labels8, count8 = label_components(mask, connectivity=8)
        labels4, count4 = label_components(mask, connectivity=4)
        assert count8 == 1
        assert count4 == 2

    def test_u_shape_merges_via_equivalence(self):
        """A U-shape forces the second pass to merge provisional labels."""
        mask = np.zeros((6, 7), dtype=bool)
        mask[0:5, 1] = True
        mask[0:5, 5] = True
        mask[4, 1:6] = True
        labels, count = label_components(mask)
        assert count == 1

    def test_empty_mask(self):
        labels, count = label_components(np.zeros((5, 5), dtype=bool))
        assert count == 0
        assert not labels.any()

    def test_full_mask(self):
        labels, count = label_components(np.ones((5, 5), dtype=bool))
        assert count == 1
        assert np.all(labels == 1)

    def test_labels_are_compact(self):
        rng = np.random.default_rng(0)
        mask = rng.random((20, 20)) > 0.7
        labels, count = label_components(mask)
        present = set(np.unique(labels)) - {0}
        assert present == set(range(1, count + 1))

    def test_invalid_connectivity(self):
        with pytest.raises(ConfigurationError):
            ConnectedComponentLabeller(connectivity=6)


class TestBlobs:
    def test_blob_geometry(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:5, 3:7] = True
        labels, count = label_components(mask)
        blobs = extract_blobs(labels, count)
        assert len(blobs) == 1
        blob = blobs[0]
        assert blob.area == 12
        assert blob.bounding_box == (2, 3, 5, 7)
        assert blob.height == 3 and blob.width == 4
        assert blob.centroid == (3.0, 4.5)
        assert blob.crop_mask().shape == (3, 4)

    def test_area_filter(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True
        mask[4:8, 4:8] = True
        labels, count = label_components(mask)
        blobs = extract_blobs(labels, count)
        kept = filter_blobs_by_area(blobs, min_area=4)
        assert len(blobs) == 2
        assert len(kept) == 1
        assert kept[0].area == 16

    def test_paper_filter_default(self):
        from repro.vision.blobs import PAPER_MIN_BLOB_AREA

        assert PAPER_MIN_BLOB_AREA == 768


class TestTracker:
    @staticmethod
    def _blob_at(row, col, size=4):
        mask = np.zeros((50, 50), dtype=bool)
        mask[row : row + size, col : col + size] = True
        labels, count = label_components(mask)
        return extract_blobs(labels, count)[0]

    def test_track_persists_across_frames(self):
        tracker = ObjectTracker(max_distance=10)
        first = tracker.update(0, [self._blob_at(10, 10)])
        second = tracker.update(1, [self._blob_at(12, 12)])
        assert list(first.keys()) == list(second.keys())

    def test_distant_blob_opens_new_track(self):
        tracker = ObjectTracker(max_distance=5)
        first = tracker.update(0, [self._blob_at(5, 5)])
        second = tracker.update(1, [self._blob_at(40, 40)])
        assert set(first.keys()) != set(second.keys())
        assert len(tracker.tracks) == 2

    def test_track_survives_short_occlusion(self):
        tracker = ObjectTracker(max_distance=10, max_missed_frames=3)
        original = list(tracker.update(0, [self._blob_at(20, 20)]).keys())[0]
        tracker.update(1, [])
        tracker.update(2, [])
        reacquired = list(tracker.update(3, [self._blob_at(22, 22)]).keys())[0]
        assert reacquired == original

    def test_track_closes_after_long_absence(self):
        tracker = ObjectTracker(max_missed_frames=1)
        track_id = list(tracker.update(0, [self._blob_at(20, 20)]).keys())[0]
        tracker.update(1, [])
        tracker.update(2, [])
        assert tracker.track(track_id).state == TrackState.CLOSED

    def test_two_objects_keep_separate_ids(self):
        tracker = ObjectTracker(max_distance=8)
        first = tracker.update(0, [self._blob_at(5, 5), self._blob_at(30, 30)])
        second = tracker.update(1, [self._blob_at(6, 7), self._blob_at(31, 29)])
        assert set(first.keys()) == set(second.keys())
        assert len(first) == 2

    def test_frame_indices_must_increase(self):
        tracker = ObjectTracker()
        tracker.update(3, [])
        with pytest.raises(TrackingError):
            tracker.update(3, [])

    def test_unknown_track_lookup(self):
        with pytest.raises(TrackingError):
            ObjectTracker().track(42)

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            ObjectTracker(max_distance=0)
        with pytest.raises(ConfigurationError):
            ObjectTracker(max_area_ratio=0.5)
